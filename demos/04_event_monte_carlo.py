"""Event-by-event Monte Carlo of the birth/death/transformation process.

The fixed-step mode realizes at most one event per small time step, with the
step chosen so that the total event probability stays comfortably below one;
the exact mode samples exponential waiting times from competing clocks ("next
event" simulation).  Both modes share the same rates, so their ensemble
statistics agree.

The comparison at the end mirrors the classic presentation: two individual
realizations wander visibly around the ensemble mean of the neutron density,
whose relative spread here is a few percent.
"""

import numpy as np

from stokin import (
    EnsembleConfig,
    McConfig,
    NoiseSource,
    load_scenario,
    mc_trajectory,
    run_ensemble,
)

scn = load_scenario("table1")
p = scn.build_parameters()
x0 = scn.build_initial(p)
record = tuple(scn.record_times())

one = mc_trajectory(p, x0, scn.horizon, McConfig(), NoiseSource(1), record)
print("fixed-step path, event totals:", one.event_counts)

jump = mc_trajectory(p, x0, scn.horizon, McConfig(mode="exact"), NoiseSource(1), record)
print("exact-jump path, event totals:", jump.event_counts)

cfg = EnsembleConfig(
    method="mc",
    master_seed=42,
    min_samples=2000,
    max_samples=2000,
    record_times=record,
    mc=McConfig(),
    keep_sample_paths=2,
)
summary = run_ensemble(p, x0, scn.grid("mc"), cfg)
j = summary.component_index("n")
print(f"\nensemble of {summary.n_samples} paths:")
print(f"  E(n(2))     = {summary.mean[-1, j]:8.3f}")
print(f"  sigma(n(2)) = {summary.std[-1, j]:8.3f}")
print(f"  E(c1(2))    = {summary.mean[-1, 1]:8.3f}")

s1, s2 = summary.sample_paths[0], summary.sample_paths[1]
print("\n   t      mean      sample 1   sample 2")
for k in range(0, len(record), 4):
    print(
        f"  {record[k]:4.1f}  {summary.mean[k, j]:8.2f}   {s1[k, 0]:8.2f}   {s2[k, 0]:8.2f}"
    )

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    t = summary.times
    fig, ax = plt.subplots(figsize=(8, 5))
    ax.fill_between(
        t,
        summary.mean[:, j] - summary.std[:, j],
        summary.mean[:, j] + summary.std[:, j],
        alpha=0.25,
        label="mean +- sigma",
    )
    ax.plot(t, summary.mean[:, j], "k-", lw=2, label="ensemble mean")
    ax.plot(t, s1[:, 0], alpha=0.8, label="sample 1")
    ax.plot(t, s2[:, 0], alpha=0.8, label="sample 2")
    ax.set_xlabel("time (s)")
    ax.set_ylabel("neutron density")
    ax.legend()
    fig.savefig("event_mc_band.png", dpi=120, bbox_inches="tight")
    print("\nwrote event_mc_band.png")
except ImportError:
    print("\n(matplotlib not available; skipped the plot)")
