"""Time-dependent reactivity: a linear ramp through prompt criticality.

Reactivity grows as 0.25*t with one precursor group and a 1e-5 s generation
time.  The system crosses delayed criticality immediately and prompt
criticality (rho = beta) at t = 0.02 s, after which the neutron density grows
by tens of decades before t = 0.1 s.  The exponential scheme handles the ramp
by freezing the reactivity at each interval midpoint; without noise, a PCA
path steps the same frozen system as the deterministic solver.

The mean trajectory rises monotonically, but individual paths scatter over
orders of magnitude, so the band is best viewed on a log scale.
"""

import numpy as np

from stokin import (
    EnsembleConfig,
    deterministic_solve,
    load_scenario,
    run_ensemble,
    stochastic_pca_solve,
)

scn = load_scenario("linear-rho")
p = scn.build_parameters()
x0 = scn.build_initial(p)
record = tuple(scn.record_times())

det = deterministic_solve(p, x0, scn.grid("det"))
print("deterministic n(t):")
for k in range(0, len(det.times), 100):
    print(f"  t={det.times[k]:5.3f}  rho={0.25 * det.times[k]:7.4f}  n={det.states[k, 0]:12.5e}")
print(f"  t={det.times[-1]:5.3f}  rho={0.25 * det.times[-1]:7.4f}  n={det.final_state[0]:12.5e}")

one = stochastic_pca_solve(p, x0, scn.grid("pca"), np.random.default_rng(3))
print(f"\none PCA path reaches n(0.1) = {one.final_state[0]:.4e}")
quiet = stochastic_pca_solve(p, x0, scn.grid("pca"), np.random.default_rng(3), zero_noise=True)
print(f"the zero-noise PCA path reaches {quiet.final_state[0]:.4e} "
      f"(deterministic: {det.final_state[0]:.4e})")

cfg = EnsembleConfig(
    method="pca",
    master_seed=314,
    min_samples=400,
    max_samples=400,
    record_times=record,
    keep_sample_paths=2,
)
summary = run_ensemble(p, x0, scn.grid("pca"), cfg)
print(f"\nPCA ensemble ({summary.n_samples} paths):")
print(f"  E(n(0.1))     = {summary.mean[-1, 0]:.4e}")
print(f"  sigma(n(0.1)) = {summary.std[-1, 0]:.4e}   (spread ~ mean)")
mono = np.all(np.diff(summary.mean[summary.times >= 0.01, 0]) > 0)
print("  ensemble mean monotonically increasing past t=0.01:", bool(mono))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    t = summary.times
    mean = summary.mean[:, 0]
    lo = np.maximum(mean - summary.std[:, 0], 1e-2)
    hi = mean + summary.std[:, 0]
    fig, ax = plt.subplots(figsize=(8, 5))
    ax.fill_between(t, lo, hi, alpha=0.25, label="mean +- sigma")
    ax.semilogy(t, mean, "k-", lw=2, label="ensemble mean")
    ax.semilogy(t, np.maximum(summary.sample_paths[0][:, 0], 1e-2), alpha=0.8, label="sample 1")
    ax.semilogy(t, np.maximum(summary.sample_paths[1][:, 0], 1e-2), alpha=0.8, label="sample 2")
    ax.semilogy(det.times, det.states[:, 0], "--", label="deterministic")
    ax.set_xlabel("time (s)")
    ax.set_ylabel("neutron density")
    ax.legend()
    fig.savefig("linear_ramp_band.png", dpi=120, bbox_inches="tight")
    print("\nwrote linear_ramp_band.png")
except ImportError:
    print("\n(matplotlib not available; skipped the plot)")
