"""Side-by-side method comparison on the prompt-critical six-group scenario.

Runs the event Monte Carlo, the exponential (PCA) scheme, and Euler-Maruyama
at a modest sample count, next to the deterministic endpoint.  With the full
preset sample counts this is what `stokin reproduce --table 3` writes as CSV.

At these population scales (n0 = 100 against a 2e-5 s generation time) the
spread is as large as the mean, and a noticeable fraction of SDE paths
transiently undershoots zero; the solvers run with the clamp policy, which
gives the negative event rates of the noise factor zero weight instead of
aborting, and reports how often that happened.
"""

from dataclasses import replace

from stokin import deterministic_solve, load_scenario, run_ensemble
from stokin.ensemble import METHOD_LABELS

SAMPLES = 1000

scn = load_scenario("table3")
p = scn.build_parameters()
x0 = scn.build_initial(p)

rows = []
for k, method in enumerate(("mc", "pca", "em")):
    cfg = replace(scn.ensemble_config(method, 7 + k, SAMPLES), record_times=(0.0, scn.horizon))
    s = run_ensemble(p, x0, scn.grid(method), cfg)
    rows.append(
        (
            METHOD_LABELS[s.method],
            s.mean[-1, 0],
            s.std[-1, 0],
            s.mean[-1, -1],
            s.std[-1, -1],
            s.diagnostics.get("clipped_hard", "--"),  # the MC has no clip counter
        )
    )

det = deterministic_solve(p, x0, scn.grid("det"))

print(f"six groups, rho = 0.007, t = {scn.horizon} s, {SAMPLES} paths per method\n")
print(f"{'method':<16} {'E(n)':>9} {'sigma(n)':>9} {'E(sum c)':>12} {'sigma':>8} {'clips':>6}")
for name, en, sn, ec, sc, clips in rows:
    print(f"{name:<16} {en:9.2f} {sn:9.2f} {ec:12.5e} {sc:8.2f} {clips:>6}")
print(
    f"{METHOD_LABELS['det']:<16} {det.final_state[0]:9.2f} {'--':>9} "
    f"{det.final_state[1:].sum():12.5e} {'--':>8}"
)
