"""Single SDE sample paths: Euler-Maruyama next to the exponential scheme.

Both solvers integrate the same Ito system; they differ in how the drift is
propagated over a step.  Euler-Maruyama adds drift*dt explicitly, while the
piecewise-constant-approximation (PCA) scheme pushes the state, the source
increment, and the noise increment through the exact matrix exponential of
the frozen drift.  For the mildly stiff one-group benchmark both work at the
same step; for the six-group scenarios the exponential scheme tolerates steps
a hundred times larger.

Also shown: the zero-noise diagnostic (the schemes collapse to their
deterministic skeletons) and seed determinism.
"""

import numpy as np

from stokin import (
    euler_maruyama_solve,
    load_scenario,
    stochastic_pca_solve,
)

scn = load_scenario("table1")
p = scn.build_parameters()
x0 = scn.build_initial(p)
grid = scn.grid("em")

em = euler_maruyama_solve(p, x0, grid, np.random.default_rng(2024))
pca = stochastic_pca_solve(p, x0, scn.grid("pca"), np.random.default_rng(2024))

print("started at the sourced equilibrium", x0)
print(f"EM  path: n(2) = {em.final_state[0]:8.3f}   c1(2) = {em.final_state[1]:8.3f}")
print(f"PCA path: n(2) = {pca.final_state[0]:8.3f}   c1(2) = {pca.final_state[1]:8.3f}")
print("negative-density steps (EM):", em.diagnostics["negative_steps"])

# identical seeds give identical paths, bit for bit
again = euler_maruyama_solve(p, x0, grid, np.random.default_rng(2024))
print("seed determinism:", np.array_equal(em.states, again.states))

# zero-noise: the stochastic steppers become deterministic integrators
em0 = euler_maruyama_solve(p, x0, grid, np.random.default_rng(1), zero_noise=True)
print("zero-noise EM stays at the equilibrium:",
      np.abs(em0.states - x0).max() < 1e-6)

# a handful of paths to see the spread build up
print("\nn(t) for five EM paths:")
times = em.times
cols = [0, len(times) // 4, len(times) // 2, 3 * len(times) // 4, len(times) - 1]
print("  t:     " + "  ".join(f"{times[c]:7.2f}" for c in cols))
for seed in range(5):
    path = euler_maruyama_solve(p, x0, grid, np.random.default_rng(seed))
    print(f"  seed {seed}: " + "  ".join(f"{path.states[c, 0]:7.2f}" for c in cols))
