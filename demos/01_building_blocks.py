"""Building blocks: parameters, matrices, events, rates, equilibria.

The stochastic point kinetics model is fully determined by a small parameter
set (per-group decay constants and delayed fractions, fission yield,
generation time, reactivity and source functions).  From it we build

* the drift matrix of the mean dynamics,
* the state-dependent diffusion (increment-covariance) matrix, and
* the elementary event table (capture, fission, precursor decay, source
  emission) with per-event state changes and rates.

Each of these is a plain numpy array; the state is (n, c_1, ..., c_m).

The punchline checked at the end: the event table and the drift/diffusion
pair describe the same process.  Rate-weighted event vectors reproduce the
drift, and rate-weighted outer products reproduce the diffusion matrix.
"""

import numpy as np

from stokin import (
    ConstantReactivity,
    ConstantSource,
    KineticsParameters,
    delta_table,
    diffusion_matrix,
    drift_matrix,
    equilibrium_state,
    event_rates,
)

# One delayed group, strongly subcritical, with an external source: the
# classic single-group benchmark configuration.
params = KineticsParameters(
    decay_constants=(0.1,),
    group_fractions=(0.05,),
    nu=2.5,
    gen_time=2.0 / 3.0,
    reactivity=ConstantReactivity(-1.0 / 3.0),
    source=ConstantSource(200.0),
)
print("groups:", params.m)
print("beta_total:", params.beta_total)

A = drift_matrix(params, t=0.0)
print("\ndrift matrix at rho =", round(params.reactivity(0.0), 6))
print(A)
print("column sums (rho/l, 0):", A.sum(axis=0))

# The sourced equilibrium solves  A x + q e0 = 0.
x_eq = equilibrium_state(params)
print("\nsourced equilibrium:", x_eq)

B = diffusion_matrix(params, x_eq, t=0.0)
print("\ndiffusion matrix at the equilibrium (zeta = B[0, 0] = %.4f):" % B[0, 0])
print(B)

print("\nelementary events and rates at the equilibrium:")
rates = event_rates(params, x_eq, t=0.0)
deltas = delta_table(params)  # one row per event, in rate order
labels = ["capture", "fission", "transformation[group 1]", "source"]
for label, rate, delta in zip(labels, rates, deltas):
    print(f"  {label:<24} rate {rate:8.1f}/s   delta {delta}")

# Consistency of the two descriptions.
mean_change = rates @ deltas
drift_plus_source = A @ x_eq + np.array([200.0, 0.0])
print("\nrate-weighted event vectors:", mean_change)
print("drift + source at the state:", drift_plus_source)

second_moment = np.einsum("k,ki,kj->ij", rates, deltas, deltas)
print("max |sum_k rate_k d_k d_k^T - B|:", np.abs(second_moment - B).max())
