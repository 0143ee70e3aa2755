"""Building blocks: parameters, matrices, events, rates, equilibria.

The stochastic point kinetics model is fully determined by a small parameter
set (per-group decay constants and delayed fractions, fission yield,
generation time, reactivity and source functions).  From it we build

* the drift matrix of the mean dynamics,
* the state-dependent diffusion (increment-covariance) matrix, and
* the elementary event table (capture, fission, precursor decay, source
  emission) with per-event state changes and rates.

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
    event_vectors,
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
print("\ndrift matrix at rho =", round(A.rho, 6))
print(A.matrix)
print("column sums (rho/l, 0):", A.matrix.sum(axis=0))

# The sourced equilibrium solves  A x + q e0 = 0.
x_eq = equilibrium_state(params)
print("\nsourced equilibrium:", x_eq.vector)

B = diffusion_matrix(params, x_eq, t=0.0)
print("\ndiffusion matrix at the equilibrium (zeta = %.4f):" % B.zeta)
print(B.matrix)

print("\nelementary events and rates at the equilibrium:")
rates = event_rates(params, x_eq, t=0.0)
for ev, rate in zip(event_vectors(params), rates):
    label = ev.kind if ev.group < 0 else f"{ev.kind}[group {ev.group + 1}]"
    print(f"  {label:<22} rate {rate:8.1f}/s   delta {ev.delta}")

# Consistency of the two descriptions.
deltas = delta_table(params)
mean_change = rates @ deltas
drift_plus_source = A.matrix @ x_eq.vector + np.array([200.0, 0.0])
print("\nrate-weighted event vectors:", mean_change)
print("drift + source at the state:", drift_plus_source)

second_moment = np.einsum("k,ki,kj->ij", rates, deltas, deltas)
print("max |sum_k rate_k d_k d_k^T - B|:", np.abs(second_moment - B.matrix).max())
