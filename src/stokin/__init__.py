"""Stochastic neutron point kinetics toolkit.

Builds the drift/diffusion matrices of the Ito point kinetics system, solves
it with a deterministic exponential integrator, Euler-Maruyama, and the
stochastic piecewise-constant-approximation scheme, simulates the underlying
birth/death/transformation process event by event, and aggregates seeded
ensembles with streaming statistics.
"""

from .errors import (
    EnsembleFailureError,
    MatrixOverflowError,
    NotPositiveSemidefiniteError,
    ParameterError,
    ReactivityDomainError,
    ScenarioError,
    SingularMatrixError,
    SolverError,
    StepSizeError,
    StokinError,
)
from .kinetics import (
    ConstantReactivity,
    ConstantSource,
    KineticsParameters,
    LinearReactivity,
    PiecewiseConstantReactivity,
    PiecewiseConstantSource,
    delta_table,
    diffusion_matrices,
    diffusion_matrix,
    drift_apply,
    drift_matrix,
    equilibrium_state,
    event_rates,
)
from .linalg import (
    PsdSqrtResult,
    expm,
    propagator_with_source,
    psd_sqrt,
    solve_linear,
)
from .solvers import (
    PathsResult,
    TimeGrid,
    Trajectory,
    deterministic_solve,
    euler_maruyama_solve,
    run_sde_paths,
    stochastic_pca_solve,
)
from .event_mc import (
    McConfig,
    mc_trajectory,
    run_mc_paths,
    sample_increments,
)
from .ensemble import (
    EnsembleConfig,
    EnsembleSummary,
    run_ensemble,
)
from .scenarios import PRESETS, ScenarioConfig, load_scenario, save_scenario

__version__ = "0.1.0"
