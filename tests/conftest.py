import numpy as np
import pytest

from stokin import (
    ConstantReactivity,
    ConstantSource,
    KineticsParameters,
)

SIX_GROUP_LAMBDA = (0.0127, 0.0317, 0.115, 0.311, 1.4, 3.87)
SIX_GROUP_BETA = (0.000266, 0.001491, 0.001316, 0.002849, 0.000896, 0.000182)


def one_group_params(beta1=0.05, rho=-1.0 / 3.0, q=200.0, lam=0.1, nu=2.5, l=2.0 / 3.0):
    return KineticsParameters(
        decay_constants=(lam,),
        group_fractions=(beta1,),
        nu=nu,
        gen_time=l,
        reactivity=ConstantReactivity(rho),
        source=ConstantSource(q),
    )


def six_group_params(rho, l=2e-5, q=0.0, nu=2.5):
    return KineticsParameters(
        decay_constants=SIX_GROUP_LAMBDA,
        group_fractions=SIX_GROUP_BETA,
        nu=nu,
        gen_time=l,
        reactivity=ConstantReactivity(rho),
        source=ConstantSource(q),
    )


def overflow_params():
    """One supercritical group (rho = 0.5, l = 1e-3) from a single neutron,
    as (parameters, x0): each step at dt = 0.01 multiplies the population by
    about 6 (em) or e^5 (pca), so most SDE paths overflow within 400 steps."""
    return one_group_params(beta1=0.005, rho=0.5, q=0.0, l=1e-3), np.array([1.0, 0.0])


def random_params(rng, m=None):
    """Random but physical parameter set for property sweeps."""
    m = m or int(rng.integers(1, 7))
    return KineticsParameters(
        decay_constants=tuple(rng.uniform(0.01, 4.0, m)),
        group_fractions=tuple(rng.uniform(1e-4, 0.02, m)),
        nu=float(rng.uniform(1.5, 3.5)),
        gen_time=float(rng.uniform(1e-5, 1.0)),
        reactivity=ConstantReactivity(float(rng.uniform(-0.5, 0.01))),
        source=ConstantSource(float(rng.uniform(0.0, 500.0))),
    )


def random_state(rng, m):
    return np.concatenate([[rng.uniform(0.0, 1000.0)], rng.uniform(0.0, 5e5, m)])


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
