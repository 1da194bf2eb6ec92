import warnings

import numpy as np
import pytest

from nls_lab import ground_state as gs
from nls_lab.functionals import ModelParams
from nls_lab.grid import AnalyticProfile, Grid, ResolutionWarning


@pytest.fixture(scope="session")
def params():
    return ModelParams(d=1, q=4.0, p=4.5)


@pytest.fixture(scope="session")
def sparams():
    return ModelParams(d=1, q=4.0, p=4.5, regime="scattering")


@pytest.fixture(scope="session")
def grid512():
    return Grid(d=1, n=512, L=64.0)


@pytest.fixture(scope="session")
def threshold_energy(params):
    """Bisected threshold for the physical energy triple at 2% bracket."""
    return gs.threshold_mass(params, gs.triple_energy(params), bracket_tol=0.02)


@pytest.fixture(scope="session")
def ground_datum(params, threshold_energy):
    """Deciding minimizer snapshot at the top of the threshold bracket:
    the first flow state certifying negative energy at near-threshold
    mass.  The true minimizer there is a sub-grid spike, so the deciding
    snapshot is the resolvable stand-in for a ground-state datum."""
    seed = AnalyticProfile(kind="gaussian", amplitude=1.0, width=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        res = gs.minimize_on_sphere(
            params,
            gs.triple_energy(params),
            threshold_energy.rho_hi,
            gs.FlowOptions(max_iters=4000),
            None,
            seed,
        )
    assert res.classification == "converged_negative"
    return res


@pytest.fixture(scope="session")
def rho1_075(sparams):
    """Bisected rho_1(A = 0.75) threshold (small-mass monotonicity bound)."""
    return gs.threshold_mass(sparams, gs.triple_rho1(sparams, 0.75), bracket_tol=0.02)


@pytest.fixture(scope="session")
def named(sparams):
    """All named thresholds at 0.5% bracket."""
    return gs.named_thresholds(sparams, bracket_tol=0.005)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)
