import numpy as np
import pytest

from positonkit import darboux as dbx
from positonkit.schrodinger import Grid, PotentialSpec

RHO = 2.0


@pytest.fixture(scope="session")
def wvn_spec():
    return PotentialSpec.wvn_example(RHO)


@pytest.fixture(scope="session")
def grid_std():
    return Grid(-20.0, 20.0, 4001)


@pytest.fixture(scope="session")
def inserted_std(wvn_spec, grid_std):
    """One-state insertion at omega=1, alpha=1 on the standard grid."""
    state = dbx.EmbeddedStateSpec.for_wvn_example(RHO, 1.0)
    return dbx.insert_embedded(wvn_spec, [state], grid_std, check_preconditions=False)


def l2_norm_with_tails(grid, values, derivs, omega=1.0):
    """L2 norm of a real oscillatory-decaying field: grid quadrature + tail fits."""
    cum, left, right, _ = dbx.tail_closed_gram(grid.x, grid.spacing, [np.real(values)],
                                               [np.real(derivs)], [omega], right=True)
    return float(np.sqrt(cum[-1, 0, 0] + left[0, 0] + right[0, 0]))


@pytest.fixture(scope="session")
def l2_with_tails():
    return l2_norm_with_tails


def oscillation_averaged_integral(x, f, period=np.pi):
    """Window integral with both endpoints averaged over one oscillation period."""
    h = x[1] - x[0]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * h * (f[:-1] + f[1:]))])
    npts = max(1, int(round(period / h)))
    vals = [cum[-1 - j2] - cum[j1] for j1 in range(npts) for j2 in range(npts)]
    return float(np.mean(vals))


@pytest.fixture(scope="session")
def averaged_integral():
    return oscillation_averaged_integral
