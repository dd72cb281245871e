import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positonkit import wvn_example as wvn
from positonkit.errors import OutOfDomainError, PoleEvaluationError, ValidationError

RHO = 2.0


def test_tau_trivials():
    assert wvn.tau(RHO, 0.0) == 1.0
    assert np.isclose(wvn.tau(RHO, np.pi), 1.0 + 2 * np.pi, atol=1e-14)


@given(st.floats(0.1, 10.0), st.floats(-50.0, 50.0))
@settings(max_examples=60, deadline=None)
def test_tau_even_and_bounded_below(rho, x):
    assert wvn.tau(rho, x) == pytest.approx(wvn.tau(rho, -x), abs=1e-12)
    assert wvn.tau(rho, x) >= 1.0 - 1e-12


def test_seed_zero_on_right():
    assert wvn.q_seed(RHO, 1.0) == 0.0
    assert wvn.q_seed(RHO, 5.7) == 0.0


def test_seed_left_asymptotics():
    # q(x) ~ -4 sin(2x)/x far left
    for x, tol in ((-50.0, 5e-3), (-200.0, 4e-4)):
        assert abs(wvn.q_seed(RHO, x) + 4 * np.sin(2 * x) / x) < tol


def test_seed_continuous_at_zero():
    left = wvn.q_seed(RHO, -1e-8)
    assert abs(left) < 1e-6


def test_q_plus1_sym_case_matches_q_sym():
    x = np.linspace(-15, 15, 801)
    a = np.sqrt(RHO / 2.0)
    assert np.max(np.abs(wvn.q_plus1(RHO, a, x) - wvn.q_sym(RHO, x))) < 1e-14


def test_q_plus1_shared_asymptotics():
    for x in (100.0, -100.0):
        assert abs(wvn.q_plus1(RHO, 1.0, x) + 4 * np.sin(2 * x) / x) < 5e-2


def test_scattering_closed_resonance():
    t, r, lcoef = wvn.scattering_closed(RHO, 1.0)
    assert t == 0.0
    assert r == -1.0
    assert lcoef == r


def test_scattering_closed_zero_momentum():
    _, r, _ = wvn.scattering_closed(RHO, 0.0)
    assert r == -1.0


@given(st.floats(0.05, 5.0), st.floats(-4.0, 4.0).filter(lambda k: abs(k) > 1e-3))
@settings(max_examples=80, deadline=None)
def test_scattering_closed_unitary(rho, k):
    t, r, _ = wvn.scattering_closed(rho, k)
    assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) < 1e-12


def test_left_jost_pole_and_limit():
    with pytest.raises(PoleEvaluationError):
        wvn.left_jost_closed(RHO, -1.0, 1.0)
    ks = np.array([0.3, 1.7, -2.2, 0.5 + 0.2j])
    for x in (-2.5, np.linspace(-4.0, 0.0, 5)[:, None]):
        v, d = wvn.left_jost_closed(RHO, x, ks)
        for j, k in enumerate(ks):
            vk, dk = wvn.left_jost_closed(RHO, x, k)
            assert np.array_equal(v[..., j], np.reshape(vk, v[..., j].shape))
            assert np.array_equal(d[..., j], np.reshape(dk, d[..., j].shape))
    with pytest.raises(PoleEvaluationError):
        wvn.left_jost_closed(RHO, -1.0, np.array([2.0, -1.0 + 1e-10]))
    v, _ = wvn.left_jost_closed(RHO, 0.0, 2.0)
    assert abs(v - 1.0) < 1e-14
    with pytest.raises(OutOfDomainError):
        wvn.left_jost_closed(RHO, 0.5, 2.0)


def test_left_jost_resonance_imaginary_part():
    # Im psi_-(s, k) -> -phi0(s) as k -> 1
    s = -3.3
    v, _ = wvn.left_jost_closed(RHO, s, 1.0 + 1e-7)
    assert abs(np.imag(v) + wvn.phi0(RHO, s)) < 1e-5


def test_big_i_continuity_and_value():
    assert wvn.big_i_closed(RHO, -1e-12) == pytest.approx(2.0 / RHO, abs=1e-10)
    assert wvn.big_i_closed(RHO, 0.0) == pytest.approx(2.0 / RHO, abs=1e-14)


def test_big_i_increasing():
    x = np.linspace(-30, 30, 4001)
    vals = wvn.big_i_closed(RHO, x)
    assert np.all(np.diff(vals) >= -1e-15)


def test_phi_closed_branches():
    assert wvn.phi_closed(RHO, 2.0) == pytest.approx(2 * np.sin(2.0), abs=1e-14)
    s = -4.0
    assert wvn.phi_closed(RHO, s) == pytest.approx(2 * np.sin(s) / wvn.tau(RHO, s), abs=1e-14)


def test_y_zero_at_origin():
    assert wvn.y_closed(RHO, 1.0, 0.0) == 0.0


@pytest.mark.parametrize("rho,alpha", [(2.0, 1.0), (1.0, 0.5), (0.5, 2.0)])
def test_y_norm_one_by_quadrature(rho, alpha):
    # middle by derivative-corrected quadrature; the slow oscillatory tails by
    # the exact antiderivative -1/(1 + alpha^2 I) of the closed form
    from positonkit.darboux import cumulative_corrected_trapezoid
    L = 64 * np.pi
    x = np.linspace(-L, L, int(round(2 * L / 0.002)) + 1)
    y = wvn.y_closed(rho, alpha, x)
    yd = wvn.y_x_closed(rho, alpha, x)
    middle = cumulative_corrected_trapezoid(y * y, 2 * y * yd, x[1] - x[0])[-1]
    tail_r = 1.0 / (1.0 + alpha**2 * wvn.big_i_closed(rho, L))
    tail_l = 1.0 - 1.0 / (1.0 + alpha**2 * wvn.big_i_closed(rho, -L))
    assert abs(middle + tail_l + tail_r - 1.0) < 1e-8


def test_psi_plus1_closed_poles_and_decay():
    with pytest.raises(PoleEvaluationError):
        wvn.psi_plus1_closed(RHO, 1.0, 2.0, 1.0)
    with pytest.raises(OutOfDomainError):
        wvn.psi_plus1_closed(RHO, 1.0, -0.5, 2.0)
    # large imaginary momentum: psi -> e^{ikx} (1 + O(1/k))
    for kappa in (20.0, 40.0):
        k = 1j * kappa
        val = wvn.psi_plus1_closed(RHO, 1.0, 1.3, k)
        ratio = val / np.exp(1j * k * 1.3)
        assert abs(ratio - 1.0) < 4.0 / kappa


def test_soliton_initial_profile():
    x = np.linspace(-5, 5, 101)
    assert np.max(np.abs(wvn.soliton_closed(x, 0.0) + 2 / np.cosh(x) ** 2)) < 1e-14


def test_positon_singularity_location():
    x0 = wvn.positon_singularity(0.0)
    assert -2.0 <= x0 <= 0.0
    g = 1 + x0 - 0.5 * np.sin(2 * x0)
    assert abs(g) < 1e-10
    assert np.isinf(wvn.positon_closed(x0, 0.0))


@pytest.mark.parametrize("t", [0.0, 1e-3, 0.045, 0.3, 2.0, 1e6])
def test_positon_singularity_matches_brentq_oracle(t):
    # bisection against scipy's brentq (the oracle, a test-only dependency);
    # at t = 1e6 the floats near the root are 2e-9 apart, and bisection stops there
    from scipy.optimize import brentq

    f = lambda x: 1.0 + x + 12.0 * t - 0.5 * np.sin(2 * (x + 4.0 * t))
    ref = brentq(f, -12.0 * t - 4.0, -12.0 * t + 2.0, xtol=1e-13)
    assert abs(wvn.positon_singularity(t) - ref) <= 2e-13 + 2e-15 * abs(ref)


def test_positon_asymptotics():
    t = 1.0
    for x in (100.0, -100.0):
        assert abs(wvn.positon_closed(x, t) + 4 * np.sin(2 * (x + 4 * t)) / x) < 5e-2


def test_params_validation():
    for rho in (-1.0, np.nan, np.inf):
        with pytest.raises(ValidationError):
            wvn.ExampleParams(rho=rho)
    with pytest.raises(ValidationError):
        wvn.ExampleParams(rho=1.0, alpha=0.0)
    for alpha in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            wvn.ExampleParams(rho=1.0, alpha=alpha)
