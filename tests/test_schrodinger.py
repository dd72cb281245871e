import dataclasses
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from positonkit import darboux, kdv, scattering
from positonkit import schrodinger as sch
from positonkit import wvn_example as wvn
from positonkit.errors import (
    IntegrationFailureError,
    PoleEvaluationError,
    ValidationError,
)

RHO = 2.0


def test_grid_validation():
    with pytest.raises(ValidationError):
        sch.Grid(1.0, 0.0, 10)
    with pytest.raises(ValidationError):
        sch.Grid(0.0, 1.0, 1)


def test_grid_rejects_non_finite_bounds():
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValidationError):
            sch.Grid(lo, hi, 5)


def test_potential_eval_branches(wvn_spec):
    assert wvn_spec.evaluate(1.0) == 0.0
    x = np.linspace(-10, -1, 50)
    assert np.max(np.abs(wvn_spec.evaluate(x) - wvn.q_seed(RHO, x))) == 0.0


def test_potential_asymptotic_decay(wvn_spec):
    vals = [abs(wvn_spec.evaluate(x) + 4 * np.sin(2 * x) / x) for x in (-50.0, -100.0, -200.0)]
    assert vals[0] < 5e-3 and vals[2] < vals[0]


def test_sampled_potential_out_of_domain():
    # q is the spline between the first and last sample x, and 0 outside
    xs = np.linspace(-1, 1, 51)
    spec = sch.PotentialSpec.sampled(xs, np.cos(xs))
    assert spec.evaluate(0.3) == pytest.approx(np.cos(0.3), abs=1e-6)
    assert spec.evaluate(2.0) == 0.0 and spec.scalar_fn()(-1.5) == 0.0
    assert spec.evaluate(np.array([-3.0, 1.0, 1.5])) == pytest.approx([0.0, np.cos(1.0), 0.0])
    assert spec.support() == (-1.0, 1.0) and spec.breakpoints() == [-1.0, 1.0]
    assert dataclasses.replace(spec, right_cutoff=2.0).right_cutoff == 2.0


def test_default_right_cutoff_is_the_support_end():
    # the dataclass's own constructor agrees with the classmethods
    sampled = sch.PotentialSpec(kind="sampled", sample_x=[1.0, 2.0], sample_q=[0.0, 0.0])
    assert sampled.right_cutoff == 2.0
    assert sch.PotentialSpec(kind="zero").right_cutoff == -math.inf
    assert sch.PotentialSpec.zero().right_cutoff == -math.inf
    assert sch.PotentialSpec(kind="wvn_example", rho=RHO).right_cutoff == 0.0
    assert sch.PotentialSpec.sampled([1.0, 2.0], [0.0, 0.0]).right_cutoff == 2.0


def test_wvn_potential_requires_finite_positive_rho():
    for rho in (0.0, -1.0, math.nan, math.inf, "2"):
        with pytest.raises(ValidationError):
            sch.PotentialSpec.wvn_example(rho)


KINDS = ("zero", "wvn_example", "sampled")
CONSTRUCTORS = {
    "PotentialSpec": sch.PotentialSpec,
    "PotentialSpec.wvn_example": sch.PotentialSpec.wvn_example,
    "PotentialSpec.sampled": sch.PotentialSpec.sampled,
    "EvolvedState": kdv.EvolvedState,
    "ExampleParams": wvn.ExampleParams,
    "Grid": sch.Grid,
    "EmbeddedStateSpec": darboux.EmbeddedStateSpec,
}
GRID_ARGS = {"x_min": 0.0, "x_max": 1.0, "n_points": 3}
STATE_ARGS = {"omega": 1.0, "alpha": 1.0, "r_at_omega": -1.0}
PARAMS_ARGS = {"rho": RHO, "alpha": 1.0}
EVOLVED_ARGS = {"t": 0.0, "params": wvn.ExampleParams(RHO)}
WRONG_TYPE = {"grid": ("Grid", GRID_ARGS), "state": ("EmbeddedStateSpec", STATE_ARGS),
              "params": ("ExampleParams", PARAMS_ARGS), "evolved": ("EvolvedState", EVOLVED_ARGS)}


@st.composite
def hostile_construction(draw):
    """(constructor, keyword arguments) with one input the constructor must reject."""
    non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
    not_a_number = st.one_of(st.none(), st.text(max_size=3), non_finite)
    case = draw(st.sampled_from(["kind", "cutoff", "rho", "samples", "delta_cap",
                                 *WRONG_TYPE]))
    if case == "kind":
        kind = st.one_of(st.text(max_size=12).filter(lambda k: k not in KINDS), st.integers())
        return "PotentialSpec", {"kind": draw(kind)}
    if case == "cutoff":
        kind = draw(st.sampled_from(KINDS))
        end = {"zero": -math.inf, "wvn_example": 0.0, "sampled": 1.0}[kind]  # the support's
        below = st.floats(max_value=end, exclude_max=True) if kind != "zero" else st.nothing()
        # None is not drawn: it asks for the default cutoff, the support's right end
        cutoff = draw(st.one_of(st.text(max_size=3), non_finite, below).filter(lambda v: v != end))
        return "PotentialSpec", {"kind": kind, "rho": RHO, "sample_x": [0.0, 1.0],
                                 "sample_q": [0.0, 0.0], "right_cutoff": cutoff}
    if case == "rho":
        return "PotentialSpec.wvn_example", {"rho": draw(st.one_of(not_a_number,
                                                                   st.floats(max_value=0.0)))}
    if case == "samples":
        x = draw(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=6, unique=True).map(sorted))
        q = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(x), max_size=len(x)))
        if draw(st.booleans()):             # a sample that is not finite
            bad = draw(st.sampled_from([x, q]))
            bad[draw(st.integers(0, len(x) - 1))] = draw(st.sampled_from([math.nan, math.inf]))
        else:                               # x not increasing
            x = x[::-1]
        return "PotentialSpec.sampled", {"x": x, "q": q}
    if case in WRONG_TYPE:            # one argument replaced by a value of the wrong type
        name, args = WRONG_TYPE[case]
        key = draw(st.sampled_from(sorted(args)))
        bad = st.one_of(st.none(), st.text(max_size=3), st.just([1.0]))
        if key == "n_points":          # an integer is required: a float is rejected too
            bad = st.one_of(bad, st.floats())
        elif key == "params":          # an ExampleParams is required: its rho alone is rejected
            bad = st.one_of(bad, st.floats())
        elif key != "r_at_omega":      # a real number is required
            bad = st.one_of(bad, non_finite, st.complex_numbers(min_magnitude=1e-3))
        return name, dict(args, **{key: draw(bad)})
    return "EvolvedState", dict(EVOLVED_ARGS, delta_cap=draw(st.one_of(
        st.text(max_size=3), st.sampled_from([math.nan, math.inf]), st.floats(max_value=0.0))))


@given(hostile_construction())
@example(("PotentialSpec.sampled", {"x": ["a", "b"], "q": [0, 0]}))
@example(("PotentialSpec.sampled", {"x": [0.0, 1.0], "q": ["x", "y"]}))
@example(("PotentialSpec.sampled", {"x": [], "q": []}))
@example(("Grid", {"x_min": "a", "x_max": 1.0, "n_points": 3}))
@example(("Grid", dict(GRID_ARGS, n_points=2.5)))
@example(("Grid", dict(GRID_ARGS, n_points=None)))
@example(("EmbeddedStateSpec", dict(STATE_ARGS, alpha="a")))
@example(("EmbeddedStateSpec", dict(STATE_ARGS, r_at_omega=None)))
@example(("EvolvedState", dict(EVOLVED_ARGS, t="a")))
@example(("EvolvedState", dict(EVOLVED_ARGS, t=None)))
@example(("EvolvedState", dict(EVOLVED_ARGS, t=[0.0])))
@example(("EvolvedState", dict(EVOLVED_ARGS, t=1j)))
@example(("EvolvedState", dict(EVOLVED_ARGS, params=None)))
@example(("EvolvedState", dict(EVOLVED_ARGS, params=2.0)))
@example(("ExampleParams", {"rho": "a"}))
@example(("ExampleParams", dict(PARAMS_ARGS, alpha="x")))
@example(("ExampleParams", dict(PARAMS_ARGS, alpha=None)))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_public_constructors_reject_hostile_input(case):
    # the library's counterpart of test_cli's hostile configs: a bad input is
    # rejected where it is constructed, not where it is first used
    name, kwargs = case
    with pytest.raises(ValidationError):
        CONSTRUCTORS[name](**kwargs)


@given(st.floats(0.3, 5.0), st.floats(-60.0, 5.0))
@example(2.0, 0.0)
@example(2.0, -0.0)
@example(2.0, 1e-300)
@example(2.0, -1e-300)
@example(4.480592821440301, -4.504098778607151)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_scalar_seed_matches_evaluate(rho, x):
    # the DOP853 right-hand side inlines wvn_example.q_seed's formula
    # q = -2 tau''/tau + 2 (tau'/tau)^2 for speed: the two copies agree across the
    # family, on both sides of x = 0 and at 0, to 1e-13 of the size of those two
    # terms, where rounding enters (a relative bound on q fails at its zeros: at
    # the last example q = 3.2e-4 and the copies differ by 5.2e-13 of it)
    spec = sch.PotentialSpec.wvn_example(rho)
    fast, ref = spec.scalar_fn()(x), spec.evaluate(x)
    tau, tau_x, tau_xx = wvn.tau(rho, x), wvn.tau_x(rho, x), wvn.tau_xx(rho, x)
    assert abs(fast - ref) <= 1e-13 * (2.0 * abs(tau_xx / tau) + 2.0 * (tau_x / tau) ** 2)


def test_integration_failure_is_reported(monkeypatch):
    # q is NaN past the start point, so both integrators fail before any output
    # point: the grid propagator (which samples q through evaluate) and DOP853
    # (which calls scalar_fn)
    spec = sch.PotentialSpec.zero()
    monkeypatch.setattr(spec, "scalar_fn", lambda: (lambda x: 0.0 if x == 0.0 else math.nan))
    monkeypatch.setattr(spec, "evaluate", lambda x: np.where(np.asarray(x) == 0.0, 0.0, np.nan))
    with np.errstate(invalid="ignore"), pytest.raises(IntegrationFailureError):
        sch._magnus(spec, 1.0, 0.0, (1.0, 0.0), np.linspace(0.0, -1.0, 41))
    with np.errstate(invalid="ignore"), pytest.raises(IntegrationFailureError):
        sch.solve_at(spec, 1.0, 0.0, (1.0, 0.0), [-0.5, -1.0])


def test_nan_potential_fails_promptly():
    # DOP853 (the point evaluator) never returns when q is NaN from the start;
    # run in a child under a timeout
    src = os.path.dirname(os.path.dirname(sch.__file__))
    code = ("import math\n"
            "from positonkit import schrodinger as sch\n"
            "from positonkit.errors import IntegrationFailureError\n"
            "spec = sch.PotentialSpec.zero()\n"
            "spec.scalar_fn = lambda: (lambda x: math.nan)\n"
            "try:\n"
            "    sch.solve_at(spec, 1.0, 0.0, (1.0, 0.0), [-1.0])\n"
            "except IntegrationFailureError:\n"
            "    print('raised')\n")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and out.stdout.strip() == "raised"


def test_step_floor_fails_promptly():
    # rtol = atol = 1e-30 lies below the rounding of every step (with the
    # default atol the scale would be atol's, and the solve would succeed), so
    # the controller shrinks the step until it falls below 10 ulp of x, away
    # from x = 0, where an ulp is tiny; run in a child under a timeout
    src = os.path.dirname(os.path.dirname(sch.__file__))
    code = ("import time\n"
            "from positonkit import schrodinger as sch\n"
            "from positonkit.errors import IntegrationFailureError\n"
            "spec = sch.PotentialSpec.wvn_example(2.0)\n"
            "t0 = time.perf_counter()\n"
            "try:\n"
            "    sch.solve_at(spec, 1.0, -1.0, (1.0, 0.5), [-2.0], rtol=1e-30, atol=1e-30)\n"
            "except IntegrationFailureError as exc:\n"
            "    verdict = 'raised' if 'below 10 ulp' in str(exc) else 'other'\n"
            "    print(verdict, time.perf_counter() - t0)\n")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    verdict, elapsed = out.stdout.split()
    assert out.returncode == 0 and verdict == "raised" and float(elapsed) < 5.0


@pytest.mark.parametrize("rho", [0.5, 2.0])
def test_dop853_matches_scipy_oracle(rho):
    # the package's own DOP853 against scipy's (the oracle, a test-only
    # dependency) on the batched system at complex momenta, Im k > 0, with
    # output points inside the span: scipy interpolates there, ours lands on them
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    spec = sch.PotentialSpec.wvn_example(rho)
    ks = np.array([0.3 + 0.2j, 0.7 + 1e-3j, 1.1 + 0.05j, 2.4 + 0.5j])
    x_eval = np.array([-1.3, -4.0, -7.5])
    init = (np.ones_like(ks), 1j * ks)
    with sch.count_ode_work() as work:
        vals, ders = sch.solve_at(spec, ks, 0.0, init, x_eval)
    q, n = spec.scalar_fn(), ks.size
    scale = math.sqrt(n)        # as `solve_at` scales the tolerances of a batch
    ref = scipy_solve_ivp(lambda x, y: np.concatenate([y[n:], (q(x) - ks * ks) * y[:n]]),
                          (0.0, -7.5), np.concatenate(init), method="DOP853", t_eval=x_eval,
                          rtol=sch.DEFAULT_RTOL / scale, atol=sch.DEFAULT_ATOL / scale)
    assert ref.success and work.solves == 1
    for ours, theirs in ((vals, ref.y[:n]), (ders, ref.y[n:])):
        scale = np.max(np.abs(theirs), axis=1, keepdims=True)
        assert np.max(np.abs(ours - theirs) / scale) <= 1e-10
    assert abs(work.nfev - ref.nfev) <= 0.05 * ref.nfev
    # the solve ends at the last output point: with none it takes no step
    with sch.count_ode_work() as work:
        empty = sch.solve_at(spec, ks, 0.0, init, [])
    assert [a.shape for a in empty] == [(n, 0)] * 2 and work.solves == 0


@pytest.mark.parametrize("n", [2, 3, 4, 9, 60])
def test_cubic_spline_matches_scipy_oracle(n):
    # not-a-knot, as scipy's CubicSpline (the oracle), on uneven knots; NaN
    # outside the knots as with extrapolate=False
    from scipy.interpolate import CubicSpline as ScipyCubicSpline

    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.05, 1.0, n)) - 3.0
    y = np.sin(1.7 * x) + rng.normal(0.0, 0.3, n)
    xs = np.concatenate([np.linspace(x[0], x[-1], 2001), x])
    ours, theirs = sch.CubicSpline(x, y)(xs), ScipyCubicSpline(x, y)(xs)
    assert np.max(np.abs(ours - theirs)) <= 1e-13 * np.max(np.abs(theirs))
    assert np.all(np.isnan(sch.CubicSpline(x, y)([x[0] - 1e-9, x[-1] + 1e-9, np.nan])))


@pytest.mark.parametrize("share, solved", [(0.95, True), (1.1, False)])
def test_ode_cap_admits_its_documented_span(monkeypatch, share, solved):
    # at the full cap a 200-momentum scan (one piece, 0 -> -4) is solved up to
    # |k| * span = 44,000 (k_max = 11,000; 10,500 took 1,853,153 evaluations).
    # With the cap lowered 50-fold, the same share of that span is solved just
    # inside it, and just outside it fails at the first projection.
    cap = sch.MAX_NFEV // 50
    monkeypatch.setattr(sch, "MAX_NFEV", cap)
    k_max = share * 44_000 / 50 / 4.0
    ks = np.linspace(0.2, k_max, 200)
    spec = sch.PotentialSpec.wvn_example(RHO)
    if solved:
        with sch.count_ode_work() as work:
            scattering.scattering_coefficients(spec, ks)
        assert work.solves == 1 and work.nfev <= cap
    else:
        with pytest.raises(IntegrationFailureError,
                           match=f"more than {cap} evaluations.*: {sch.NFEV_CHECK} reached"):
            scattering.scattering_coefficients(spec, ks)


@given(rho=st.floats(0.3, 5.0), k=st.floats(0.2, 3.0))
@example(rho=RHO, k=1.0)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
def test_magnus_right_jost_matches_closed_form(rho, k):
    g = sch.Grid(-60.0, 0.0, 3001)
    psi, psi_x = sch.right_jost(sch.PotentialSpec.wvn_example(rho), k, g)
    vc, dc = wvn.right_jost_closed(rho, g.x, k)
    scale = np.max(np.abs(vc))
    assert np.max(np.abs(psi - vc)) <= 1e-8 * scale
    assert np.max(np.abs(psi_x - dc)) <= 1e-8 * scale


@pytest.mark.parametrize("k", [0.5, 1.0, 2.2])
def test_magnus_error_falls_sixth_order(wvn_spec, k):
    # rtol / 64 halves h_s = rtol^(1/6) / max(1, |k|), and with it every step:
    # an interval of h = 0.17 holds h / h_s = 1.7 or 3.74 of the longer steps
    g = sch.Grid(-59.5, 0.0, 351)
    vc, _ = wvn.right_jost_closed(RHO, g.x, k)
    errs, steps = [], []
    for rtol in (1e-6, 1e-6 / 64):
        with sch.count_ode_work() as work:
            psi, _ = sch.right_jost(wvn_spec, k, g, rtol=rtol)
        errs.append(np.max(np.abs(psi - vc)))
        steps.append(work.magnus_steps)
    assert steps[1] == 2 * steps[0]
    assert errs[0] >= 40 * errs[1]


def test_magnus_steps_split_at_kinks(wvn_spec):
    # the example's kink x = 0 lies between grid nodes, and a cutoff moved
    # right of it puts the kink inside the integrated span
    spec = dataclasses.replace(wvn_spec, right_cutoff=1.0)
    g = sch.Grid(-20.0, 2.0, 1100)
    assert np.min(np.abs(g.x)) > 1e-3
    for k in (0.7, 1.0, 2.2):
        psi, psi_x = sch.right_jost(spec, k, g)
        vals, ders = sch.right_jost_at(spec, k, g.x)
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(psi - vals)) <= 1e-8 * scale
        assert np.max(np.abs(psi_x - ders)) <= 1e-8 * scale


def test_magnus_batch_matches_single_momenta(wvn_spec):
    g = sch.Grid(-60.0, 0.0, 3001)
    # four step bounds among five momenta; 1.5 and 1.6 take two steps per node, 2.9 three
    ks = np.array([0.4, 1.0, 1.5, 1.6, 2.9])
    for k, v, d in zip(ks, *sch.right_jost(wvn_spec, ks, g)):
        one, one_x = sch.right_jost(wvn_spec, k, g)
        scale = np.max(np.abs(one))
        assert np.max(np.abs(v - one)) <= 1e-14 * scale
        assert np.max(np.abs(d - one_x)) <= 1e-14 * scale


@pytest.mark.parametrize("k, grid", [(1e6, sch.Grid(-200.0, 0.0, 11)),
                                     (1.0, sch.Grid(-1e6, 0.0, 3))])
def test_magnus_cap_fails_before_allocating(wvn_spec, k, grid):
    # 9.3e9 and 4.6e7 steps: the count is known before any step is taken
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(IntegrationFailureError, match="steps of the propagator"):
            sch.right_jost(wvn_spec, k, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert peak < 1e6


@pytest.mark.parametrize("n_steps, solved", [(19_999, True), (20_001, False)])
def test_magnus_cap_counts_steps(monkeypatch, wvn_spec, n_steps, solved):
    # at k = 1 an interval of 0.02 < h_s = 0.0215 is one step
    monkeypatch.setattr(sch, "MAX_NFEV", 20_000)
    g = sch.Grid(-0.02 * n_steps, 0.0, n_steps + 1)
    if solved:
        with sch.count_ode_work() as work:
            sch.right_jost(wvn_spec, 1.0, g)
        assert work.magnus_steps == n_steps and work.solves == 0
    else:
        with pytest.raises(IntegrationFailureError, match="more than 20000 steps"):
            sch.right_jost(wvn_spec, 1.0, g)


def test_plane_wave_exact():
    g = sch.Grid(-5.0, 5.0, 101)
    psi, _ = sch.right_jost(sch.PotentialSpec.zero(), 2.0, g)
    assert np.array_equal(psi, np.exp(2j * g.x))


# the grid propagator from x = 0 over 40 nodes per unit length
def test_integrate_plane_wave():
    vals, ders = sch._magnus(sch.PotentialSpec.zero(), 1.0, 0.0, (1.0, 1j),
                             np.linspace(0.0, np.pi, 126))
    assert abs(vals[-1] - (-1.0)) < 1e-9
    assert abs(ders[-1] - (-1j)) < 1e-9


def test_integrate_decaying_exponential():
    vals, _ = sch._magnus(sch.PotentialSpec.zero(), 1j, 0.0, (1.0, -1.0),
                          np.linspace(0.0, 5.0, 201))
    assert abs(vals[-1] - np.exp(-5.0)) < 1e-8


def test_integrate_matches_closed_left_scattering(wvn_spec):
    k = 1.5
    y0 = (1.0, 1j * k)
    x = np.linspace(0.0, -20.0, 801)
    vals, ders = sch._magnus(wvn_spec, k, 0.0, y0, x)
    vc, dc = wvn.right_jost_closed(RHO, x, k)
    assert np.max(np.abs(vals - vc)) < 1e-6
    assert np.max(np.abs(ders - dc)) < 1e-6


def test_right_jost_batch_matches_closed(wvn_spec):
    g = sch.Grid(-10.0, 3.0, 651)
    ks = np.array([0.4, 1.0, 1.5, 2.9])
    psi, psi_x = sch.right_jost(wvn_spec, ks, g)
    assert psi.shape == psi_x.shape == (4, g.n_points)
    for k, v, d in zip(ks, psi, psi_x):
        vc, dc = wvn.right_jost_closed(RHO, g.x, k)
        assert np.max(np.abs(v - vc)) < 1e-6 and np.max(np.abs(d - dc)) < 1e-6
        assert np.array_equal(v[g.x >= 0], np.exp(1j * k * g.x[g.x >= 0]))


def test_right_jost_exact_tail_and_resonance(wvn_spec):
    g = sch.Grid(-10.0, 3.0, 1301)
    psi, _ = sch.right_jost(wvn_spec, 1.0, g)
    tail = g.x >= 0
    assert np.array_equal(psi[tail], np.exp(1j * g.x[tail]))
    vc, _ = wvn.right_jost_closed(RHO, g.x, 1.0)
    assert np.max(np.abs(psi - vc)) < 1e-6


def test_right_jost_rejects_k_zero(wvn_spec):
    with pytest.raises(PoleEvaluationError):
        sch.right_jost(wvn_spec, 0.0, sch.Grid(-1, 1, 21))


def test_right_jost_requires_cutoff_in_grid(wvn_spec):
    spec = dataclasses.replace(wvn_spec, right_cutoff=6.0)
    with pytest.raises(ValidationError, match="right_cutoff <= grid.x_max"):
        sch.right_jost(spec, 1.0, sch.Grid(-5, 5, 101))


@given(st.floats(0.3, 3.0))
@settings(max_examples=12, deadline=None)
def test_wronskian_constancy(k):
    spec = sch.PotentialSpec.wvn_example(RHO)
    g = sch.Grid(-8.0, 1.0, 721)
    psi, psi_x = sch.right_jost(spec, k, g)
    _, j, on = g.index([-7.0, -5.5, -2.1, 0.4])     # nodes 80, 200, 472 and 672
    assert np.all(on)
    w0, *ws = psi[j] * np.conj(psi_x[j]) - psi_x[j] * np.conj(psi[j])
    assert max(abs(w - w0) for w in ws) <= 1e-6 * (1 + abs(w0))
    assert abs(w0 - (-2j * k)) < 1e-6  # W(conj psi, psi) = 2ik


def test_write_csv_matches_savetxt_byte_for_byte(tmp_path):
    # write_csv against np.savetxt with the same format and header, on values
    # whose %.17g spelling is awkward: signed zero, nan, infinities, the least
    # subnormal, a huge value and an integer that float64 rounds; and 2,500
    # rows, more than one of the writer's blocks
    awkward = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, 2**53 + 1, 0.1])
    x = np.linspace(-1.0, 1.0, 2500)
    for cols in ([awkward, awkward[::-1], np.linspace(-1.0, 1.0, awkward.size)], [x, np.exp(x)]):
        header = ",".join("abc"[:len(cols)])
        sch.write_csv(tmp_path / "ours.csv", header, cols)
        np.savetxt(tmp_path / "ref.csv", np.column_stack(cols), delimiter=",", header=header,
                   comments="", fmt="%.17g")
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
