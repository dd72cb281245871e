import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from positonkit import darboux as dbx
from positonkit import scattering as sct
from positonkit import wvn_example as wvn
from positonkit.errors import (
    OrthonormalityError,
    PoleEvaluationError,
    PositonkitError,
    TailDivergenceError,
    ValidationError,
)
from positonkit.schrodinger import Grid, PotentialSpec, right_jost_at
from positonkit.tails import TailFit, fit_oscillatory_tail

RHO = 2.0


def test_state_spec_validation():
    with pytest.raises(ValidationError):
        dbx.EmbeddedStateSpec(1.0, 1.0, 0.5 + 0.1j)  # not unimodular
    with pytest.raises(ValidationError):
        dbx.EmbeddedStateSpec(-1.0, 1.0, -1.0)
    # abs(nan - 1) > tol is False, so a NaN would pass the unimodularity test
    for args in [(np.inf, 1.0, -1.0), (1.0, np.nan, -1.0), (1.0, 1.0, np.nan),
                 (1.0, 1.0, complex(-1.0, np.nan))]:
        with pytest.raises(ValidationError):
            dbx.EmbeddedStateSpec(*args)
    st = dbx.EmbeddedStateSpec(1.0, 1.0, -1.0 + 1e-10j)
    assert st.r_at_omega == -1.0
    assert st.root_r == 1j


def _node(grid, x0):
    """Index of the grid node nearest x0."""
    return int(np.argmin(np.abs(grid.x - x0)))


def test_phi_n_right_tail_and_left_branch(wvn_spec, inserted_std):
    phi = inserted_std.phi[0]
    g = inserted_std.grid
    assert abs(phi[_node(g, 5.0)] - 2 * np.sin(5.0)) < 1e-9
    assert abs(phi[_node(g, -5.0)] - wvn.phi_closed(RHO, -5.0)) < 1e-7


def test_phi_n_tail_amplitude_fit(wvn_spec):
    state = dbx.EmbeddedStateSpec.for_wvn_example(RHO, 1.0)
    g = Grid(0.0, 100.0, 4001)
    phi, _ = dbx.generating_functions(wvn_spec, [state], g)
    win = g.x >= 10.0
    x, v = g.x[win], phi[0, win]
    basis = np.column_stack([np.sin(x), np.cos(x)])
    coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
    assert abs(np.hypot(*coef) - 2.0) < 1e-3


def test_gram_single_state_matches_closed(wvn_spec, inserted_std):
    g = inserted_std.grid
    gram = inserted_std.gram
    assert abs(gram[_node(g, 0.0), 0, 0] - 2.0 / RHO) < 1e-7
    assert abs(gram[_node(g, -12.0), 0, 0] - wvn.big_i_closed(RHO, -12.0)) < 1e-7
    # leftward the Gram entry tracks the decaying closed form toward zero
    assert abs(gram[0, 0, 0] - wvn.big_i_closed(RHO, -20.0)) < 1e-7
    assert gram[0, 0, 0] < 0.05


def test_gram_monotone_and_det_bound(inserted_std):
    g11 = inserted_std.gram[:, 0, 0]
    assert np.all(np.diff(g11) >= -1e-12)
    assert np.all(inserted_std.log_det >= -1e-12)
    assert np.all(np.diff(inserted_std.log_det) >= -1e-12)


def test_insert_no_states_is_identity(wvn_spec):
    grid = Grid(-5.0, 5.0, 201)
    res = dbx.insert_embedded(wvn_spec, [], grid)
    assert np.array_equal(res.q_new, res.q_seed)
    assert np.all(res.log_det == 0.0)


@pytest.mark.parametrize("alpha", [1.0, 0.5, np.sqrt(RHO / 2.0)])
def test_insert_matches_closed_form(wvn_spec, grid_std, alpha):
    state = dbx.EmbeddedStateSpec.for_wvn_example(RHO, alpha)
    res = dbx.insert_embedded(wvn_spec, [state], grid_std, check_preconditions=False)
    qc = wvn.q_plus1(RHO, alpha, grid_std.x)
    assert np.max(np.abs(res.q_new - qc)) < 1e-6


def test_insert_precondition_rejects_nonresonant(wvn_spec):
    grid = Grid(-10.0, 5.0, 601)
    bad = dbx.EmbeddedStateSpec(1.5, 1.0, -1.0)  # claims |R|=1 at a regular momentum
    with pytest.raises(ValidationError):
        dbx.insert_embedded(wvn_spec, [bad], grid)


def test_insert_precondition_rejects_a_singular_psi(monkeypatch, wvn_spec):
    # psi / (k - 1) keeps every real R, from which a real factor cancels, but has
    # a simple pole at omega = 1
    def with_pole(spec, k, x):
        v, d = right_jost_at(spec, k, x)
        scale = 1.0 / (np.asarray(k) - 1.0)[..., None]
        return v * scale, d * scale

    monkeypatch.setattr(sct, "right_jost_at", with_pole)
    state = dbx.EmbeddedStateSpec.for_wvn_example(RHO, 1.0)
    with pytest.raises(ValidationError, match="singular at omega=1.0"):
        dbx.insert_embedded(wvn_spec, [state], Grid(-20.0, 20.0, 401))


def test_insert_duplicate_omegas_rejected(wvn_spec):
    # 7e-13 apart passed a round(omega, 12) check and then divided by the difference
    grid = Grid(-5.0, 5.0, 201)
    s1 = dbx.EmbeddedStateSpec.for_wvn_example(RHO, 1.0)
    for omega in (1.0, 1.0 + 7e-13):
        s2 = dbx.EmbeddedStateSpec.for_wvn_example(RHO, 0.5, omega)
        with pytest.raises(ValidationError, match="apart"):
            dbx.insert_embedded(wvn_spec, [s1, s2], grid)


def test_fields_at_equal_momenta_rejected(inserted_std):
    # two copies of one eigenfunction at omegas [1, 1] reached the cross tail
    # integral and escaped as a bare ValueError
    res = inserted_std
    y, y_x = np.repeat(res.y, 2, axis=0), np.repeat(res.y_x, 2, axis=0)
    for omegas in ([1.0, 1.0], [1.0, 1.0 + 7e-13]):
        with pytest.raises(ValidationError, match="apart"):
            dbx.gram_plus(y, y_x, omegas, [1.0, 0.5], res.grid)
        with pytest.raises(ValidationError, match="apart"):
            dbx.remove_embedded(res.q_new, y, y_x, omegas, res.grid)


def test_symmetry_iff_matched_norming(wvn_spec, grid_std):
    odd_norms = []
    for alpha in (1.0, 1.2, 1.5):
        st = dbx.EmbeddedStateSpec.for_wvn_example(RHO, alpha)
        res = dbx.insert_embedded(wvn_spec, [st], grid_std, check_preconditions=False)
        q = res.q_new
        odd_norms.append(float(np.max(np.abs(q - q[::-1]))))
    assert odd_norms[0] < 1e-8          # alpha^2 = rho/2 exactly
    assert odd_norms[0] < odd_norms[1] < odd_norms[2]


def test_jacobi_identity(inserted_std):
    # phit (I+G)^{-1} phit = d/dx log det(I+G)
    g = inserted_std.grid
    alpha = inserted_std.states[0].alpha
    phi = alpha * inserted_std.phi[0]
    gram = inserted_std.gram[:, 0, 0]
    jay = phi**2 / (1.0 + gram)
    ld = inserted_std.log_det
    h = g.spacing
    d_ld = (ld[:-4] - 8 * ld[1:-3] + 8 * ld[3:-1] - ld[4:]) / (12 * h)
    assert np.max(np.abs(jay[2:-2] - d_ld)) < 1e-6


def test_eigenfunction_residual(inserted_std):
    g = inserted_std.grid
    v = inserted_std.y[0]
    h = g.spacing
    # fourth-order centered second difference
    ypp = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) / (12 * h**2)
    res = -ypp + (inserted_std.q_new[2:-2] - 1.0) * v[2:-2]
    # centered stencils are invalid across the potential's kink at x = 0
    keep = np.abs(g.x[2:-2]) > 3 * h
    assert np.max(np.abs(res[keep])) < 1e-4


def test_eigenfunction_norms(inserted_std):
    assert abs(inserted_std.eigenfunction_norms()[0] - 1.0) < 1e-6


def test_transformed_solutions_closed_match(wvn_spec, inserted_std):
    k = 1.7
    (phi, phi_x), (psi, psi_x) = dbx.transformed_solutions(inserted_std, k)
    g = inserted_std.grid
    pos = g.x >= 0
    closed = wvn.psi_plus1_closed(RHO, 1.0, g.x[pos], k)
    assert np.max(np.abs(psi[pos] - closed)) < 1e-6
    j = _node(g, 2.3)
    assert abs(psi[j] * phi_x[j] - psi_x[j] * phi[j] + 2j * k) < 1e-8
    # near +infinity the transformed solution reverts to a plane wave
    assert abs(psi[_node(g, 19.0)] / np.exp(1j * k * 19.0) - 1.0) < 0.3


def test_transformed_solutions_batch_equals_per_k(inserted_std):
    # psi_+N comes from the same Magnus steps per momentum, bit for bit; phi_+N's
    # T comes from one DOP853 solve whose step control the batch shares
    for ks in (sct.residue_stencil(1.0), np.array([2.0 + 0.3j])):
        phi_b, psi_b = dbx.transformed_solutions(inserted_std, ks)
        for i, k in enumerate(ks):
            phi, psi = dbx.transformed_solutions(inserted_std, k)
            for b, f in zip(psi_b, psi):        # values, then derivatives
                assert np.array_equal(b[i], f)
            for b, f in zip(phi_b, phi):
                assert np.max(np.abs(b[i] - f)) <= 1e-9 * np.max(np.abs(f))


# a momentum at least 0.1 from +-1 (the inserted pole): |Re k| in [0.3, 3], Im k >= 0
_MOMENTA = st.builds(lambda re, sign, im: sign * re + 1j * im,
                     st.one_of(st.floats(0.3, 0.9), st.floats(1.1, 3.0)),
                     st.sampled_from([1.0, -1.0]), st.sampled_from([0.0, 0.05, 0.3]))


@given(rho=st.floats(0.3, 5.0), alpha=st.floats(0.3, 2.0),
       ks=st.lists(_MOMENTA, min_size=1, max_size=4))
@settings(max_examples=12, deadline=None)
def test_transformed_wronskian_at_every_node(grid_std, rho, alpha, ks):
    # W(psi_+1, phi_+1) = -2ik across the family, at every node and for every k of a batch
    state = dbx.EmbeddedStateSpec.for_wvn_example(rho, alpha)
    res = dbx.insert_embedded(PotentialSpec.wvn_example(rho), [state], grid_std,
                              check_preconditions=False)
    ks = np.array(ks)
    (phi, phi_x), (psi, psi_x) = dbx.transformed_solutions(res, ks)
    w = psi * phi_x - psi_x * phi
    assert np.all(np.abs(w + 2j * ks[:, None]) <= 1e-8 * np.abs(ks)[:, None])


def test_generating_functions_batch_equals_each_state(wvn_spec):
    # one right Jost solve for both momenta gives each state's rows of its own solve
    g = Grid(-30.0, 10.0, 2001)
    states = [dbx.EmbeddedStateSpec.for_wvn_example(RHO, 1.0),
              dbx.EmbeddedStateSpec(1.6, 0.5, np.exp(0.7j))]
    both = dbx.generating_functions(wvn_spec, states, g)
    for i, s in enumerate(states):
        for rows, row in zip(both, dbx.generating_functions(wvn_spec, [s], g)):
            assert rows.shape == (2, g.n_points)
            assert np.max(np.abs(rows[i] - row[0])) < 1e-13


def test_fields_must_be_one_row_per_omega(grid_std):
    phi, phi_x = np.ones((2, grid_std.n_points)), np.ones((2, grid_std.n_points))
    q = np.zeros(grid_std.n_points)
    for bad in ([1.0], [1.0, 1.6, 2.0]):            # one omega per row
        with pytest.raises(ValidationError):
            dbx.gram_plus(phi, phi_x, bad, [1.0] * len(bad), grid_std)
        with pytest.raises(ValidationError):
            dbx.remove_embedded(q, phi, phi_x, bad, grid_std)
    with pytest.raises(ValidationError):            # a derivative row short
        dbx.gram_plus(phi, phi_x[:, 1:], [1.0, 1.6], [1.0, 1.0], grid_std)
    with pytest.raises(ValidationError):
        dbx.remove_embedded(q, phi, phi_x[:1], [1.0, 1.6], grid_std)
    with pytest.raises(ValidationError):            # one alpha per row
        dbx.gram_plus(phi, phi_x, [1.0, 1.6], [1.0], grid_std)


def test_transformed_solutions_pole_error(inserted_std):
    with pytest.raises(PoleEvaluationError):
        dbx.transformed_solutions(inserted_std, 1.0)
    with pytest.raises(PoleEvaluationError):
        dbx.transformed_solutions(inserted_std, np.array([1.5, -1.0]))


def _psi_plus(result):
    """The family k -> (psi_+N, psi_+N') of a transform, stacked on the axis after k's."""
    def fam(ks):
        return np.stack(dbx.transformed_solutions(result, ks)[1], axis=1)
    return fam


def test_residue_is_norming_constant(inserted_std, l2_with_tails):
    res = sct.residue_at(1.0, _psi_plus(inserted_std))
    assert res.classification == "simple"
    norm = l2_with_tails(inserted_std.grid, *res.residue)
    assert abs(norm - 1.0) < 1e-4


def test_embedded_pole_condition(inserted_std):
    # Res_{k=omega} psi_+N = (i alpha^2 / R(omega)) phi_+N(., omega)
    res = sct.residue_at(1.0, _psi_plus(inserted_std))
    st = inserted_std.states[0]
    # the regular branch of phi_+N at omega is R^{1/2} y / alpha (TransformResult)
    target = (1j * st.alpha**2 / st.r_at_omega) * st.root_r * inserted_std.y[0] / st.alpha
    got = res.residue[0]
    scale = np.max(np.abs(target))
    assert np.max(np.abs(got - target)) < 1e-4 * scale


def test_chain_single_state_equals_direct(wvn_spec, grid_std, inserted_std):
    state = dbx.EmbeddedStateSpec.for_wvn_example(RHO, 1.0)
    chain = dbx.chain_insert(wvn_spec, [state], grid_std, check_preconditions=False)
    assert np.max(np.abs(chain.q_new - inserted_std.q_new)) < 1e-9
    assert np.max(np.abs(chain.q_new - wvn.q_plus1(RHO, 1.0, grid_std.x))) < 1e-6


def _synthetic_fields(grid, freq, center):
    x = grid.x
    env = np.exp(-((x - center) / 3.0) ** 2)
    v = env * np.sin(freq * x)
    d = env * (freq * np.cos(freq * x)) - 2 * (x - center) / 9.0 * v
    return v, d


def test_chain_matches_direct_determinant_synthetic():
    grid = Grid(-30.0, 30.0, 3001)
    vals, ders = zip(_synthetic_fields(grid, 1.1, -6.0), _synthetic_fields(grid, 1.7, -2.0))
    alphas = np.array([0.8, 1.3])
    h = grid.spacing

    cums = {}
    for a in range(2):
        for b in range(a, 2):
            prod = vals[a] * vals[b]
            dprod = ders[a] * vals[b] + vals[a] * ders[b]
            cums[a, b] = dbx.cumulative_corrected_trapezoid(prod, dprod, h)

    # direct 2x2 determinant
    det_direct = ((1 + alphas[0] ** 2 * cums[0, 0]) * (1 + alphas[1] ** 2 * cums[1, 1])
                  - (alphas[0] * alphas[1] * cums[0, 1]) ** 2)

    # chain: scalar step then transformed second function
    u1 = 1.0 + alphas[0] ** 2 * cums[0, 0]
    y1 = -alphas[0] * vals[0] / u1
    phi2_new = vals[1] + alphas[0] * y1 * cums[0, 1]
    y1d = -alphas[0] * ders[0] / u1 + alphas[0] ** 3 * vals[0] ** 3 / u1**2
    dphi2_new = ders[1] + alphas[0] * (y1d * cums[0, 1] + y1 * vals[0] * vals[1])
    cum2 = dbx.cumulative_corrected_trapezoid(
        phi2_new**2, 2 * phi2_new * dphi2_new, h)
    det_chain = u1 * (1.0 + alphas[1] ** 2 * cum2)
    assert np.max(np.abs(det_chain - det_direct)) < 1e-8


def test_chain_matches_direct_on_three_model_states(monkeypatch):
    # generating functions inside the tail model, so both paths close their tails
    # exactly; the chain's recurrence updates every remaining phi_j at each step
    monkeypatch.setattr(dbx, "generating_functions", _model_generating_functions)
    states = [dbx.EmbeddedStateSpec(w, a, -1.0) for w, a in ((1.0, 0.8), (1.6, 0.5), (2.3, 1.2))]
    grid = Grid(-40.0, 40.0, 4001)
    chain = dbx.chain_insert(PotentialSpec.zero(), states, grid, check_preconditions=False)
    direct = dbx.insert_embedded(PotentialSpec.zero(), states, grid, check_preconditions=False)
    assert np.max(np.abs(chain.q_new - direct.q_new)) < 1e-7      # 1.7e-8 measured
    assert np.max(np.abs(chain.log_det - direct.log_det)) < 1e-7


def test_chain_empty(wvn_spec):
    grid = Grid(-5.0, 5.0, 201)
    res = dbx.chain_insert(wvn_spec, [], grid)
    assert np.array_equal(res.q_new, res.q_seed)


def test_remove_round_trip(wvn_spec, grid_std):
    state = dbx.EmbeddedStateSpec.for_wvn_example(RHO, 0.7)
    res = dbx.insert_embedded(wvn_spec, [state], grid_std, check_preconditions=False)
    rem = dbx.remove_embedded(res.q_new, res.y, res.y_x, res.omegas, grid_std)
    assert np.max(np.abs(rem.q_minus - res.q_seed)) < 1e-6


@given(st.floats(0.3, 5.0), st.floats(0.3, 3.0))
@example(5.0, 3.0)
@settings(max_examples=10, deadline=None)
def test_remove_round_trip_across_family(rho, alpha):
    grid = Grid(-20.0, 20.0, 2001)
    state = dbx.EmbeddedStateSpec.for_wvn_example(rho, alpha)
    res = dbx.insert_embedded(PotentialSpec.wvn_example(rho), [state], grid)
    rem = dbx.remove_embedded(res.q_new, res.y, res.y_x, res.omegas, grid)
    assert np.max(np.abs(rem.q_minus - res.q_seed)) < 1e-6


def test_remove_symmetric_case_recovers_seed(grid_std):
    alpha = np.sqrt(RHO / 2.0)
    y, y_x = wvn.y_closed(RHO, alpha, grid_std.x), wvn.y_x_closed(RHO, alpha, grid_std.x)
    q_sym = wvn.q_sym(RHO, grid_std.x)
    rem = dbx.remove_embedded(q_sym, [y], [y_x], [1.0], grid_std)
    assert np.max(np.abs(rem.q_minus - wvn.q_seed(RHO, grid_std.x))) < 1e-6


def test_remove_nothing(wvn_spec):
    grid = Grid(-5.0, 5.0, 201)
    q = np.asarray(wvn_spec.evaluate(grid.x))
    rem = dbx.remove_embedded(q, np.zeros((0, grid.n_points)), np.zeros((0, grid.n_points)), [],
                              grid)
    assert np.array_equal(rem.q_minus, q)


def test_remove_rejects_non_orthonormal(grid_std):
    alpha = np.sqrt(RHO / 2.0)
    y, y_x = 1.1 * wvn.y_closed(RHO, alpha, grid_std.x), 1.1 * wvn.y_x_closed(RHO, alpha, grid_std.x)
    with pytest.raises(OrthonormalityError):
        dbx.remove_embedded(wvn.q_sym(RHO, grid_std.x), [y], [y_x], [1.0], grid_std)
    # a normalized y that vanishes on the right window: Gbar(x_max) = 0 is singular,
    # and the determinant check rejects it before the resolvent's solve, which
    # would raise a bare LinAlgError
    x = grid_std.x
    y = np.exp(-x**2 / 2) / np.pi**0.25
    with pytest.raises(OrthonormalityError, match="positive definiteness"):
        dbx.remove_embedded(np.zeros(x.size), [y], [-x * y], [1.0], grid_std)


MODEL_RHO = 2.0
MODEL_OMEGAS = (1.0, 1.6)


def _model_tau(omega, s):
    """tau_omega(s) = 1 + rho|s| - rho sin(2 omega|s|)/(2 omega): the envelope the tail fits model."""
    a = np.abs(s)
    return 1.0 + MODEL_RHO * a - MODEL_RHO * np.sin(2 * omega * a) / (2 * omega)


def _model_field(omega, s):
    """phi_omega(s) = sin(omega s)/tau_omega(s) and its derivative."""
    tau = _model_tau(omega, s)
    tau_s = 2 * MODEL_RHO * np.sign(s) * np.sin(omega * s) ** 2
    return np.sin(omega * s) / tau, omega * np.cos(omega * s) / tau - np.sin(omega * s) * tau_s / tau**2


def _model_cross_far_left(s_end, far=-20000.0, h=0.02):
    """Integral of phi_1 phi_2 over [far, s_end] by the corrected trapezoid rule."""
    s = np.linspace(far, s_end, int(round((s_end - far) / h)) + 1)
    (v1, d1), (v2, d2) = (_model_field(w, s) for w in MODEL_OMEGAS)
    return dbx.cumulative_corrected_trapezoid(v1 * v2, d1 * v2 + v1 * d2, s[1] - s[0])[-1]


def _model_generating_functions(spec, states, grid, rtol=None):
    """`dbx.generating_functions` with each state's model field in place of its phi."""
    return tuple(np.stack(f) for f in zip(*(_model_field(s.omega, grid.x) for s in states)))


def _model_fields(grid):
    """(phi, phi_x) of the model fields, one row per omega of MODEL_OMEGAS."""
    return tuple(np.stack(f) for f in zip(*(_model_field(w, grid.x) for w in MODEL_OMEGAS)))


def test_gram_two_state_tails_on_model_fields():
    """Diagonal: Integral(phi^2, -inf..x) = 1/(2 rho tau(x)); cross: quadrature from -20000."""
    grid = Grid(-40.0, 0.0, 4001)
    phi, phi_x = _model_fields(grid)
    gram, _ = dbx.gram_plus(phi, phi_x, MODEL_OMEGAS, [1.0, 1.0], grid)
    for m, w in enumerate(MODEL_OMEGAS):
        exact = 1.0 / (2 * MODEL_RHO * _model_tau(w, grid.x))
        # the tail model is exact for these fields; the grid part carries the
        # rule's h^4 f'''/720 error, largest (~6e-10) near x = 0 where tau ~ 1
        assert abs(gram[0, m, m] - exact[0]) < 1e-10        # the (-inf, x_min] piece alone
        assert np.max(np.abs(gram[:, m, m] - exact)) < 1e-9
    (v1, v2), (d1, d2) = phi, phi_x
    ref = _model_cross_far_left(grid.x_min) + dbx.cumulative_corrected_trapezoid(
        v1 * v2, d1 * v2 + v1 * d2, grid.spacing)
    assert np.max(np.abs(gram[:, 0, 1] - ref)) < 2e-6
    assert np.array_equal(gram[:, 0, 1], gram[:, 1, 0])


def test_resolvent_sign_convention_on_model_fields():
    # insertion's I + G grows (M' = +f f^T) and removal's Gbar shrinks (M' = -f f^T);
    # the shared step's analytic (log det M)'' is the second difference of its own
    # log det on both (6.0e-7 and 2.7e-6 measured; the wrong sign misses by 2.4 and 9.1)
    grid = Grid(-40.0, 40.0, 8001)
    phi, phi_x = _model_fields(grid)
    alphas = np.array([0.8, 1.3])[:, None]
    gram, _ = dbx.gram_plus(phi, phi_x, MODEL_OMEGAS, alphas[:, 0], grid)
    cum, _, right, _ = dbx.tail_closed_gram(grid.x, grid.spacing, phi, phi_x, MODEL_OMEGAS,
                                            right=True)
    singular = ValidationError("det M <= 0")
    for mats, f, f_x, sign in ((np.eye(2) + gram, alphas * phi, alphas * phi_x, 1.0),
                               (right + (cum[-1] - cum), phi, phi_x, -1.0)):
        ld, dd2, *_ = dbx._resolvent(mats, f, f_x, sign, singular)
        fd = ((-ld[:-4] + 16 * ld[1:-3] - 30 * ld[2:-2] + 16 * ld[3:-1] - ld[4:])
              / (12 * grid.spacing**2))
        assert np.max(np.abs(dd2[2:-2] - fd)) < 1e-5


@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), log_cond=st.floats(0.0, 10.0),
       log_scale=st.floats(-6.0, 6.0), sign=st.sampled_from([1.0, -1.0]))
@example(n=4, seed=0, log_cond=10.0, log_scale=-6.0, sign=-1.0)
@settings(max_examples=60, deadline=None)
def test_resolvent_matches_lapack_on_spd_stacks(n, seed, log_cond, log_scale, sign):
    # 16 nodes of Q diag(lam) Q^T, eigenvalues spread over log_cond decades below
    # 10^log_scale.  Two backward-stable solves can differ by ~kappa eps, so the
    # 1e-12 relative bound grows as kappa / 1e3 past kappa = 1e3 (against LAPACK,
    # 1.2e-12 for log det and 7.5e-12 for the solve were measured at kappa ~ 1e4)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((16, n, n)))
    lam = 10.0 ** (log_scale - log_cond * rng.uniform(0.0, 1.0, (16, n)))
    mats = np.einsum("pij,pj,pkj->pik", q, lam, q)
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))
    f, f_x = rng.standard_normal((2, n, 16))
    log_det, _, u, w, _ = dbx._resolvent(mats, f, f_x, sign, ValidationError("not SPD"))
    det_sign, ref_log_det = np.linalg.slogdet(mats)
    ref = np.linalg.solve(mats, np.stack([f.T, f_x.T], axis=-1))
    tol = 1e-12 * np.maximum(1.0, np.linalg.cond(mats) / 1e3)
    assert np.all(det_sign == 1.0)
    assert np.all(np.abs(log_det - ref_log_det) <= tol * np.maximum(1.0, np.abs(ref_log_det)))
    for got, want in ((u, ref[:, :, 0].T), (w, ref[:, :, 1].T)):
        assert np.all(np.linalg.norm(got - want, axis=0) <= tol * np.linalg.norm(want, axis=0))


@pytest.mark.parametrize("bad", [np.diag([-1.0, -1.0]),           # det 1 > 0
                                 np.full((2, 2), np.nan),
                                 np.array([[1.0, np.nan], [np.nan, 1.0]])])
def test_resolvent_raises_the_callers_error_off_positive_definite(bad):
    mats = np.repeat(np.eye(2)[None], 5, axis=0)
    mats[3] = bad
    f = np.ones((2, 5))
    for sign, singular in ((1.0, PositonkitError("lost positivity")),
                           (-1.0, OrthonormalityError("lost positive definiteness"))):
        with pytest.raises(PositonkitError) as err:
            dbx._resolvent(mats, f, f, sign, singular)
        assert err.value is singular


def test_insert_rejects_a_gram_matrix_that_is_not_positive_definite(monkeypatch):
    # I + G = -2 I has det 4 >= 1 at every node, yet no real Cholesky factor
    monkeypatch.setattr(dbx, "generating_functions", _model_generating_functions)
    monkeypatch.setattr(dbx, "gram_plus", lambda phi, phi_x, omegas, alphas, grid: (
        np.broadcast_to(-3.0 * np.eye(len(omegas)), (grid.n_points, 2, 2)), []))
    states = [dbx.EmbeddedStateSpec(w, 1.0, -1.0) for w in MODEL_OMEGAS]
    with pytest.raises(PositonkitError, match="lost positivity"):
        dbx.insert_embedded(PotentialSpec.zero(), states, Grid(-40.0, 40.0, 401),
                            check_preconditions=False)


def _two_model_states(monkeypatch):
    """The two model states inserted into the zero potential, R(omega_2) off the real axis."""
    monkeypatch.setattr(dbx, "generating_functions", _model_generating_functions)
    states = [dbx.EmbeddedStateSpec(MODEL_OMEGAS[0], 0.8, -1.0),
              dbx.EmbeddedStateSpec(MODEL_OMEGAS[1], 1.3, np.exp(0.7j))]
    return dbx.insert_embedded(PotentialSpec.zero(), states, Grid(-40.0, 40.0, 4001),
                               check_preconditions=False)


def test_regular_branch_at_omega_is_the_scaled_eigenfunction(monkeypatch, inserted_std):
    # phi_+N at k = omega_n, regularized through the pole, was read off the Gram
    # matrix as -R^{1/2} (phi_n + sum_m alpha_m y_m Integral(phi_n phi_m, -inf..x));
    # (I + G) y = -(alpha phi) makes that R^{1/2} y_n / alpha_n (4.4e-16 measured)
    for res in (inserted_std, _two_model_states(monkeypatch)):
        alphas = np.array([s.alpha for s in res.states])
        for n, s in enumerate(res.states):
            acc_v, acc_d = res.phi[n].copy(), res.phi_x[n].copy()
            for m, a in enumerate(alphas):
                cum = res.gram[:, n, m] / (alphas[n] * a)
                acc_v += a * res.y[m] * cum
                acc_d += a * (res.y_x[m] * cum + res.y[m] * res.phi[n] * res.phi[m])
            for gram_route, field in ((acc_v, res.y[n]), (acc_d, res.y_x[n])):
                want = s.root_r * field / s.alpha
                assert np.max(np.abs(-s.root_r * gram_route - want)) <= 1e-13 * np.max(np.abs(want))


def test_remove_two_state_tails_on_model_fields():
    """Full-line integrals: 1/rho on the diagonal, quadrature on [-20000, 20000] across."""
    grid = Grid(-40.0, 40.0, 8001)
    phi, phi_x = _model_fields(grid)
    rem = dbx.remove_embedded(np.zeros(grid.n_points), phi, phi_x, MODEL_OMEGAS, grid,
                              ortho_tol=np.inf)
    assert np.max(np.abs(np.diagonal(rem.orthonormality) - 1.0 / MODEL_RHO)) < 1e-10
    (v1, v2), (d1, d2) = phi, phi_x
    mid = dbx.cumulative_corrected_trapezoid(v1 * v2, d1 * v2 + v1 * d2, grid.spacing)[-1]
    # phi_1 phi_2 is even, so the far right integral equals the far left one
    ref = 2 * _model_cross_far_left(grid.x_min) + mid
    assert abs(rem.orthonormality[0, 1] - ref) < 2e-6
    assert rem.orthonormality[0, 1] == rem.orthonormality[1, 0]


def test_tail_divergence_detected():
    x = np.linspace(-40.0, -20.0, 800)
    phi = np.sin(1.3 * x) * np.exp(-0.1 * (x - x[0]))   # grows outward (leftward)
    with pytest.raises(TailDivergenceError):
        fit_oscillatory_tail(x, phi, 1.3, "left")


def test_cross_tails_at_equal_frequencies_are_a_validation_error():
    # the cross integral's asymptotics divide by omega_1 - omega_2: equal momenta
    # are the package's ValidationError (CLI exit 2), not a bare ValueError
    fit = TailFit("left", -45.0, 1.0, 0.3, 1.0, 2.0, 0.5, 0.0)
    other = TailFit("left", -45.0, 1.0, 1.1, 0.8, 1.5, 0.4, 0.0)
    for a, b in ((fit, fit), (fit, other)):
        with pytest.raises(ValidationError, match="equal frequencies"):
            a.cross_integral(b)
    assert np.isfinite(fit.cross_integral(TailFit("left", -45.0, 1.6, 1.1, 0.8, 1.5, 0.4, 0.0)))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("theta", [0.0, 0.3, 2.0])
@pytest.mark.parametrize("omega", [0.3, 1.0, 1.6, 3.0])
def test_tail_fit_recovers_an_in_model_tail(omega, theta, side):
    # phi = sin(omega s + theta) / tau with tau' = -+ 2 rho sin^2(omega s + theta),
    # tau(0) = 1, is inside the model class: its tail integral is 1 / (2 rho tau(s0))
    rho, sgn = 0.7, (-1.0 if side == "left" else 1.0)
    s = np.linspace(-45.0, -25.0, 1001) if side == "left" else np.linspace(25.0, 45.0, 1001)

    def tau(x):
        return 1.0 + sgn * rho * (x - (np.sin(2 * (omega * x + theta)) - np.sin(2 * theta))
                                  / (2 * omega))

    phi = np.sin(omega * s + theta) / tau(s)
    s0 = s[0] if side == "left" else s[-1]
    ref = 1.0 / (2 * rho * tau(s0))
    fit = fit_oscillatory_tail(s, phi, omega, side)
    assert abs(fit.self_integral() / ref - 1.0) <= 1e-12
    d = (fit.theta - theta) % np.pi
    assert min(d, np.pi - d) <= 1e-12
    noisy = phi * (1.0 + 1e-6 * np.random.default_rng(7).standard_normal(s.size))
    assert abs(fit_oscillatory_tail(s, noisy, omega, side).self_integral() / ref - 1.0) <= 1e-4


def test_transform_result_csv_and_meta(tmp_path, inserted_std):
    path = tmp_path / "out.csv"
    inserted_std.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "x,q_seed,q_new,log_det,y_1"
    meta = inserted_std.meta()
    assert meta["states"][0]["omega"] == 1.0
    assert len(meta["tail_fits"]) == 1
