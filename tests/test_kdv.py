import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from positonkit import hankel, kdv
from positonkit import wvn_example as wvn
from positonkit.errors import DiscretizationFailureError, ValidationError
from positonkit.hankel import DetState, KernelTable, PoleData
from positonkit.schrodinger import Grid

RHO = 2.0


@pytest.fixture(scope="module")
def state0():
    return kdv.EvolvedState(0.0, wvn.ExampleParams(RHO, 1.0))


@pytest.fixture(scope="module")
def plane0(state0):
    """The t = 0 phi-plane on [-45, 2] at spacing 0.05 (941 nodes; x = -3 is node 840)."""
    n = int(np.ceil((2.0 + 45.0) / 0.05)) + 1
    return kdv.evolved_phi_plane(state0, Grid(-45.0, -45.0 + (n - 1) * 0.05, n))


def test_state_validation():
    with pytest.raises(ValidationError):
        kdv.EvolvedState(-0.1, wvn.ExampleParams(RHO))
    with pytest.raises(ValidationError):
        kdv.EvolvedState(1.0, wvn.ExampleParams(RHO))


def test_state_rejects_non_finite_time():
    for t in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            kdv.EvolvedState(t, wvn.ExampleParams(RHO))


def test_pole_data():
    poles = PoleData.for_rho(RHO)
    assert poles.ystar == pytest.approx(1.0, abs=1e-12)
    assert poles.c0 == pytest.approx(0.5, abs=1e-12)
    assert all(p.imag < 0 for p in poles.low_poles)
    # residues of R sum to zero (R decays like 1/z^3)
    assert abs(sum(poles.low_res) + poles.r_star) < 1e-12


# a lattice whose nodes miss the 0.02 grid that t > 0 kernels were once tabulated
# on: anchored at 2 * 2.013, step 0.2, from u ~ -100 to u ~ 36
OFF_GRID_U = 2 * 2.013 + 0.2 * np.arange(-520, 161)


@pytest.mark.parametrize("t", [0.02, 0.045])
def test_kernel_table_matches_direct_contour_sum(t):
    # oracle: the contour sum (1/2 pi) sum_j w_j R(z_j) e^{8 i z_j^3 t} (i z_j)^d e^{i z_j u},
    # summed term by term at lattice nodes on each side of u = 0
    poles = PoleData.for_rho(RHO)
    tab = KernelTable(poles, t, OFF_GRID_U)
    assert set(tab.sides) == {"u>=0", "u<0"}
    assert np.array_equal(tab.u_grid, OFF_GRID_U) and tab.values.shape == (2, OFF_GRID_U.size)
    for sl, z, w in tab.sides.values():
        nodes = np.arange(OFF_GRID_U.size)[sl]
        nodes = nodes[np.linspace(0, len(nodes) - 1, 8).round().astype(int)]
        refl = -1j * RHO / (z * (z * z - 1.0) + 1j * RHO)
        terms = ((w * refl * np.exp(8j * z**3 * t) / (2 * np.pi))[None, :]
                 * np.exp(1j * np.outer(OFF_GRID_U[nodes], z)))
        for d in (0, 1):
            direct = (terms * (1j * z) ** d).sum(axis=1)
            assert np.max(np.abs(tab.values[d, nodes] - direct)) <= 1e-9


@pytest.mark.parametrize("rho", [0.3, 2.0, 5.0])
def test_kernel_table_far_left_rounding(rho):
    # the u < 0 sums cancel down to K e^{b u} before e^{-b u} restores K, so the
    # table caps b |u[0]| at 11.  Oracle: at every u < 0 node a direct trapezoid
    # sum on Im z = min(0.12 ystar, 2 / |u|), where that factor is at most e^2
    # (the integral does not depend on the height between the real axis and
    # i ystar), whose Gaussian damping at its ends and whose aliases of the
    # real axis and of the pole i ystar are each at most e^{-40} of K
    t, poles = 0.02, PoleData.for_rho(rho)
    y = poles.ystar
    tab = KernelTable(poles, t, OFF_GRID_U)
    sl, z, _ = tab.sides["u<0"]
    assert z.imag[0] == pytest.approx(min(0.12 * y, 11.0 / -OFF_GRID_U[0]), rel=1e-12)
    scale = np.max(np.abs(tab.values), axis=1)
    for u, kernel in zip(OFF_GRID_U[sl], tab.values[:, sl].T):
        b = min(0.12 * y, 2.0 / -u)
        s = math.sqrt(40.0 / (24.0 * t * b)) + 4.0
        n = math.ceil(s / (2 * np.pi) * max(40.0 / b, (40.0 - y * u) / (y - b)))
        sig, h = np.linspace(-s, s, 2 * n + 1, retstep=True)
        zz = sig + 1j * b
        f = poles.reflection(zz) * np.exp(1j * zz * (8 * t * zz * zz + u)) * h / (2 * np.pi)
        direct = np.array([f.sum(), (1j * zz * f).sum()])
        assert np.all(np.abs(kernel - direct) <= 1e-10 * scale)


def test_kernel_tables_agree_on_overlapping_lattices():
    # half the step and a shorter reach left: other heights and rules on both
    # sides of u = 0, the same kernel at every node the two lattices share (on
    # u >= 0 only since the rule's spacing bounds the alias of the pole i ystar:
    # sized from the wide lattice's reach u ~ 36 alone, it let in 3.8e-12)
    poles = PoleData.for_rho(RHO)
    wide = KernelTable(poles, 0.02, OFF_GRID_U)
    fine = KernelTable(poles, 0.02, 2 * 2.013 + 0.1 * np.arange(-560, 761))
    assert wide.sides["u<0"][1].imag[0] != fine.sides["u<0"][1].imag[0]
    shared = np.arange(-280, 161)                  # lattice indices j of 2 * 2.013 + 0.2 j
    assert np.allclose(wide.u_grid[shared + 520], fine.u_grid[2 * shared + 560], rtol=0, atol=1e-12)
    gap = np.abs(wide.values[:, shared + 520] - fine.values[:, 2 * shared + 560])
    assert np.all(gap <= 1e-12 * np.max(np.abs(wide.values), axis=1)[:, None])


def test_kernel_table_needs_a_uniform_ascending_lattice():
    poles = PoleData.for_rho(RHO)
    bumped = OFF_GRID_U.copy()
    bumped[300] += 1e-4
    for u in (OFF_GRID_U[::-1], bumped, OFF_GRID_U[:1], np.append(OFF_GRID_U, 40.0)):
        with pytest.raises(ValidationError, match="uniform and ascending"):
            KernelTable(poles, 0.02, u)


@given(st.floats(0.3, 5.0), st.floats(0.0, hankel.T_MAX, exclude_min=True))
@settings(max_examples=10, deadline=None)
def test_kernel_is_real(rho, t):
    # the seed is real, so each symmetric contour rule sums conjugate pairs and
    # KernelTable keeps the real part; what it drops is rounding of the chirp-z
    # sums: within 1e-12 of kappa(u) = e^{-b u} sum_j |f_j|, the size of their
    # largest terms (e^{-b u} reaches e^{11} on the far left)
    poles = PoleData.for_rho(rho)
    chirp_z_sums, sums = hankel._chirp_z_sums, []

    def recording_sums(*args, **kwargs):
        sums.append(chirp_z_sums(*args, **kwargs))
        return sums[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hankel, "_chirp_z_sums", recording_sums)
        tab = KernelTable(poles, t, OFF_GRID_U)
    assert len(sums) == len(tab.sides) == 2
    for (sl, z, w), s in zip(tab.sides.values(), sums):
        damp = np.exp(-z.imag[0] * tab.u_grid[sl])
        f = np.abs(poles.reflection(z) * np.exp(8j * z**3 * t) * w) / (2 * np.pi)
        kappa = np.outer(np.abs(z) ** np.arange(2)[:, None] @ f, damp)
        assert np.all(np.abs(s.imag) * damp <= 1e-12 * kappa)
        for d in (0, 1):
            kept = s[d].real * damp
            assert np.max(np.abs(tab.values[d, sl] - kept)) <= 1e-14 * np.max(np.abs(kept))
    u = np.linspace(-20.0, 5.0, 101)
    rows = poles.kernel_low_t0(u)
    assert rows.dtype == np.float64 and rows.shape == (2, u.size)


def test_dyson_seed_values(state0):
    assert kdv.dyson_q(state0, 3.0) == pytest.approx(0.0, abs=1e-10)
    assert kdv.dyson_q(state0, -5.0) == pytest.approx(float(wvn.q_seed(RHO, -5.0)), abs=1e-3)


@pytest.mark.parametrize("rho", [0.3, 0.5, 1.0, 2.0, 5.0])
def test_dyson_q_t0_across_family(rho):
    # from just left of the thin-support edge, where a chain's kink spacing is
    # finest and its factor widest, out to x = -15: each own chain stays under
    # M_OP_CAP and its second difference meets q_seed at criterion 8's 1e-3
    state = kdv.EvolvedState(0.0, wvn.ExampleParams(rho))
    xs = -np.geomspace(state.x_thin + 1e-3, 15.0, 6)
    worst = max(abs(kdv.dyson_q(state, float(x)) - float(wvn.q_seed(rho, x))) for x in xs)
    assert worst < 1e-3


def test_dyson_determinant_positive():
    for t, x in ((0.0, -6.0), (0.02, -4.0), (0.02, 2.0)):
        state = kdv.EvolvedState(t, wvn.ExampleParams(RHO))
        assert np.isfinite(state.det_state(x).log_det())


def test_operator_intervals_over_a_node_array_match_the_scalar_rule():
    # plane_jost sizes every node at once; each entry is the scalar rule's
    # max(M_OP, ceil(w / delta)), w = 2 max(0, -x) + 32 / (2 y), the same integer
    y, m_op, delta = PoleData.for_rho(0.3).ystar, hankel.M_OP, 0.1
    assert m_op == 200
    x = np.concatenate([-45.0 + 0.05 * np.arange(947), [-190.0, -0.0, 0.0, 1e-300]])
    rows = hankel._operator_intervals(hankel.operator_spacing(y, x)[0], delta)
    scalar = [max(m_op, math.ceil((2.0 * max(0.0, -xx) + 32.0 / (2.0 * y)) / delta)) for xx in x]
    assert rows.tolist() == scalar
    assert hankel.operator_spacing(y, -3.0)[1] == min((6.0 + 32.0 / (2.0 * y)) / m_op, 0.22)


def test_operator_grid_cap_is_a_failure(state0):
    # at x = -190 the window 2|x| + 16/ystar needs more than M_OP_CAP intervals;
    # a capped grid would be narrower than the kernel's support
    with pytest.raises(DiscretizationFailureError, match="cap"):
        kdv.dyson_q(state0, -190.0)
    state = kdv.EvolvedState(0.02, wvn.ExampleParams(RHO))
    with pytest.raises(DiscretizationFailureError, match="cap"):
        kdv.evolved_phi_plane(state, Grid(-190.0, -189.0, 11))


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 531, 1061])
def test_core_factor_matches_dense_numpy(n):
    # a GLM core A = I + H W at t = 0, x = -40, delta = 0.1 (order-6 weights,
    # trapezoid weights below em_weights' 13 points): lu_factor's L U, lu_solve,
    # log det and the triangular inverse against numpy's dense LU routines,
    # on both sides of each 64-row block edge
    delta = 0.1
    h = PoleData.for_rho(RHO).kernel_low_t0(-80.0 + delta * np.arange(2 * n - 1))[0]
    w = hankel.em_weights(n - 1, delta) if n > 12 else np.full(n, delta)
    a = np.eye(n) + hankel._hankel(h, n) * w
    sqrt_w = np.sqrt(w)
    g, _ = factor = hankel.lu_factor(hankel._symmetric_core(h, sqrt_w), sqrt_w)
    d = np.diagonal(g)
    lower = g / d * sqrt_w / sqrt_w[:, None]             # W^-1/2 g D^-1 W^1/2
    upper = g.T * d[:, None] * sqrt_w / sqrt_w[:, None]  # W^-1/2 D g^T W^1/2
    assert np.all(np.triu(g, 1) == 0.0) and np.all(np.diagonal(lower) == 1.0)
    assert np.max(np.abs(lower @ upper - a)) <= 1e-12 * np.max(np.abs(a))
    b = np.random.default_rng(n).standard_normal((n, 3))
    for rhs in (b, b[:, 0]):
        ref = np.linalg.solve(a, rhs)
        assert np.max(np.abs(hankel.lu_solve(factor, rhs) - ref)) <= 1e-12 * np.max(np.abs(ref))
    sign, log_det = np.linalg.slogdet(a)
    assert sign == 1.0
    assert abs(2.0 * np.sum(np.log(d)) - log_det) <= 1e-12 * max(1.0, abs(log_det))
    g_inv, ref = hankel._tri_inverse(g), np.linalg.inv(g)
    assert np.all(np.triu(g_inv, 1) == 0.0)
    assert np.max(np.abs(g_inv - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_core_not_positive_definite_is_a_discretization_failure():
    # an indefinite core, one whose later pivot turns negative, and a core that
    # is not finite: none may escape as numpy's LinAlgError
    cores = [np.array([[1.0, 2.0], [2.0, 1.0]]), np.diag(np.r_[np.ones(70), -1.0]),
             np.array([[1.0, np.nan], [np.nan, 1.0]]), np.array([[np.inf]])]
    for a in cores:
        with pytest.raises(DiscretizationFailureError, match="not positive definite"):
            hankel.lu_factor(a.copy(), np.ones(len(a)))


def _counting(calls, f):
    """f, recording the order of its first argument at each call not nested in another."""
    depth = []

    def call(a, *args, **kwargs):
        if not depth:
            calls.append(a.shape[0])
        depth.append(1)
        try:
            return f(a, *args, **kwargs)
        finally:
            depth.pop()
    return call


def _assert_plane_matches_dense(rho, t, x, nodes=None, window=0):
    """plane_jost against a dense solve of each node's own system at its (x, delta, window, weights).

    That is `DetState`'s own factor of the node's core and the Schur
    complement of its border at the plane's spacing (order-6 weights), for g
    and log det, and at t > 0 for gx.  Every chain goes through `lu_factor`
    once, and reads its nodes off one forward substitution with its factor,
    at t > 0 with the factor's one triangular inverse as well, so neither
    count grows with the nodes.  hankel.M_OP, set to a node's intervals, gives
    `DetState` and the one-node plane the rows the plane gave that node.  The
    plane calls its kernel once; `DetState` and the one-node plane read their
    rows off that lattice's, so that both sides compare the linear algebra on
    identical kernel values.
    nodes picks the solved nodes compared, by position (all by default);
    window is `plane_jost`'s.  Returns the plane.
    """
    state = kdv.EvolvedState(t, wvn.ExampleParams(rho))
    lattice = []

    def kernel(u):
        if not lattice:
            lattice.extend([u, state.kernel(u)])
        j = np.rint((u - lattice[0][0]) / (lattice[0][1] - lattice[0][0])).astype(int)
        assert np.max(np.abs(lattice[0][j] - u)) <= 1e-9
        return lattice[1][:, j]

    ks = np.array([1.0 + 0.0j])
    factors, substitutions, inverses = [], [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hankel, "lu_factor", _counting(factors, hankel.lu_factor))
        mp.setattr(hankel, "_substitute", _counting(substitutions, hankel._substitute))
        mp.setattr(hankel, "_tri_inverse", _counting(inverses, hankel._tri_inverse))
        sol = hankel.plane_jost(state.poles, kernel, t, x, ks, state.fixed_delta(x[0]), window)
    assert factors == list(sol.factor_points)
    assert substitutions == factors
    assert inverses == (factors if t > 0.0 else [])
    assert 0.0 < sol.pivot_margin <= 1.0
    if t == 0.0:
        assert sol.gx is None and sol.q is None
    assert np.all(sol.log_det.imag == 0.0)
    log_det = sol.log_det.real
    xs = x[sol.nodes]
    with pytest.MonkeyPatch.context() as mp:
        for j in range(len(xs)) if nodes is None else nodes:
            mp.setattr(hankel, "M_OP", int(sol.sizes[j]) - 1)
            ds = DetState(state.poles, kernel, float(xs[j]), t, sol.delta)
            assert ds.mn + 1 == sol.sizes[j]
            if t == 0.0:
                g = ds.solve_jost(ks)
            else:
                g, gx = ds.solve_jost_with_derivative(ks)
                assert abs(sol.gx[j, 0] - gx[0]) <= 1e-10 * max(1.0, abs(gx[0]))
            assert abs(sol.g[j, 0] - g[0]) <= 1e-10 * max(1.0, abs(g[0]))
            dense = ds.log_det()
            assert abs(log_det[j] - dense) <= 1e-10 * max(1.0, abs(dense))
            if t > 0.0 and j in (1, len(xs) - 1):
                # q of a node solved in a block of its chain equals that of the node alone
                alone = hankel.plane_jost(state.poles, kernel, t, xs[j:j + 1], ks, sol.delta)
                assert abs(sol.q[j] - alone.q[0]) <= 1e-10 * max(1.0, abs(alone.q[0]))
    return sol


def test_plane_jost_matches_dense_solves():
    # two chains of 21 and 20 nodes: nodes 0-4 rows in overlap the base's own
    # end corrections, later ones do not; at t = 0 (delta = 0.1) u = 0 is kernel
    # sample 120 of the first chain and 119 of the second
    x = -6.0 + 0.05 * np.arange(41)
    for t in (0.02, 0.0):
        _assert_plane_matches_dense(RHO, t, x)


def test_plane_jost_window_matches_dense_solves():
    # the nodes of the plane above from node 20 on are its window: chain 0 is
    # solved at all of its 21 nodes, chain 1 from node 21 on (10 nodes), and its
    # factor is sized by the window alone: the 259 intervals that its first node,
    # x = -4.95, needs at delta = 0.1, where x = -5.95 needed 279
    x = -6.0 + 0.05 * np.arange(41)
    for t in (0.02, 0.0):
        sol = _assert_plane_matches_dense(RHO, t, x, window=20)
        assert np.array_equal(sol.nodes, np.r_[0:20:2, 20:41])
        assert sol.factor_points == (281, 260)
    with pytest.raises(ValidationError, match="window"):
        hankel.plane_jost(PoleData.for_rho(RHO), None, 0.02, x, [1.0], 0.22, window=21)


@given(st.floats(0.3, 5.0), st.floats(0.005, 0.05), st.sampled_from([0.05, 0.1, 0.3]),
       st.floats(-8.0, 1.0))
@settings(max_examples=12, deadline=None)
@example(2.0, 0.02, 0.1, -1e-310)   # a subnormal x_min puts a subnormal u < 0 first on the lattice
def test_plane_jost_core_positive_definite_across_family(rho, t, h, x_min):
    # every chain's core goes through lu_factor, whose Cholesky factor would
    # raise on a core that is not positive definite; h = 0.3 exceeds every
    # default spacing: one chain, nodes several rows apart
    _assert_plane_matches_dense(rho, t, x_min + h * np.arange(8))
    # at t = 0 the plane starts on a multiple of h, which puts the kink on a node
    _assert_plane_matches_dense(rho, 0.0, h * (round(x_min / h) + np.arange(8)))


def _negated_pivots(count):
    """lu_factor of the core with its first `count` diagonal entries negated: indefinite."""
    lu_factor = hankel.lu_factor

    def factor(a, sqrt_w):
        a[np.arange(count), np.arange(count)] *= -1.0
        return lu_factor(a, sqrt_w)
    return factor


@pytest.mark.parametrize("t", [0.0, 0.02])
def test_negative_pivot_reaches_the_positivity_check(t):
    # a negative leading pivot leaves the core indefinite, and its Cholesky
    # factor fails for any count of them: two no longer cancel in the phase
    state = kdv.EvolvedState(t, wvn.ExampleParams(RHO))
    x = -4.0 + 0.1 * np.arange(6)
    assert np.all(state.glm_plane(x).log_det.imag == 0.0)
    for count in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hankel, "lu_factor", _negated_pivots(count))
            with pytest.raises(DiscretizationFailureError, match="positiv"):
                state.glm_plane(x)


def _shifted_border(shift):
    """_resonance_border with 1 / Gamma lowered by shift: the Schur complement sigma + shift."""
    border = hankel._resonance_border

    def shifted(*args):
        log_gamma, s_row, s_inv_gamma = border(*args)
        return log_gamma, s_row, s_inv_gamma - shift
    return shifted


def test_negative_bordered_determinant_is_rejected():
    # det(I + H) has the sign of -sigma, the Schur complement of the resonance
    # border (det A > 0); sigma is about -8 at these nodes, so sigma + 100 > 0
    # makes det(I + H) negative in DetState and in plane_jost alike, and
    # glm_plane rejects the plane at every t
    for t, x in ((0.0, -3.0), (0.02, -3.0)):
        state = kdv.EvolvedState(t, wvn.ExampleParams(RHO))
        assert np.isfinite(state.det_state(x).log_det())
        nodes = x + 0.1 * np.arange(6)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hankel, "_resonance_border", _shifted_border(100.0))
            with pytest.raises(DiscretizationFailureError, match="positivity"):
                state.det_state(x + 0.5).log_det()
            flipped = hankel.plane_jost(state.poles, state.kernel, t, nodes, (),
                                        state.fixed_delta(x))
            with pytest.raises(DiscretizationFailureError, match="positivity"):
                state.glm_plane(nodes)
        assert np.all(flipped.log_det.imag == np.pi)


def test_plane_jost_t0_near_cap():
    # rho = 0.3 on the evolve phi-plane [-45, 2] at h = 0.05: two chains at
    # delta = 0.1 whose factors (1476 and 1475 points) are near M_OP_CAP, the
    # longest chain vectors e^{y delta (i - i0)}; the chains' first node (the
    # widest system), a middle one and the last
    sol = _assert_plane_matches_dense(0.3, 0.0, -45.0 + 0.05 * np.arange(941), nodes=(0, 471, 940))
    assert sol.factor_points == (1476, 1475)


def test_plane_jost_t_near_cap():
    # rho = 0.3 at t = 0.02 on [-60, 2] at h = 0.12: one chain at delta = 0.12 whose
    # factor (1480 points) is near M_OP_CAP, the longest carried sums and chain
    # vectors of a t > 0 plane; its first node (the widest system), a middle one and the last
    x = -60.0 + 0.12 * np.arange(517)
    sol = _assert_plane_matches_dense(0.3, 0.02, x, nodes=(0, 258, 516))
    assert sol.factor_points == (1480,)


def _chain_rows(state, x):
    """Rows of the widest chain factor of the t = 0 plane over the uniform nodes x."""
    chains, stride, delta = hankel.plane_spacing(0.0, (x[-1] - x[0]) / (len(x) - 1),
                                                 state.fixed_delta(float(x[0])))
    needed = [max(hankel.M_OP, int(np.ceil(hankel.operator_spacing(state.poles.ystar, xx)[0]
                                            / delta)))
              for xx in x]
    return int(np.max(np.arange(len(x)) // chains * stride + np.array(needed)))


@pytest.mark.parametrize("rho, x_min, x_max, n, spacings, delta_cap", [
    (2.0, -3.0, 2.0, 101, 1, None),     # the evolve_t0 grid: its nodes are plane nodes
    (2.0, -3.0, 2.03, 101, 1, None),    # x_max / h not integral; h / 2 would pass the cap
    (2.0, 1.9, 2.0, 11, 4, None),       # h = 0.01: at l = 3 the first node needs 1767 rows
    (2.0, -3.0, 2.0, 501, 4, None),
    (0.5, -3.0, 2.013, 101, 1, None),
    (2.0, -3.0, 3.0, 7, 1, None),       # h = 1: refined by 20 to two chains at delta = 0.1
    (2.0, -3.0, 2.0, 34, 1, None),      # h = 0.152: refined by 4
    (0.3, -3.0, 2.0, 34, 1, None),      # h / 4 would pass the cap: refined by 3, to 0.0505
    (2.0, 1.999999999, 2.0, 11, 3.3e8, None),  # h = 1e-10: l in closed form, no loop over it
    (2.0, 0.0, 100.0, 2001, 2, None),   # the last node's steps need l = 2, and no finer step fits
    # delta0 = 0.11, least delta 0.066: no chain delta 2 l h of these grids lies between;
    # each l h is then refined to two chains at delta = 2 l h / m
    (2.0, -3.0, 2.0, 168, 3, 0.11),     # 2 h < delta0 < 4 h: l = 3, m = 2
    (2.0, -3.0, 2.04, 43, 2, 0.11)])    # h > delta0: l = 2, m = 5
def test_t0_plane_grid_layout(rho, x_min, x_max, n, spacings, delta_cap):
    # the t = 0 phi-plane: l h / m apart with the least l whose chains fit
    # M_OP_CAP and the least m that brings l h to S_MAX as far as two chains fit
    # it, from x <= -45 to three chain steps past x_max, every node on the kink
    # lattice (delta / 2)Z of its chains
    state = kdv.EvolvedState(0.0, wvn.ExampleParams(rho), delta_cap=delta_cap)
    grid = Grid(x_min, x_max, n)
    pg = kdv.phi_plane_grid(state, grid)
    h, step = grid.spacing, pg.spacing
    m = round(spacings * h / step)
    l = round(step * m / h)
    assert step * m / h == pytest.approx(l, rel=1e-9)
    assert l == pytest.approx(spacings, rel=0.02)
    chains, _, delta = hankel.plane_spacing(0.0, step, state.fixed_delta(pg.x_min))
    lattice = 2.0 * pg.x / delta
    assert np.max(np.abs(lattice - np.rint(lattice))) <= 1e-8 * np.max(np.abs(lattice))
    assert -45.0 - step * (1.0 + 1e-9) <= pg.x_min <= -45.0 + 1e-9      # a step left, up to rounding
    margin = pg.x_max - x_max - 3 * chains * step
    assert -1e-9 <= margin < delta / 2
    assert _chain_rows(state, pg.x) <= hankel.M_OP_CAP
    if l > 1:
        # the least l: at l - 1 a chain passes the cap, or comes within the
        # closed form's slack of 6 rows of it
        coarser = (l - 1) * h
        assert _chain_rows(state, np.arange(-45.0, x_max + coarser, coarser)) > hankel.M_OP_CAP - 6
    # the least m: l h / (m - 1) is above S_MAX, and where l h / m still is, at
    # l h / (m + 1) a chain passes the cap or comes within the slack of it
    assert m == 1 or l * h / (m - 1) > kdv.S_MAX
    if step > kdv.S_MAX:
        finer = l * h / (m + 1)
        assert _chain_rows(state, np.arange(-45.0, x_max + finer, finer)) > hankel.M_OP_CAP - 6


def test_t_plane_grid_is_the_output_spacing():
    # at t > 0 the plane ends at x_max at the grid's spacing, as criterion 9c's does
    state = kdv.EvolvedState(0.02, wvn.ExampleParams(RHO))
    pg = kdv.phi_plane_grid(state, Grid(-3.0, 2.0, 101))
    assert (pg.x_min, pg.x_max, pg.n_points) == (-45.0, 2.0, 941)


@pytest.mark.parametrize("t", [0.0, 0.02])
@pytest.mark.parametrize("rho", [0.3, 2.0, 5.0])
def test_split_plane_matches_the_whole_plane(rho, t):
    # left of the output window only chain 0 is solved, and I and its tail fit
    # are read off chain 0's nodes there; at every output node q moves by at
    # most 1e-10 and q_plus by at most 1e-5 from the plane that solves every
    # chain throughout (at h = 0.05 every plane has two chains or more; at
    # h = 0.1 the rho = 5 planes have one, and nothing to drop)
    state = kdv.EvolvedState(t, wvn.ExampleParams(rho))
    out = Grid(-3.0, 2.0, 101)
    pg = kdv.phi_plane_grid(state, out)
    split = kdv.evolved_phi_plane(state, pg, read_from=out.x_min)
    whole = kdv.evolved_phi_plane(state, pg)
    assert whole.grid == pg and whole.solved == pg.n_points
    # the window starts at the last chain-0 node at or left of x_min - 3 delta - 2 h
    edge = out.x_min - 3 * split.delta - 2 * pg.spacing
    assert split.grid.x_min - 1e-9 <= edge < split.grid.x_min + split.delta
    chains = len(split.factor_points)
    assert split.solved == (pg.n_points - split.grid.n_points) // chains + split.grid.n_points
    assert np.max(np.abs(split.q_at(out.x) - whole.q_at(out.x))) <= 1e-10
    assert np.max(np.abs(kdv.q_plus_evolved(split, 1.0, out.x)
                         - kdv.q_plus_evolved(whole, 1.0, out.x))) <= 1e-5


@pytest.mark.parametrize("t, x_min, x_max, n, factor_points", [
    (0.0, -3.0, 2.0, 101, (1061, 257)),     # evolve_t0: chain 1 over [-3.35, 2.25] at delta = 0.1
    (0.02, -3.0, 2.0, 51, (531, 229)),      # evolve_t: chain 1 from x = -3.7 to 1.9 at delta = 0.2
    # a narrow grid at t > 0: 22 chains at delta = 0.22 over nodes 0.01 apart, and
    # chains 1-21 hold the 3 or 4 nodes each of the window [1.2, 2]
    (0.02, 1.9, 2.0, 11, (483,) + (204,) * 14 + (203,) * 7)])
def test_window_chains_have_window_sized_factors(t, x_min, x_max, n, factor_points):
    # chain 0 keeps the factor that spans the plane; each chain r >= 1 holds only
    # the window's nodes and M_OP = 200 intervals past its last, all from one kernel
    # call; at t = 0 the kink chain, a plane of its own, makes a second
    state = kdv.EvolvedState(t, wvn.ExampleParams(RHO))
    calls = []

    def kernel(u):
        calls.append(u.size)
        return kdv.EvolvedState.kernel(state, u)

    state.kernel = kernel
    out = Grid(x_min, x_max, n)
    plane = kdv.evolved_phi_plane(state, kdv.phi_plane_grid(state, out), read_from=x_min)
    assert plane.factor_points == factor_points
    assert len(calls) == (2 if t == 0.0 else 1)
    span = round((plane.grid.x_max - plane.grid.x_min) / plane.delta)
    assert max(plane.factor_points[1:]) <= span + hankel.M_OP + 1
    if t == 0.0:
        assert np.max(np.abs(plane.phi - wvn.phi_closed(RHO, plane.grid.x))) < 2e-4


def test_plane_grid_rejects_output_left_of_its_start():
    # the plane starts a step or less left of -45 at every t; output x left of
    # it would be extrapolation, so the layout rejects the grid
    for t in (0.0, 0.02):
        state = kdv.EvolvedState(t, wvn.ExampleParams(RHO))
        with pytest.raises(ValidationError, match="x_min"):
            kdv.phi_plane_grid(state, Grid(-50.0, 2.0, 105))


def test_state_rejects_rho_beyond_validated():
    # at rho = 10 the t = 0 read-out misses q_plus1 by 2.6e-3 on the evolve_t0 grid
    # and by 1.2e-2 on [-3, 2] at n = 168, where the cap coarsens the plane to 3 h
    with pytest.raises(ValidationError, match="rho"):
        kdv.EvolvedState(0.0, wvn.ExampleParams(kdv.RHO_MAX * 1.01))
    kdv.EvolvedState(0.0, wvn.ExampleParams(kdv.RHO_MAX))


def test_off_lattice_t0_plane_is_rejected(state0):
    # the plane the output grid [-3, 2.03] (n = 101) got at its own spacing, ending
    # at x_max, cut to [-15, 2.03]: 2 x[0] / delta is not an integer
    h = 0.0503
    n = int(np.ceil((2.03 + 15.0) / h)) + 1
    grid = Grid(2.03 - (n - 1) * h, 2.03, n)
    with pytest.raises(ValidationError, match="kink"):
        kdv.evolved_phi_plane(state0, grid)


def test_plane_read_outs(plane0):
    # at plane nodes the read-outs are the nodes' own values, bit for bit
    j = np.arange(3, plane0.grid.n_points, 37)
    x = plane0.grid.x[j]
    assert np.array_equal(plane0.fields(x), np.stack([plane0.phi[j], plane0.phi_x[j],
                                                      plane0.big_i[j]]))
    served = np.isfinite(plane0.q[j])
    assert np.array_equal(plane0.q_at(x[served]), plane0.q[j][served])
    # between nodes: the local quintic Hermite read-outs of phi and I against the
    # closed forms, within the bounds the nodes themselves meet
    mid = x + 0.3 * plane0.grid.spacing
    phi, _, big_i = plane0.fields(mid)
    assert np.max(np.abs(phi - wvn.phi_closed(RHO, mid))) < 2e-4
    assert np.max(np.abs(big_i - wvn.big_i_closed(RHO, mid))) < 2e-3
    # off the plane there is nothing to read: no extrapolation
    g = plane0.grid
    for x_off in (g.x_min - 0.3 * g.spacing, g.x_max + 0.3 * g.spacing, np.nan):
        with pytest.raises(ValidationError, match="must lie on the grid"):
            plane0.fields([0.0, x_off])
        with pytest.raises(ValidationError, match="must lie on the grid"):
            plane0.q_at(x_off)


def test_plane_read_outs_at_cell_midpoints_match_the_closed_forms(plane0):
    # each off-node x is read off the Hermite interpolants of its own cell; at the
    # midpoint of every cell of the plane they meet the closed forms within the
    # errors of the node values themselves (7.6e-5, 6.4e-4 and 7.7e-6)
    x = plane0.grid.x
    mid = 0.5 * (x[:-1] + x[1:])
    phi, phi_x, big_i = plane0.fields(mid)
    assert np.max(np.abs(phi - wvn.phi_closed(RHO, mid))) < 1e-4
    assert np.max(np.abs(phi_x - wvn.phi_x_closed(RHO, mid))) < 1e-3
    assert np.max(np.abs(big_i - wvn.big_i_closed(RHO, mid))) < 1e-5


@pytest.mark.parametrize("rho", [0.3, 2.0, 5.0])
def test_t_plane_read_outs_match_a_plane_at_half_the_spacing(rho):
    # the evolve_t output grid (h = 0.1) and the one at h = 0.05 get planes at the
    # same operator spacing, and the finer plane's nodes are the coarser's cell
    # midpoints; phi and phi_x agree to 1e-14 at common nodes, so their gap there is
    # the read-out's, and I's (about 6e-6 at common nodes too) is its trapezoid's
    planes = []
    for n in (51, 101):
        state = kdv.EvolvedState(0.02, wvn.ExampleParams(rho))
        out = Grid(-3.0, 2.0, n)
        planes.append(kdv.evolved_phi_plane(state, kdv.phi_plane_grid(state, out), read_from=-3.0))
    coarse, fine = planes
    assert coarse.delta == fine.delta
    mid = Grid(-3.0, 2.0, 101).x[1::2]
    gap = np.max(np.abs(coarse.fields(mid) - fine.fields(mid)), axis=1)
    assert np.all(gap < [5e-7, 2e-6, 2e-5])


@pytest.mark.parametrize("x_min, x_max, n", [
    (-3.0, 2.03, 101), (-1.0, 1.0, 2001),
    # a few nodes, or an end next to the kink: the plane then reaches 7 chain
    # steps right of x = 0, and its window holds Q_NODES finite nodes
    (1.9, 1.91, 2), (-0.02, 0.02, 3), (-1.0, -0.01, 7), (0.01, 0.3, 7)])
@pytest.mark.parametrize("rho", [0.3, 2.0, 5.0])
def test_t0_q_off_the_plane_nodes(rho, x_min, x_max, n):
    # the output x between plane nodes, on both sides of x = 0, and the nodes the
    # kink chain drops (on the first two grids at rho = 0.3: x = -0.2515 and
    # -0.235) are read off the plane's node q within criterion 8's 1e-3 (worst
    # measured: 3.8e-4, at rho = 5)
    state = kdv.EvolvedState(0.0, wvn.ExampleParams(rho))
    out = Grid(x_min, x_max, n)
    plane = kdv.evolved_phi_plane(state, kdv.phi_plane_grid(state, out), read_from=x_min)
    g = plane.grid
    dropped = g.x[np.isnan(plane.q) & (g.x >= x_min) & (g.x <= x_max)]
    if rho == 0.3 and n >= 101:
        assert dropped.size == 1
    x = np.concatenate([out.x, dropped])
    assert np.max(np.abs(plane.q_at(x) - wvn.q_seed(rho, x))) <= 1e-3
    assert np.max(np.abs(kdv.q_plus_evolved(plane, 1.0, x) - wvn.q_plus1(rho, 1.0, x))) <= 2e-3


def test_q_off_a_t_plane_node_is_rejected():
    # a t > 0 plane's nodes are its output's, and q is read there only
    state = kdv.EvolvedState(0.02, wvn.ExampleParams(RHO))
    out = Grid(-3.0, 2.0, 51)
    plane = kdv.evolved_phi_plane(state, kdv.phi_plane_grid(state, out), read_from=out.x_min)
    assert np.all(np.isfinite(plane.q_at(out.x)))
    off = out.x[10] + 0.5 * out.spacing
    with pytest.raises(ValidationError, match="nodes"):
        plane.q_at([out.x[10], off])
    with pytest.raises(ValidationError, match="nodes"):
        kdv.dyson_q(state, off)
    assert np.all(np.isfinite(plane.fields(off)))


@pytest.mark.parametrize("rho", [0.3, 2.0, 5.0])
def test_one_node_plane_psi_t0_matches_closed(rho):
    # every evolved psi comes off a plane: psi = e^{ikx}(1 - g) of a one-node
    # plane at x's own spacing (on the kink lattice for x < 0) against the
    # closed-form right Jost solution, on both sides of x = 0
    state = kdv.EvolvedState(0.0, wvn.ExampleParams(rho))
    for x, k in ((0.0, 2.0), (1.3, 1.0), (-5.0, 2.0), (-0.5, 1.7)):
        sol = state.glm_plane(np.array([x]), [k], delta0=state.own_spacing(x))
        psi = np.exp(1j * k * x) * (1.0 - sol.g[0, 0])
        assert abs(psi - wvn.right_jost_closed(rho, x, k)[0]) < 1e-3


def test_own_spacing_is_elementwise_and_on_the_kink_lattice(state0):
    # a chain of x's own at t = 0 puts u = 0 on a node for x < 0 (2|x| / delta
    # an integer of at least KINK_NODES_MIN) and keeps fixed_delta(x) for x >= 0;
    # at t > 0 it is fixed_delta(x) everywhere
    x = np.array([-40.0, -5.0, -0.5, -0.01, 0.0, 1.3])
    delta = state0.own_spacing(x)
    assert delta.tolist() == [state0.own_spacing(float(xx)) for xx in x]
    steps = -2.0 * x[:4] / delta[:4]
    assert np.all(np.abs(steps - np.rint(steps)) <= 1e-9) and np.all(steps >= hankel.KINK_NODES_MIN)
    assert delta[4:].tolist() == [state0.fixed_delta(xx) for xx in x[4:]]
    state = kdv.EvolvedState(0.02, wvn.ExampleParams(RHO))
    assert state.own_spacing(x).tolist() == [state.fixed_delta(xx) for xx in x]


def test_psi_x_is_not_read_at_t0(state0, plane0):
    # at t = 0 K' jumps at u = 0, so neither the pole classifier nor the dense
    # oracle reads an x-derivative of psi; the static pole has its own criterion
    with pytest.raises(ValidationError, match="greens_diagonal_transformed"):
        kdv.classify_embedded_pole_evolved(plane0, 1.0, -1.1)
    with pytest.raises(ValidationError, match="u = 0"):
        state0.det_state(-3.0).solve_jost_with_derivative([1.0])


def test_evolved_plane_t0_matches_closed(plane0):
    g = plane0.grid
    phic = wvn.phi_closed(RHO, g.x)
    assert np.max(np.abs(plane0.phi - phic)) < 5e-3
    i0 = int(plane0.grid.index(0.0)[1][0])
    assert abs(plane0.big_i[i0] - wvn.big_i_closed(RHO, 0.0)) < 2e-3


def test_evolved_plane_t0_is_chained(plane0):
    # h = 0.05 under delta0 = 0.22: two chains at delta = 0.1, u = 0 on a node of
    # each; the per-node aligned grids missed phi_closed by 1.8e-3 on this plane
    assert plane0.delta == pytest.approx(0.1, abs=1e-12)
    assert plane0.factor_points == (1061, 1060)
    assert np.max(np.abs(plane0.phi - wvn.phi_closed(RHO, plane0.grid.x))) < 2e-4
    # q from the chains' log-determinants wherever the centred stencil fits its
    # chain and, on x < 0, keeps 12 kink intervals at its inner end (x <= -0.9),
    # on x > 0 stays right of x = 0 (x >= 0.3); next to x = 0 from the forward
    # stencil along the chains on [0, 0.3), one kink chain on [-0.85, -0.15] and
    # the series on (-0.12, 0).  NaN, and left to dyson_q, only at the chains'
    # three end nodes, the padding no output node reads
    x = plane0.grid.x
    served = np.isfinite(plane0.q)
    i = np.arange(len(x))
    near_zero = (x > -0.9 + 1e-9) & (x < 0.3 - 1e-9)
    assert np.array_equal(served, (i >= 6) & (i < len(x) - 6))
    assert np.max(np.abs(plane0.q[served] - wvn.q_seed(RHO, x[served]))) < 1e-3
    assert np.max(np.abs(plane0.q[near_zero] - wvn.q_seed(RHO, x[near_zero]))) < 1e-4


@pytest.mark.parametrize("h", [0.05, 0.1])
@pytest.mark.parametrize("rho", [0.3, 2.0, 5.0])
def test_t0_plane_serves_q_next_to_the_kink(rho, h):
    # the output grid [-3, 2]: q is finite at every window node but the three end
    # chain steps.  The nodes -9 delta < x <= -x_thin share one kink chain, and each
    # is no further from q_seed than its own dyson_q chain, up to a slack of 1e-11
    # (the worst excess measured over these six planes is 4.1e-12, at rho = 5,
    # h = 0.05).  At rho = 0.3, h = 0.05 the innermost, x = -0.25, would take the
    # chain's factor past M_OP_CAP; it is dropped, and q_at reads it off its
    # neighbours nearer q_seed than its own chain (5.3e-6 against 1.04e-5)
    state = kdv.EvolvedState(0.0, wvn.ExampleParams(rho))
    out = Grid(-3.0, 2.0, round(5.0 / h) + 1)
    # h = 0.1: the plane at the output's spacing, on the kink lattice 0.1Z of two
    # chains at delta = 0.2 (rho = 5: one at 0.1); phi_plane_grid refines it to S_MAX
    pg = kdv.phi_plane_grid(state, out) if h == 0.05 else Grid(-45.0, 2.6, 477)
    plane = kdv.evolved_phi_plane(state, pg, read_from=out.x_min)
    ends = 3 * len(plane.factor_points)
    x, q = plane.grid.x[ends:-ends], plane.q[ends:-ends]
    dropped = [-0.25] if (rho, h) == (0.3, 0.05) else []
    assert x[np.isnan(q)].tolist() == pytest.approx(dropped)
    kink = (x <= -state.x_thin) & (x > -9.0 * plane.delta + 1e-9) & np.isfinite(q)
    assert np.count_nonzero(kink) == state.q_points_kink_chain > 0
    assert plane.kink_chain.factor_points[0] <= hankel.M_OP_CAP
    own = kdv.EvolvedState(0.0, wvn.ExampleParams(rho))
    err_own = np.abs([kdv.dyson_q(own, float(v)) for v in x[kink]] - wvn.q_seed(rho, x[kink]))
    assert np.all(np.abs(q[kink] - wvn.q_seed(rho, x[kink])) <= err_own + 1e-11)
    for v in dropped:
        err_drop = abs(plane.q_at(v)[0] - wvn.q_seed(rho, v))
        assert err_drop <= abs(kdv.dyson_q(own, v) - wvn.q_seed(rho, v))


def test_q_plus_evolved_t0_matches_oracle(state0, plane0):
    xq = np.arange(-6.0, 2.01, 0.5)
    qp = kdv.q_plus_evolved(plane0, 1.0, xq)
    qc = wvn.q_plus1(RHO, 1.0, xq)
    assert np.max(np.abs(qp - qc)) < 2e-3


def test_q_plus_free_limit(state0, plane0):
    # without the inserted state the formula returns the plane's evolved seed itself
    x = np.array([-3.0, -0.3])          # read from the plane's chains, and from its kink chain
    tiny = kdv.q_plus_evolved(plane0, 1e-8, x)
    assert np.max(np.abs(tiny - plane0.q_at(x))) < 1e-6


def test_kdv_residual_zero_field():
    u = np.zeros((5, 11))
    assert kdv.kdv_residual(u, 0.1, 0.01) == 0.0


def test_kdv_residual_soliton():
    hx, ht = 1e-2, 1e-3
    xs = np.arange(-8.0, 8.0 + hx / 2, hx)
    ts = (np.arange(5) - 2) * ht
    u = np.array([wvn.soliton_closed(xs, t) for t in ts])
    assert kdv.kdv_residual(u, hx, ht) < 1e-4


def test_split_step_zero():
    x = np.linspace(-40, 40, 512, endpoint=False)
    out = kdv.split_step_reference(x, np.zeros_like(x), 0.1, dt=1e-3)
    assert np.max(np.abs(out)) == 0.0


def test_split_step_soliton():
    x = np.linspace(-80, 80, 2048, endpoint=False)
    u = kdv.split_step_reference(x, wvn.soliton_closed(x, 0.0), 0.5, dt=2e-4)
    ref = wvn.soliton_closed(x, 0.5)
    inner = np.abs(x) <= 40
    assert np.max(np.abs(u[inner] - ref[inner])) < 1e-3


def test_split_step_cfl_rejection():
    x = np.linspace(-10, 10, 2048, endpoint=False)
    with pytest.raises(ValidationError):
        kdv.split_step_reference(x, 50.0 * np.exp(-x**2), 0.1, dt=1e-2)


def _glm_q(state, x):
    """q at x from the GLM read-out of a one-node plane (`EvolvedState.glm_plane`)."""
    return float(state.glm_plane(np.array([x])).q[0])


def test_grid_convergence_invariant():
    # at the refined operator spacing, halving it again moves the plane's GLM
    # read-out of q at t > 0 by well under 10% of the evolved-pipeline
    # tolerance budget (1e-2)
    a = _glm_q(kdv.EvolvedState(0.02, wvn.ExampleParams(RHO), delta_cap=0.08), -8.0)
    b = _glm_q(kdv.EvolvedState(0.02, wvn.ExampleParams(RHO), delta_cap=0.04), -8.0)
    assert abs(a - b) < 1e-3


@pytest.mark.parametrize("x", [-8.0, -20.0])
def test_dyson_q_far_left_converged(x):
    # at the default spacing fixed_delta(x) (0.16 and 0.22) q agrees with a
    # delta_cap = 0.05 solve within the bound of test_grid_convergence_invariant;
    # the resolvent-trace formula, which needs K'', missed it by 1.2e-2 and 6.3e-2
    a = _glm_q(kdv.EvolvedState(0.02, wvn.ExampleParams(RHO)), x)
    b = _glm_q(kdv.EvolvedState(0.02, wvn.ExampleParams(RHO), delta_cap=0.05), x)
    assert abs(a - b) < 1e-3


def test_dyson_q_t0_is_its_own_chain():
    # x < 0: 7 nodes centred on x at a kink spacing (2|x| / delta = 12 at x = -0.5);
    # x >= 0: 8 nodes forward from x at the default spacing; the thin support: none
    state = kdv.EvolvedState(0.0, wvn.ExampleParams(RHO))
    for x, nodes in ((-0.5, 7), (-5.0, 7), (0.3, 8), (-0.05, 0)):
        before = len(state.operator_sizes)
        kdv.dyson_q(state, x)
        sizes = state.operator_sizes[before:]
        assert len(sizes) == nodes
        assert np.all(np.diff(sizes) == -1)              # one chain: one row fewer per node


@pytest.mark.slow
def test_conservation_under_evolution(averaged_integral):
    # windowed integrals of q_+1 and its square drift by < 5e-2 from their
    # t = 0 values (exact closed forms) under the flow
    par = wvn.ExampleParams(RHO, 1.0)
    state = kdv.EvolvedState(0.02, par, delta_cap=0.12)
    L = 25.0
    n = int(round((L + 45.0) / 0.05)) + 1
    gc = Grid(-45.0, -45.0 + (n - 1) * 0.05, n)
    plane = kdv.evolved_phi_plane(state, gc)
    xs = gc.x[gc.x >= -L - 1e-9]
    q_t = kdv.q_plus_evolved(plane, 1.0, xs)
    q_0 = wvn.q_plus1(RHO, 1.0, xs)
    d_mass = abs(averaged_integral(xs, q_t) - averaged_integral(xs, q_0))
    d_mom = abs(averaged_integral(xs, q_t**2) - averaged_integral(xs, q_0**2))
    assert d_mass < 5e-2
    assert d_mom < 5e-2


def test_pole_probe_outside_the_plane_is_rejected():
    # the evolve_t plane's window is [-3.8, 2]: a probe left of it read a node
    # near its right end, and one right of it indexed past the last node
    state = kdv.EvolvedState(0.02, wvn.ExampleParams(RHO, 1.0))
    plane = kdv.evolved_phi_plane(state, kdv.phi_plane_grid(state, Grid(-3.0, 2.0, 51)),
                                  read_from=-3.0)
    assert plane.grid.x_min == pytest.approx(-3.8) and plane.grid.n_points == 59
    for x_probe in (-4.5, 2.3):
        with pytest.raises(ValidationError):
            kdv.classify_embedded_pole_evolved(plane, 1.0, x_probe)
