import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from positonkit import darboux as dbx
from positonkit import scattering as sct
from positonkit import wvn_example as wvn
from positonkit.errors import (
    DegenerateWronskianError,
    PoleEvaluationError,
    ResidueClassificationError,
    ValidationError,
)
from positonkit.schrodinger import Grid, PotentialSpec, right_jost, right_jost_at

RHO = 2.0


def test_reflection_matches_closed(wvn_spec):
    for k in (0.5, 2.0, 1.3, -1.7):
        r = sct.scattering_coefficients(wvn_spec, k)[0]
        _, rc, _ = wvn.scattering_closed(RHO, k)
        assert abs(r - rc) < 1e-6


def test_reflection_zero_potential():
    assert abs(sct.scattering_coefficients(PotentialSpec.zero(), 1.7)[0]) < 1e-12


def test_transmission_matches_closed(wvn_spec):
    for k in (0.5, 2.0):
        t = sct.scattering_coefficients(wvn_spec, k)[1]
        tc, _, _ = wvn.scattering_closed(RHO, k)
        assert abs(t - tc) < 1e-6
    assert abs(sct.scattering_coefficients(PotentialSpec.zero(), 1.1)[1] - 1.0) < 1e-12


def test_unitarity_and_symmetry(wvn_spec):
    for k in (0.4, 1.6, 2.8):
        r, t = sct.scattering_coefficients(wvn_spec, k)
        assert abs(abs(r) ** 2 + abs(t) ** 2 - 1.0) < 1e-6
        rm = sct.scattering_coefficients(wvn_spec, -k)[0]
        assert abs(rm - np.conj(r)) < 1e-6


@given(st.floats(0.3, 5.0),
       st.lists(st.floats(0.2, 3.0).filter(lambda k: abs(k - 1.0) > 1e-3),
                min_size=1, max_size=12, unique=True))
@settings(max_examples=30, deadline=None)
def test_batched_scattering_properties(rho, ks):
    ks = np.array(ks)
    r, t = sct.scattering_coefficients(PotentialSpec.wvn_example(rho), np.concatenate([ks, -ks]))
    n = len(ks)
    for k, r_k, t_k in zip(ks, r[:n], t[:n]):
        t_cl, r_cl, _ = wvn.scattering_closed(rho, k)
        assert abs(r_k - r_cl) < 1e-6 and abs(t_k - t_cl) < 1e-6
    assert np.max(np.abs(np.abs(r) ** 2 + np.abs(t) ** 2 - 1.0)) < 1e-6
    assert np.max(np.abs(r[n:] - np.conj(r[:n]))) < 1e-6


def test_scattering_coefficients_names_degenerate_momentum(monkeypatch, wvn_spec):
    # a left reference proportional to psi makes W(phi, psi) vanish
    monkeypatch.setattr(sct, "left_reference",
                        lambda spec, k, x: right_jost_at(spec, k, x))
    with pytest.raises(DegenerateWronskianError, match="k=1.7"):
        sct.scattering_coefficients(wvn_spec, np.array([1.7, 2.1]))


@pytest.mark.parametrize("rho", [0.3, 2.0, 5.0])
def test_resonance_probes_match_the_separate_solves(rho):
    # one solve for both momentum sets, where the insertion precheck made two:
    # R moves by <= 1.5e-12 and psi by <= 4.5e-12 (measured)
    spec = PotentialSpec.wvn_example(rho)
    omegas = np.array([1.0, 1.7])
    r, psi = sct.resonance_probes(spec, omegas, dbx.PROBE_XS)
    ref, _ = right_jost_at(spec, sct.residue_stencil(omegas), dbx.PROBE_XS)
    assert r.shape == omegas.shape and psi.shape == ref.shape == (2, 8, 3)
    assert np.max(np.abs(r - sct.reflection_at_resonance(spec, omegas))) < 1e-9
    assert np.max(np.abs(psi - ref)) < 1e-9


def test_near_resonance_reflection(wvn_spec):
    for k in (1.0 + 1e-3, 1.0 - 1e-3):
        r = sct.scattering_coefficients(wvn_spec, k)[0]
        assert abs(r) < 1.0
        assert 1.0 - abs(r) < 5e-6


def test_reflection_at_resonance(wvn_spec):
    r = sct.reflection_at_resonance(wvn_spec, 1.0)
    assert abs(abs(r) - 1.0) < 1e-8
    assert abs(r + 1.0) < 1e-6


# The seed's left Weyl solution and diagonal Green's function are read off its
# pair (phi, psi) on a grid's nodes: `transformed_solutions` of a transform that
# inserts no state returns the pair unchanged.  Its m-functions are read at a
# point off the pointwise solutions `left_reference` and `right_jost_at`.

def _seed_pair(spec, k, grid):
    return dbx.transformed_solutions(dbx.insert_embedded(spec, [], grid), k)


def _wronskian(f, g, x, grid):
    """W(f, g) = f g' - f' g of two (values, derivs) pairs at a node x of the grid."""
    _, j, on = grid.index(x)
    assert np.all(on)
    return f[0][..., j] * g[1][..., j] - f[1][..., j] * g[0][..., j]


def test_left_weyl_free_and_wronskian(wvn_spec):
    # at real k, phi is the left Weyl solution conj(psi) + R psi
    g = Grid(-10.0, 2.0, 1201)
    (phi0, _), _ = _seed_pair(PotentialSpec.zero(), 1.5, g)
    assert np.max(np.abs(phi0 - np.exp(-1.5j * g.x))) < 1e-12
    k = 2.0
    phi, psi = _seed_pair(wvn_spec, k, g)
    r = sct.scattering_coefficients(wvn_spec, k)[0]
    for f, p in zip(phi, psi):      # values, then derivatives
        assert np.max(np.abs(f - (np.conj(p) + r * p))) < 1e-9
    # basic scattering relation: W(psi, phi) = -2ik
    assert abs(_wronskian(psi, phi, -4.4, g) + 2j * k) < 1e-6


@st.composite
def potential_and_momentum(draw):
    """A potential of each kind, and a real or complex momentum at least 1e-2 from +-1."""
    kind = draw(st.sampled_from(["zero", "wvn_example", "sampled"]))
    if kind == "zero":
        spec = PotentialSpec.zero()
    elif kind == "wvn_example":
        spec = PotentialSpec.wvn_example(draw(st.floats(0.3, 5.0)))
    else:       # its support [-3, 0] + shift lies left of, across or right of X_EVAL
        shift = draw(st.floats(-5.0, 3.0))
        q = draw(st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4))
        spec = PotentialSpec.sampled(np.arange(-3.0, 1.0) + shift, q)
    k = draw(st.floats(0.2, 3.0)) + 1j * draw(st.sampled_from([0.0, 0.05, 0.3]))
    assume(min(abs(k - 1.0), abs(k + 1.0)) > 1e-2)
    return spec, k


def test_left_reference_right_of_the_support_rejects_k_zero():
    spec = PotentialSpec.sampled([-1.0, 0.0], [0.5, 0.5])
    assert sct.left_reference(spec, 0.0, -0.5)[0] == pytest.approx(np.cosh(np.sqrt(0.5) * 0.5))
    with pytest.raises(PoleEvaluationError):
        sct.left_reference(spec, 0.0, 1.0)


@given(potential_and_momentum())
@settings(max_examples=30, deadline=None)
def test_left_reference_is_the_left_jost_solution(case):
    # W(phi, psi) = 2ik/T left of, on and right of q's support, and phi is
    # continuous in value and derivative across the support's right end
    spec, k = case
    start, end = spec.support()
    if spec.kind == "zero":
        xs = np.array([-2.0, 0.0, 2.0])
    else:
        on = end - 1.5 if spec.kind == "wvn_example" else 0.5 * (start + end)
        xs = np.array([start - 1.0, on, end + 1.5])[np.isfinite([start, 0.0, 0.0])]
    lv, ld = sct.left_reference(spec, k, xs)
    pv, pd = right_jost_at(spec, k, xs)
    w = 2j * k / sct.scattering_coefficients(spec, k)[1]
    assert np.max(np.abs(lv * pd - ld * pv - w)) <= 1e-8 * abs(w)
    if spec.kind != "zero":
        (v, d), (v_r, d_r) = (sct.left_reference(spec, k, e)
                              for e in (end, np.nextafter(end, np.inf)))
        scale = abs(v) + abs(d / k)
        assert abs(v_r - v) <= 1e-12 * scale and abs(d_r - d) <= 1e-12 * abs(k) * scale


def test_sampled_seed_pair_at_complex_k():
    # phi = T times the left reference, which a sampled potential takes at every grid x
    spec = PotentialSpec.sampled([-3.0, -2.0, -1.0, 0.0], [0.1, 0.2, 0.1, 0.0])
    k = 1.3 + 0.2j
    g = Grid(-5.0, 2.0, 701)
    phi, psi = _seed_pair(spec, k, g)
    for x in (-4.5, -2.5, -0.5, 1.5):
        assert abs(_wronskian(psi, phi, x, g) + 2j * k) < 1e-6


def test_left_weyl_decay_envelope(wvn_spec):
    # at the full-reflection momentum conj(psi) + R psi decays like 1/|x|
    k = 1.0
    g = Grid(-200.0, 1.0, 20101)
    r = sct.reflection_at_resonance(wvn_spec, k)
    psi, _ = right_jost(wvn_spec, k, g)
    phi = np.conj(psi) + r * psi
    win = (g.x >= -200.0) & (g.x <= -50.0)
    prod = np.abs(phi[win]) * np.abs(g.x[win])
    assert np.max(prod) < 1.5  # |phi| <= C/|x| with C ~ 2/rho
    assert np.max(np.abs(phi[g.x <= -150.0])) < 0.01


def test_greens_free():
    k = 2.0 + 0.3j
    seed = dbx.insert_embedded(PotentialSpec.zero(), [], Grid(-1.0, 2.0, 301))
    g = dbx.greens_diagonal_transformed(seed, k, 1.1)
    assert abs(g - (-1.0 / (2j * k))) < 1e-12
    # the pair is known at the grid's nodes only: x = 1.105 lies between two
    with pytest.raises(ValidationError, match="nodes"):
        dbx.greens_diagonal_transformed(seed, k, 1.105)


def test_greens_herglotz(wvn_spec):
    seed = dbx.insert_embedded(wvn_spec, [], Grid(-3.0, 1.0, 401))
    for lam in (1.0 + 0.5j, 2.5 + 0.2j):
        k = np.sqrt(lam)
        g = dbx.greens_diagonal_transformed(seed, k, -1.3)
        assert np.imag(g) > 0


def test_greens_pole_classification(wvn_spec, inserted_std, grid_std):
    # the seed's Green's function stays bounded at k -> 1; the inserted
    # state gives the transformed one a simple pole there
    eps = [1e-2, 1e-3, 1e-4]
    seed = dbx.insert_embedded(wvn_spec, [], grid_std)
    m_seed = [abs(dbx.greens_diagonal_transformed(seed, 1.0 + 1j * e, -1.1)) for e in eps]
    p_seed = sct.fit_pole_exponent(eps, m_seed)
    assert abs(p_seed) < 0.3
    m_plus = [abs(dbx.greens_diagonal_transformed(inserted_std, 1.0 + 1j * e, -1.1))
              for e in eps]
    p_plus = sct.fit_pole_exponent(eps, m_plus)
    assert abs(p_plus - 1.0) < 0.3


def test_potential_recovery(wvn_spec):
    # g(-kappa^2, x) = (1 - q(x) / (2 kappa^2) + ...) / (2 kappa) at large kappa
    kappa = 20.0
    for spec, x, q_true in ((wvn_spec, -3.0, float(wvn.q_seed(RHO, -3.0))),
                            (PotentialSpec.zero(), 0.7, 0.0)):
        seed = dbx.insert_embedded(spec, [], Grid(-3.5, 1.0, 451))
        g = dbx.greens_diagonal_transformed(seed, 1j * kappa, x)
        q_est = float(np.real(2.0 * kappa**2 * (1.0 - 2.0 * kappa * g)))
        assert abs(q_est - q_true) < max(0.05 * abs(q_true), 1e-8)


def _m_functions(spec, k, x):
    """(m_+, m_-) = (psi'/psi, -phi'/phi) at x; T drops out of phi's ratio."""
    (pv, pd), (sv, sd) = sct.left_reference(spec, k, x), right_jost_at(spec, k, x)
    return sd / sv, -pd / pv


def test_m_functions_free():
    lam = 1.0 + 0.5j
    k = np.sqrt(lam)
    m_plus, m_minus = _m_functions(PotentialSpec.zero(), k, 0.0)
    assert abs(m_plus - 1j * k) < 1e-10
    assert abs(m_minus - 1j * k) < 1e-10


def test_m_functions_herglotz(wvn_spec):
    m_plus, m_minus = _m_functions(wvn_spec, np.sqrt(1.0 + 0.5j), -2.0)
    assert m_plus.imag > 0
    assert m_minus.imag > 0


def test_m_minus_embedded_pole_sweep(wvn_spec):
    # phi(., 1) vanishes at x = -pi, so m_- has its pole there, between grid nodes
    eps = [1e-2, 1e-3, 1e-4]
    mags = [abs(_m_functions(wvn_spec, np.sqrt(1.0 + 1j * e), -np.pi)[1]) for e in eps]
    p = sct.fit_pole_exponent(eps, mags)
    assert abs(p - 1.0) < 0.1


def test_residue_simple_pole():
    res = sct.residue_at(1.0, lambda k: 1.0 / (k - 1.0))
    assert res.classification == "simple"
    assert abs(res.residue - 1.0) < 1e-10


def test_residue_calls_its_family_once_on_the_stencil():
    calls = []

    def fam(ks):
        calls.append(ks)
        return 1.0 / (ks - 1.0)
    sct.residue_at(1.0, fam)
    assert len(calls) == 1 and np.array_equal(calls[0], sct.residue_stencil(1.0))


def test_residue_matches_the_per_step_richardson_table():
    # the table built one step and one level at a time, in the same arithmetic
    def fam(k):
        return np.stack([1.0 / (k - 1.0) + np.cos(k), np.exp(k) / (k - 1.0)], axis=-1)
    n = sct.RESIDUE_LEVELS + 1
    f = fam(sct.residue_stencil(1.0))
    d = sct.RESIDUE_DELTA / 2.0 ** np.arange(n)
    table = [[dj / 2 * f[j] + (-dj / 2) * f[n + j] for j, dj in enumerate(d)]]
    for m in range(1, n):
        fac = 4.0**m
        prev = table[-1]
        table.append([fac / (fac - 1) * prev[j + 1] + (-1.0 / (fac - 1)) * prev[j]
                      for j in range(len(prev) - 1)])
    res = sct.residue_at(1.0, fam)
    assert np.array_equal(res.residue, table[-1][-1])
    assert res.error_estimate == np.max(np.abs(table[-1][-1] - table[-2][-1]))


def test_reflection_at_resonance_batch(wvn_spec):
    r = sct.reflection_at_resonance(wvn_spec, 1.0)
    assert sct.reflection_at_resonance(wvn_spec, [1.0])[0] == r
    assert sct.reflection_at_resonance(wvn_spec, [1.0, -1.0]).shape == (2,)


def test_residue_regular_point():
    res = sct.residue_at(1.0, lambda k: np.stack([np.cos(k), k**2], axis=-1))
    assert res.classification == "regular"
    assert np.max(np.abs(np.asarray(res.residue))) < 1e-8


def test_residue_higher_order_rejected():
    with pytest.raises(ResidueClassificationError):
        sct.residue_at(1.0, lambda k: 1.0 / (k - 1.0) ** 2)
