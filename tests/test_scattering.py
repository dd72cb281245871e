import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positonkit import darboux as dbx
from positonkit import scattering as sct
from positonkit import wvn_example as wvn
from positonkit.errors import DegenerateWronskianError, ResidueClassificationError
from positonkit.schrodinger import Grid, PotentialSpec, right_jost, right_jost_at

RHO = 2.0


def test_reflection_matches_closed(wvn_spec):
    for k in (0.5, 2.0, 1.3, -1.7):
        r = sct.reflection_from_wronskians(wvn_spec, k)
        _, rc, _ = wvn.scattering_closed(RHO, k)
        assert abs(r - rc) < 1e-6


def test_reflection_zero_potential():
    assert abs(sct.reflection_from_wronskians(PotentialSpec.zero(), 1.7)) < 1e-12


def test_transmission_matches_closed(wvn_spec):
    for k in (0.5, 2.0):
        t = sct.transmission(wvn_spec, k)
        tc, _, _ = wvn.scattering_closed(RHO, k)
        assert abs(t - tc) < 1e-6
    assert abs(sct.transmission(PotentialSpec.zero(), 1.1) - 1.0) < 1e-12


def test_unitarity_and_symmetry(wvn_spec):
    for k in (0.4, 1.6, 2.8):
        r = sct.reflection_from_wronskians(wvn_spec, k)
        t = sct.transmission(wvn_spec, k)
        assert abs(abs(r) ** 2 + abs(t) ** 2 - 1.0) < 1e-6
        rm = sct.reflection_from_wronskians(wvn_spec, -k)
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


def test_near_resonance_reflection(wvn_spec):
    for k in (1.0 + 1e-3, 1.0 - 1e-3):
        r = sct.reflection_from_wronskians(wvn_spec, k)
        assert abs(r) < 1.0
        assert 1.0 - abs(r) < 5e-6


def test_reflection_at_resonance(wvn_spec):
    r = sct.reflection_at_resonance(wvn_spec, 1.0)
    assert abs(abs(r) - 1.0) < 1e-8
    assert abs(r + 1.0) < 1e-6


# The seed's left Weyl solution, diagonal Green's function and m-functions are
# read off its pair (phi, psi): `transformed_solutions` of a transform that
# inserts no state returns the pair unchanged.

def _seed_pair(spec, k, grid):
    return dbx.transformed_solutions(dbx.insert_embedded(spec, [], grid), k)


def test_left_weyl_free_and_wronskian(wvn_spec):
    # at real k, phi is the left Weyl solution conj(psi) + R psi
    g = Grid(-10.0, 2.0, 1201)
    phi0, _ = _seed_pair(PotentialSpec.zero(), 1.5, g)
    assert np.max(np.abs(phi0.values - np.exp(-1.5j * g.x))) < 1e-12
    k = 2.0
    phi, psi = _seed_pair(wvn_spec, k, g)
    # basic scattering relation: W(psi, phi) = -2ik
    assert abs(psi.wronskian_with(phi, -4.4) + 2j * k) < 1e-6


def test_left_weyl_decay_envelope(wvn_spec):
    # at the full-reflection momentum conj(psi) + R psi decays like 1/|x|
    k = 1.0
    g = Grid(-200.0, 1.0, 20101)
    r = sct.reflection_at_resonance(wvn_spec, k)
    psi = right_jost(wvn_spec, k, g)
    phi = np.conj(psi.values) + r * psi.values
    win = (g.x >= -200.0) & (g.x <= -50.0)
    prod = np.abs(phi[win]) * np.abs(g.x[win])
    assert np.max(prod) < 1.5  # |phi| <= C/|x| with C ~ 2/rho
    assert np.max(np.abs(phi[g.x <= -150.0])) < 0.01


def test_greens_free():
    k = 2.0 + 0.3j
    g = dbx.greens_diagonal_transformed(dbx.insert_embedded(PotentialSpec.zero(), [],
                                                            Grid(-1.0, 2.0, 301)), k, 1.1)
    assert abs(g - (-1.0 / (2j * k))) < 1e-12


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


def test_m_functions_free():
    lam = 1.0 + 0.5j
    k = np.sqrt(lam)
    phi, psi = _seed_pair(PotentialSpec.zero(), k, Grid(-1.0, 1.0, 201))
    (pv, pd), (sv, sd) = phi.at(0.0), psi.at(0.0)
    assert abs(sd / sv - 1j * k) < 1e-10          # m_+ = psi'/psi
    assert abs(-pd / pv - 1j * k) < 1e-10         # m_- = -phi'/phi


def test_m_functions_herglotz(wvn_spec):
    phi, psi = _seed_pair(wvn_spec, np.sqrt(1.0 + 0.5j), Grid(-3.0, 1.0, 401))
    (pv, pd), (sv, sd) = phi.at(-2.0), psi.at(-2.0)
    assert (sd / sv).imag > 0
    assert (-pd / pv).imag > 0


def test_m_minus_embedded_pole_sweep(wvn_spec):
    eps = [1e-2, 1e-3, 1e-4]
    g = Grid(-4.0, 1.0, 501)
    mags = []
    for e in eps:
        pv, pd = _seed_pair(wvn_spec, np.sqrt(1.0 + 1j * e), g)[0].at(-np.pi)
        mags.append(abs(pd / pv))
    p = sct.fit_pole_exponent(eps, mags)
    assert abs(p - 1.0) < 0.1


def test_residue_simple_pole():
    res = sct.residue_at(1.0, lambda k: 1.0 / (k - 1.0))
    assert res.classification == "simple"
    assert abs(res.residue - 1.0) < 1e-10


def test_residue_regular_point():
    res = sct.residue_at(1.0, lambda k: np.array([np.cos(k), k**2]))
    assert res.classification == "regular"
    assert np.max(np.abs(np.asarray(res.residue))) < 1e-8


def test_residue_higher_order_rejected():
    with pytest.raises(ResidueClassificationError):
        sct.residue_at(1.0, lambda k: 1.0 / (k - 1.0) ** 2)
