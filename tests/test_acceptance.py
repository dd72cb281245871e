"""Acceptance criteria for the package, one test per criterion.

Each test prints a PASS/FAIL line with the measured value and its pinned
tolerance, then asserts it.
"""

import time

import numpy as np
import pytest

from positonkit import darboux as dbx
from positonkit import kdv
from positonkit import scattering as sct
from positonkit import wvn_example as wvn
from positonkit.schrodinger import Grid, PotentialSpec


def _report(name, value, tol, extra=""):
    ok = bool(value <= tol)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: value={value:.3e} tol={tol:.1e} {extra}")
    return ok


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_scattering_match():
    t0 = time.time()
    worst = 0.0
    for rho in (0.5, 2.0):
        spec = PotentialSpec.wvn_example(rho)
        ks = np.array([k for k in np.linspace(0.2, 3.0, 200) if abs(k - 1.0) > 1e-3])
        for k, r, t in zip(ks, *sct.scattering_coefficients(spec, ks)):
            tc, rc, _ = wvn.scattering_closed(rho, k)
            worst = max(worst, abs(r - rc), abs(t - tc))
    elapsed = time.time() - t0
    ok = _report("1 scattering R,T vs closed form", worst, 1e-6,
                 f"({elapsed:.1f}s, budget 30s)")
    assert ok and elapsed < 30.0


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_insertion_closed_form():
    t0 = time.time()
    rho = 2.0
    spec = PotentialSpec.wvn_example(rho)
    grid = Grid(-20.0, 20.0, 4001)
    worst = 0.0
    for alpha in (1.0, np.sqrt(rho / 2.0), 0.5):
        state = dbx.EmbeddedStateSpec.for_wvn_example(rho, alpha)
        res = dbx.insert_embedded(spec, [state], grid)
        worst = max(worst, float(np.max(np.abs(res.q_new - wvn.q_plus1(rho, alpha, grid.x)))))
    elapsed = time.time() - t0
    ok = _report("2 insertion vs closed form", worst, 1e-6,
                 f"({elapsed:.1f}s, budget 60s)")
    assert ok and elapsed < 60.0


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_eigenfunction_norm():
    worst = 0.0
    grid = Grid(-20.0, 20.0, 4001)
    for rho, alpha in ((2.0, 1.0), (2.0, 0.5), (2.0, 1.4), (1.0, 0.5), (0.5, 2.0)):
        spec = PotentialSpec.wvn_example(rho)
        state = dbx.EmbeddedStateSpec.for_wvn_example(rho, alpha)
        res = dbx.insert_embedded(spec, [state], grid, check_preconditions=False)
        worst = max(worst, abs(res.eigenfunction_norms()[0] - 1.0))
    assert _report("3 eigenfunction L2 norm = 1", worst, 1e-6)


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_norming_constant_residue(l2_with_tails):
    rho = 2.0
    spec = PotentialSpec.wvn_example(rho)
    grid = Grid(-20.0, 20.0, 4001)
    worst = 0.0
    for alpha in (1.0, 0.7):
        state = dbx.EmbeddedStateSpec.for_wvn_example(rho, alpha)
        res = dbx.insert_embedded(spec, [state], grid, check_preconditions=False)

        def fam(ks, _res=res):
            psi = dbx.transformed_solutions(_res, ks)[1]
            return np.stack([psi.values, psi.derivs], axis=1)

        r = sct.residue_at(1.0, fam)
        norm = l2_with_tails(grid, *r.residue)
        worst = max(worst, abs(norm - alpha))
    assert _report("4 residue L2 norm = alpha", worst, 1e-4)


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_removal_round_trip():
    rho = 2.0
    spec = PotentialSpec.wvn_example(rho)
    grid = Grid(-20.0, 20.0, 4001)
    state = dbx.EmbeddedStateSpec.for_wvn_example(rho, 0.8)
    res = dbx.insert_embedded(spec, [state], grid, check_preconditions=False)
    rem = dbx.remove_embedded(res.q_new, res.y, res.y_x, res.omegas, grid)
    err_rt = float(np.max(np.abs(rem.q_minus - res.q_seed)))

    alpha_sym = np.sqrt(rho / 2.0)
    y, y_x = wvn.y_closed(rho, alpha_sym, grid.x), wvn.y_x_closed(rho, alpha_sym, grid.x)
    rem2 = dbx.remove_embedded(wvn.q_sym(rho, grid.x), [y], [y_x], [1.0], grid)
    err_sym = float(np.max(np.abs(rem2.q_minus - wvn.q_seed(rho, grid.x))))
    worst = max(err_rt, err_sym)
    assert _report("5 removal round trip", worst, 1e-6,
                   f"(insert-remove {err_rt:.1e}, symmetric seed {err_sym:.1e})")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_full_reflection_at_resonance():
    rho = 2.0
    spec = PotentialSpec.wvn_example(rho)
    closed = max(abs(abs(wvn.scattering_closed(rho, s)[1]) - 1.0) for s in (1.0, -1.0))
    numeric = max(abs(abs(sct.reflection_at_resonance(spec, s)) - 1.0) for s in (1.0, -1.0))
    below = max(abs(sct.scattering_coefficients(spec, k)[0]) for k in (0.5, 2.0))
    ok1 = _report("6a |R(+-1)| = 1 closed form", closed, 1e-8)
    ok2 = _report("6b |R(+-1)| = 1 numerical", numeric, 1e-6)
    ok3 = _report("6c |R| < 1 off resonance", below, 1.0 - 1e-9, f"(max |R| = {below:.6f})")
    assert ok1 and ok2 and ok3


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_tail_discrepancy_fit():
    rho = 2.0
    spec = PotentialSpec.wvn_example(rho)
    grid = Grid(-40.0, 200.0, 24001)
    state = dbx.EmbeddedStateSpec.for_wvn_example(rho, 1.0)
    res = dbx.insert_embedded(spec, [state], grid, check_preconditions=False)
    win = grid.x >= 20.0
    x = grid.x[win]
    d = (res.q_seed[win] - res.q_new[win]) * x
    basis = np.column_stack([np.sin(2 * x), np.cos(2 * x)])
    coef, *_ = np.linalg.lstsq(basis, d, rcond=None)
    amp = float(np.hypot(*coef))
    phase = float(np.arctan2(coef[1], coef[0]))
    ok1 = _report("7a tail amplitude A = 4", abs(amp - 4.0), 0.4, f"(A = {amp:.4f})")
    ok2 = _report("7b tail phase delta = 0", abs(phase), 0.1, f"(delta = {phase:.4f})")
    assert ok1 and ok2


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_dyson_t0_identity():
    t0 = time.time()
    state = kdv.EvolvedState(0.0, wvn.ExampleParams(2.0))
    xs = np.arange(-15.0, 15.0 + 1e-9, 0.25)
    worst = max(abs(kdv.dyson_q(state, float(x)) - float(wvn.q_seed(2.0, x))) for x in xs)
    elapsed = time.time() - t0
    ok = _report("8 Dyson determinant t=0 identity", worst, 1e-3,
                 f"({len(xs)} points, {elapsed:.1f}s, budget 600s, M_op=200)")
    assert ok and elapsed < 600.0


# ---------------------------------------------------------------- criterion 9

def test_criterion_9a_closed_form_residuals():
    hx, ht = 1e-2, 1e-3
    xs = np.arange(-8.0, 8.0 + hx / 2, hx)
    ts = (np.arange(5) - 2) * ht
    u_sol = np.array([wvn.soliton_closed(xs, t) for t in ts])
    r_sol = kdv.kdv_residual(u_sol, hx, ht)
    tts = 0.003 + ts
    u_pos = np.array([wvn.positon_closed(xs, t) for t in tts])
    sing = np.array([wvn.positon_singularity(t) for t in tts])
    mask = np.abs(xs[None, :] - sing[:, None]) > 1.0
    r_pos = kdv.kdv_residual(u_pos, hx, ht, mask=mask)
    ok1 = _report("9a soliton KdV residual", r_sol, 1e-4)
    ok2 = _report("9b positon KdV residual (r > 1 from pole)", r_pos, 1e-4)
    assert ok1 and ok2


@pytest.mark.slow
def test_criterion_9c_evolved_residual():
    # The seed's derivative kink at x = 0 radiates a dispersive wake leftward
    # whose local wavenumber is ~ sqrt(|x|/3t); centered stencils can only
    # certify the residual where that wake is resolved, so the probes sit at
    # moderate |x| and late t (local k <= ~3.3 on the 0.05/1e-3 stencils).
    t0 = time.time()
    par = wvn.ExampleParams(2.0, 1.0)
    probes = (-1.5, 1.5)
    hx, ht = 0.05, 1e-3
    tc = 0.045
    ts = [round(tc + j * ht, 9) for j in range(-2, 3)]
    n = int(round((2.0 + 45.0) / 0.05)) + 1
    plane_grid = Grid(-45.0, 2.0, n)
    xcols = np.array(sorted({round(x0 + j * hx, 9) for x0 in probes for j in range(-3, 4)}))
    u = {}
    for t in ts:
        state = kdv.EvolvedState(t, par)
        plane = kdv.evolved_phi_plane(state, plane_grid)
        u[t] = kdv.q_plus_evolved(plane, 1.0, xcols)
    worst = 0.0
    for x0 in probes:
        cols = [i for i, x in enumerate(xcols) if abs(x - x0) < 3 * hx + 1e-9]
        field = np.array([[u[t][i] for i in cols] for t in ts])
        worst = max(worst, kdv.kdv_residual(field, hx, ht))
    elapsed = time.time() - t0
    ok = _report("9c evolved-insertion KdV residual", worst, 1e-2,
                 f"(probes x={probes}, t in [{ts[0]}, {ts[-1]}], {elapsed:.0f}s)")
    assert ok


# --------------------------------------------------------------- criterion 10

@pytest.mark.slow
def test_criterion_10_eigenvalue_persistence():
    rho = 2.0
    spec = PotentialSpec.wvn_example(rho)
    grid = Grid(-20.0, 20.0, 4001)
    state = dbx.EmbeddedStateSpec.for_wvn_example(rho, 1.0)
    res = dbx.insert_embedded(spec, [state], grid, check_preconditions=False)
    eps = [1e-2, 1e-3, 1e-4]
    mags0 = [abs(dbx.greens_diagonal_transformed(res, 1.0 + 1j * e, -1.1)) for e in eps]
    p_t0 = sct.fit_pole_exponent(eps, mags0)

    ev = kdv.EvolvedState(0.02, wvn.ExampleParams(rho, 1.0))
    n = int(round(45.0 / 0.05)) + 1
    plane = kdv.evolved_phi_plane(ev, Grid(-45.0, 0.0, n))
    p_t2, _ = kdv.classify_embedded_pole_evolved(plane, 1.0, -1.1)
    ok1 = _report("10a simple pole at t=0", abs(p_t0 - 1.0), 0.25, f"(p = {p_t0:.3f})")
    ok2 = _report("10b simple pole at t=0.02", abs(p_t2 - 1.0), 0.25, f"(p = {p_t2:.3f})")
    assert ok1 and ok2


# --------------------------------------------------------------- criterion 11

def test_criterion_11_conservation(averaged_integral):
    rho = 2.0
    spec = PotentialSpec.wvn_example(rho)
    grid = Grid(-200.0, 200.0, 20001)
    state = dbx.EmbeddedStateSpec.for_wvn_example(rho, 1.0)
    res = dbx.insert_embedded(spec, [state], grid, check_preconditions=False)
    d_mass = abs(averaged_integral(grid.x, res.q_new - res.q_seed))
    d_mom = abs(averaged_integral(grid.x, res.q_new**2 - res.q_seed**2))
    ok1 = _report("11a conservation of the integral of q", d_mass, 5e-2)
    ok2 = _report("11b conservation of the integral of q^2", d_mom, 5e-2)
    assert ok1 and ok2
