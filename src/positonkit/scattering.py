"""Reflection/transmission coefficients and residue extraction at embedded poles.

Scattering quantities are formed from Wronskians of the numerically integrated
right Jost solution against an independent left solution, `left_reference`:
the plane wave e^{-ikx} left of q's support, continued across the support (in
closed form for the explicit family, by DOP853 for any other kind) and by the
exact free pair right of it.  Every left solution of the package is built there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import schrodinger as sch
from . import wvn_example as wvn
from .errors import DegenerateWronskianError, PoleEvaluationError, ResidueClassificationError
from .schrodinger import PotentialSpec, right_jost_at

__all__ = [
    "ResidueResult", "left_reference",
    "scattering_coefficients", "reflection_at_resonance", "resonance_probes",
    "residue_stencil", "residue_at", "fit_pole_exponent",
]

# residue_at: the largest step, the Richardson levels below it, and the scale
# under which a residue counts as zero (the point is regular)
RESIDUE_DELTA = 1e-2
RESIDUE_LEVELS = 3
REGULAR_TOL = 1e-8
_STEPS = RESIDUE_DELTA / 2.0 ** np.arange(RESIDUE_LEVELS + 1)
RESONANCE_DELTA = 1e-3  # reflection_at_resonance's largest step
_RESONANCE_STEPS = RESONANCE_DELTA / np.array([1.0, 2.0, 4.0])
X_EVAL = -4.0           # where scattering_coefficients takes its Wronskians


@dataclass
class ResidueResult:
    """Residue of a family at a real momentum, with an extrapolation error estimate."""

    residue: object                  # ndarray or scalar, as one value of the family
    error_estimate: float
    classification: str              # "simple" or "regular"


def left_reference(spec: PotentialSpec, k, x):
    """(value, derivative) at x of the left solution phi, e^{-ikx} left of q's support.

    - Left of the support (the zero potential: everywhere): that plane wave.
    - On it: the explicit family's closed-form left Jost solution, or for any
      other kind the plane wave continued by DOP853 to the largest x, or to
      the support's right end e when some x lies beyond it.
    - Right of it, where q = 0: a e^{-ik(x-e)} + b e^{ik(x-e)} with
      a = (v - d/ik)/2, b = (v + d/ik)/2 from phi = (v, d) at e; k = 0 raises
      PoleEvaluationError there.

    phi is thus the left Jost solution at every real x.  Both arrays have
    shape k.shape + x.shape.
    """
    k, x = np.asarray(k), np.asarray(x, dtype=float)
    ks, xs = k.ravel(), x.ravel()
    vals = np.exp(-1j * ks[:, None] * xs)
    ders = -1j * ks[:, None] * vals
    start, end = spec.support()
    on = np.flatnonzero((xs > start) & (xs <= end))
    right = np.flatnonzero((xs > end) & (start < end))    # the zero kind's support is empty
    if spec.kind == sch.KIND_WVN:
        if on.size:
            vals[:, on], ders[:, on] = wvn.left_jost_closed(spec.rho, xs[on], ks[:, None])
        if right.size:
            v, d = wvn.left_jost_closed(spec.rho, end, ks)
    elif on.size or right.size:
        on = on[np.argsort(xs[on], kind="stable")]
        x_eval = np.append(xs[on], end) if right.size else xs[on]
        y0 = (np.exp(-1j * ks * start), -1j * ks * np.exp(-1j * ks * start))
        sv, sd = sch.solve_at(spec, ks, start, y0, x_eval)
        vals[:, on], ders[:, on] = sv[:, :on.size], sd[:, :on.size]
        v, d = sv[:, -1], sd[:, -1]
    if right.size:
        if np.any(ks == 0):
            raise PoleEvaluationError("the left solution's continuation right of the "
                                      "support is degenerate at k = 0", k=0.0)
        ik = 1j * ks[:, None]
        a, b = (v[:, None] - d[:, None] / ik) / 2, (v[:, None] + d[:, None] / ik) / 2
        e_minus, e_plus = np.exp(-ik * (xs[right] - end)), np.exp(ik * (xs[right] - end))
        vals[:, right] = a * e_minus + b * e_plus
        ders[:, right] = ik * (b * e_plus - a * e_minus)
    shape = k.shape + x.shape
    return vals.reshape(shape)[()], ders.reshape(shape)[()]


def scattering_coefficients(spec: PotentialSpec, k):
    """Reflection and transmission coefficients (R(k), T(k)) at momenta k.

    Both come from one Wronskian pair per momentum, with psi the right Jost
    solution and phi the left reference solution at X_EVAL:

        R = -W(phi, conj psi) / W(phi, psi),    T = 2ik / W(phi, psi).

    R holds for real k, and the scale of phi drops out of it; T needs phi to
    be the left Jost solution and holds for Im k >= 0.  All momenta share one
    ODE solve.  Returns arrays of the shape of k.
    """
    k = np.asarray(k)
    return _wronskian_coefficients(spec, k, *right_jost_at(spec, k, X_EVAL))


def _wronskian_coefficients(spec: PotentialSpec, k, pv, pd):
    """(R, T) at momenta k from psi = (pv, pd), the right Jost solution at X_EVAL."""
    lv, ld = left_reference(spec, k, X_EVAL)
    w_den = lv * pd - ld * pv                      # W(phi, psi)
    w_num = lv * np.conj(pd) - ld * np.conj(pv)    # W(phi, conj psi)
    # a relative test: |W| >= 1e-8 also keeps T = 2ik/W finite
    bad = np.abs(w_den) < 1e-8 * np.maximum(1.0, np.abs(lv * pd))
    if np.any(bad):
        raise DegenerateWronskianError(
            f"W(phi, psi) degenerate at k={np.atleast_1d(k)[np.atleast_1d(bad)][0]}; "
            "near a spectral singularity")
    return -w_num / w_den, 2j * k / w_den


def reflection_at_resonance(spec: PotentialSpec, omega):
    """R(omega) at momenta where the left reference has a pole, by Richardson limit.

    The six momenta omega +- RESONANCE_DELTA {1, 1/2, 1/4} of every omega share
    one solve.  Returns an array of the shape of omega.
    """
    return _richardson_at_resonance(
        scattering_coefficients(spec, _symmetric(omega, _RESONANCE_STEPS))[0])


def _symmetric(omega, steps):
    """The momenta omega + steps, then omega - steps: shape omega.shape + (2 len(steps),)."""
    omega = np.asarray(omega, dtype=float)[..., None]
    return np.concatenate([omega + steps, omega - steps], axis=-1)


def _richardson_at_resonance(r):
    """The limit at omega of R on its six resonance momenta, along r's last axis."""
    vals = 0.5 * (r[..., :3] + r[..., 3:])
    r1 = (4 * vals[..., 1] - vals[..., 0]) / 3
    r2 = (4 * vals[..., 2] - vals[..., 1]) / 3
    return (16 * r2 - r1) / 15


def resonance_probes(spec: PotentialSpec, omega, x):
    """R(omega) and psi at the points x over `residue_stencil(omega)`, from one solve.

    R is `reflection_at_resonance`'s Richardson limit, and psi the right Jost
    solution of `right_jost_at`; one right Jost solve serves both sets of
    momenta, read at X_EVAL and at the 1-d points x.  Returns (R of the shape
    of omega, psi of shape omega.shape + (2 RESIDUE_LEVELS + 2, len(x))).
    """
    res_k = _symmetric(omega, _RESONANCE_STEPS)
    n = res_k.shape[-1]
    pv, pd = right_jost_at(spec, np.concatenate([res_k, residue_stencil(omega)], axis=-1),
                           np.append(X_EVAL, x))
    r = _wronskian_coefficients(spec, res_k, pv[..., :n, 0], pd[..., :n, 0])[0]
    return _richardson_at_resonance(r), pv[..., n:, 1:]


def residue_stencil(omega):
    """The momenta omega + d_j, then omega - d_j, at which `residue_at` samples
    its family: d_j = RESIDUE_DELTA / 2^j, j = 0..RESIDUE_LEVELS.  Shape
    omega.shape + (2 RESIDUE_LEVELS + 2,)."""
    return _symmetric(omega, _STEPS)


def residue_at(omega: float, family) -> ResidueResult:
    """Residue of k -> family(k) at the real momentum omega.

    family is called once, on the array `residue_stencil(omega)`, and returns
    one value per momentum along its leading axis (a scalar or an array each).
    Symmetric two-sided estimates r(d) = d (f(omega+d) - f(omega-d)) / 2 are
    Richardson-extrapolated over the steps d.  For a simple pole this
    converges to the residue with an even error series; for a regular point it
    converges to 0; anything else raises ResidueClassificationError.  Norms
    are the largest modulus over a value's entries.
    """
    f = np.asarray(family(residue_stencil(omega)))
    n = _STEPS.size
    f_plus, f_minus = f[:n], f[n:]
    d = _STEPS.reshape((n,) + (1,) * (f.ndim - 1))
    ests = d / 2 * f_plus + (-d / 2) * f_minus
    even = np.max(np.abs(0.5 * f_plus + 0.5 * f_minus).reshape(n, -1), axis=1)
    # an even-order pole hides from the antisymmetric estimate but blows up
    # the symmetric average as delta shrinks
    if even[-1] > 3.0 * even[0] + REGULAR_TOL and even[-1] > 10 * np.max(np.abs(ests[-1])):
        raise ResidueClassificationError(
            "symmetric part diverges as delta -> 0; singularity is of even order, "
            "not a simple pole")
    # Richardson in d^2, one level per pass along the leading axis
    table = ests
    for m in range(1, RESIDUE_LEVELS + 1):
        fac = 4.0**m
        second = table[-1]
        table = fac / (fac - 1) * table[1:] + (-1.0 / (fac - 1)) * table[:-1]
    best = table[-1]
    err = float(np.max(np.abs(best - second)))
    scale = float(np.max(np.abs(best)))
    if scale <= max(REGULAR_TOL, 10 * err):
        return ResidueResult(best, err, "regular")
    if err > 0.05 * scale + REGULAR_TOL:
        raise ResidueClassificationError(
            f"residue extrapolation did not converge (|res|~{scale:.3g}, err~{err:.3g}); "
            "singularity is not a simple pole")
    return ResidueResult(best, err, "simple")


def fit_pole_exponent(eps_values, magnitudes) -> float:
    """Fit |g| ~ C / eps^p over an epsilon sweep; returns the exponent p."""
    le = np.log(np.asarray(eps_values, dtype=float))
    lm = np.log(np.asarray(magnitudes, dtype=float))
    p, _ = np.polyfit(-le, lm, 1)
    return float(p)
