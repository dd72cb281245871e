"""Reflection/transmission coefficients and residue extraction at embedded poles.

Scattering quantities are formed from Wronskians of the numerically integrated
right Jost solution against an independent left-side reference solution.  For
the explicit potential family that reference is its closed-form left Jost
solution; for sampled potentials a left-cutoff plane wave is used instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import schrodinger as sch
from . import wvn_example as wvn
from .errors import DegenerateWronskianError, ResidueClassificationError, ValidationError
from .schrodinger import PotentialSpec, WaveField, right_jost_at

__all__ = [
    "ResidueResult", "left_reference",
    "scattering_coefficients", "reflection_from_wronskians",
    "reflection_at_resonance", "transmission",
    "residue_at", "fit_pole_exponent",
]

# residue_at: Richardson levels below delta0, and the scale under which a
# residue counts as zero (the point is regular)
RESIDUE_LEVELS = 3
REGULAR_TOL = 1e-8


@dataclass
class ResidueResult:
    """Residue of a family at a real momentum, with an extrapolation error estimate."""

    residue: object                  # WaveField, ndarray or complex
    error_estimate: float
    classification: str              # "simple" or "regular"


def left_reference(spec: PotentialSpec, k: complex, x: float):
    """(value, derivative) of an independent left-side solution at x.

    For the explicit family this is its closed-form left Jost solution; for the
    zero potential it is the plane wave e^{-ikx}; sampled potentials fall back
    to the plane wave left of their first sample, continued by integration.
    """
    if spec.kind == sch.KIND_WVN:
        return wvn.left_jost_closed(spec.rho, x, k)
    if spec.kind == sch.KIND_ZERO:
        return np.exp(-1j * k * x), -1j * k * np.exp(-1j * k * x)
    if spec.kind == sch.KIND_SAMPLED:
        cut = float(spec.sample_x[0])
        if x <= cut:
            return np.exp(-1j * k * x), -1j * k * np.exp(-1j * k * x)
        y0 = (np.exp(-1j * k * cut), -1j * k * np.exp(-1j * k * cut))
        wf = sch.integrate(spec, k, cut, x, y0)
        return wf.values[..., -1], wf.derivs[..., -1]
    raise ValidationError(f"no left-side reference solution available for kind {spec.kind!r}")


def scattering_coefficients(spec: PotentialSpec, k, x_eval: float = -4.0):
    """Reflection and transmission coefficients (R(k), T(k)) at momenta k.

    Both come from one Wronskian pair per momentum, with psi the right Jost
    solution and phi the left reference solution at x_eval:

        R = -W(phi, conj psi) / W(phi, psi),    T = 2ik / W(phi, psi).

    R holds for real k, and the scale of phi drops out of it; T needs phi to
    be the left Jost solution and holds for Im k >= 0.  All momenta share one
    ODE solve.  Returns arrays of the shape of k.
    """
    k = np.asarray(k)
    pv, pd = right_jost_at(spec, k, x_eval)
    lv, ld = left_reference(spec, k, x_eval)
    w_den = lv * pd - ld * pv                      # W(phi, psi)
    w_num = lv * np.conj(pd) - ld * np.conj(pv)    # W(phi, conj psi)
    # a relative test: |W| >= 1e-8 also keeps T = 2ik/W finite
    bad = np.abs(w_den) < 1e-8 * np.maximum(1.0, np.abs(lv * pd))
    if np.any(bad):
        raise DegenerateWronskianError(
            f"W(phi, psi) degenerate at k={np.atleast_1d(k)[np.atleast_1d(bad)][0]}; "
            "near a spectral singularity")
    return -w_num / w_den, 2j * k / w_den


def reflection_from_wronskians(spec: PotentialSpec, k: float, x_eval: float = -4.0) -> complex:
    """Right reflection coefficient R(k) at real k (see `scattering_coefficients`)."""
    return scattering_coefficients(spec, k, x_eval)[0]


def reflection_at_resonance(spec: PotentialSpec, omega: float,
                            delta0: float = 1e-3, x_eval: float = -4.0) -> complex:
    """R(omega) at a momentum where the left reference has a pole, by Richardson limit.

    The six momenta omega +- delta0 {1, 1/2, 1/4} share one solve.
    """
    d = delta0 / np.array([1.0, 2.0, 4.0])
    r = scattering_coefficients(spec, np.concatenate([omega + d, omega - d]), x_eval)[0]
    vals = 0.5 * (r[:3] + r[3:])
    r1 = (4 * vals[1] - vals[0]) / 3
    r2 = (4 * vals[2] - vals[1]) / 3
    return complex((16 * r2 - r1) / 15)


def transmission(spec: PotentialSpec, k: float, x_eval: float = -4.0) -> complex:
    """Transmission coefficient T(k) = 2ik / W(psi_-, psi) (see `scattering_coefficients`)."""
    return scattering_coefficients(spec, k, x_eval)[1]


def _linear_combination(fields, coeffs):
    """Combine WaveFields/arrays/scalars with scalar coefficients."""
    first = fields[0]
    if isinstance(first, WaveField):
        vals = sum(c * f.values for c, f in zip(coeffs, fields))
        ders = sum(c * f.derivs for c, f in zip(coeffs, fields))
        return WaveField(first.grid, first.k, vals, ders)
    return sum(c * np.asarray(f) for c, f in zip(coeffs, fields))


def _res_norm(obj):
    if isinstance(obj, WaveField):
        return float(np.max(np.abs(obj.values)))
    return float(np.max(np.abs(np.asarray(obj))))


def _residue_stencil(omega, delta0: float = 1e-2):
    """Steps d_j = delta0 / 2^j (j = 0..RESIDUE_LEVELS) and the momenta
    omega + d_j, omega - d_j at which `residue_at` samples its family."""
    d = delta0 / 2.0 ** np.arange(RESIDUE_LEVELS + 1)
    return d, omega + d, omega - d


def residue_at(omega: float, family, delta0: float = 1e-2) -> ResidueResult:
    """Residue of k -> family(k) at the real momentum omega.

    Symmetric two-sided estimates r(d) = d (f(omega+d) - f(omega-d)) / 2 are
    Richardson-extrapolated over d in {delta0, delta0/2, ...}.  For a simple
    pole this converges to the residue with an even error series; for a regular
    point it converges to 0; anything else raises ResidueClassificationError.
    """
    ests = []
    even = []
    for d, k_plus, k_minus in zip(*_residue_stencil(omega, delta0)):
        fp = family(k_plus)
        fm = family(k_minus)
        ests.append(_linear_combination([fp, fm], [d / 2, -d / 2]))
        even.append(_res_norm(_linear_combination([fp, fm], [0.5, 0.5])))
    # an even-order pole hides from the antisymmetric estimate but blows up
    # the symmetric average as delta shrinks
    if even[-1] > 3.0 * even[0] + REGULAR_TOL and even[-1] > 10 * _res_norm(ests[-1]):
        raise ResidueClassificationError(
            "symmetric part diverges as delta -> 0; singularity is of even order, "
            "not a simple pole")
    # Richardson in d^2
    table = [ests]
    for m in range(1, RESIDUE_LEVELS + 1):
        prev = table[-1]
        fac = 4.0**m
        table.append([
            _linear_combination([prev[j + 1], prev[j]], [fac / (fac - 1), -1.0 / (fac - 1)])
            for j in range(len(prev) - 1)
        ])
    best = table[-1][-1]
    second = table[-2][-1]
    err = _res_norm(_linear_combination([best, second], [1.0, -1.0]))
    scale = _res_norm(best)
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
