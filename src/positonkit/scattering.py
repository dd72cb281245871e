"""Reflection/transmission coefficients, Weyl solutions, diagonal Green's function,
m-functions, and residue extraction at embedded poles.

Scattering quantities are formed from Wronskians of the numerically integrated
right Jost solution against an independent left-side reference solution.  For
the explicit potential family that reference is its closed-form left Jost
solution; for sampled potentials a left-cutoff plane wave is used instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import schrodinger as sch
from . import wvn_example as wvn
from .errors import (
    DegenerateWronskianError,
    PoleAtSampleError,
    ResidueClassificationError,
    ValidationError,
)
from .schrodinger import Grid, PotentialSpec, WaveField, right_jost, right_jost_at

__all__ = [
    "ScatteringData", "MFunctionSample", "ResidueResult",
    "left_reference", "left_weyl",
    "scattering_coefficients", "reflection_from_wronskians",
    "reflection_at_resonance", "transmission",
    "greens_diagonal", "potential_recovery_diagnostic",
    "m_functions", "residue_at", "fit_pole_exponent",
]


@dataclass
class ScatteringData:
    """Reflection/transmission samples plus bound- and embedded-state data.

    bound_states: list of (kappa_n > 0, c_n^2 > 0), kappa strictly decreasing.
    embedded_states: list of (omega_n > 0, alpha_n^2 > 0), omega strictly increasing.
    """

    k_grid: np.ndarray
    r_samples: np.ndarray
    t_samples: np.ndarray | None = None
    l_samples: np.ndarray | None = None
    bound_states: list = field(default_factory=list)
    embedded_states: list = field(default_factory=list)

    def __post_init__(self):
        self.k_grid = np.asarray(self.k_grid, dtype=float)
        self.r_samples = np.asarray(self.r_samples, dtype=complex)
        if self.k_grid.shape != self.r_samples.shape:
            raise ValidationError("k_grid and r_samples must have matching shapes")
        if np.any(np.abs(self.k_grid) < 1e-12):
            raise ValidationError("k_grid must exclude k = 0")
        if np.any(np.abs(self.r_samples) > 1.0 + 1e-8):
            raise ValidationError("|R(k)| <= 1 violated")
        # R(-k) = conj(R(k)) wherever both are sampled
        idx = {round(k, 12): i for i, k in enumerate(self.k_grid)}
        for k, i in idx.items():
            j = idx.get(round(-k, 12))
            if j is not None:
                if abs(self.r_samples[i] - np.conj(self.r_samples[j])) > 1e-6:
                    raise ValidationError("R(-k) = conj(R(k)) violated on the sample grid")
        kappas = [b[0] for b in self.bound_states]
        if any(k <= 0 for k in kappas) or any(c <= 0 for _, c in self.bound_states):
            raise ValidationError("bound states require kappa > 0 and c^2 > 0")
        if list(kappas) != sorted(kappas, reverse=True) or len(set(kappas)) != len(kappas):
            raise ValidationError("kappa_n must be strictly decreasing")
        omegas = [e[0] for e in self.embedded_states]
        if any(w <= 0 for w in omegas) or any(a <= 0 for _, a in self.embedded_states):
            raise ValidationError("embedded states require omega > 0 and alpha^2 > 0")
        if list(omegas) != sorted(omegas) or len(set(omegas)) != len(omegas):
            raise ValidationError("omega_n must be strictly increasing")

    def to_json(self) -> dict:
        return {
            "k": self.k_grid.tolist(),
            "R_re": self.r_samples.real.tolist(),
            "R_im": self.r_samples.imag.tolist(),
            "bound": [[k, c] for k, c in self.bound_states],
            "embedded": [[w, a] for w, a in self.embedded_states],
        }

    @classmethod
    def from_json(cls, d: dict) -> "ScatteringData":
        r = np.asarray(d["R_re"]) + 1j * np.asarray(d["R_im"])
        return cls(np.asarray(d["k"]), r,
                   bound_states=[tuple(b) for b in d.get("bound", [])],
                   embedded_states=[tuple(e) for e in d.get("embedded", [])])


@dataclass
class MFunctionSample:
    """Titchmarsh-Weyl m-functions at one spectral point lam (Im lam > 0)."""

    lam: complex
    m_plus: complex
    m_minus: complex
    m_neumann: complex


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


def left_weyl(spec: PotentialSpec, k: float, grid: Grid, r_value: complex) -> WaveField:
    """Left Weyl solution phi = conj(psi) + R psi on the grid (real k)."""
    if abs(np.imag(k)) > 1e-12:
        raise ValidationError("left_weyl uses the real-k scattering relation")
    psi = right_jost(spec, k, grid)
    vals = np.conj(psi.values) + r_value * psi.values
    ders = np.conj(psi.derivs) + r_value * psi.derivs
    return WaveField(grid, k, vals, ders)


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


def greens_diagonal(spec: PotentialSpec, k: complex, x: float) -> complex:
    """Diagonal Green's function g(k^2, x) = psi(x) Psi_-(x) / W(psi, Psi_-).

    The left Weyl representative's scale cancels in the ratio.  Valid for
    Im k > 0 and for real k away from singular momenta.
    """
    pv, pd = right_jost_at(spec, k, x)
    lv, ld = left_reference(spec, k, x)
    w = pv * ld - pd * lv
    if abs(w) < 1e-12 * max(1.0, abs(pv * ld)):
        raise DegenerateWronskianError(f"degenerate Wronskian in greens_diagonal at k={k}")
    return complex(pv * lv / w)


def potential_recovery_diagnostic(spec: PotentialSpec, x: float, kappa: float) -> float:
    """Recover q(x) from the large-kappa behavior of g(-kappa^2, x).

    The recovery formula holds up to an overall normalization; it is calibrated
    so that the zero potential recovers exactly 0 (free g = 1/(2 kappa)), i.e.
    q_est = 2 kappa^2 (1 - 2 kappa g(-kappa^2, x)).  Diagnostic only.
    """
    g = greens_diagonal(spec, 1j * kappa, x)
    return float(np.real(2.0 * kappa**2 * (1.0 - 2.0 * kappa * g)))


def m_functions(spec: PotentialSpec, lam: complex, a: float) -> MFunctionSample:
    """Dirichlet m-functions m_+/- (lam, a) and the Neumann function -1/m_+."""
    if np.imag(lam) <= 0:
        raise ValidationError("m_functions require Im lam > 0")
    k = complex(np.sqrt(complex(lam)))
    if k.imag < 0:
        k = -k
    pv, pd = right_jost_at(spec, k, a)
    lv, ld = left_reference(spec, k, a)
    if abs(pv) < 1e-13 * max(1.0, abs(pd)) or abs(lv) < 1e-13 * max(1.0, abs(ld)):
        raise PoleAtSampleError(f"a Weyl solution vanishes at the sample point a={a}")
    m_plus = complex(pd / pv)
    m_minus = complex(-ld / lv)
    return MFunctionSample(lam, m_plus, m_minus, -1.0 / m_plus)


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


def _residue_stencil(omega, delta0: float = 1e-2, levels: int = 3):
    """Steps d_j = delta0 / 2^j (j = 0..levels) and the momenta omega + d_j,
    omega - d_j at which `residue_at` samples its family."""
    d = delta0 / 2.0 ** np.arange(levels + 1)
    return d, omega + d, omega - d


def residue_at(omega: float, family, delta0: float = 1e-2, levels: int = 3,
               regular_tol: float = 1e-8) -> ResidueResult:
    """Residue of k -> family(k) at the real momentum omega.

    Symmetric two-sided estimates r(d) = d (f(omega+d) - f(omega-d)) / 2 are
    Richardson-extrapolated over d in {delta0, delta0/2, ...}.  For a simple
    pole this converges to the residue with an even error series; for a regular
    point it converges to 0; anything else raises ResidueClassificationError.
    """
    ests = []
    even = []
    for d, k_plus, k_minus in zip(*_residue_stencil(omega, delta0, levels)):
        fp = family(k_plus)
        fm = family(k_minus)
        ests.append(_linear_combination([fp, fm], [d / 2, -d / 2]))
        even.append(_res_norm(_linear_combination([fp, fm], [0.5, 0.5])))
    # an even-order pole hides from the antisymmetric estimate but blows up
    # the symmetric average as delta shrinks
    if even[-1] > 3.0 * even[0] + regular_tol and even[-1] > 10 * _res_norm(ests[-1]):
        raise ResidueClassificationError(
            "symmetric part diverges as delta -> 0; singularity is of even order, "
            "not a simple pole")
    # Richardson in d^2
    table = [ests]
    for m in range(1, levels + 1):
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
    if scale <= max(regular_tol, 10 * err):
        return ResidueResult(best, err, "regular")
    if err > 0.05 * scale + regular_tol:
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
