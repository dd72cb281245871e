"""Closed forms for an explicitly solvable Wigner-von Neumann type potential family.

The family is built from the tau function

    tau(x) = 1 + 2*rho*Integral(sin^2 s, s=0..|x|) = 1 + rho*|x| - (rho/2) sin 2|x|,

with rho > 0.  The seed potential is q(x) = -2 (log tau)'' for x < 0 and 0 for
x >= 0; it is continuous, oscillates like -4 sin(2x)/x on the far left, and has
a full-reflection momentum at k = +-1.  Everything in this module (scattering
coefficients, Jost solutions, the one-state transformed potential, the
one-state eigenfunction, positon/soliton profiles) is evaluated from
hand-differentiated closed forms, so the only error is floating-point roundoff.
These functions serve as the exact reference for the numerical pipelines in
`schrodinger`, `scattering`, `darboux` and `kdv`.

All x-arguments accept scalars or numpy arrays; momenta k are scalars (arrays
where a docstring says so) and may be complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError, PoleEvaluationError, ValidationError

__all__ = [
    "ExampleParams",
    "tau", "tau_x", "tau_xx",
    "q_seed", "q_plus1", "q_sym",
    "scattering_closed",
    "phi0", "phi0_x",
    "left_jost_closed", "right_jost_closed",
    "phi_closed", "phi_x_closed", "big_i_closed", "y_closed", "y_x_closed",
    "psi_plus1_closed",
    "positon_closed", "positon_singularity", "soliton_closed",
]

_POLE_TOL = 1e-12


@dataclass(frozen=True)
class ExampleParams:
    """Parameters of the explicit example: tau slope rho > 0, norming constant alpha != 0."""

    rho: float
    alpha: float = 1.0

    def __post_init__(self):
        if not 0 < self.rho < math.inf:
            raise ValidationError(f"rho must be finite and positive, got {self.rho}")
        if not math.isfinite(self.alpha) or self.alpha == 0:
            raise ValidationError(f"alpha must be finite and nonzero, got {self.alpha}")


def tau(rho, x):
    """tau(x) = 1 + rho|x| - (rho/2) sin 2|x| >= 1."""
    ax = np.abs(x)
    return 1.0 + rho * ax - 0.5 * rho * np.sin(2 * ax)


def tau_x(rho, x):
    return np.sign(x) * 2.0 * rho * np.sin(x) ** 2


def tau_xx(rho, x):
    return np.sign(x) * 2.0 * rho * np.sin(2 * np.asarray(x, dtype=float))


def q_seed(rho, x):
    """Seed potential: -2 (log tau)'' for x < 0, zero for x >= 0."""
    x = np.asarray(x, dtype=float)
    t = tau(rho, x)
    tp = -2.0 * rho * np.sin(x) ** 2
    tpp = -2.0 * rho * np.sin(2 * x)
    q = -2.0 * tpp / t + 2.0 * (tp / t) ** 2
    out = np.where(x < 0, q, 0.0)
    return out if out.ndim else float(out)


def q_plus1(rho, alpha, x):
    """Potential with the embedded eigenvalue +1 inserted at norming constant alpha.

    Equals -2 d^2/dx^2 log(1 + c tau(x)) with c = rho/(2 alpha^2) on x < 0 and
    c = 2 alpha^2 / rho on x >= 0.
    """
    x = np.asarray(x, dtype=float)
    t = tau(rho, x)
    tp = tau_x(rho, x)
    tpp = tau_xx(rho, x)
    c = np.where(x < 0, rho / (2.0 * alpha**2), 2.0 * alpha**2 / rho)
    f = 1.0 + c * t
    out = -2.0 * c * tpp / f + 2.0 * (c * tp / f) ** 2
    return out if out.ndim else float(out)


def q_sym(rho, x):
    """The even member of the family (rho = 2 alpha^2): -2 d^2 log(1 + rho Int_0^|x| sin^2)."""
    return q_plus1(rho, math.sqrt(rho / 2.0), x)


def scattering_closed(rho, k):
    """Transmission and right/left reflection coefficients (T, R, L).

    T = P/(P + i rho), R = L = -i rho/(P + i rho), with P(k) = k^3 - k.
    """
    p = k**3 - k
    den = p + 1j * rho
    if abs(den) < _POLE_TOL:
        raise PoleEvaluationError("k is a pole of the reflection coefficient", k=k)
    t = p / den
    r = -1j * rho / den
    return t, r, r


def phi0(rho, x):
    """The left square-integrable solution at energy 1: sin(x)/tau(x), x <= 0."""
    return np.sin(x) / tau(rho, x)


def phi0_x(rho, x):
    t = tau(rho, x)
    return (np.cos(x) * t - np.sin(x) * tau_x(rho, x)) / t**2


def left_jost_closed(rho, x, k):
    """Left Jost solution (value, x-derivative) for x <= 0.

    psi_-(x,k) = e^{-ikx} - rho*phi0(x)*(e^{-i(k+1)x}/(k+1) - e^{-i(k-1)x}/(k-1)).
    Simple poles at k = +-1.  x and k broadcast against each other.
    """
    k = np.asarray(k)
    near_pole = np.minimum(np.abs(k - 1.0), np.abs(k + 1.0)) < 1e-9
    if np.any(near_pole):
        raise PoleEvaluationError("left Jost solution has simple poles at k = +-1",
                                  k=np.atleast_1d(k)[np.atleast_1d(near_pole)][0])
    x = np.asarray(x, dtype=float)
    if np.any(x > 1e-12):
        raise OutOfDomainError("left Jost closed form is only valid for x <= 0")
    f0 = phi0(rho, x)
    f0p = phi0_x(rho, x)
    ep = np.exp(-1j * (k + 1) * x) / (k + 1)
    em = np.exp(-1j * (k - 1) * x) / (k - 1)
    val = np.exp(-1j * k * x) - rho * f0 * (ep - em)
    der = (-1j * k * np.exp(-1j * k * x)
           - rho * f0p * (ep - em)
           + 1j * rho * f0 * (np.exp(-1j * (k + 1) * x) - np.exp(-1j * (k - 1) * x)))
    return val, der


def _left_jost_star(rho, x, k):
    """Analytic continuation of conj(psi_-) off the real k-axis (value, derivative)."""
    f0 = phi0(rho, x)
    f0p = phi0_x(rho, x)
    ep = np.exp(1j * (k + 1) * x) / (k + 1)
    em = np.exp(1j * (k - 1) * x) / (k - 1)
    val = np.exp(1j * k * x) - rho * f0 * (ep - em)
    der = (1j * k * np.exp(1j * k * x)
           - rho * f0p * (ep - em)
           - 1j * rho * f0 * (np.exp(1j * (k + 1) * x) - np.exp(1j * (k - 1) * x)))
    return val, der


def _right_jost_at_resonance(rho, x):
    """Limit of the right Jost solution (value, derivative) at k = +1 for x <= 0."""
    x = np.asarray(x, dtype=float)
    f0 = phi0(rho, x)
    f0p = phi0_x(rho, x)
    s2 = np.sin(2 * x)
    c2 = np.cos(2 * x)
    val = (np.exp(1j * x)
           - 0.5 * rho * f0 * np.exp(2j * x)
           + 1j * rho * x * f0
           + rho**2 * f0 * (0.5 * x * c2 - 0.25 * s2)
           - rho * x * np.cos(x)
           + 1.5 * rho * f0)
    der = (1j * np.exp(1j * x)
           - 0.5 * rho * (f0p + 2j * f0) * np.exp(2j * x)
           + 1j * rho * (f0 + x * f0p)
           + rho**2 * f0p * (0.5 * x * c2 - 0.25 * s2)
           - rho**2 * f0 * x * s2
           - rho * (np.cos(x) - x * np.sin(x))
           + 1.5 * rho * f0p)
    return val, der


def right_jost_closed(rho, x, k):
    """Right Jost solution (value, x-derivative) of the seed potential at any x.

    Exactly e^{ikx} for x >= 0.  For x < 0 it is reconstructed from the left
    Jost solution through the scattering relations; the apparent poles at
    k = +-1 cancel and are handled by an explicit limit formula.  k = 0 is
    rejected (degenerate normalization).
    """
    if abs(k) < 1e-9:
        raise PoleEvaluationError("right Jost solution is not defined at k = 0", k=k)
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    val = np.empty(x.shape, complex)
    der = np.empty(x.shape, complex)
    pos = x >= 0
    val[pos] = np.exp(1j * k * x[pos])
    der[pos] = 1j * k * val[pos]
    if np.any(~pos):
        xm = x[~pos]
        if abs(k - 1.0) < 1e-9:
            v, d = _right_jost_at_resonance(rho, xm)
        elif abs(k + 1.0) < 1e-9:
            v, d = _right_jost_at_resonance(rho, xm)
            v, d = np.conj(v), np.conj(d)
        else:
            p = k**3 - k
            vm, dm = left_jost_closed(rho, xm, k)
            vs, ds = _left_jost_star(rho, xm, k)
            lam = 1j * rho / p
            v = (1.0 + lam) * vs - lam * vm
            d = (1.0 + lam) * ds - lam * dm
        val[~pos] = v
        der[~pos] = d
    if scalar:
        return complex(val[0]), complex(der[0])
    return val, der


def phi_closed(rho, s):
    """Generating function of the one-state insertion: 2 sin s (s >= 0), 2 sin s / tau (s < 0)."""
    s = np.asarray(s, dtype=float)
    out = np.where(s < 0, 2.0 * np.sin(s) / tau(rho, s), 2.0 * np.sin(s))
    return out if out.ndim else float(out)


def phi_x_closed(rho, s):
    s = np.asarray(s, dtype=float)
    out = np.where(s < 0, 2.0 * phi0_x(rho, s), 2.0 * np.cos(s))
    return out if out.ndim else float(out)


def big_i_closed(rho, x):
    """Cumulative integral I(x) = Integral(phi^2, -inf..x): 2/(rho tau) for x<0, (2/rho) tau for x>=0."""
    x = np.asarray(x, dtype=float)
    t = tau(rho, x)
    out = np.where(x < 0, 2.0 / (rho * t), (2.0 / rho) * t)
    return out if out.ndim else float(out)


def y_closed(rho, alpha, x):
    """Normalized eigenfunction of the embedded eigenvalue +1: alpha*phi/(1 + alpha^2 I)."""
    return alpha * phi_closed(rho, x) / (1.0 + alpha**2 * big_i_closed(rho, x))


def y_x_closed(rho, alpha, x):
    f = phi_closed(rho, x)
    u = 1.0 + alpha**2 * big_i_closed(rho, x)
    return alpha * phi_x_closed(rho, x) / u - alpha**3 * f**3 / u**2


def psi_plus1_closed(rho, alpha, x, k):
    """Transformed right Jost solution on x >= 0 after inserting the state at omega = 1.

    e^{ikx} { 1 + (e^{ix}/(k+1) - e^{-ix}/(k-1)) * alpha^2 phi(x)/(1 + alpha^2 I(x)) }.
    Simple poles at k = +-1.
    """
    if min(abs(k - 1.0), abs(k + 1.0)) < 1e-9:
        raise PoleEvaluationError("transformed Jost solution has simple poles at k = +-1", k=k)
    x = np.asarray(x, dtype=float)
    if np.any(x < -1e-12):
        raise OutOfDomainError("psi_plus1_closed is the x >= 0 branch")
    frac = alpha**2 * phi_closed(rho, x) / (1.0 + alpha**2 * big_i_closed(rho, x))
    bracket = np.exp(1j * x) / (k + 1) - np.exp(-1j * x) / (k - 1)
    out = np.exp(1j * k * x) * (1.0 + bracket * frac)
    return out if out.ndim else complex(out)


def _log_second_derivative(g, gx, gxx):
    return -2.0 * gxx / g + 2.0 * (gx / g) ** 2


def positon_closed(x, t, singular_value=math.inf, singular_tol=1e-10):
    """Singular one-positon profile -2 d^2/dx^2 log(1 + x + 12t - sin(2(x+4t))/2).

    At the (moving) zero of the tau argument the profile has a double pole;
    such points are reported as `singular_value` (default +inf).
    """
    x = np.asarray(x, dtype=float)
    th = x + 4.0 * t
    g = 1.0 + x + 12.0 * t - 0.5 * np.sin(2 * th)
    gx = 2.0 * np.sin(th) ** 2
    gxx = 2.0 * np.sin(2 * th)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _log_second_derivative(g, gx, gxx)
    out = np.where(np.abs(g) < singular_tol, singular_value, out)
    return out if out.ndim else float(out)


def positon_singularity(t):
    """Location of the (unique) double-pole singularity of the positon at time t.

    Bisection to 1e-13, or to adjacent floats: the tau argument f is
    increasing (f' = 2 sin^2 >= 0), negative at lo and positive at hi.
    """
    f = lambda x: 1.0 + x + 12.0 * t - 0.5 * math.sin(2 * (x + 4.0 * t))
    lo, hi = -12.0 * t - 4.0, -12.0 * t + 2.0
    mid = 0.5 * (lo + hi)
    while hi - lo > 1e-13 and lo < mid < hi:
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
        mid = 0.5 * (lo + hi)
    return mid


def soliton_closed(x, t):
    """One-soliton profile -2 d^2/dx^2 log cosh(x - 4t) = -2 sech^2(x - 4t)."""
    x = np.asarray(x, dtype=float)
    out = -2.0 / np.cosh(x - 4.0 * t) ** 2
    return out if out.ndim else float(out)
