"""Analytic tail models for slowly decaying oscillatory solutions.

Solutions generated at a full-reflection momentum omega decay like
sin(omega*s + theta) / (linear envelope) toward the infinity where the
potential is long-range.  Their squares are integrable but far too slowly
decaying for direct quadrature, so cumulative Gram integrals are closed with
the fitted model

    phi(s) ~ C sin(omega s + theta) / tau_hat(s),
    tau_hat'(s) = -+ 2 b sin^2(omega s + theta)   (-|left tail, +|right tail),

whose square integrates in closed form:  Integral over the tail equals
C^2 / (2 b tau_hat(s0)).  The model class contains exactly the envelopes the
explicit potential family produces, so the fit error is set by the data, not
by the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import TailDivergenceError, ValidationError

__all__ = ["TailFit", "fit_oscillatory_tail"]

LEFT = "left"
RIGHT = "right"
ZERO_TOL = 1e-11        # a window below this, relative to its scale, has a zero tail


@dataclass
class TailFit:
    """Fitted tail model of one oscillatory solution beyond the data window."""

    side: str
    s0: float
    omega: float
    theta: float
    amp: float          # C
    a: float            # tau_hat(s0)
    b: float            # envelope slope
    residual: float     # relative fit residual on the window
    zero_tail: bool = False

    def _sgn(self) -> float:
        return -1.0 if self.side == LEFT else 1.0

    def tau_hat(self, s):
        s = np.asarray(s, dtype=float)
        osc = (np.sin(2 * (self.omega * s + self.theta))
               - np.sin(2 * (self.omega * self.s0 + self.theta))) / (2 * self.omega)
        return self.a + self._sgn() * (self.b * (s - self.s0) - self.b * osc)

    def self_integral(self) -> float:
        """Integral of phi^2 over the tail beyond s0."""
        if self.zero_tail:
            return 0.0
        return self.amp**2 / (2.0 * self.b * self.a)

    def cross_integral(self, other: "TailFit") -> float:
        """Integral of phi_self * phi_other over the shared tail.

        Two-term integration-by-parts asymptotics against the affine envelopes;
        the truncation error is O(1/(nu^3 a^3)) and only matters for synthetic
        multi-state data (single-state tails use self_integral, which is exact
        for the model).
        """
        if self.zero_tail or other.zero_tail:
            return 0.0
        if self.side != other.side or abs(self.s0 - other.s0) > 1e-9:
            raise ValidationError("cross tails require matching side and anchor")
        f0 = 1.0 / (self.a * other.a)
        f1 = -(self.b / self.a + other.b / other.a) * f0
        sgn = 1.0 if self.side == LEFT else -1.0
        out = 0.0
        for w, nu, beta in [
            (0.5, self.omega - other.omega, self.theta - other.theta),
            (-0.5, self.omega + other.omega, self.theta + other.theta),
        ]:
            if abs(nu) < 1e-12:
                raise ValueError("cross tails with equal frequencies are not supported")
            c = nu * self.s0 + beta
            val = sgn * np.sin(c) / nu * f0 - np.cos(c) / nu**2 * f1
            out += w * val
        return float(self.amp * other.amp * out)


def _fit_at_theta(theta, s, phi, omega, s0, sgn):
    osc = (np.sin(2 * (omega * s + theta)) - np.sin(2 * (omega * s0 + theta))) / (2 * omega)
    g = sgn * ((s - s0) - osc)
    h = np.sin(omega * s + theta)
    B = np.column_stack([phi, phi * g, -h])
    _, sv, vt = np.linalg.svd(B, full_matrices=False)
    return sv[-1], vt[-1]


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))      # the golden section's smaller share


def _brent_min(f, a, x, b, xtol=1e-12):
    """A local minimum of f in [a, b] from x by Brent's method (Algorithms for
    Minimization without Derivatives, 1973, ch. 5): parabolic steps through the
    three best points, golden-section steps where a parabola's would leave
    [a, b] or not shrink, none shorter than tol = xtol |x| + 1e-11; it stops
    once [a, b] lies within 2 tol of x."""
    w = v = x
    fx = fw = fv = f(x)
    step = last = 0.0
    for _ in range(500):
        tol = xtol * abs(x) + 1e-11
        mid = 0.5 * (a + b)
        if abs(x - mid) < 2.0 * tol - 0.5 * (b - a):
            break
        p = q = 0.0
        if abs(last) > tol:         # the parabola through (v, w, x): x + p / q
            r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
        if q != 0.0 and q * (a - x) < p < q * (b - x) and abs(p) < abs(0.5 * q * last):
            last, step = step, p / q
            if x + step - a < 2.0 * tol or b - x - step < 2.0 * tol:
                step = math.copysign(tol, mid - x)
        else:
            last = (a if x >= mid else b) - x
            step = _GOLDEN * last
        u = x + (step if abs(step) >= tol else math.copysign(tol, step))
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x


def fit_oscillatory_tail(s, phi, omega, side) -> TailFit:
    """Fit the oscillatory tail model to samples (s, phi) on a window.

    The window must be the outermost available data on the tail side; the
    anchor s0 is the window edge facing the tail.  Solutions that have already
    decayed below ZERO_TOL (relative to their global scale) are flagged as
    zero-tail.  A non-decaying envelope raises TailDivergenceError.
    """
    s = np.asarray(s, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if side not in (LEFT, RIGHT):
        raise ValidationError("side must be 'left' or 'right'")
    order = np.argsort(s)
    s, phi = s[order], phi[order]
    s0 = s[0] if side == LEFT else s[-1]
    scale = float(np.max(np.abs(phi)))

    # outer third of the window, on the tail side
    n = len(s)
    outer = slice(0, n // 3) if side == LEFT else slice(2 * n // 3, n)
    if scale < ZERO_TOL or np.max(np.abs(phi[outer])) < ZERO_TOL * max(scale, 1.0):
        return TailFit(side, float(s0), omega, 0.0, 0.0, 1.0, 1.0, 0.0, zero_tail=True)

    # crude divergence screen: the envelope must not grow outward
    inner = slice(2 * n // 3, n) if side == LEFT else slice(0, n // 3)
    if np.max(np.abs(phi[outer])) > 3.0 * np.max(np.abs(phi[inner])) + ZERO_TOL:
        raise TailDivergenceError("tail is not decaying; running integral is not Cauchy")

    sgn = -1.0 if side == LEFT else 1.0
    thetas = np.linspace(0.0, np.pi, 32, endpoint=False)
    scores = [_fit_at_theta(th, s, phi, omega, s0, sgn)[0] for th in thetas]
    th0 = thetas[int(np.argmin(scores))]
    theta = _brent_min(lambda th: _fit_at_theta(th, s, phi, omega, s0, sgn)[0],
                       th0 - 0.2, th0, th0 + 0.2)
    sigma, vec = _fit_at_theta(theta, s, phi, omega, s0, sgn)
    a, b, c = vec
    if a < 0:
        a, b, c = -a, -b, -c
    rel = float(sigma / np.linalg.norm(phi))
    if b <= 0 or a <= 0:
        raise TailDivergenceError(
            f"tail envelope fit failed (a={a:.3g}, b={b:.3g}); tail integral not Cauchy")
    return TailFit(side, float(s0), omega, theta, float(c), float(a), float(b), rel)
