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

The model is linear in six columns that do not depend on theta: with
r = s - s0, phi tau_hat - C sin(omega s + theta) = F v for
F = [phi, phi r, phi sin 2wr, phi cos 2wr, sin wr, cos wr] (w = omega).  One
SVD of F, its columns scaled to unit norm, gives v as the least right
singular vector, and b, C, theta and tau_hat(s0) are read off it.  The
coefficients of phi sin 2wr and phi cos 2wr are left free, which relaxes the
model by two degrees of freedom and is exact on data inside it.
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
                raise ValidationError("cross tails with equal frequencies are not supported")
            c = nu * self.s0 + beta
            val = sgn * np.sin(c) / nu * f0 - np.cos(c) / nu**2 * f1
            out += w * val
        return float(self.amp * other.amp * out)


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

    # with psi = omega s0 + theta, v = (a + sgn b sin2psi/2w, sgn b, -sgn b cos2psi/2w,
    # -sgn b sin2psi/2w, -C cos psi, -C sin psi); v[2] and v[3] are not read
    sgn = -1.0 if side == LEFT else 1.0
    r = s - s0
    wr = omega * r
    F = np.column_stack([phi, phi * r, phi * np.sin(2 * wr), phi * np.cos(2 * wr),
                         np.sin(wr), np.cos(wr)])
    norms = np.linalg.norm(F, axis=0)
    _, sv, vt = np.linalg.svd(F / norms, full_matrices=False)
    v = vt[-1] / norms
    if sgn * v[1] < 0:
        v = -v
    b = sgn * v[1]
    c = math.hypot(v[4], v[5])
    psi = math.atan2(-v[5], -v[4])
    a = v[0] - sgn * b * math.sin(2 * psi) / (2 * omega)
    theta = psi - omega * s0
    turns = math.floor(theta / math.pi)        # theta to [0, pi); C changes sign with a half-turn
    theta -= turns * math.pi
    if turns % 2:
        c = -c
    size = math.sqrt(a * a + b * b + c * c)
    a, b, c = a / size, b / size, c / size
    rel = float(sv[-1] / size / np.linalg.norm(phi))
    if b <= 0 or a <= 0:
        raise TailDivergenceError(
            f"tail envelope fit failed (a={a:.3g}, b={b:.3g}); tail integral not Cauchy")
    return TailFit(side, float(s0), omega, theta, float(c), float(a), float(b), rel)
