"""Potentials, grids, and direct integration of the 1D Schrodinger equation.

-u'' + q(x) u = k^2 u is integrated in two ways, both split at the
potential's kink points, with momentum as a batch axis (an array of k is
carried through one solve):

- at scattered points (`solve_at`, `right_jost_at`) by the package's own
  adaptive DOP853 (`solve_ivp`: Hairer's coefficients and step control),
  rtol 1e-10 / atol 1e-12 by default, its steps landing on each point;
- on grids (`right_jost`) by a vectorised sixth-order Magnus propagator
  (`_magnus`) whose steps are at most h_s = rtol^(1/6) / max(1, |k|),
  0.0215 at the default rtol.

A solve is capped at MAX_NFEV right-hand-side evaluations per smooth piece
(DOP853) or MAX_NFEV steps (Magnus), and a DOP853 step below 10 ulp of x
fails.  Right Jost solutions are exact plane waves beyond the potential's
right cutoff by construction; to the left they are extended by integration.
Left solutions are built in `scattering.left_reference`.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import wvn_example as wvn
from .errors import (
    IntegrationFailureError,
    PoleEvaluationError,
    ValidationError,
)

__all__ = [
    "Grid", "CubicSpline", "PotentialSpec", "OdeWork", "OdeSolution", "solve_ivp",
    "solve_at", "right_jost_at", "right_jost",
    "count_ode_work", "write_csv", "DEFAULT_RTOL", "DEFAULT_ATOL", "MAX_POINTS",
]

MAX_POINTS = 10**6      # most nodes, momenta or list entries of a config; most phi-plane nodes
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
# Most right-hand-side evaluations one smooth piece of q may take in DOP853
# (about a minute; 44-54 per unit of |k| * span, see README), and most steps
# one Magnus solve may take (46 per unit of |k| * span for |k| >= 1 at the
# default rtol).  Every NFEV_CHECK evaluations the DOP853 total is projected
# from the share of the span covered, so a piece projected past the cap fails
# at once instead of running for hours; the Magnus count is known up front.
MAX_NFEV = 2_000_000
NFEV_CHECK = 5_000

KIND_ZERO = "zero"
KIND_WVN = "wvn_example"
KIND_SAMPLED = "sampled"


@dataclass
class Grid:
    """Uniform grid on [x_min, x_max] with n_points >= 2 nodes."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (isinstance(self.x_min, numbers.Real) and isinstance(self.x_max, numbers.Real)
                and isinstance(self.n_points, numbers.Integral)):
            raise ValidationError("grid requires real x_min and x_max and an integer n_points, "
                                  f"got ({self.x_min!r:.40}, {self.x_max!r:.40}, "
                                  f"{self.n_points!r:.40})")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValidationError("grid requires finite x_min and x_max")
        if not (self.x_min < self.x_max):
            raise ValidationError("grid requires x_min < x_max")
        if self.n_points < 2:
            raise ValidationError("grid requires n_points >= 2")
        self._x = np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def x(self) -> np.ndarray:
        return self._x

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def index(self, x):
        """(x, j, on): x as an array, the node nearest each x and whether x is that node."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        tol = 1e-9 * self.spacing
        if not np.all((xs >= self.x_min - tol) & (xs <= self.x_max + tol)):
            raise ValidationError(f"x must lie on the grid [{self.x_min}, {self.x_max}]")
        j = np.clip(np.rint((xs - self.x_min) / self.spacing).astype(int), 0, self.n_points - 1)
        return xs, j, np.abs(self.x[j] - xs) <= tol


def _solve_tridiagonal(ab, b) -> np.ndarray:
    """x with A x = b for the tridiagonal A held in banded layout, A[i, j] = ab[1 + i - j, j].

    Elimination without row interchanges (Thomas): after the spline's first
    row, whose elimination leaves row 1 diagonally dominant, every row is.
    """
    upper, main, lower, x = ab[0, 1:].tolist(), ab[1].tolist(), ab[2, :-1].tolist(), b.tolist()
    for i in range(1, len(main)):
        f = lower[i - 1] / main[i - 1]
        main[i] -= f * upper[i - 1]
        x[i] -= f * x[i - 1]
    x[-1] /= main[-1]
    for i in range(len(main) - 2, -1, -1):
        x[i] = (x[i] - upper[i] * x[i + 1]) / main[i]
    return np.array(x)


class CubicSpline:
    """The not-a-knot cubic spline through (x, y), x strictly increasing; NaN outside [x[0], x[-1]].

    Its slopes at the knots solve one tridiagonal system (`_solve_tridiagonal`):
    a continuous second derivative at every interior knot and a continuous
    third derivative at x[1] and x[-2].  Three knots give the parabola
    through them and two the line, as scipy's `CubicSpline`.
    """

    def __init__(self, x, y):
        self.x = x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        ab, b = np.zeros((3, x.size)), np.empty(x.size)   # upper, main and lower diagonal
        ab[0, 2:], ab[1, 1:-1], ab[2, :-2] = dx[:-1], 2.0 * (dx[:-1] + dx[1:]), dx[1:]
        b[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        if x.size == 2:
            first = last = (1.0, 0.0, slope[0])
        elif x.size == 3:       # both end conditions are the same one here
            first, last = (1.0, 1.0, 2.0 * slope[0]), (1.0, 1.0, 2.0 * slope[1])
        else:
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            first = (dx[1], d0,
                     ((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0)
            last = (dx[-2], d1,
                    (dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1)
        (ab[1, 0], ab[0, 1], b[0]), (ab[1, -1], ab[2, -2], b[-1]) = first, last
        s = _solve_tridiagonal(ab, b)
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        # coefficients of (z^3, z^2, z, 1), z = x - x_i, on each interval i
        self.c = np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.x, x, side="right") - 1, 0, self.x.size - 2)
        z = x - self.x[i]
        c = self.c[:, i]
        return np.where((x >= self.x[0]) & (x <= self.x[-1]),
                        ((c[0] * z + c[1]) * z + c[2]) * z + c[3], np.nan)


def _samples(x, q):
    """A sampled potential's (x, q) as float arrays: finite, 1d, of equal length,
    x at least 2 strictly increasing points (else ValidationError)."""
    try:
        x, q = np.asarray(x, dtype=float), np.asarray(q, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError("sample arrays must be numeric") from None
    if x.ndim != 1 or x.shape != q.shape:
        raise ValidationError("sample arrays must be 1d and of equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(q))):
        raise ValidationError("sample arrays must be finite")
    if x.size < 2 or np.any(np.diff(x) <= 0):
        raise ValidationError("sample x must be at least 2 strictly increasing points")
    return x, q


@dataclass
class PotentialSpec:
    """A real potential on the line, closed-form or sampled, that vanishes beyond `right_cutoff`.

    Each kind has a support outside which q = 0 (`support`) and a left
    reference solution (`scattering.left_reference`): the explicit example
    (`wvn_example`, support (-inf, 0]), the zero potential (empty support), and
    the not-a-knot cubic spline through samples (`sampled`, support
    [x_0, x_last]; q may jump at either end).  The right cutoff defaults
    (None) to the support's right end; it may be set, at construction or by
    `dataclasses.replace`, to any larger finite x.
    """

    kind: str
    rho: float | None = None
    sample_x: np.ndarray | None = None
    sample_q: np.ndarray | None = None
    right_cutoff: float | None = None

    def __post_init__(self):
        if type(self.kind) is not str or self.kind not in (KIND_ZERO, KIND_WVN, KIND_SAMPLED):
            raise ValidationError(f"unknown potential kind {self.kind!r}")
        if self.kind == KIND_WVN:
            if not isinstance(self.rho, numbers.Real) or not 0 < self.rho < math.inf:
                raise ValidationError(f"{self.kind} requires a finite rho > 0")
        if self.kind == KIND_SAMPLED:
            self.sample_x, self.sample_q = _samples(self.sample_x, self.sample_q)
            self._spline = CubicSpline(self.sample_x, self.sample_q)
        end = self.support()[1]
        if self.right_cutoff is None:
            self.right_cutoff = end
        cut = self.right_cutoff
        if not (isinstance(cut, numbers.Real) and end <= cut < math.inf):
            raise ValidationError(f"right_cutoff must be below +inf and at least the right end "
                                  f"of the {self.kind} potential's support, {end}; got {cut!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls(kind=KIND_ZERO)

    @classmethod
    def wvn_example(cls, rho: float) -> "PotentialSpec":
        return cls(kind=KIND_WVN, rho=rho)

    @classmethod
    def sampled(cls, x: np.ndarray, q: np.ndarray) -> "PotentialSpec":
        return cls(kind=KIND_SAMPLED, sample_x=x, sample_q=q)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x):
        """q(x); finite real for every finite x."""
        if self.kind == KIND_ZERO:
            return np.zeros_like(np.asarray(x, dtype=float)) if not np.isscalar(x) else 0.0
        if self.kind == KIND_WVN:
            return wvn.q_seed(self.rho, x)
        xs = np.asarray(x, dtype=float)
        out = np.where((xs < self.sample_x[0]) | (xs > self.sample_x[-1]), 0.0, self._spline(xs))
        return out if not np.isscalar(x) else float(out)

    def scalar_fn(self) -> Callable[[float], float]:
        """A fast scalar q(x) for the ODE right-hand side."""
        if self.kind == KIND_ZERO:
            return lambda x: 0.0
        if self.kind == KIND_WVN:
            rho = self.rho

            def q(x, _rho=rho):
                if x >= 0.0:
                    return 0.0
                t = 1.0 - _rho * x + 0.5 * _rho * math.sin(2 * x)
                s = math.sin(x)
                tp = -2.0 * _rho * s * s
                tpp = -2.0 * _rho * math.sin(2 * x)
                return -2.0 * tpp / t + 2.0 * (tp / t) ** 2

            return q
        fn = self.evaluate
        return lambda x: float(fn(x))

    def support(self) -> tuple[float, float]:
        """The ends of the interval outside which q = 0; (inf, -inf), empty, for the zero kind."""
        if self.kind == KIND_WVN:
            return -math.inf, 0.0
        if self.kind == KIND_SAMPLED:
            return float(self.sample_x[0]), float(self.sample_x[-1])
        return math.inf, -math.inf

    def breakpoints(self) -> list[float]:
        """The support's finite ends, where q may jump or kink (integration is split there)."""
        return [end for end in self.support() if math.isfinite(end)]


def write_csv(path, header, columns):
    """Write the 1-d columns as CSV under a header line, every value as %.17g (as `np.savetxt`)."""
    rows, row_format = np.column_stack(columns), ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(0, len(rows), 1024):     # one % per block: fast to format, bounded memory
            block = rows[i:i + 1024]
            fh.write(row_format * len(block) % tuple(block.ravel().tolist()))


@dataclass
class OdeWork:
    """Work counted by `count_ode_work`: the DOP853 solves of the point
    evaluators and their right-hand-side evaluations, and the steps of the
    grid propagator with the largest step bound h_s it used."""

    solves: int = 0
    nfev: int = 0
    magnus_steps: int = 0
    magnus_step_max: float = 0.0


_ode_work: ContextVar[OdeWork | None] = ContextVar("positonkit_ode_work", default=None)


@contextmanager
def count_ode_work():
    """Count the integration work done inside the block; yields the OdeWork record."""
    work = OdeWork()
    token = _ode_work.set(work)
    try:
        yield work
    finally:
        _ode_work.reset(token)


# Dormand & Prince's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5):
# stage s starts at x + c_s h from y + h sum_j a_sj K_j, its row a_s holding the
# weights of stages 0..s-1; b weighs the 12 stages into the eighth-order step,
# and e5, e3 = b - bhh give the fifth- and third-order error estimates.
_DOP_C = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
          0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
          0.8571428571428571, 1.0)
_DOP_A = [np.array(row) for row in (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636))]
_DOP_B = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
                   1.8915178993145003, -5.801203960010585, 0.3111643669578199,
                   -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
_DOP_E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                    0.3341791187130175, 0.08192320648511571, -0.022355307863886294])
_DOP_E3 = _DOP_B - np.array([0.244094488188976377952755905512, 0, 0, 0, 0, 0, 0, 0,
                             0.733846688281611857341361741547, 0, 0,
                             0.220588235294117647058823529412e-1])


# one `solve_ivp` call: its states at its points (columns of y) and its evaluations of f
OdeSolution = namedtuple("OdeSolution", "y nfev")


def _rms(v) -> float:
    return float(np.linalg.norm(v)) / math.sqrt(v.size)


def solve_ivp(fun, x0: float, y0, x_eval, rtol: float, atol: float) -> OdeSolution:
    """DOP853 for y' = fun(x, y) from (x0, y0), landing a step on each point of x_eval in turn.

    The step control is Hairer's (as in scipy's DOP853): the error norm is the
    RMS of the E5 estimate, damped by the E3 one, in units of
    atol + max(|y|, |y_new|) rtol; a step is accepted below 1 and the next
    step is 0.9 err^(-1/8) times this one, within [0.2, 10] and not growing
    right after a rejection; the first step follows Hairer's rule.  A step
    that would pass the next point is cut to end on it (and does not shrink
    the step after it), so no interpolant is needed.  A step the controller
    wants below 10 ulp of x raises IntegrationFailureError.
    """
    x, y = float(x0), np.asarray(y0)
    x_eval = np.asarray(x_eval, dtype=float)
    out = np.empty((y.size, x_eval.size), y.dtype)
    if not x_eval.size:
        return OdeSolution(out, 0)
    f = fun(x, y)
    direction = 1.0 if x_eval[-1] >= x else -1.0
    span = abs(float(x_eval[-1]) - x)
    # Hairer's initial step: from the sizes of y, f and a difference estimate of f'
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((fun(x + direction * h0, y + direction * h0 * f) - f) / scale) / h0 if h0 else 0.0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs, nfev = min(100.0 * h0, h1, span), 2
    stages = np.empty((12, y.size), y.dtype)
    for j, target in enumerate(x_eval):
        rejected = False
        while direction * (target - x) > 0.0:
            if h_abs < 10.0 * abs(math.nextafter(x, direction * math.inf) - x):
                raise IntegrationFailureError(
                    f"integration failed near x={x}: the step fell below 10 ulp of x "
                    f"at rtol={rtol:.3g}, atol={atol:.3g}", x_failed=x)
            landed = h_abs >= direction * (target - x)
            x_new = float(target) if landed else x + direction * h_abs
            h = x_new - x
            stages[0] = f
            for s, (c, a) in enumerate(zip(_DOP_C, _DOP_A), start=1):
                stages[s] = fun(x + c * h, y + h * (a @ stages[:s]))
            nfev += 11
            y_new = y + h * (_DOP_B @ stages)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5, e3 = (_rms((e @ stages) / scale) ** 2 for e in (_DOP_E5, _DOP_E3))
            err = abs(h) * e5 / math.sqrt(e5 + 0.01 * e3) if e5 or e3 else 0.0
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
                grown = abs(h) * (min(1.0, factor) if rejected else factor)
                h_abs = max(h_abs, grown) if landed else grown
                x, y, f, rejected = x_new, y_new, fun(x_new, y_new), False
                nfev += 1
            else:
                h_abs = abs(h) * max(0.2, 0.9 * err ** -0.125)
                rejected = True
        out[:, j] = y
    return OdeSolution(out, nfev)


def _integrate_piece(qfn, k, x_from, x_to, y0, x_eval, rtol, atol):
    """`solve_ivp` over one smooth piece for all momenta k (1d array) at once.

    The state is [u_1..u_n, u'_1..u'_n].  The step control bounds the RMS of
    the scaled error over all 2n components, so both tolerances are divided
    by sqrt(n): each momentum's own (u, u') pair then keeps the bound that a
    solve for that momentum alone has, and n = 1 is exactly such a solve.
    Steps land on each point of x_eval, the last of which ends the piece,
    and a step below 10 ulp of x fails (see `solve_ivp`).
    """
    n = k.size
    ksq = k * k
    perm = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    coef = np.ones(2 * n, complex)
    span = x_to - x_from
    nfev = 0

    def rhs(x, y):
        nonlocal nfev
        nfev += 1
        if nfev % NFEV_CHECK == 0 and nfev > MAX_NFEV * (x - x_from) / span:
            raise IntegrationFailureError(
                f"the solve would take more than {MAX_NFEV} evaluations of the equation: "
                f"{nfev} reached x={x} of [{x_from}, {x_to}]", x_failed=float(x))
        q = qfn(x)
        if not math.isfinite(q):     # else the step would shrink to its floor before failing
            raise IntegrationFailureError(f"potential is not finite at x={x}: q={q}",
                                          x_failed=float(x))
        coef[n:] = q - ksq
        return y[perm] * coef

    scale = math.sqrt(n)
    sol = solve_ivp(rhs, x_from, y0, x_eval, rtol / scale, atol / scale)
    work = _ode_work.get()
    if work is not None:
        work.solves += 1
        work.nfev += sol.nfev
    return sol


def solve_at(spec: PotentialSpec, k, x_from: float, x_to: float, init, x_eval,
             rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL):
    """Integrate -u'' + q u = k^2 u from x_from to x_to for every momentum in k.

    init = (u, u') at x_from, each broadcastable to the shape of k.  x_eval
    holds points between the endpoints, ordered from x_from towards x_to.
    All momenta share one DOP853 solve per smooth piece of q (integration is
    split at the potential's kink points).  Returns (values, derivs), each of
    shape k.shape + (len(x_eval),).
    """
    k = np.asarray(k)
    ks = k.astype(complex).ravel()
    x_eval = np.asarray(x_eval, dtype=float)
    n, m = ks.size, x_eval.size
    out = np.empty((2 * n, m), complex)
    if n:
        u0, d0 = (np.broadcast_to(np.asarray(v, complex), k.shape).ravel() for v in init)
        y = np.concatenate([u0, d0])
        qfn = spec.scalar_fn()
        forward = x_to >= x_from
        lo, hi = min(x_from, x_to), max(x_from, x_to)
        breaks = sorted((b for b in spec.breakpoints() if lo < b < hi), reverse=not forward)
        edges = [x_from] + breaks + [x_to]
        sign = 1.0 if forward else -1.0
        pos = 0
        for a, b in zip(edges[:-1], edges[1:]):
            end = pos + int(np.count_nonzero(sign * (x_eval[pos:] - b) <= 1e-12))
            t_eval = x_eval[pos:end]
            if not t_eval.size or abs(t_eval[-1] - b) > 1e-12:
                t_eval = np.append(t_eval, b)
            sol = _integrate_piece(qfn, ks, a, b, y, t_eval, rtol, atol)
            out[:, pos:end] = sol.y[:, :end - pos]
            pos = end
            y = sol.y[:, -1]
    shape = k.shape + (m,)
    return out[:n].reshape(shape), out[n:].reshape(shape)


# Gauss-Legendre nodes on [0, 1] of the sixth-order Magnus step
_GAUSS = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])


def _magnus_factors(q, h, ksq):
    """exp(Omega) of one sixth-order Magnus step per (momentum, step).

    q: (steps, 3) samples of q at the Gauss nodes, h: (steps,) signed step
    lengths, ksq: (n, 1) squared momenta.  The system is Y' = A Y with
    Y = (u, u') and A = [[0, 1], [q - k^2, 0]].  In the commutator form of
    Blanes, Casas & Ros (BIT 2000), after Iserles & Norsett (1999),

        a1 = h A2,  a2 = (sqrt(15)/3) h (A3 - A1),  a3 = (10/3) h (A3 - 2 A2 + A1),
        C1 = [a1, a2],  C2 = -[a1, 2 a3 + C1] / 60,
        Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2] / 240.

    Writing a traceless [[m, p], [r, -m]] as (m, p, r): a1 = (0, h, a),
    a2 = (0, 0, b) and a3 = (0, 0, c), so k^2 enters through a alone, and
    Omega = (m, p, r) below.  With s^2 = m^2 + p r,
    exp(Omega) = cosh(s) I + (sinh(s)/s) Omega.  Returns its entries
    (e11, e12, e21, e22), each of shape (n, steps).
    """
    q1, q2, q3 = q.T
    a = h * (q2 - ksq)
    b = (math.sqrt(15.0) / 3.0) * h * (q3 - q1)
    c = (10.0 / 3.0) * h * (q3 - 2.0 * q2 + q1)
    hb2 = h * b * b
    m = h * b * (-20.0 + (4.0 / 3.0) * h * a + h * c / 30.0) / 240.0
    p = h + h * h * (hb2 - 20.0 * c) / 3600.0
    r = a + c / 12.0 + (h * c * (20.0 * a + c) / 15.0 - 2.0 * hb2 + h * a * hb2 / 15.0) / 240.0
    s = np.sqrt((m * m + p * r).astype(complex))
    ch = np.cosh(s)
    shs = np.divide(np.sinh(s), s, out=np.ones_like(s), where=s != 0)
    if not np.iscomplexobj(a):
        ch, shs = ch.real, shs.real
    return ch + shs * m, shs * p, shs * r, ch - shs * m


def _prefix_products(e):
    """Running products E_i ... E_1 along the last axis of 2x2 factors.

    Recursive doubling (Hillis-Steele): after the pass with shift d every
    entry holds the product of its last 2d factors.  e holds the entries
    (e11, e12, e21, e22) as separate arrays, which are overwritten with the
    products' entries and returned.
    """
    a, b, c, d = e
    steps = a.shape[-1]
    shift = 1
    while shift < steps:
        a0, b0, c0, d0 = (x[..., :-shift] for x in (a, b, c, d))
        a1, b1, c1, d1 = (x[..., shift:] for x in (a, b, c, d))
        new = (a1 * a0 + b1 * c0, a1 * b0 + b1 * d0, c1 * a0 + d1 * c0, c1 * b0 + d1 * d0)
        for x, v in zip((a, b, c, d), new):
            x[..., shift:] = v
        shift *= 2
    return a, b, c, d


def _magnus(spec: PotentialSpec, k, x_from: float, init, x_eval, rtol: float = DEFAULT_RTOL):
    """Grid counterpart of `solve_at`: a sixth-order Magnus propagator from x_from.

    Each interval between x_from, the points x_eval (ordered away from
    x_from) and the kink points of q between them gets ceil(|length| / h_s)
    equal steps, h_s = rtol^(1/6) / max(1, |k|), so no kink falls inside a
    step.  Momenta with equal step counts on every interval share their steps
    and the q samples at the steps' Gauss nodes (one `spec.evaluate` call per
    block).  The state
    at every point comes from running products of the steps' propagators,
    formed in blocks of at most 2^16 (momentum, step) pairs with the state
    carried between blocks.  A solve of more than MAX_NFEV steps fails
    before its first step, and a non-finite q sample fails its block.
    Returns (values, derivs), each of shape k.shape + (len(x_eval),).
    """
    k = np.asarray(k)
    ks = k.astype(complex).ravel()
    x_eval = np.asarray(x_eval, dtype=float)
    n, m = ks.size, x_eval.size
    vals = np.empty((n, m), complex)
    ders = np.empty((n, m), complex)
    if n and m:
        u0, d0 = (np.broadcast_to(np.asarray(v, complex), k.shape).ravel() for v in init)
        x_end = x_eval[-1]
        lo, hi = min(x_from, x_end), max(x_from, x_end)
        edges = np.unique(np.concatenate(
            [[x_from], x_eval, [b for b in spec.breakpoints() if lo < b < hi]]))
        at = np.searchsorted(edges, x_eval)             # edge index of each point
        if x_end < x_from:
            edges, at = edges[::-1], len(edges) - 1 - at
        lengths = np.diff(edges)
        ksq = ks * ks
        if not np.any(ksq.imag):
            ksq = ksq.real
        h_s = rtol ** (1.0 / 6.0) / np.maximum(1.0, np.abs(ks))
        work = _ode_work.get()
        # steps per interval -> the momenta taking them, the most steps first, so
        # that a solve past MAX_NFEV fails before any step is taken
        groups = {}
        for i in np.argsort(h_s):
            counts = np.ceil(np.abs(lengths) / h_s[i])
            groups.setdefault(counts.tobytes(), (counts, []))[1].append(i)
        for counts, rows in groups.values():
            rows = np.array(rows)
            hs = float(np.max(h_s[rows]))
            total = counts.sum()
            if not total <= MAX_NFEV:
                raise IntegrationFailureError(
                    f"the solve would take more than {MAX_NFEV} steps of the propagator: "
                    f"{total:.4g} steps of at most {hs:.3g} over [{x_from}, {x_end}]",
                    x_failed=float(x_from))
            total = int(total)
            counts = counts.astype(np.int64)
            done = np.concatenate([[0], np.cumsum(counts)])   # steps taken to each edge
            node_step = done[at]
            y = (u0[rows], d0[rows])
            first = np.searchsorted(node_step, 0, side="right")
            vals[rows, :first], ders[rows, :first] = y[0][:, None], y[1][:, None]
            block = max(1, (1 << 16) // rows.size)
            for s0 in range(0, total, block):
                step = np.arange(s0, min(s0 + block, total))
                j = np.searchsorted(done, step, side="right") - 1   # interval of each step
                h = lengths[j] / counts[j]
                xq = (edges[j] + (step - done[j]) * h)[:, None] + h[:, None] * _GAUSS
                q = np.asarray(spec.evaluate(xq.ravel()), dtype=float).reshape(xq.shape)
                bad = ~np.isfinite(q)
                if bad.any():
                    x_bad = float(xq.ravel()[np.argmax(bad.ravel())])
                    raise IntegrationFailureError(f"potential is not finite at x={x_bad}",
                                                  x_failed=x_bad)
                e11, e12, e21, e22 = _prefix_products(
                    _magnus_factors(q, h, ksq[rows, None]))
                last = np.searchsorted(node_step, step[-1] + 1, side="right")
                cols = node_step[first:last] - s0 - 1
                uv, dv = y[0][:, None], y[1][:, None]
                vals[rows, first:last] = e11[:, cols] * uv + e12[:, cols] * dv
                ders[rows, first:last] = e21[:, cols] * uv + e22[:, cols] * dv
                y = (e11[:, -1] * y[0] + e12[:, -1] * y[1], e21[:, -1] * y[0] + e22[:, -1] * y[1])
                first = last
            if work is not None:
                work.magnus_steps += total
                work.magnus_step_max = max(work.magnus_step_max, hs)
    shape = k.shape + (m,)
    return vals.reshape(shape), ders.reshape(shape)


def _right_jost(spec: PotentialSpec, k, x, solve):
    """psi(x, k) and psi'(x, k) with the part left of the cutoff from
    solve(ks, x_from, init, x_eval); shapes k.shape + x.shape."""
    k = np.asarray(k)
    if np.any(k == 0):
        raise PoleEvaluationError("Jost normalization is degenerate at k = 0", k=0.0)
    if np.any(np.imag(k) < -1e-14):
        raise ValidationError("right_jost requires Im k >= 0")
    cutoff = spec.right_cutoff
    x = np.asarray(x, dtype=float)
    ks, xs = k.ravel(), x.ravel()
    vals = np.exp(1j * ks[:, None] * xs)
    ders = 1j * ks[:, None] * vals
    left = np.flatnonzero(xs < cutoff - 1e-12)
    if left.size:
        left = left[np.argsort(-xs[left], kind="stable")]
        y0 = (np.exp(1j * ks * cutoff), 1j * ks * np.exp(1j * ks * cutoff))
        vals[:, left], ders[:, left] = solve(ks, cutoff, y0, xs[left])
    shape = k.shape + x.shape
    return vals.reshape(shape)[()], ders.reshape(shape)[()]


def right_jost_at(spec: PotentialSpec, k, x,
                  rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL):
    """Right Jost solution psi(x, k) and its x-derivative at the points x.

    psi(x) = e^{ikx} exactly (bit for bit) for x >= right_cutoff; to the left
    it is extended by DOP853.  Requires Im k >= 0 and k != 0.  All momenta of
    an array k share one solve; both arrays have shape k.shape + x.shape.
    """
    def solve(ks, x_from, init, x_eval):
        return solve_at(spec, ks, x_from, x_eval[-1], init, x_eval, rtol=rtol, atol=atol)

    return _right_jost(spec, k, x, solve)


def right_jost(spec: PotentialSpec, k, grid: Grid, rtol: float = DEFAULT_RTOL):
    """Right Jost solution psi(., k) and its x-derivative on the grid's nodes.

    As `right_jost_at`, but left of the cutoff it comes from the Magnus
    propagator (`_magnus`, see the module docstring).  Both arrays have shape
    k.shape + (n_points,).
    """
    if spec.right_cutoff > grid.x_max + 1e-12:
        raise ValidationError("right cutoff must satisfy right_cutoff <= grid.x_max")
    return _right_jost(spec, k, grid.x,
                       lambda ks, x_from, init, x_eval:
                       _magnus(spec, ks, x_from, init, x_eval, rtol))
