"""KdV time evolution of the explicit seed through its Fredholm determinant,
time-evolved insertion of the embedded state, and independent PDE cross-checks.

The evolved seed is q(x,t) = -2 d^2/dx^2 log det(I + H(x,t)) (Dyson formula);
its right Jost solution is psi(x,t,k) = e^{ikx} (1 - (I+H)^{-1} H 1)(k).  At
t > 0 q is read from the same GLM solves, q = 2 Re d/dx v(xi = 0); at t = 0
it is a sixth-order second difference of the log-determinants that the same
chained solves give at every node.  The
one-state evolved insertion adds -2 d^2/dx^2 log(1 + alpha^2 Integral(phi^2))
with phi(s,t) = 2 Im[e^{4 i omega^3 t} psi(s,t,omega)].  An independent
pseudospectral split-step integrator and centered-stencil PDE residuals close
the loop.

Validated time range: t in [0, 0.05] at the default discretization; larger t
needs contour re-tuning and is rejected beyond T_MAX.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import wvn_example as wvn
from .darboux import gauge_map, single_state_step, tail_closed_gram
from .errors import ValidationError
from .hankel import (
    KINK_NODES_MIN,
    T_MAX,
    THIN_SUPPORT_X,
    U_DECAY_TARGET,
    DetState,
    KernelTable,
    PlaneJost,
    PoleData,
    difference_stencil,
    kink_spacing,
    operator_spacing,
    plane_jost,
    t0_plane_chains,
)
from .schrodinger import Grid

__all__ = [
    "EvolvedState", "EvolvedPlane",
    "dyson_q", "jost_evolved", "evolved_phi_plane",
    "insertion_term", "q_plus_evolved", "classify_embedded_pole_evolved",
    "kdv_residual", "split_step_reference",
]


@dataclass
class EvolvedState:
    """The seed potential under the KdV flow at a fixed time t."""

    t: float
    params: wvn.ExampleParams
    m_op: int = 200
    delta_cap: float | None = None
    _tables: dict = field(default_factory=dict, repr=False)
    _det_cache: dict = field(default_factory=dict, repr=False)
    # mn + 1 of every operator system solved (DetStates and plane nodes), the sizes actually used
    operator_sizes: list = field(default_factory=list, repr=False)
    # t = 0 q values that took a chain of their own (`dyson_q`), and the largest
    # |Im log det(I + H)| over every plane node: the determinant sign margin
    q_points_own_chain: int = field(default=0, repr=False)
    log_det_phase_max: float = field(default=0.0, repr=False)

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValidationError(f"evolution time must be finite, got t={self.t}")
        if self.t < 0:
            raise ValidationError("evolution is validated for t >= 0")
        if self.t > T_MAX:
            raise ValidationError(
                f"t={self.t} beyond the validated contour tuning (t <= {T_MAX})")
        if self.m_op < 12:
            raise ValidationError("the operator grid needs m_op >= 12 intervals")
        self.poles = PoleData.for_rho(self.params.rho)

    def kernel(self, u_min_needed: float = -96.0):
        """Regular kernel part: closed form at t = 0, tabulated for t > 0."""
        if self.t == 0.0:
            return self.poles.kernel_low_t0
        tab = self._tables.get("default")
        if tab is None or tab.u_grid[0] > u_min_needed:
            y = self.poles.ystar
            u_lo = min(u_min_needed, -96.0) - 4.0
            u_hi = U_DECAY_TARGET / y + 4.0
            self._tables["default"] = KernelTable(self.poles, self.t, u_lo, u_hi)
        return self._tables["default"]

    def det_state(self, x: float, fixed_delta: float | None = None) -> DetState:
        key = (round(x, 12), fixed_delta)
        if key not in self._det_cache:
            if len(self._det_cache) > 4:
                self._det_cache.clear()
            kernel = self.kernel(2.0 * min(x, 0.0) - 2.0)
            ds = DetState(self.poles, kernel, x, self.t, self.m_op, fixed_delta=fixed_delta,
                          delta_cap=self.delta_cap)
            self.operator_sizes.append(ds.mn + 1)
            self._det_cache[key] = ds
        return self._det_cache[key]

    def fixed_delta(self, x_min: float) -> float:
        """DetState's default operator spacing at x_min, held fixed for solves at x >= x_min."""
        return operator_spacing(self.poles.ystar, x_min, self.m_op, self.delta_cap)[1]

    def glm_plane(self, x: np.ndarray, ks=(), delta0: float | None = None) -> PlaneJost:
        """`hankel.plane_jost` over the uniform nodes x, by default at the spacing of x[0]."""
        if delta0 is None:
            delta0 = self.fixed_delta(float(x[0]))
        sol = plane_jost(self.poles, self.kernel(2.0 * min(float(x[0]), 0.0) - 2.0), self.t,
                         x, ks, self.m_op, delta0)
        self.operator_sizes.extend(sol.sizes.tolist())
        self.log_det_phase_max = max(self.log_det_phase_max,
                                     float(np.max(np.abs(sol.log_det.imag))))
        return sol


def _thin_support_q(poles: PoleData, x: float) -> float:
    """Series branch of the t=0 determinant for a thin kernel support (|x| small).

    Two trace terms of log det(I + A) with exact exponential integrals; the
    dropped terms are O(x^7).
    """
    ps = list(poles.low_poles) + [poles.p_star]
    rs = list(poles.low_res) + [poles.r_star]
    s1 = sum(rr * pp * np.exp(2j * pp * x) for rr, pp in zip(rs, ps))
    s0 = sum(rr * np.exp(2j * pp * x) for rr, pp in zip(rs, ps))
    return float(np.real(4.0 * s1 - 4.0 * s0 * s0))


# (offsets, weights) of the sixth-order second difference: centred on 7 nodes, forward over 8
_CENTRAL, _FORWARD = ((o, difference_stencil(o, 2)) for o in (np.arange(-3, 4), np.arange(8)))


def dyson_q(state: EvolvedState, x: float) -> float:
    """Evolved seed q(x, t) = -2 d^2/dx^2 log det(I + H(x,t)).

    At t > 0 q is the GLM read-out of a one-node plane
    (`EvolvedState.glm_plane`).  At t = 0, where that read-out fails because
    K' jumps at u = 0, q is -2 times a sixth-order second difference of the
    log-determinants of a chain of its own: for x < 0, 7 nodes centred on x
    at `hankel.kink_spacing`; for x >= 0, 8 nodes forward from x, whose
    windows lie right of the kink, so that the stencil stays off q's
    derivative jump at x = 0.  Next to x = 0 on the left, where a chain puts
    too few nodes on the kernel's support [0, 2|x|], the series is used.
    """
    if state.t > 0:
        return float(state.glm_plane(np.array([x], dtype=float)).q[0])
    x_thin = min(0.35, THIN_SUPPORT_X * max(1.0, (2.0 / state.params.rho) ** (1.0 / 3.0)))
    if -x_thin < x < 0.0:
        return _thin_support_q(state.poles, x)
    delta = state.fixed_delta(x)
    offsets, weights = _FORWARD
    if x < 0.0:
        delta, (offsets, weights) = kink_spacing(x, delta), _CENTRAL
    sol = state.glm_plane(x + delta * offsets, delta0=delta)
    state.q_points_own_chain += 1
    return float(-2.0 * (sol.log_det_real() @ weights) / sol.delta**2)


def jost_evolved(state: EvolvedState, x: float, k):
    """Evolved right Jost solution psi(x, t, k) = e^{ikx}(1 - g(k)).

    Accepts a scalar or array of momenta with Im k >= 0 (off the embedded
    poles of any transformed potential; the seed itself is regular at k = 1).
    """
    ks = np.atleast_1d(np.asarray(k, dtype=complex))
    ds = state.det_state(x, fixed_delta=state.fixed_delta(x) if state.t > 0.0 else None)
    psi, = _jost_readout(x, ks, ds.solve_jost(ks))
    return complex(psi[0]) if np.isscalar(k) else psi


def _jost_readout(x, ks: np.ndarray, g, gx=None):
    """(psi,) or, given g_x, (psi, psi_x) at momenta ks from the GLM solution g.

    psi = e^{ikx}(1 - g) and psi_x = ik psi - e^{ikx} g_x.
    """
    e = np.exp(1j * ks * x)
    psi = e * (1.0 - g)
    return (psi,) if gx is None else (psi, 1j * ks * psi + e * (-gx))


@dataclass
class EvolvedPlane:
    """phi(s, t) = 2 Im[e^{4 i omega^3 t} psi(s, t, omega)] sampled on an s-grid.

    delta is the operator spacing of the plane's chained GLM solves and
    factor_points the size of each chain's one factorization (see
    `hankel.plane_jost`); both are (None, ()) on a t = 0 plane solved node by
    node on kink-aligned grids.  q is the evolved seed read from the same
    solves: at t > 0 the GLM read-out at every node; at t = 0 the second
    difference of the chains' log-determinants (`_plane_chain_q`), NaN at the
    nodes they cannot serve, which `q_at` leaves to `dyson_q`.
    """

    state: EvolvedState
    grid: Grid
    omega: float
    phi: np.ndarray
    phi_x: np.ndarray
    big_i: np.ndarray          # cumulative integral of phi^2 from -inf
    tail_fit: object
    q: np.ndarray
    delta: float | None = None
    factor_points: tuple = ()

    def index(self, x) -> np.ndarray:
        """Indices of the nodes x (scalar or array); x off the plane grid is rejected."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        g = self.grid
        j = np.clip(np.rint((xs - g.x_min) / g.spacing).astype(int), 0, g.n_points - 1)
        if not np.all(np.abs(g.x[j] - xs) <= 1e-9):
            raise ValidationError("x must lie on the plane grid")
        return j

    def q_at(self, x) -> np.ndarray:
        """Evolved seed q at plane nodes x: the plane's own read-out, else `dyson_q`."""
        j = self.index(x)
        q = self.q[j]
        own = np.flatnonzero(np.isnan(q))
        q[own] = [dyson_q(self.state, float(self.grid.x[i])) for i in j[own]]
        return q


def evolved_phi_plane(state: EvolvedState, grid: Grid, omega: float = 1.0,
                      tail_window: float = 20.0) -> EvolvedPlane:
    """Evaluate the evolved generating function on a grid, with cumulative norm.

    The GLM solves are `EvolvedState.glm_plane`'s chains.  A t = 0 grid they
    cannot serve (see `hankel.t0_plane_chains`) is solved node by node on
    kink-aligned grids (`jost_evolved`).  At t = 0, where K' jumps at u = 0,
    phi_x is a 4th-order centred stencil on the grid, and q is read from the
    chains' log-determinants where `_plane_chain_q` allows.
    """
    phase = np.exp(4j * omega**3 * state.t)
    delta, factor_points, q = None, (), np.full(grid.n_points, np.nan)
    if state.t > 0.0 or t0_plane_chains(state.poles, grid.x, state.m_op,
                                        state.fixed_delta(grid.x_min)):
        ks = np.array([omega], dtype=complex)
        sol = state.glm_plane(grid.x, ks)
        delta, factor_points = sol.delta, sol.factor_points
        q = sol.q if state.t > 0.0 else _plane_chain_q(sol, grid)
        readout = _jost_readout(grid.x[:, None], ks, sol.g, sol.gx)     # (psi,) at t = 0
        psi = readout[0][:, 0]
    else:
        psi = np.array([jost_evolved(state, float(s), omega) for s in grid.x], dtype=complex)
    phi = 2.0 * np.imag(phase * psi)
    if state.t > 0.0:
        phi_x = 2.0 * np.imag(phase * readout[1][:, 0])
    else:
        h = grid.spacing
        phi_x = np.gradient(phi, h, edge_order=2)
        phi_x[2:-2] = (phi[:-4] - 8 * phi[1:-3] + 8 * phi[3:-1] - phi[4:]) / (12 * h)
    cum, left, _, fits = tail_closed_gram(grid, [phi], [phi_x], [omega], tail_window)
    return EvolvedPlane(state, grid, omega, phi, phi_x, left[0, 0] + cum[:, 0, 0], fits[0], q,
                        delta, factor_points)


def _plane_chain_q(sol: PlaneJost, grid: Grid) -> np.ndarray:
    """q at the t = 0 plane's nodes from its chains' log-determinants, NaN where they cannot serve.

    A node qualifies when its chain's nodes are delta apart, the centred
    stencil fits inside the chain and 2|x| / delta >= KINK_NODES_MIN, which
    keeps the stencil off q's derivative jump at x = 0.
    """
    offsets, weights = _CENTRAL
    q = np.full(grid.n_points, np.nan)
    chains = len(sol.factor_points)
    if abs(chains * grid.spacing - sol.delta) <= 1e-9 * sol.delta:
        nodes = np.arange(grid.n_points)
        ends = (nodes >= 3 * chains) & (nodes < grid.n_points - 3 * chains)
        nodes = nodes[ends & (np.rint(2.0 * np.abs(grid.x) / sol.delta) >= KINK_NODES_MIN)]
        window = nodes[:, None] + chains * offsets
        q[nodes] = -2.0 * (sol.log_det_real(window) @ weights) / sol.delta**2
    return q


def insertion_term(plane: EvolvedPlane, alpha: float, x) -> np.ndarray:
    """-2 d^2/dx^2 log(1 + alpha^2 Integral(phi(s,t)^2, -inf..x)) at plane nodes x.

    The derivatives are analytic in phi and phi_x; x (scalar or array) must lie
    on the plane grid.
    """
    j = plane.index(x)
    *_, dq = single_state_step(alpha, plane.phi[j], plane.phi_x[j], plane.big_i[j])
    return dq if not np.isscalar(x) else float(dq[0])


def q_plus_evolved(plane: EvolvedPlane, alpha: float, x) -> np.ndarray:
    """Evolved transformed potential q_+1(x, t) at plane nodes x (scalar or array).

    q_+1 = q(x,t) - 2 d^2/dx^2 log(1 + alpha^2 Integral(phi(s,t)^2, -inf..x)):
    the evolved seed (`EvolvedPlane.q_at`) plus `insertion_term`.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = insertion_term(plane, alpha, xs) + plane.q_at(xs)
    return out if not np.isscalar(x) else float(out[0])


def classify_embedded_pole_evolved(plane: EvolvedPlane, alpha: float, x_probe: float,
                                   eps_values=(1e-2, 1e-3, 1e-4)):
    """Exponent p of |g_+1(omega + i eps)| ~ C/eps^p for the transformed potential.

    Builds psi_+1(x, t, omega + i eps) by the gauge transform of the evolved
    Jost solution and pairs it with the regularized (finite) phi_+1 value, so a
    simple embedded pole shows p ~ 1 and a regular point p ~ 0.  x_probe is
    read at the plane node nearest to it.
    """
    state, omega = plane.state, plane.omega
    j = plane.grid.index_of(x_probe)
    xx = float(plane.grid.x[j])
    f, fx = plane.phi[j], plane.phi_x[j]
    big_i = plane.big_i[j]
    _, y_val, y_x, _ = single_state_step(alpha, f, fx, big_i)
    terms = [(alpha, omega, y_val, y_x, f, fx)]
    # regularized |phi_+1(x, omega)| (finite scale factor for the sweep)
    phi_plus_reg = abs(f + alpha * y_val * big_i)
    mags = []
    for eps in eps_values:
        k = omega + 1j * eps
        if state.t == 0.0:
            h = 5e-3
            psi = jost_evolved(state, xx, k)
            psix = (jost_evolved(state, xx + h, k)
                    - jost_evolved(state, xx - h, k)) / (2 * h)
        else:
            ks = np.array([k])
            ds = state.det_state(xx, fixed_delta=plane.delta)
            psi, psix = (p[0] for p in _jost_readout(xx, ks, *ds.solve_jost_with_derivative(ks)))
        psi_plus, _ = gauge_map(psi, psix, k, terms)
        mags.append(abs(-phi_plus_reg * psi_plus / (2j * k)))
    from .scattering import fit_pole_exponent
    return fit_pole_exponent(eps_values, mags), mags


# -- PDE residual and the independent split-step oracle ------------------------


def kdv_residual(u: np.ndarray, dx: float, dt: float, mask: np.ndarray = None) -> float:
    """Max-norm of the discrete KdV residual u_t - 6 u u_x + u_xxx on a (t, x) field.

    Fourth-order centered stencils in both variables; u has shape (nt, nx) with
    nt, nx >= 7.  `mask` marks valid samples; the residual is evaluated only
    where the full stencil is valid.
    """
    u = np.asarray(u, dtype=float)
    nt, nx = u.shape
    if nt < 5 or nx < 7:
        raise ValidationError("need at least 5 time planes and 7 x-nodes")
    tt = slice(2, nt - 2)
    xx = slice(3, nx - 3)
    u_t = (u[0:nt - 4, xx] - 8 * u[1:nt - 3, xx] + 8 * u[3:nt - 1, xx]
           - u[4:nt, xx]) / (12 * dt)
    c = u[tt, :]
    u_x = (c[:, 1:nx - 5] - 8 * c[:, 2:nx - 4] + 8 * c[:, 4:nx - 2]
           - c[:, 5:nx - 1]) / (12 * dx)
    u_xxx = (c[:, 0:nx - 6] - 8 * c[:, 1:nx - 5] + 13 * c[:, 2:nx - 4]
             - 13 * c[:, 4:nx - 2] + 8 * c[:, 5:nx - 1] - c[:, 6:nx]) / (8 * dx**3)
    res = u_t - 6.0 * c[:, xx] * u_x + u_xxx
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        ok = np.ones_like(res, dtype=bool)
        for di in range(-2, 3):
            ok &= mask[2 + di:nt - 2 + di, xx]
        for dj in range(-3, 4):
            ok &= mask[tt, 3 + dj:nx - 3 + dj]
        if not np.any(ok):
            raise ValidationError("mask leaves no valid stencil")
        return float(np.max(np.abs(res[ok])))
    return float(np.max(np.abs(res)))


def split_step_reference(x: np.ndarray, q0: np.ndarray, t_final: float,
                         dt: float = 1e-4) -> np.ndarray:
    """Pseudospectral Strang split-step evolution of u_t - 6 u u_x + u_xxx = 0.

    The samples are treated as periodic on the window spanned by x (the caller
    tapers non-periodic data).  Dispersion advances exactly in Fourier space;
    the nonlinear half-steps use RK4 with 2/3 dealiasing.  Used only as an
    independent short-time cross-check.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(q0, dtype=float).copy()
    n = len(x)
    length = x[-1] - x[0] + (x[1] - x[0])
    kk = 2 * np.pi * np.fft.fftfreq(n, d=length / n)
    n_steps = max(1, int(math.ceil(t_final / dt)))
    dt = t_final / n_steps
    kmax = float(np.max(np.abs(kk)))
    if 6.0 * np.max(np.abs(u)) * dt * kmax > 1.5:
        raise ValidationError("CFL violation: reduce dt for this amplitude/grid")
    lin = np.exp(1j * kk**3 * dt)
    mask = np.abs(kk) <= (2.0 / 3.0) * kmax

    def nonlin_rhs(v):
        vh = np.fft.fft(v)
        vh *= mask
        dv = np.real(np.fft.ifft(1j * kk * vh))
        return 6.0 * np.real(np.fft.ifft(vh)) * dv

    def nonlin_half(v, h):
        k1 = nonlin_rhs(v)
        k2 = nonlin_rhs(v + 0.5 * h * k1)
        k3 = nonlin_rhs(v + 0.5 * h * k2)
        k4 = nonlin_rhs(v + h * k3)
        return v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    for _ in range(n_steps):
        u = nonlin_half(u, dt / 2)
        u = np.real(np.fft.ifft(lin * np.fft.fft(u)))
        u = nonlin_half(u, dt / 2)
    return u
