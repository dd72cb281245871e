"""KdV time evolution of the explicit seed through its Fredholm determinant,
time-evolved insertion of the embedded state, and independent PDE cross-checks.

The evolved seed is q(x,t) = -2 d^2/dx^2 log det(I + H(x,t)) (Dyson formula);
its right Jost solution is psi(x,t,k) = e^{ikx} (1 - (I+H)^{-1} H 1)(k), read
at a plane's nodes, or at one node, off `hankel.plane_jost`.  At
t > 0 q is read from the same GLM solves, q = 2 d/dx v(xi = 0); at t = 0 it
is a sixth-order second difference of the log-determinants that the same
chained solves give at every node, or, next to the kernel's kink, that one chain
of the nodes' own gives them, and it is read between the nodes off the nodes'
q.  The one-state evolved insertion adds
-2 d^2/dx^2 log(1 + alpha^2 Integral(phi^2)), phi(s,t) = 2 Im[e^{4 i omega^3 t}
psi(s,t,omega)] at omega = OMEGA, solved on a phi-plane that `phi_plane_grid` lays
out and read between its nodes off the plane's own data.  An independent
pseudospectral split-step integrator and centered-stencil PDE residuals close the loop.

Validated time range: t in [0, 0.05] at the default discretization; larger t
needs contour re-tuning and is rejected beyond T_MAX.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import wvn_example as wvn
from .darboux import gauge_map, single_state_step, tail_closed_gram
from .errors import ValidationError
from .hankel import (
    KINK_NODES_MIN,
    M_OP,
    M_OP_CAP,
    T_MAX,
    DetState,
    KernelTable,
    PlaneJost,
    PoleData,
    _check_positive,
    _operator_intervals,
    difference_stencil,
    kink_spacing,
    operator_spacing,
    plane_jost,
    plane_spacing,
)
from .schrodinger import MAX_POINTS, Grid

__all__ = [
    "EvolvedState", "EvolvedPlane",
    "dyson_q", "phi_plane_grid", "evolved_phi_plane",
    "insertion_term", "q_plus_evolved", "classify_embedded_pole_evolved",
    "kdv_residual", "split_step_reference",
]

PLANE_START = -45.0        # the phi-plane's first node is at x <= PLANE_START
RHO_MAX = 5.0              # the evolved fields are validated for rho <= RHO_MAX
OMEGA = 1.0                # the inserted state's momentum, where R(OMEGA) = -1
S_MAX = 0.05               # the t = 0 phi-plane's (its phi_x stencil's) step, where M_OP_CAP allows
Q_NODES = 6                # t = 0 q off the plane's nodes: its interpolant's nodes (see README)
POLE_EPS = (1e-2, 1e-3, 1e-4)   # classify_embedded_pole_evolved's distances above the pole
THIN_SUPPORT_X = 0.12      # x_thin at rho >= 2: t = 0 q uses the series branch for |x| below it


@dataclass
class EvolvedState:
    """The seed potential under the KdV flow at a fixed time t."""

    t: float
    params: wvn.ExampleParams
    delta_cap: float | None = None
    # mn + 1 of every operator system solved (DetStates and plane nodes), the sizes actually used
    operator_sizes: list = field(default_factory=list, repr=False)
    # t > 0: lattice points of every kernel evaluated, the largest contour rule per side of u = 0
    kernel_u_points: int = field(default=0, repr=False)
    kernel_contour_points: dict = field(default_factory=dict, repr=False)
    # t = 0 plane nodes served by a kink chain (`_kink_chain_q`), and the least
    # `PlaneJost.pivot_margin` over every plane node
    q_points_kink_chain: int = field(default=0, repr=False)
    pivot_margin: float = field(default=1.0, repr=False)

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValidationError(f"evolution time must be finite, got t={self.t}")
        if self.t < 0:
            raise ValidationError("evolution is validated for t >= 0")
        if self.t > T_MAX:
            raise ValidationError(
                f"t={self.t} beyond the validated contour tuning (t <= {T_MAX})")
        if self.params.rho > RHO_MAX:
            raise ValidationError(f"rho={self.params.rho} beyond the validated rho <= {RHO_MAX}")
        cap = self.delta_cap
        if cap is not None and not (isinstance(cap, numbers.Real) and 0 < cap < math.inf):
            raise ValidationError(f"delta_cap must be None or a finite spacing > 0, got {cap!r}")
        self.poles = PoleData.for_rho(self.params.rho)
        # t = 0: left of x = 0 within x_thin a chain puts too few nodes on the
        # kernel's support [0, 2|x|], and q is `_thin_support_q`'s series
        self.x_thin = min(0.35, THIN_SUPPORT_X * max(1.0, (2.0 / self.params.rho) ** (1.0 / 3.0)))

    def kernel(self, u) -> np.ndarray:
        """Rows [K, K'] of the regular kernel part on the uniform lattice u, shape (2, len(u)).

        Closed form at t = 0; at t > 0 one `KernelTable` on u, exact at every node.
        """
        if self.t == 0.0:
            return self.poles.kernel_low_t0(u)
        tab = KernelTable(self.poles, self.t, u)
        self.kernel_u_points += tab.u_grid.size
        for side, (_, nodes, _) in tab.sides.items():
            sizes = self.kernel_contour_points
            sizes[side] = max(nodes.size, sizes.get(side, 0))
        return tab.values

    def det_state(self, x: float) -> DetState:
        """The dense oracle of the one node x at `own_spacing(x)`."""
        ds = DetState(self.poles, self.kernel, x, self.t, self.own_spacing(x))
        self.operator_sizes.append(ds.mn + 1)
        return ds

    def fixed_delta(self, x_min: float) -> float:
        """The default operator spacing at x_min (`hankel.operator_spacing` under delta_cap).

        A plane whose first node is x_min holds it fixed for all its nodes.
        """
        return operator_spacing(self.poles.ystar, x_min, self.delta_cap)[1]

    def own_spacing(self, x):
        """The operator spacing of a chain of x's own, elementwise.

        That is `fixed_delta(x)`, put on the kink lattice at t = 0 and x < 0
        (`hankel.kink_spacing`), so that u = 0 is a node of the chain's windows.
        """
        delta = self.fixed_delta(x)
        if self.t == 0.0:
            delta = np.where(x < 0.0, kink_spacing(x, delta), delta)[()]     # [()]: 0-d to scalar
        return delta

    def glm_plane(self, x: np.ndarray, ks=(), delta0: float | None = None,
                  window: int = 0) -> PlaneJost:
        """`hankel.plane_jost` over the uniform nodes x, by default at the spacing of x[0].

        Every node's det(I + H) must be positive (its log's phase 0, not pi), at
        every t, else DiscretizationFailureError: q, psi and phi are read off it.
        """
        if delta0 is None:
            delta0 = self.fixed_delta(float(x[0]))
        sol = plane_jost(self.poles, self.kernel, self.t, x, ks, delta0, window)
        _check_positive(sol.log_det.imag, int(np.max(sol.sizes)))
        self.operator_sizes.extend(sol.sizes.tolist())
        self.pivot_margin = min(self.pivot_margin, sol.pivot_margin)
        return sol


def _thin_support_q(poles: PoleData, x):
    """Series branch of the t=0 q for a thin kernel support (|x| small), elementwise.

    Two trace terms of log det(I + A) with exact exponential integrals; the
    dropped terms are O(x^7).
    """
    ps = list(poles.low_poles) + [poles.p_star]
    rs = list(poles.low_res) + [poles.r_star]
    s1 = sum(rr * pp * np.exp(2j * pp * x) for rr, pp in zip(rs, ps))
    s0 = sum(rr * np.exp(2j * pp * x) for rr, pp in zip(rs, ps))
    return np.real(4.0 * s1 - 4.0 * s0 * s0)


# (offsets, weights) of the sixth-order second difference: centred on 7 nodes, forward over 8
_CENTRAL, _FORWARD = ((o, difference_stencil(o, 2)) for o in (np.arange(-3, 4), np.arange(8)))


def _log_det_q(sol: PlaneJost, stencil, weights) -> np.ndarray:
    """q = -2 d^2/dx^2 log det(I + H): the second difference with weights over sol's stencil nodes."""
    return -2.0 * (sol.log_det[stencil].real @ weights) / sol.delta**2


def dyson_q(state: EvolvedState, x: float) -> float:
    """Evolved seed q(x, 0) = -2 d^2/dx^2 log det(I + H(x, 0)) off a chain of x's own.

    A named oracle: `evolve` reads every q off a plane (`EvolvedPlane.q_at`).
    Where the plane's GLM read-out fails because K' jumps at u = 0, q is -2
    times a sixth-order second difference of the log-determinants of a chain
    of its own at `EvolvedState.own_spacing`: for x < 0, 7 nodes centred on x;
    for x >= 0, 8 nodes forward from x, whose windows lie right of the kink, so
    that the stencil stays off q's derivative jump at x = 0.  Next to x = 0
    on the left, where a chain puts too few nodes on the kernel's support
    [0, 2|x|], the series is used.  At t > 0 q is read at a plane's nodes: a
    ValidationError.
    """
    if state.t > 0:
        raise ValidationError(f"at t = {state.t} > 0 q is read at a plane's nodes, not x = {x}")
    if -state.x_thin < x < 0.0:
        return float(_thin_support_q(state.poles, x))
    delta = state.own_spacing(x)
    offsets, weights = _CENTRAL if x < 0.0 else _FORWARD
    sol = state.glm_plane(x + delta * offsets, delta0=delta)
    return float(_log_det_q(sol, slice(None), weights))


def _jost_readout(x, ks: np.ndarray, g, gx=None):
    """(psi,) or, given g_x, (psi, psi_x) at momenta ks from the GLM solution g.

    psi = e^{ikx}(1 - g) and psi_x = ik psi - e^{ikx} g_x.
    """
    e = np.exp(1j * ks * x)
    psi = e * (1.0 - g)
    return (psi,) if gx is None else (psi, 1j * ks * psi + e * (-gx))


# the quintic Hermite basis on s in [0, 1]: s^0..s^5 for (f, h f', h^2 f'') x (s = 0, 1)
_HERMITE = np.array([[1, 0, 0, -10, 15, -6], [0, 0, 0, 10, -15, 6], [0, 1, 0, -6, 8, -3],
                     [0, 0, 0, -4, 7, -3], [0, 0, .5, -1.5, 1.5, -.5], [0, 0, 0, .5, -1, .5]])
_EYE = np.eye(Q_NODES, dtype=bool)


@dataclass
class EvolvedPlane:
    """phi(s, t) = 2 Im[e^{4 i OMEGA^3 t} psi(s, t, OMEGA)] sampled on the window of a phi-plane.

    grid is the window, the nodes solved on every chain (`evolved_phi_plane`);
    solved counts them with chain 0's nodes left of it.  delta is the operator
    spacing of the plane's chained GLM solves and factor_points the size of each
    chain's one factorization (`hankel.plane_jost`).  q is the evolved seed from the
    same solves: the GLM read-out at t > 0; at t = 0 the log-determinant second
    difference along the chains and, next to the kink, along kink_chain, the one
    chain of those nodes' own, or the thin-support series (`_plane_chain_q`), and NaN
    where none serves: on a plane of chains delta apart, only at the window's three
    end chain steps, the padding no output node reads, and at a node the kink chain
    drops for M_OP_CAP.  The read-outs (`fields`, `q_at`) take x in [grid.x_min,
    grid.x_max]; q off the nodes, and at NaN nodes, only at t = 0.
    """

    state: EvolvedState
    grid: Grid
    phi: np.ndarray
    phi_x: np.ndarray
    big_i: np.ndarray          # cumulative integral of phi^2 from -inf
    tail_fit: object
    q: np.ndarray
    delta: float
    factor_points: tuple
    solved: int
    kink_chain: PlaneJost | None

    def fields(self, x) -> np.ndarray:
        """(phi, phi_x, I) at x: node values at nodes, else quintic Hermite interpolants on x's cell.

        phi's matches phi, phi_x and (q - OMEGA^2) phi (q from `q_at`) at both ends, I's
        I, phi^2 and 2 phi phi_x; phi_x is the derivative of phi's.
        """
        xs, j, on = self.grid.index(x)
        out = np.stack([self.phi, self.phi_x, self.big_i])[:, j]
        if not np.all(on):
            g, h, off = self.grid, self.grid.spacing, xs[~on]
            ends = np.clip(np.floor((off - g.x_min) / h).astype(int), 0, g.n_points - 2) + [[0], [1]]
            f, fx, q = self.phi[ends], self.phi_x[ends], self.q_at(g.x[ends].ravel()).reshape(2, -1)
            phi = np.stack([f, h * fx, h * h * (q - OMEGA**2) * f]).reshape(6, -1)
            big_i = np.stack([self.big_i[ends], h * f * f, 2.0 * h * h * f * fx]).reshape(6, -1)
            s = (off - g.x[ends[0]]) / h
            basis = _HERMITE @ s ** np.arange(6)[:, None]
            slope = _HERMITE[:, 1:] @ (np.arange(1, 6)[:, None] * s ** np.arange(5)[:, None]) / h
            out[:, ~on] = np.sum(phi * basis, 0), np.sum(phi * slope, 0), np.sum(big_i * basis, 0)
        return out

    def q_at(self, x) -> np.ndarray:
        """Evolved seed q at x: the plane's q at its nodes, else (off them, or NaN) interpolated.

        At t = 0 that is the Lagrange interpolant through the Q_NODES finite nodes
        nearest x on x's side of x = 0 (x <= 0 reads nodes x <= 0, x > 0 nodes x >= 0:
        the x = 0 node serves both, as q is continuous there and only q' jumps); fewer
        such nodes is a ValidationError.  At t > 0 q is read at the nodes only.
        """
        xs, j, on = self.grid.index(x)
        q = np.where(on, self.q[j], np.nan)
        off = np.isnan(q)
        if self.state.t > 0.0 and np.any(off):
            raise ValidationError(f"at t = {self.state.t} > 0 q is read at a plane's nodes, "
                                  f"not x = {xs[off][0]}")
        g, tol = self.grid, 1e-9 * self.grid.spacing
        finite = np.isfinite(self.q)
        for right in (False, True):
            read = off & ((xs > tol) if right else (xs <= tol))
            if not np.any(read):
                continue
            nodes = np.flatnonzero(finite & ((g.x >= -tol) if right else (g.x <= tol)))
            if nodes.size < Q_NODES:
                raise ValidationError(f"q at x = {xs[read][0]} needs {Q_NODES} finite plane "
                                      f"nodes on its side of x = 0, the plane has {nodes.size}")
            first = np.searchsorted(g.x[nodes], xs[read]) - Q_NODES // 2
            near = nodes[np.clip(first, 0, nodes.size - Q_NODES)[:, None] + np.arange(Q_NODES)]
            xn = g.x[near][:, None, :]                       # [x, i, k]: x_k
            steps = np.where(_EYE, 1.0, xs[read, None, None] - xn)
            gaps = np.swapaxes(xn, 1, 2) - xn + _EYE         # x_i - x_k, 1 at i = k
            q[read] = np.sum(np.prod(steps / gaps, axis=2) * self.q[near], axis=1)
        return q


def phi_plane_grid(state: EvolvedState, grid: Grid) -> Grid:
    """The phi-plane for the output grid: uniform nodes from x <= PLANE_START past its x_max.

    At t > 0 it has the grid's spacing h and ends at x_max: its nodes are the output's.
    At t = 0 its nodes lie on the kink lattice (delta / 2)Z of its chains
    (`hankel.plane_spacing`), its spacing is l h / m, l = 1 unless a chain factor would
    pass M_OP_CAP (then the least l that fits, in closed form from the widest nodes' rows;
    `plane_jost` checks them all) and m the least integer that brings it to S_MAX as far
    as two chains fit, and it ends three chain steps past x_max, so that no output node
    reads an edge stencil, and past 7 chain steps if x_max lies right of minus its
    spacing: the nodes right of x = 0 that `EvolvedPlane.q_at` reads, and the x = 0 node
    that both sides read, then have their forward stencils.  A grid starting left of the
    plane is a ValidationError.
    `evolved_phi_plane` solves chain 0 over the whole plane, the others over the output's window.
    """
    h, x_max = grid.spacing, grid.x_max
    if not x_max > PLANE_START:
        raise ValidationError(f"grid.x_max = {x_max} must exceed the phi-plane's start {PLANE_START}")
    end, step = x_max, h
    if state.t == 0.0:
        delta0, span = state.fixed_delta(PLANE_START), x_max - PLANE_START
        w = [operator_spacing(state.poles.ystar, x)[0] for x in (PLANE_START, x_max)]
        # least delta for rows within M_OP_CAP: the first node's window (x0 >= -45 - delta),
        # the last node's steps and window (M_OP at least), the margin adding <= 5 rows
        d_min = max(w[0] / (M_OP_CAP - 2), (span + w[1]) / (M_OP_CAP - 6),
                    span / max(1, M_OP_CAP - 6 - M_OP))
        l = max(1, math.ceil(d_min / (2.0 * h)))             # two chains at delta = 2 l h
        if 2 * l * h > delta0:                               # one chain at delta = l h
            l = max(l, math.ceil(d_min / h))
        if l * h > delta0 and d_min < delta0:                # delta = l h / ceil(l h / delta0)
            l = max(l, math.ceil(1.0 / (h / d_min - h / delta0)))
        m = min(math.ceil(l * h / S_MAX - 1e-9), math.floor(2.0 * l * h / d_min))
        step = l * h / (m if m * delta0 >= 2.0 * l * h else 1)     # two chains at delta = 2 step
        chains, _, delta = plane_spacing(0.0, step, delta0)
        reach = x_max if x_max <= -step else max(x_max, 7 * chains * step)
        end = math.ceil((reach + 3 * chains * step) / (delta / 2) - 1e-9) * delta / 2
    n = math.ceil((end - PLANE_START) / step) + 1
    if n > MAX_POINTS:
        raise ValidationError(f"grid spacing {h:.3g} makes a phi-plane of {n} > {MAX_POINTS} nodes")
    plane = Grid(end - (n - 1) * step, end, n)
    if grid.x_min < plane.x_min - 1e-9 * step:
        raise ValidationError(f"grid.x_min = {grid.x_min} is left of the phi-plane's start {plane.x_min!r}")
    return plane


def evolved_phi_plane(state: EvolvedState, grid: Grid,
                      read_from: float | None = None) -> EvolvedPlane:
    """Evaluate the evolved generating function on the plane's own grid, with cumulative norm.

    The GLM solves are `EvolvedState.glm_plane`'s chains; a t = 0 grid off their kink
    lattice (see `phi_plane_grid`) is a ValidationError.  Every chain is solved over
    the window, from the last chain-0 node at or left of read_from - 3 delta - 2 h
    (h the grid's spacing; read_from, the least x read out, defaults to grid.x_min):
    room for `_plane_chain_q`'s centred stencil and the t = 0 phi_x stencil.  At t = 0
    the window starts at latest 6 delta + (Q_NODES - 1) h left of the plane's end, so
    that it holds the Q_NODES finite nodes `EvolvedPlane.q_at` reads.  Left of
    it, where phi only feeds I and its left tail fit, chain 0 alone is solved, its
    nodes chains h apart, and I's corrected trapezoid runs at that spacing.  At t = 0,
    where K' jumps at u = 0, phi_x is a 4th-order centred stencil along chain 0 left
    of the window and along the window, and q is read from log-determinants by
    `_plane_chain_q`.  The plane returned holds the window.
    """
    phase = np.exp(4j * OMEGA**3 * state.t)
    ks = np.array([OMEGA], dtype=complex)
    h = grid.spacing
    chains, _, delta = plane_spacing(state.t, h, state.fixed_delta(grid.x_min))
    edge = (grid.x_min if read_from is None else read_from) - 3 * delta - 2 * h
    if state.t == 0.0:
        edge = min(edge, grid.x_max - 6 * delta - (Q_NODES - 1) * h)
    lead = max(0, math.floor((edge - grid.x_min) / (chains * h) + 1e-9))    # chain 0's, left of it
    sol = state.glm_plane(grid.x, ks, window=chains * lead)
    x = grid.x[sol.nodes]
    readout = _jost_readout(x[:, None], ks, sol.g, sol.gx)     # (psi,) at t = 0
    phi = 2.0 * np.imag(phase * readout[0][:, 0])
    if state.t > 0.0:
        phi_x = 2.0 * np.imag(phase * readout[1][:, 0])
    else:
        chain0 = np.concatenate([phi[:lead], phi[lead::chains]])
        phi_x = np.concatenate([_centred_x(chain0, chains * h)[:lead], _centred_x(phi[lead:], h)])
    spacings = np.full(x.size - 1, h)
    spacings[:lead] = chains * h
    cum, left, _, fits = tail_closed_gram(x, spacings, [phi], [phi_x], [OMEGA])
    window = Grid(x[lead], grid.x_max, x.size - lead)
    q, kink = (sol.q[lead:], None) if state.t > 0.0 else _plane_chain_q(state, sol, window, lead)
    return EvolvedPlane(state, window, phi[lead:], phi_x[lead:],
                        left[0, 0] + cum[lead:, 0, 0], fits[0], q, sol.delta, sol.factor_points,
                        x.size, kink)


def _centred_x(f: np.ndarray, h: float) -> np.ndarray:
    """f' on nodes h apart: the 4th-order centred stencil, 2nd-order at the two end nodes."""
    out = np.gradient(f, h, edge_order=2)
    out[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    return out


def _plane_chain_q(state: EvolvedState, sol: PlaneJost, grid: Grid, lead: int):
    """(q, kink chain) at the t = 0 plane's window nodes, q NaN where nothing serves.

    grid is the window, which starts at solved node lead.  When the chains' nodes
    are delta apart, q is -2 times a second difference of log det along a node's
    own chain: centred where it fits inside the window and, on x < 0, its inner end,
    3 delta nearer x = 0, keeps 2|x| / delta >= KINK_NODES_MIN, off the nodes next
    to x = 0 where it is least accurate; on x > 0, whose windows hold no kink, where
    it stays right of q's derivative jump at x = 0 (x >= 3 delta); forward over 8
    nodes on [0, 3 delta), where they lie in the window.  On any layout the nodes
    -9 delta < x <= -x_thin, whose centred stencil would keep too few kink
    intervals, share one kink chain (`_kink_chain_q`), and the thin support
    -x_thin < x < 0 takes `_thin_support_q`.
    """
    x, nodes = grid.x, np.arange(grid.n_points)
    q = np.full(grid.n_points, np.nan)
    chains = len(sol.factor_points)
    inner = np.rint(2.0 * np.abs(x) / sol.delta) - 2 * _CENTRAL[0][-1]
    if abs(chains * grid.spacing - sol.delta) <= 1e-9 * sol.delta:
        ends = (nodes >= 3 * chains) & (nodes < grid.n_points - 3 * chains)
        centred = ends & (inner >= np.where(x < 0.0, KINK_NODES_MIN, 0))
        forward = (x >= 0.0) & (inner < 0) & (nodes < grid.n_points - 7 * chains)
        for served, (offsets, weights) in ((centred, _CENTRAL), (forward, _FORWARD)):
            q[served] = _log_det_q(sol, lead + nodes[served, None] + chains * offsets, weights)
    thin = (x > -state.x_thin) & (x < 0.0)
    q[thin] = _thin_support_q(state.poles, x[thin])
    band = (x <= -state.x_thin) & (inner < KINK_NODES_MIN)
    q[band], kink = _kink_chain_q(state, x[band], sol.delta)
    return q, kink


def _kink_chain_q(state: EvolvedState, x: np.ndarray, delta: float):
    """(q, chain) at the increasing t = 0 nodes x < 0 of the kink lattice (delta / 2)Z.

    One chain, at spacing delta / (2 m), serves them all: m is the least that
    gives each node at least the kink intervals of `dyson_q`'s own chain
    (`EvolvedState.own_spacing`), so the nodes and u = 0 lie on its lattice, and q is
    the centred second difference of its log-determinants.  While its factor
    would pass M_OP_CAP (one interval short of it: `plane_jost` takes the spacing
    from the nodes), the innermost node is dropped, left NaN for `EvolvedPlane.q_at`,
    and m taken again.  chain is the `PlaneJost`, None when no node is left.
    """
    offsets, weights = _CENTRAL
    q = np.full(x.size, np.nan)
    need = state.own_spacing(x)
    for keep in range(x.size, 0, -1):
        step = delta / (2 * math.ceil(delta / (2.0 * need[:keep].min()) - 1e-9))
        j = np.rint(x[:keep] / step).astype(int)
        chain = step * np.arange(j[0] + offsets[0], j[-1] + offsets[-1] + 1)
        rows = _operator_intervals(operator_spacing(state.poles.ystar, chain)[0], step)
        if np.max(np.arange(chain.size) + rows) < M_OP_CAP:
            sol = state.glm_plane(chain, delta0=step)
            q[:keep] = _log_det_q(sol, (j - j[0] - offsets[0])[:, None] + offsets, weights)
            state.q_points_kink_chain += keep
            return q, sol
    return q, None


def insertion_term(plane: EvolvedPlane, alpha: float, x) -> np.ndarray:
    """-2 d^2/dx^2 log(1 + alpha^2 Integral(phi(s,t)^2, -inf..x)) at x (scalar or array).

    The derivatives are analytic in phi, phi_x and I (`EvolvedPlane.fields`).
    """
    *_, dq = single_state_step(alpha, *plane.fields(x))
    return dq if not np.isscalar(x) else float(dq[0])


def q_plus_evolved(plane: EvolvedPlane, alpha: float, x) -> np.ndarray:
    """Evolved transformed potential q_+1(x, t) at x (scalar or array).

    q_+1 = q(x,t) - 2 d^2/dx^2 log(1 + alpha^2 Integral(phi(s,t)^2, -inf..x)):
    the evolved seed (`EvolvedPlane.q_at`) plus `insertion_term`.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = insertion_term(plane, alpha, xs) + plane.q_at(xs)
    return out if not np.isscalar(x) else float(out[0])


def classify_embedded_pole_evolved(plane: EvolvedPlane, alpha: float, x_probe: float):
    """Exponent p of |g_+1(omega + i eps)| ~ C/eps^p, eps in POLE_EPS, for the transformed potential.

    Builds psi_+1(x, t, omega + i eps) by the gauge transform of the evolved
    Jost solution and pairs it with the regularized (finite) phi_+1 value, so a
    simple embedded pole shows p ~ 1 and a regular point p ~ 0.  x_probe is
    read at the plane node nearest to it, and one outside the plane raises
    ValidationError.  psi and psi_x at every eps come from a one-node plane at
    the plane's spacing, so t > 0 only: at t = 0, where K' jumps at u = 0 and
    the GLM read-out of psi_x fails, it raises ValidationError, and the static
    pole is classified by `darboux.greens_diagonal_transformed`.
    """
    state = plane.state
    if state.t == 0.0:
        raise ValidationError("at t = 0 the evolved psi_x is not read; classify the static "
                              "pole with darboux.greens_diagonal_transformed")
    j = int(plane.grid.index(x_probe)[1][0])
    xx = float(plane.grid.x[j])
    f, fx, big_i = plane.phi[j], plane.phi_x[j], plane.big_i[j]
    _, y_val, y_x, _ = single_state_step(alpha, f, fx, big_i)
    terms = [(alpha, OMEGA, y_val, y_x, f, fx)]
    # regularized |phi_+1(x, omega)| (finite scale factor for the sweep)
    phi_plus_reg = abs(f + alpha * y_val * big_i)
    ks = OMEGA + 1j * np.asarray(POLE_EPS)
    sol = state.glm_plane(np.array([xx]), ks, delta0=plane.delta)
    psi, psix = _jost_readout(xx, ks, sol.g[0], sol.gx[0])
    psi_plus, _ = gauge_map(psi, psix, ks, terms)
    mags = np.abs(-phi_plus_reg * psi_plus / (2j * ks)).tolist()
    from .scattering import fit_pole_exponent
    return fit_pole_exponent(POLE_EPS, mags), mags


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
    tt, xx = slice(2, nt - 2), slice(3, nx - 3)
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
