"""Fredholm determinant machinery for the time-evolved explicit potential family.

The evolved potential is q(x,t) = -2 d^2/dx^2 log det(I + H(x,t)) where H(x,t)
is the Hankel operator on L^2(0, inf) whose kernel function

    K_t(u) = (1/2 pi) Integral over Im z = b of R(z) e^{i 8 z^3 t} e^{i z u} dz

runs on the line Im z = b above the single pole i*ystar of R in the upper half
plane (ystar solves y^3 + y = rho).  K_t is split into an explicit rank-one
resonance-pole piece c_t e^{-ystar u} (the only exponentially large part;
kept in exact scalar form) plus the bounded regular remainder evaluated on
contours inside 0 < Im z < ystar.

At t = 0 the regular kernel is closed form (two residues); on x < 0 the full
kernel is supported on u < 0, which makes the operator finite-window.  Every
t = 0 operator grid puts the kernel's kink at u = 0 on a node: `plane_jost`
by its spacing rule (checked by `t0_plane_chains`), `DetState` by a grid
aligned per node (`kink_spacing`).  `plane_jost` reads log det(I + H) at
every node of a chain off the chain's one factorization.  Because K' jumps at
u = 0, q at t = 0 is a second difference of those log-determinants along a
chain (`kdv.dyson_q`), not the GLM read-out.  At t > 0 the kernel is
tabulated (`KernelTable`) and q is read from the GLM solves of `plane_jost`.
`DetState`, one dense bordered system per node, serves the per-node paths and
is the oracle of `plane_jost`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft
from numpy.lib.stride_tricks import sliding_window_view
from scipy.interpolate import CubicSpline
from scipy.linalg import lu_factor, lu_solve, solve_triangular

from .errors import DiscretizationFailureError, ValidationError

__all__ = ["PoleData", "KernelTable", "DetState", "PlaneJost", "difference_stencil",
           "kink_spacing", "operator_spacing", "plane_jost", "t0_plane_chains"]

U_DECAY_TARGET = 32.0      # kernel magnitude e^{-32} at the grid's far corner
THIN_SUPPORT_X = 0.12      # |x| below which the t=0 determinant uses the series branch
KINK_NODES_MIN = 12        # minimum nodes between the origin and the kernel kink
M_OP_CAP = 1600            # hard cap for the adaptive operator-grid refinement
POSITIVITY_TOL = 1e-6      # largest |Im log det(I + H)| of a determinant taken as positive
T_MAX = 0.25               # evolution beyond this needs contour re-tuning


@dataclass
class PoleData:
    """Pole structure of R(z) = -i rho / (z(z^2-1) + i rho)."""

    rho: float
    ystar: float
    p_star: complex
    r_star: complex
    low_poles: tuple
    low_res: tuple
    c0: float                     # -i r_star, real positive

    @classmethod
    def for_rho(cls, rho: float) -> "PoleData":
        roots = np.roots([1.0, 0.0, -1.0, 1j * rho])   # P(z) + i rho = 0
        imag = [z for z in roots if abs(z.real) < 1e-10 and z.imag > 0]
        if len(imag) != 1:
            raise ValidationError("expected exactly one imaginary pole of R")
        p_star = complex(imag[0])
        low = tuple(complex(z) for z in roots if abs(z.real) >= 1e-10)
        res = tuple(-1j * rho / (3 * z * z - 1.0) for z in low)
        r_star = -1j * rho / (3 * p_star**2 - 1.0)
        c0 = float(np.real(-1j * r_star))
        return cls(rho, float(p_star.imag), p_star, r_star, low, res, c0)

    def reflection(self, z):
        return -1j * self.rho / (z * (z * z - 1.0) + 1j * self.rho)

    def kernel_low_t0(self, u, d: int = 0):
        """Regular kernel part at t = 0, closed form.

        Equals -i sum over the two lower poles for u < 0, and
        +i r_star e^{i p_star u} for u >= 0 (so that the full kernel,
        regular part + c0 e^{-ystar u}, vanishes identically on u > 0).
        """
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape, complex)
        m = u < 0
        for p, r in zip(self.low_poles, self.low_res):
            out[m] += -1j * r * (1j * p) ** d * np.exp(1j * p * u[m])
        out[~m] = 1j * self.r_star * (1j * self.p_star) ** d * np.exp(1j * self.p_star * u[~m])
        return out


def _contour_rule(b: float, t: float, x_scale: float, tol_exp: float = 38.0):
    """(nodes, weights) of a uniform trapezoid rule on the line Im z = b (t > 0).

    Truncation S (at most 500) balances the Gaussian damping e^{-24 t b sigma^2}
    against the algebraic |R| ~ rho/sigma^3 tail; the spacing resolves the oscillation
    e^{i(z u + 8 z^3 t)} for |u| <= 2 x_scale inside the live Gaussian window.
    """
    s_trunc = min(500.0, math.sqrt(tol_exp / (24.0 * t * b)) + 4.0)
    rate = 2.0 * x_scale + tol_exp / b + 10.0
    h = min(0.05, 2.0 * math.pi / rate / 3.0)
    n = int(math.ceil(2 * s_trunc / h)) + 1
    sig = np.linspace(-s_trunc, s_trunc, n)
    w = np.full(n, sig[1] - sig[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return sig + 1j * b, w


def _hankel(h, n: int) -> np.ndarray:
    """Zero-copy view of the n x n Hankel matrix H[i, j] = h[i + j] (len(h) >= 2n - 1)."""
    return sliding_window_view(h, n)[:n]


def difference_stencil(offsets, r: int) -> np.ndarray:
    """Weights of the finite difference for f^(r)(0) from f at the offsets (unit spacing).

    Exact for polynomials of degree below len(offsets): order len(offsets) - r,
    one more for a symmetric stencil of even r.
    """
    offsets = np.asarray(offsets, dtype=float)
    m = len(offsets)
    mom = np.vander(offsets, m, increasing=True).T
    rhs = np.zeros(m)
    rhs[r] = math.factorial(r)
    return np.linalg.solve(mom, rhs)


def em_weights(m: int, h: float, order: int = 8) -> np.ndarray:
    """Trapezoid weights with Euler-Maclaurin end corrections (O(h^order)).

    Corrections use one-sided difference estimates of the odd endpoint
    derivatives; the Bernoulli-number coefficients are -h^2/12, +h^4/720,
    -h^6/30240 for f', f''', f^(5).
    """
    if m < 12:
        raise ValidationError("endpoint-corrected rule needs at least 12 intervals")
    w = np.full(m + 1, h, float)
    w[0] = w[-1] = h / 2
    terms = {4: [(1, 2, -1.0 / 12.0)],
             6: [(1, 4, -1.0 / 12.0), (3, 2, 1.0 / 720.0)],
             8: [(1, 6, -1.0 / 12.0), (3, 4, 1.0 / 720.0), (5, 2, -1.0 / 30240.0)]}[order]
    for r, p, coef in terms:
        d = difference_stencil(np.arange(r + p), r)
        corr = -coef * h * d            # -c_r d_j / h^r with c_r = coef h^{r+1}
        for j, c in enumerate(corr):
            w[j] += c
            w[m - j] += c
    if np.any(w <= 0):
        raise ValidationError("operator weights must be positive")
    return w


def _chirp_z_sums(f, sig_c: float, h: float, u_c: float, du: float, m: int) -> np.ndarray:
    """Sums sum_j f[..., j] e^{i sigma_j u_k} over two uniform axes, by chirp-z convolution.

    sigma_j = sig_c + j' h and u_k = u_c + k' du with the centred indices
    j' = j - (n-1)/2 and k' = k - (m-1)/2, which keep every chirp phase small.
    With sigma_j u_k = sig_c u_k + j' h u_c + h du (j'^2 + k'^2 - (k'-j')^2)/2 the
    sums are one linear convolution with the chirp e^{-i h du l^2/2} (Bluestein),
    done by FFT.
    """
    n = f.shape[-1]
    jc = np.arange(n) - 0.5 * (n - 1)
    kc = np.arange(m) - 0.5 * (m - 1)
    a = h * du
    g = f * np.exp(1j * (h * u_c * jc + 0.5 * a * jc * jc))
    lag = np.arange(n + m - 1) - (n - 1) - 0.5 * (m - n)     # k' - j' at k - j = index - (n-1)
    size = sfft.next_fast_len(n + m - 1)
    conv = sfft.ifft(sfft.fft(g, size, axis=-1) * sfft.fft(np.exp(-0.5j * a * lag * lag), size),
                     axis=-1)[..., n - 1:n - 1 + m]
    return conv * np.exp(0.5j * a * kc * kc + 1j * sig_c * (u_c + du * kc))


class KernelTable:
    """Regular kernel part H_low at fixed t > 0, tabulated by contour quadrature.

    Values for u >= 0 come from a contour just below i*ystar (fast decay); for
    u < 0 from a low contour Im z = b_minus (bounded integrand).  Both the
    contour rule and the table grid u_k = u_grid[0] + k du are uniform, so each
    side's quadrature sums are one chirp-z transform.  `sides` maps "u>=0" and
    "u<0" to the u_grid slice and the contour rule (nodes, weights) used there.
    Cubic splines interpolate the tables for derivative orders d = 0, 1.  Right
    of the table the kernel is 0: the u >= 0 side decays at least like
    e^{-b_plus u}, so the error is at most |K(u_grid[-1])|.
    """

    def __init__(self, poles: PoleData, t: float, u_min: float, u_max: float,
                 du: float = 0.02, b_plus_frac: float = 0.9, b_minus_frac: float = 0.12):
        if t <= 0:
            raise ValidationError("KernelTable is the t > 0 path; t = 0 is closed form")
        self.poles = poles
        self.t = t
        start, stop = u_min - 4 * du, u_max + 4 * du
        self.u_grid = start + du * np.arange(int(math.ceil((stop - start) / du)))
        n_neg = int(np.searchsorted(self.u_grid, 0.0))
        self.sides = {}
        vals = np.empty((2, len(self.u_grid)), complex)
        for name, sl, bfrac in (("u>=0", slice(n_neg, len(self.u_grid)), b_plus_frac),
                                ("u<0", slice(0, n_neg), b_minus_frac)):
            m = sl.stop - sl.start
            if m == 0:
                continue
            b = bfrac * poles.ystar
            u_here = self.u_grid[sl]
            scale = max(abs(float(u_here[0])), abs(float(u_here[-1])), 1.0)
            nodes, weights = _contour_rule(b, t, scale / 2.0)
            self.sides[name] = (sl, nodes, weights)
            base = poles.reflection(nodes) * np.exp(1j * 8 * nodes**3 * t) * weights / (2 * np.pi)
            f = base * (1j * nodes) ** np.arange(2)[:, None]
            # steps from the rules themselves: neighbour differences carry rounding
            sig = nodes.real
            h = (sig[-1] - sig[0]) / (len(sig) - 1)
            u_c = start + du * 0.5 * (sl.start + sl.stop - 1)
            vals[:, sl] = (_chirp_z_sums(f, 0.5 * (sig[0] + sig[-1]), h, u_c, du, m)
                           * np.exp(-b * u_here))
        self._splines = {d: CubicSpline(self.u_grid, vals[d]) for d in (0, 1)}

    def __call__(self, u, d: int = 0):
        u = np.asarray(u, dtype=float)
        if np.any(u < self.u_grid[0]):
            raise ValidationError(f"kernel requested at u < {self.u_grid[0]}, left of its table")
        return np.where(u <= self.u_grid[-1], self._splines[d](u), 0.0)


def operator_spacing(y: float, x: float, m_op: int, delta_cap: float | None = None):
    """Operator width needed at x and the default spacing.

    The solution density lives on [0, 2|x|]; the width adds a decay margin
    beyond it.  Returns (w_needed, min(w_needed / m_op, delta_cap)), the cap
    being 0.22 / max(y, 1) unless given.
    """
    w_needed = 2.0 * max(0.0, -x) + U_DECAY_TARGET / (2.0 * y)
    if delta_cap is None:
        delta_cap = 0.22 / max(y, 1.0)
    return w_needed, min(w_needed / m_op, delta_cap)


def kink_spacing(x: float, delta: float) -> float:
    """The spacing nearest delta that puts the t = 0 kernel's kink u = 0 on a node at x < 0.

    2|x| / kink_spacing is an integer of at least KINK_NODES_MIN.
    """
    return -2.0 * x / max(KINK_NODES_MIN, round(-2.0 * x / delta))


def _check_positive(phase, mn: int):
    """Raise unless every phase of det(I + H) is within POSITIVITY_TOL of zero."""
    if np.any(np.abs(phase) > POSITIVITY_TOL):
        raise DiscretizationFailureError("determinant lost positivity; refine the operator grid",
                                         suggested_m=2 * mn)


def _within_cap(mn: int) -> int:
    """mn, checked: an operator grid wider than M_OP_CAP intervals is a discretization failure.

    Capping it instead would silently narrow the window below the kernel's support.
    """
    if mn > M_OP_CAP:
        raise DiscretizationFailureError(
            f"the operator grid needs {mn} intervals, above the cap of {M_OP_CAP}")
    return mn


def _operator_intervals(w_needed: float, delta: float, m_op: int) -> int:
    """Intervals mn of an operator grid of spacing delta covering the width w_needed."""
    return max(m_op, int(math.ceil(w_needed / delta)))


def _resonance_border(poles: PoleData, x: float, t: float):
    """(log Gamma, s_row, s_inv_gamma) of the rank-one resonance border at (x, t).

    Only log Gamma and 1/Gamma ever enter the numerics: a huge Gamma keeps the
    border row unscaled (1/Gamma may underflow); a tiny one (far right)
    scales the border row by Gamma instead.
    """
    y = poles.ystar
    log_gamma = math.log(poles.c0) + 8.0 * y**3 * t - 2.0 * y * x
    if log_gamma >= 0:
        return log_gamma, 1.0, (math.exp(-log_gamma) if log_gamma < 700 else 0.0)
    return log_gamma, math.exp(log_gamma), 1.0


class DetState:
    """Per-(x, t) assembly of the split Hankel determinant and its GLM solves.

    One dense bordered system per node: the per-node path, and the oracle of
    `plane_jost`.  Without a fixed_delta a t = 0 grid is aligned: it puts the
    kernel's kink on a node (`kink_spacing`).
    """

    def __init__(self, poles: PoleData, kernel, x: float, t: float, m_op: int,
                 fixed_delta: float | None = None, delta_cap: float | None = None):
        self.poles = poles
        y = poles.ystar
        w_needed, delta = operator_spacing(y, x, m_op, delta_cap)
        if fixed_delta is not None:
            delta = fixed_delta
        elif t == 0.0 and x < -THIN_SUPPORT_X:
            delta = kink_spacing(x, delta)
        mn = _within_cap(_operator_intervals(w_needed, delta, m_op))
        self.fixed_delta = fixed_delta
        self.delta, self.mn = delta, mn
        self.xi = np.arange(mn + 1) * delta
        self.w = em_weights(mn, delta, order=8 if t == 0.0 else 6)
        self._u = 2 * x + np.arange(2 * mn + 1) * delta
        self._kernel = kernel
        self._h0 = kernel(self._u, 0)
        # the rank-one resonance piece Gamma e^{-y xi} e^{-y xi'} is a border of the
        # system; only log Gamma and 1/Gamma ever enter the numerics
        self.log_gamma, self.s_row, self.s_inv_gamma = _resonance_border(poles, x, t)
        self._system = None

    def _bordered(self):
        """LU of B = I + H diag(w) bordered by the resonance piece, nonsingular with I + H."""
        if self._system is None:
            mn1 = self.mn + 1
            ghat = np.exp(-self.poles.ystar * self.xi)
            b = np.zeros((mn1 + 1, mn1 + 1), complex)
            core = b[:mn1, :mn1]
            np.multiply(self.w[None, :], _hankel(self._h0, mn1), out=core)
            core[np.diag_indices(mn1)] += 1.0
            b[:mn1, mn1] = ghat
            b[mn1, :mn1] = self.s_row * self.w * ghat
            b[mn1, mn1] = -self.s_inv_gamma
            self._system = lu_factor(b, overwrite_a=True)
        return self._system

    def log_det(self) -> float:
        """log det(I + H) = log Gamma - log s + log(-det B) for the bordered B.

        det B is the product of its LU factor's diagonal, its sign flipped by
        each row interchange.
        """
        lu, piv = self._bordered()
        d = np.diagonal(lu)
        swaps = np.count_nonzero(piv != np.arange(len(piv)))
        _check_positive(np.angle(-np.prod(d / np.abs(d)) * (-1.0) ** swaps), self.mn)
        return self.log_gamma - math.log(self.s_row) + float(np.sum(np.log(np.abs(d))))

    # -- linear solves for the evolved Jost solution ------------------------

    def solve_jost(self, ks):
        """(I+H)^{-1}(H 1) extended to the momenta ks; returns g(k) per k.

        psi(x,t,k) = e^{ikx} (1 - g(k)).  The resonance rank-one piece is
        handled by a bordered solve, stable for any size of its coefficient.
        """
        mn1 = self.mn + 1
        lu = self._bordered()
        rhs = np.zeros((mn1 + 1, 2), complex)
        rhs[:mn1, 0] = self._h0[:mn1]
        rhs[mn1, 1] = self.s_row
        sol = lu_solve(lu, rhs)
        self._jost_cache = (lu, sol)
        v = sol[:mn1, 0] + sol[:mn1, 1]
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
        return np.array([np.sum(self.w * np.exp(1j * k * self.xi) * v) for k in ks])

    def solve_jost_with_derivative(self, ks):
        """g(k) and its x-derivative (fixed-grid path)."""
        if self.fixed_delta is None:
            raise ValidationError("jost x-derivatives require a fixed grid (fixed_delta)")
        g = self.solve_jost(ks)
        lu, sol = self._jost_cache
        mn1 = self.mn + 1
        k1 = self._kernel(self._u, 1)
        y = self.poles.ystar
        rhs = np.empty((mn1 + 1, 2), complex)
        # a_x = 2 H(k1) diag(w) applied to both solution columns in one product
        rhs[:mn1] = -(_hankel(2.0 * k1, mn1) @ (self.w[:, None] * sol[:mn1]))
        rhs[:mn1, 0] += 2.0 * k1[:mn1]
        rhs[mn1] = 2.0 * y * self.s_inv_gamma * sol[mn1]
        dsol = lu_solve(lu, rhs)
        vx = dsol[:mn1, 0] + dsol[:mn1, 1]
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
        gx = np.array([np.sum(self.w * np.exp(1j * k * self.xi) * vx) for k in ks])
        return g, gx


# -- the fixed-grid plane: one factorization per chain of nodes ----------------

_EM_END = 5                # weights that em_weights(order=6) corrects at each end
_NODE_BLOCK = 32           # plane nodes that share each pair of triangular solves


@dataclass
class PlaneJost:
    """g(k), g_x(k), q and log det(I + H) at every node of a uniform plane.

    psi(x, t, k) = e^{ikx}(1 - g(k)) as for `DetState.solve_jost_with_derivative`.
    g and gx have shape (nodes, momenta); q = 2 Re d/dx v(xi = 0) is the
    evolved potential, since K(x, x + xi) = -v(xi) and q = -2 d/dx K(x, x).
    At t = 0, where K' jumps at u = 0 and both read-outs are wrong, gx and q
    are None; q is then a second difference of log_det along a chain
    (`kdv.dyson_q`).  log_det is complex, its imaginary part the phase of
    the determinant in (-pi, pi], which is 0 for a positive one.  sizes holds
    mn + 1 of each node's system and factor_points that of each chain's one
    factorization.
    """

    g: np.ndarray
    gx: np.ndarray | None
    q: np.ndarray | None
    log_det: np.ndarray
    delta: float
    factor_points: tuple
    sizes: np.ndarray

    def log_det_real(self, nodes=slice(None)) -> np.ndarray:
        """Re log det(I + H) at the nodes, each checked positive as by `DetState.log_det`."""
        _check_positive(self.log_det[nodes].imag, int(np.max(self.sizes[nodes], initial=0)))
        return self.log_det[nodes].real


def _plane_layout(poles: PoleData, t: float, x: np.ndarray, m_op: int, delta0: float):
    """(chains, delta, steps, needed) of the chained plane over the uniform nodes x.

    steps counts each node's rows from its chain's leftmost node and needed
    the intervals `DetState` gives the node at the spacing delta.  At t = 0
    there are at most two chains: the plane spacing is then a multiple of
    delta / 2, so 2x / delta is integral at every node once it is at x[0].
    """
    n = len(x)
    h = (x[-1] - x[0]) / (n - 1) if n > 1 else delta0
    if h <= delta0 * (1.0 + 1e-12):          # h = delta0 up to rounding: one chain
        chains, stride = math.floor(delta0 / h * (1.0 + 1e-12)), 1
        if t == 0.0:
            chains = min(2, chains)
        delta = chains * h
    else:
        chains, stride = 1, math.ceil(h / delta0)
        delta = h / stride
    steps = np.arange(n) // chains * stride
    needed = np.array([_operator_intervals(operator_spacing(poles.ystar, float(xx), m_op)[0],
                                           delta, m_op) for xx in x])
    return chains, delta, steps, needed


def _kink_on_node(x0: float, delta: float) -> bool:
    """Whether the t = 0 kernel's kink u = 0 is off no window u = 2 x + i delta of x >= x0.

    That is so when 2 x0 / delta is an integer, or when x0 >= 0 puts every
    window right of the kink.
    """
    a = 2.0 * x0 / delta
    return x0 >= 0.0 or abs(a - round(a)) <= 1e-8 * max(1.0, abs(a))


def t0_plane_chains(poles: PoleData, x: np.ndarray, m_op: int, delta0: float) -> bool:
    """Whether `plane_jost` can solve the t = 0 plane over the uniform nodes x.

    It can when its spacing puts the kernel's kink on a node of every chain
    (2 x[0] / delta integral, or x[0] >= 0) and no chain's factor passes
    M_OP_CAP.
    """
    x = np.asarray(x, dtype=float)
    _, delta, steps, needed = _plane_layout(poles, 0.0, x, m_op, delta0)
    return _kink_on_node(float(x[0]), delta) and int(np.max(steps + needed)) <= M_OP_CAP


def plane_jost(poles: PoleData, kernel, t: float, x: np.ndarray, ks, m_op: int,
               delta0: float) -> PlaneJost:
    """The fixed-grid GLM solves of `DetState` at every node of the uniform grid x.

    x may be a single node, which then gets the spacing delta0.

    The operator spacing is made commensurate with the plane spacing h:
    delta = c h with c = floor(delta0 / h) >= 1 (c interleaved chains of
    nodes delta apart), or delta = h / l with l = ceil(h / delta0) when
    h > delta0 (one chain, nodes l rows apart).  At t = 0 c is at most 2 and
    2 x[0] / delta must be integral (or x[0] >= 0), so that the kernel's kink
    u = 0 is a node of every chain (`t0_plane_chains`); g and log det are
    solved there, not gx and q.

    On one chain the system at x + delta is the system at x with its first
    row and column dropped, so every node's regular core is a trailing block
    of the core of the chain's leftmost node, whose window ends where the
    widest node needs it (no node gets less than `DetState` gives it at this
    spacing).  The reversed core J(I + H diag(w))J is factored once, and its
    leading blocks then factor every node's core.  Per node, in O(n^2):
      * the node's own left end corrections of `em_weights` enter as a rank-5
        (Woodbury) update of the factor's last five columns;
      * the resonance border enters as a 1 x 1 Schur complement;
      * log det(I + H) is the sum of the logs of the factor's leading diagonal,
        of the updated 5 x 5 corner's determinant and of that Schur complement;
      * the derivative right-hand side's Hankel product is an FFT correlation;
      * each solve is a forward and a backward triangular solve with the
        packed factor, shared by a block of the chain's nodes.
    q needs no solve of its own: it is read from the derivative solve.
    A row interchange in the factorization would break the leading-block
    property; it is reported as a DiscretizationFailureError.
    """
    x = np.asarray(x, dtype=float)
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    n = len(x)
    chains, delta, steps, needed = _plane_layout(poles, t, x, m_op, delta0)
    if t == 0.0 and not _kink_on_node(float(x[0]), delta):
        raise ValidationError(f"the t = 0 plane at spacing {delta} puts the kernel's kink off "
                              f"its nodes: 2 x[0] / delta = {2.0 * x[0] / delta} is not an integer")
    sizes = np.empty(n, int)
    g = np.empty((n, len(ks)), complex)
    gx = np.empty((n, len(ks)), complex) if t > 0 else None
    q = np.empty(n) if t > 0 else None
    log_det = np.empty(n, complex)
    factor_points = []
    for r in range(min(chains, n)):
        nodes = np.arange(r, n, chains)
        big_n = _within_cap(int(np.max(steps[nodes] + needed[nodes])))
        sizes[nodes] = big_n - steps[nodes] + 1
        factor_points.append(big_n + 1)
        u = 2.0 * x[r] + np.arange(2 * big_n + 1) * delta
        h0_rev = kernel(u, 0)[::-1]
        w0 = em_weights(big_n, delta, order=6)          # symmetric, so J w0 = w0
        core = np.empty((big_n + 1, big_n + 1), complex, order="F")
        np.multiply(_hankel(h0_rev, big_n + 1), w0[None, :], out=core)
        core[np.diag_indices(big_n + 1)] += 1.0
        lu, piv = lu_factor(core, overwrite_a=True)
        if np.any(piv != np.arange(big_n + 1)):
            raise DiscretizationFailureError(
                "the reversed GLM core needed a row interchange; its leading blocks "
                "do not factor the nodes' systems")
        log_u = np.concatenate([[0.0], np.cumsum(np.log(np.diagonal(lu)))])
        h1_rev = h1_hat = None
        if t > 0:
            h1_rev = kernel(u, 1)[::-1]
            h1_hat = sfft.fft(2.0 * h1_rev, sfft.next_fast_len(3 * big_n + 1))
        for b0 in range(0, len(nodes), _NODE_BLOCK):
            js = nodes[b0:b0 + _NODE_BLOCK]
            g[js], log_det[js], derivative = _plane_nodes(
                poles, t, x[js], ks, delta, sizes[js], lu, log_u, w0, h0_rev, h1_rev, h1_hat)
            if derivative is not None:
                gx[js], q[js] = derivative
    # the phase of a positive determinant is 0 up to rounding, whatever the sum's branches
    log_det.imag = np.angle(np.exp(1j * log_det.imag))
    return PlaneJost(g, gx, q, log_det, delta, tuple(factor_points), sizes)


def _plane_nodes(poles, t, x, ks, delta, m, lu, log_u, w0, h0_rev, h1_rev, h1_hat):
    """(g, log det(I + H), (gx, q)) at a block of one chain's nodes from its packed factor lu.

    log_u holds the cumulative sums of the logs of lu's diagonal.  Without
    the kernel derivative h1_rev and its transform h1_hat (t = 0) gx and q
    are not solved, and (gx, q) is None.

    Node c's core A differs from the leading block L U of the chain's core
    only in its last five columns (reversed order), where the node's own left
    end corrections of `em_weights` replace the chain's weights.  With
    r = w / w0 there, A e_c = r_c L U e_c + (1 - r_c) e_c: a rank-5 update
    (Woodbury) that leaves L and changes only the last five columns of U.
    The changed upper factor is block triangular with a full 5 x 5 corner, so
    A x = b is one forward pass, one 5 x 5 solve and one backward pass over
    the leading m - 5 rows.  The block's nodes share each pass: a column that
    is zero below a node's rows gives, in those rows, that node's leading-block
    solution (the leading block of a triangular inverse is the inverse of the
    leading block).  Arrays are (rows, nodes) in reversed order, zero below
    each node's m rows.  So det A is the product of the leading m - 5
    diagonal entries of U and det(corner), and the bordered determinant is
    det A times the border's Schur complement sigma: log det(I + H) =
    log det A + log(-sigma) + log Gamma - log s_row, as in `DetState.log_det`.
    """
    y = poles.ystar
    n1, big_m, cols, k = lu.shape[0], int(m.max()), np.arange(len(m)), m - _EM_END
    i = np.arange(big_m)[:, None]
    inside = i < m
    ends = k[:, None] + np.arange(_EM_END)                  # (nodes, 5): each node's last rows
    xi = np.where(inside, (m - 1 - i) * delta, 0.0)
    ghat = np.exp(-y * xi) * inside
    w = np.where(i < k, w0[:big_m, None], 0.0)
    w[ends, cols[:, None]] = w0[-_EM_END:]                 # the node's own end corrections
    r = w0[-_EM_END:] / w0[ends]
    log_gamma, s_row, s_inv_gamma = np.array([_resonance_border(poles, float(xx), t)
                                              for xx in x]).T
    blk = lu[ends[:, :, None], ends[:, None, :]]
    l_inv_e = np.linalg.inv(np.tril(blk, -1) + np.eye(_EM_END))
    # L^{-1} e_c lies in the corner
    corner = np.triu(blk) * r[:, None, :] + l_inv_e * (1.0 - r[:, None, :])
    top = lu[:big_m, ends].transpose(1, 0, 2)               # (nodes, rows, 5)
    above = (i < k)[:, :, None]

    def substitute(b, lower):
        # over the whole factor: a leading-block view would be copied for LAPACK
        pad = np.zeros((n1, b[0].size), complex, order="F")
        pad[:big_m] = b.reshape(big_m, -1)
        return solve_triangular(lu, pad, lower=lower, unit_diagonal=lower, overwrite_b=True,
                                check_finite=False)[:big_m].reshape(b.shape)

    def core_solve(b):
        fy = substitute(b, lower=True)
        tail = np.linalg.solve(corner, fy[ends, cols[:, None]])
        out = substitute((fy - np.matmul(top, r[:, :, None] * tail).transpose(1, 0, 2)) * above,
                         lower=False)
        out[ends, cols[:, None]] = tail
        return out

    a, z = np.moveaxis(core_solve(np.stack([h0_rev[m - 1 + i] * inside, ghat], axis=2)), 2, 0)
    row = s_row * w * ghat
    sigma = -s_inv_gamma - np.sum(row * z, axis=0)         # Schur complement of the border
    mu = (s_row - np.sum(row * a, axis=0)) / sigma
    v = a - mu * z
    e = w[:, :, None] * np.exp(1j * xi[:, :, None] * ks)
    g = np.einsum("ick,ic->ck", e, v)
    sign, log_corner = np.linalg.slogdet(corner)
    log_det = (log_u[k] + np.log(sign) + log_corner + np.log(-sigma)
               + log_gamma - np.log(s_row))
    if h1_rev is None:
        return g, log_det, None
    # a_x v = 2 H(k1) diag(w) v: corr[i] = sum_l 2 h1_rev[i + l] (w v)[l], an FFT correlation
    corr = sfft.ifft(h1_hat[:, None] * sfft.fft((w * v)[::-1], h1_hat.size, axis=0),
                     axis=0)[big_m - 1:2 * big_m - 1]
    ax = core_solve(((2.0 * h1_rev[m - 1 + i] - corr) * inside)[:, :, None])[..., 0]
    mux = (2.0 * y * s_inv_gamma * mu - np.sum(row * ax, axis=0)) / sigma
    vx = ax - mux * z
    return g, log_det, (np.einsum("ick,ic->ck", e, vx),
               2.0 * vx[m - 1, cols].real)                 # xi = 0 is each node's last row
