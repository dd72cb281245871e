"""Fredholm determinant machinery for the time-evolved explicit potential family.

The evolved potential is q(x,t) = -2 d^2/dx^2 log det(I + H(x,t)) where H(x,t)
is the Hankel operator on L^2(0, inf) whose kernel function

    K_t(u) = (1/2 pi) Integral over Im z = b of R(z) e^{i 8 z^3 t} e^{i z u} dz

runs on the line Im z = b above the single pole i*ystar of R in the upper half
plane (ystar solves y^3 + y = rho).  K_t is split into an explicit rank-one
resonance-pole piece c_t e^{-ystar u} (the only exponentially large part;
kept in exact scalar form) plus the bounded regular remainder evaluated on
contours inside 0 < Im z < ystar.  The seed is real, so R(-conj z) = conj R(z)
and K_t is real: the GLM operator (core, resonance border, right-hand sides)
is factored and solved in float64, and only the read-out sum_i w_i e^{ik xi_i} v_i
at the momenta k is complex.  The imaginary part of every log det is exactly
0, or pi for a negative determinant, which the positivity checks reject.

At t = 0 the regular kernel is closed form (two residues); on x < 0 the full
kernel is supported on u < 0, which makes the operator finite-window.  Every
t = 0 operator grid puts the kernel's kink u = 0 on a node: `plane_jost`'s by
its chains' lattice (delta / 2)Z (laid out by `kdv.phi_plane_grid`),
`DetState`'s by a grid aligned per node (`kink_spacing`).  As K' jumps at
u = 0, q at t = 0 is a second difference of the log-determinants that
`plane_jost` reads off a chain's one factorization with two triangular
substitutions, in O(n^2).  At t > 0 the kernel is a contour sum, evaluated
by chirp-z transform once per operator, at exactly the lattice nodes
2x + i delta that it reads (`KernelTable`); q is the GLM read-out of
`plane_jost`, read off a chain factor's two triangular inverses in O(n) per
node.  `DetState`, one dense system per node, serves the per-node Jost solves
(`kdv.jost_evolved`) and is the oracle of `plane_jost`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import fft, ifft, irfft, rfft
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import lu_factor, lu_solve, solve_triangular
from scipy.linalg.lapack import dtrtri

from .errors import DiscretizationFailureError, ValidationError

__all__ = ["PoleData", "KernelTable", "DetState", "PlaneJost", "difference_stencil",
           "kink_spacing", "operator_spacing", "plane_jost", "plane_spacing"]

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

    def kernel_low_t0(self, u):
        """Rows [K, K'] of the regular kernel part at t = 0, closed form, shape (2, len(u)).

        Equals -i sum over the two lower poles (a pair z, -conj z with conjugate
        terms) for u < 0, and +i r_star e^{i p_star u} for u >= 0 (so that the full
        kernel, regular part + c0 e^{-ystar u}, vanishes identically on u > 0);
        K' takes each term's factor i p from the same exponential.
        """
        u = np.asarray(u, dtype=float)
        out = np.zeros((2,) + u.shape, complex)
        m = u < 0
        for p, r in zip(self.low_poles, self.low_res):
            e = -1j * r * np.exp(1j * p * u[m])
            out[:, m] += (e, 1j * p * e)
        e = 1j * self.r_star * np.exp(1j * self.p_star * u[~m])
        out[:, ~m] = (e, 1j * self.p_star * e)
        return out.real


def _contour_rule(b: float, t: float, x_scale: float, ystar: float):
    """(nodes, weights) of a uniform trapezoid rule on the line Im z = b (t > 0).

    Truncation S (at most 500) brings the Gaussian damping e^{-24 t b sigma^2}
    down to e^{-38} ahead of the algebraic |R| ~ rho/sigma^3 tail; the spacing
    resolves the oscillation e^{i(z u + 8 z^3 t)} for |u| <= 2 x_scale inside
    the live Gaussian window, and it keeps the alias of the pole i ystar,
    ystar - b above the line, at e^{-2 pi (ystar - b) / h} <= e^{-38} of K.
    """
    s_trunc = min(500.0, math.sqrt(38.0 / (24.0 * b)) / math.sqrt(t) + 4.0)
    rate = 2.0 * x_scale + 38.0 / b + 10.0
    h = min(0.05, 2.0 * math.pi / rate / 3.0, 2.0 * math.pi * (ystar - b) / 38.0)
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
    terms = {6: [(1, 4, -1.0 / 12.0), (3, 2, 1.0 / 720.0)],
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


def _fast_len(n: int) -> int:
    """The least 5-smooth integer >= n: a length the FFT transforms fast."""
    # each odd part 3^j 5^k below 2n, times the least power of two that reaches n
    odd = (3 ** j * 5 ** k for j in range(n.bit_length()) for k in range(n.bit_length()))
    return min(p << (-(-n // p) - 1).bit_length() for p in odd if p < 2 * n)


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
    size = _fast_len(n + m - 1)
    conv = ifft(fft(g, size, axis=-1) * fft(np.exp(-0.5j * a * lag * lag), size),
                axis=-1)[..., n - 1:n - 1 + m]
    return conv * np.exp(0.5j * a * kc * kc + 1j * sig_c * (u_c + du * kc))


class KernelTable:
    """Rows [K, K'] of the regular kernel part H_low at fixed t > 0 on a uniform lattice u.

    The operators read K only at their lattice sums u = 2x + i delta, so the
    table is evaluated there (u_grid = u) by contour quadrature, with no
    interpolation; values has shape (2, len(u)).  Values for u >= 0 come from a
    contour Im z = 0.9 ystar just below i*ystar (fast decay).  For u < 0 they
    come from a low contour Im z = b = min(0.12 ystar, 11 / |u[0]|): its sums
    cancel down to K e^{b u}, and the factor e^{-b u} <= e^{11} that restores K
    bounds their rounding.  Both the contour rule and u are uniform, so each
    side's quadrature sums are one chirp-z transform, its rule sized from that
    side's own u-range.  `sides` maps "u>=0" and "u<0" to the slice of u and
    the contour rule (nodes, weights) used there.  K is the sums' real part:
    z -> -conj z maps each rule to itself and its integrand to the conjugate.
    """

    def __init__(self, poles: PoleData, t: float, u):
        if t <= 0:
            raise ValidationError("KernelTable is the t > 0 path; t = 0 is closed form")
        u = np.asarray(u, dtype=float)
        du = (u[-1] - u[0]) / (u.size - 1) if u.ndim == 1 and u.size > 1 else math.nan
        if not (du > 0 and np.all(np.abs(np.diff(u) - du) <= 1e-8 * du)):
            raise ValidationError("the kernel lattice u must be uniform and ascending")
        self.u_grid, self.values, self.sides = u, np.empty((2, u.size)), {}
        y, n_neg = poles.ystar, int(np.searchsorted(u, 0.0))
        for name, sl in (("u>=0", slice(n_neg, u.size)), ("u<0", slice(0, n_neg))):
            u_here = u[sl]
            if u_here.size == 0:
                continue
            # |u[0]| clamped at 1e-300 keeps 11 / |u[0]| finite; below it the min is 0.12 y* anyway
            b = 0.9 * y if name == "u>=0" else min(0.12 * y, 11.0 / max(-u_here[0], 1e-300))
            nodes, weights = _contour_rule(b, t, max(-u_here[0], u_here[-1], 1.0) / 2.0, y)
            self.sides[name] = (sl, nodes, weights)
            base = poles.reflection(nodes) * np.exp(1j * 8 * nodes**3 * t) * weights / (2 * np.pi)
            f = base * (1j * nodes) ** np.arange(2)[:, None]
            # steps from the rules themselves: neighbour differences carry rounding
            sig = nodes.real
            h = (sig[-1] - sig[0]) / (len(sig) - 1)
            sums = _chirp_z_sums(f, 0.5 * (sig[0] + sig[-1]), h, 0.5 * (u_here[0] + u_here[-1]),
                                 du, u_here.size)
            self.values[:, sl] = sums.real * np.exp(-b * u_here)


def operator_spacing(y: float, x, m_op: int, delta_cap: float | None = None):
    """Operator width needed at x and the default spacing, elementwise over an array x.

    The solution density lives on [0, 2|x|]; the width adds a decay margin
    beyond it.  Returns (w_needed, min(w_needed / m_op, delta_cap)), the cap
    being 0.22 / max(y, 1) unless given.
    """
    w_needed = 2.0 * np.maximum(0.0, -x) + U_DECAY_TARGET / (2.0 * y)
    if delta_cap is None:
        delta_cap = 0.22 / max(y, 1.0)
    return w_needed, np.minimum(w_needed / m_op, delta_cap)


def kink_spacing(x, delta):
    """The spacing nearest delta that puts the t = 0 kernel's kink u = 0 on a node at x < 0.

    2|x| / kink_spacing is an integer of at least KINK_NODES_MIN; elementwise over arrays.
    """
    return -2.0 * x / np.maximum(KINK_NODES_MIN, np.rint(-2.0 * x / delta))


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


def _operator_intervals(w_needed, delta: float, m_op: int):
    """Intervals mn of an operator grid of spacing delta covering the width w_needed, per element."""
    return np.maximum(m_op, np.ceil(w_needed / delta).astype(int))


def _resonance_border(poles: PoleData, x, t: float):
    """(log Gamma, s_row, s_inv_gamma) of the rank-one resonance border at nodes x, time t.

    Only log Gamma and 1/Gamma ever enter the numerics: a huge Gamma keeps the
    border row unscaled (1/Gamma may underflow); a tiny one (far right)
    scales the border row by Gamma instead.
    """
    y = poles.ystar
    log_gamma = math.log(poles.c0) + 8.0 * y**3 * t - 2.0 * y * np.asarray(x, dtype=float)
    scale, huge = np.exp(-np.abs(log_gamma)), log_gamma >= 0      # 1/Gamma or Gamma, at most 1
    return log_gamma, np.where(huge, 1.0, scale), np.where(huge, scale, 1.0)


class DetState:
    """Per-(x, t) assembly of the split Hankel determinant and its GLM solves.

    One dense real bordered system per node: the per-node path, and the oracle
    of `plane_jost`.  Without a fixed_delta a t = 0 grid is aligned: it puts the
    kernel's kink on a node (`kink_spacing`), and gets order-8 weights; a
    fixed_delta grid gets the order-6 weights of `plane_jost`'s chains.
    kernel maps a uniform lattice u to the rows [K, K'] there; it is called
    once, on the node's window u = 2x + i delta.
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
        mn = _within_cap(int(_operator_intervals(w_needed, delta, m_op)))
        self.fixed_delta = fixed_delta
        self.delta, self.mn = delta, mn
        self.xi = np.arange(mn + 1) * delta
        self.w = em_weights(mn, delta, order=8 if t == 0.0 and fixed_delta is None else 6)
        self._h0, self._h1 = kernel(2 * x + np.arange(2 * mn + 1) * delta)
        # the rank-one resonance piece Gamma e^{-y xi} e^{-y xi'} is a border of the system
        self.log_gamma, self.s_row, self.s_inv_gamma = _resonance_border(poles, x, t)

    @cached_property
    def _bordered(self):
        """LU of B = I + H diag(w) bordered by the resonance piece, nonsingular with I + H."""
        mn1 = self.mn + 1
        ghat = np.exp(-self.poles.ystar * self.xi)
        b = np.zeros((mn1 + 1, mn1 + 1))
        core = b[:mn1, :mn1]
        np.multiply(self.w[None, :], _hankel(self._h0, mn1), out=core)
        core[np.diag_indices(mn1)] += 1.0
        b[:mn1, mn1] = ghat
        b[mn1, :mn1] = self.s_row * self.w * ghat
        b[mn1, mn1] = -self.s_inv_gamma
        return lu_factor(b, overwrite_a=True)

    def log_det(self) -> float:
        """log det(I + H) = log Gamma - log s + log(-det B) for the bordered B.

        det B is the product of its LU factor's diagonal, its sign flipped by
        each row interchange.
        """
        lu, piv = self._bordered
        d = np.diagonal(lu)
        swaps = np.count_nonzero(piv != np.arange(len(piv)))
        _check_positive(np.angle(-np.prod(d / np.abs(d)) * (-1.0) ** swaps), self.mn)
        return self.log_gamma - math.log(self.s_row) + float(np.sum(np.log(np.abs(d))))

    # -- linear solves for the evolved Jost solution ------------------------

    def _solution(self):
        """Bordered solutions (a, z) for the right-hand sides (H 1, 0) and (0, s_row), by column."""
        rhs = np.zeros((self.mn + 2, 2))
        rhs[:-1, 0] = self._h0[:self.mn + 1]
        rhs[-1, 1] = self.s_row
        return lu_solve(self._bordered, rhs)

    def _readout(self, ks, sol):
        """sum_i w_i e^{ik xi_i} v_i at each momentum k, v = a + z of the bordered solution."""
        return np.exp(1j * np.outer(ks, self.xi)) @ (self.w * (sol[:-1, 0] + sol[:-1, 1]))

    def solve_jost(self, ks):
        """(I+H)^{-1}(H 1) extended to the momenta ks; returns g(k) per k.

        psi(x,t,k) = e^{ikx} (1 - g(k)).  The resonance rank-one piece is
        handled by a bordered solve, stable for any size of its coefficient.
        """
        return self._readout(ks, self._solution())

    def solve_jost_with_derivative(self, ks):
        """g(k) and its x-derivative (fixed-grid path)."""
        if self.fixed_delta is None:
            raise ValidationError("jost x-derivatives require a fixed grid (fixed_delta)")
        sol, mn1, k1 = self._solution(), self.mn + 1, self._h1
        rhs = np.empty((mn1 + 1, 2))
        # a_x = 2 H(k1) diag(w) applied to both solution columns in one product
        rhs[:mn1] = -(_hankel(2.0 * k1, mn1) @ (self.w[:, None] * sol[:mn1]))
        rhs[:mn1, 0] += 2.0 * k1[:mn1]
        rhs[mn1] = 2.0 * self.poles.ystar * self.s_inv_gamma * sol[mn1]
        return self._readout(ks, sol), self._readout(ks, lu_solve(self._bordered, rhs))


# -- the fixed-grid plane: one factorization per chain of nodes ----------------

_EM_END = 5                # weights that em_weights(order=6) corrects at each end
_SLAB_WORK = 600_000       # n1 slab^2 of a t > 0 chain: bounded arrays, single-threaded BLAS


@dataclass
class PlaneJost:
    """g(k), g_x(k), q and log det(I + H) at every node of a uniform plane.

    psi(x, t, k) = e^{ikx}(1 - g(k)) as for `DetState.solve_jost_with_derivative`.
    g and gx have shape (nodes, momenta); q = 2 d/dx v(xi = 0) is the
    evolved potential, since K(x, x + xi) = -v(xi) and q = -2 d/dx K(x, x).
    At t = 0, where K' jumps at u = 0 and both read-outs are wrong, gx and q
    are None; q is then a second difference of log_det along a chain
    (`kdv.dyson_q`).  log_det is complex, its imaginary part the phase of
    the real determinant: exactly 0 for a positive one, pi for a negative
    one.  nodes holds the indices into the plane's x of the nodes solved, in
    increasing x, and every array is over them.  sizes holds mn + 1 of each
    node's system and factor_points that of each chain's one factorization.
    pivot_margin, near 0 near a singular node, is the least min |u_ii| / max |u_ii|
    on a node's leading rows or |sigma| / (|1/Gamma'| + |row.z|).
    """

    nodes: np.ndarray
    g: np.ndarray
    gx: np.ndarray | None
    q: np.ndarray | None
    log_det: np.ndarray
    delta: float
    factor_points: tuple
    sizes: np.ndarray
    pivot_margin: float

    def log_det_real(self, nodes=slice(None)) -> np.ndarray:
        """Re log det(I + H) at the nodes, each checked positive as by `DetState.log_det`."""
        _check_positive(self.log_det[nodes].imag, int(np.max(self.sizes[nodes], initial=0)))
        return self.log_det[nodes].real


def plane_spacing(t: float, h: float, delta0: float):
    """(chains, stride, delta) of the chained plane over uniform nodes h apart.

    chains = floor(delta0 / h) interleaved chains at delta = chains h, at most 2
    at t = 0 (then every node is on the kink lattice (delta / 2)Z if the first is);
    or one chain at delta = h / stride, stride = ceil(h / delta0), when h > delta0.
    """
    if h <= delta0 * (1.0 + 1e-12):          # h = delta0 up to rounding: one chain
        chains = math.floor(delta0 / h * (1.0 + 1e-12))
        chains = min(2, chains) if t == 0.0 else chains
        return chains, 1, chains * h
    stride = math.ceil(h / delta0)
    return 1, stride, h / stride


def plane_jost(poles: PoleData, kernel, t: float, x: np.ndarray, ks, m_op: int,
               delta0: float, window: int = 0) -> PlaneJost:
    """The fixed-grid GLM solves of `DetState` at the nodes of the uniform grid x.

    Chain 0 (nodes 0, chains, 2 chains, ...) is solved over all of x, chain
    r >= 1 only over the window x[window:] (window a multiple of chains), from
    node window + r on: the nodes solved (`PlaneJost.nodes`) are x[:window:chains]
    and x[window:].  x may be a single node, which then gets the spacing delta0.
    Only the read-outs g and gx are complex.  kernel maps a uniform lattice u to
    the rows [K, K'] there (`EvolvedState.kernel`).  It is called once, on the
    lattice 2 x[0] + j c delta / chains with c = gcd(2, chains), whose nodes
    j = (2s + chains i) / c are the window u = 2 x[s] + i delta of the chain
    whose first node is s.

    The operator spacing delta is commensurate with the plane spacing
    (`plane_spacing`).  At t = 0 2 x[0] / delta must be integral (or
    x[0] >= 0), so that the kernel's kink u = 0 is a node of every chain,
    else ValidationError; g and log det are solved there, not gx and q.

    On one chain the system at x + delta is the system at x with its first
    row and column dropped, so every node's regular core is a trailing block
    of the core of the chain's leftmost node, whose window ends where the
    widest node needs it (no node gets less than `DetState` gives it at this
    spacing), so a chain that starts at the window gets a factor of the window's
    size.  The reversed core J(I + H diag(w))J is factored once, and its leading
    blocks then factor every node's core:
      * the node's own left end corrections of `em_weights` enter as a rank-5
        (Woodbury) update of the factor's last five columns;
      * the resonance border enters as a 1 x 1 Schur complement;
      * log det(I + H) is the sum of the logs of the factor's leading diagonal,
        of the updated 5 x 5 corner's determinant and of that Schur complement.
    At t = 0 only scalar functionals of each node's solution are read, and one
    forward and one transposed backward substitution with the whole factor
    serve a chain's nodes with O(1) work each (`_chain_t0`).  At t > 0 the
    derivative right-hand side needs each node's full solution, read in O(m)
    off the factor's two triangular inverses, and an FFT correlation for its
    Hankel product (`_chain_t`); q is read from the derivative solve.
    A row interchange in the factorization would break the leading-block
    property; it is reported as a DiscretizationFailureError.
    """
    x = np.asarray(x, dtype=float)
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    n = len(x)
    chains, stride, delta = plane_spacing(t, (x[-1] - x[0]) / (n - 1) if n > 1 else delta0,
                                          delta0)
    if window % chains or not 0 <= window < n:
        raise ValidationError(f"the window must start on a chain-0 node of the {n} nodes, "
                              f"got node {window} with {chains} chains")
    # the rows `DetState` gives each node at delta
    needed = _operator_intervals(operator_spacing(poles.ystar, x, m_op)[0], delta, m_op)
    # u = 0 is a node of every window u = 2 x + i delta, or x[0] >= 0 puts each right of it
    kink = 2.0 * x[0] / delta
    if t == 0.0 and x[0] < 0.0 and abs(kink - round(kink)) > 1e-8 * max(1.0, abs(kink)):
        raise ValidationError(f"the t = 0 plane at spacing {delta} puts the kernel's kink off "
                              f"its nodes: 2 x[0] / delta = {kink} is not an integer")
    sizes = np.empty(n, int)
    g = np.empty((n, len(ks)), complex)
    gx = np.empty((n, len(ks)), complex) if t > 0 else None
    q = np.empty(n) if t > 0 else None
    log_det = np.empty(n, complex)
    chain_nodes = [np.arange(window + r if r else 0, n, chains) for r in range(chains)]
    chain_nodes = [nodes for nodes in chain_nodes if nodes.size]
    # each node's rows from its chain's leftmost node
    steps = [(nodes - nodes[0]) // chains * stride for nodes in chain_nodes]
    big_ns = [_within_cap(int(np.max(st + needed[nodes]))) for nodes, st in zip(chain_nodes, steps)]
    # the window of the chain whose first node is s is the lattice nodes 2s / c + (chains / c) i
    c = math.gcd(2, chains)
    first, skip = [2 * int(nodes[0]) // c for nodes in chain_nodes], chains // c
    size = max(j + skip * 2 * big_n for j, big_n in zip(first, big_ns)) + 1
    rows = kernel(2.0 * x[0] + np.arange(size) * (c * delta / chains))
    margin = 1.0
    for nodes, st, j, big_n in zip(chain_nodes, steps, first, big_ns):
        sizes[nodes] = big_n - st + 1
        h0_rev, h1_rev = rows[:, j:j + skip * 2 * big_n + 1:skip][:, ::-1]
        w0 = em_weights(big_n, delta, order=6)          # symmetric, so J w0 = w0
        core = np.empty((big_n + 1, big_n + 1), order="F")
        np.multiply(_hankel(h0_rev, big_n + 1), w0[None, :], out=core)
        core[np.diag_indices(big_n + 1)] += 1.0
        lu, piv = lu_factor(core, overwrite_a=True)
        if np.any(piv != np.arange(big_n + 1)):
            raise DiscretizationFailureError(
                "the reversed GLM core needed a row interchange; its leading blocks "
                "do not factor the nodes' systems")
        # log u_ii summed along the diagonal; each negative pivot adds i pi
        log_u = np.concatenate([[0.0], np.cumsum(np.log(np.diagonal(lu).astype(complex)))])
        pivots, k = np.abs(np.diagonal(lu)), sizes[nodes] - _EM_END - 1
        pivots = np.minimum.accumulate(pivots)[k] / np.maximum.accumulate(pivots)[k]
        if t == 0.0:
            g[nodes], log_det[nodes], sigma = _chain_t0(poles, x[nodes], ks, delta, sizes[nodes],
                                                        lu, log_u, w0)
        else:
            g[nodes], log_det[nodes], gx[nodes], q[nodes], sigma = _chain_t(
                poles, t, x[nodes], ks, delta, sizes[nodes], lu, log_u, w0, h1_rev)
        inv_gamma = _resonance_border(poles, x[nodes], t)[2]     # sigma = -inv_gamma - row.z
        border = np.abs(sigma) / (inv_gamma + np.abs(sigma + inv_gamma))
        margin = min(margin, float(np.min(np.minimum(pivots, border))))
    solved = np.r_[0:window:chains, window:n]
    return PlaneJost(solved, g[solved], None if gx is None else gx[solved],
                     None if q is None else q[solved], log_det[solved], delta,
                     tuple(b + 1 for b in big_ns), sizes[solved], margin)


def _node_corners(lu, w0, k):
    """(ends, r, upper, corner) of the nodes whose leading m - 5 rows number k.

    ends holds each node's last five rows, r = w / w0 there and upper the
    factor's upper triangle on them.  The node's own end weights make its core
    A e_c = r_c L U e_c + (1 - r_c) e_c there: a rank-5 (Woodbury) update, A = L U'
    with U' e_c = r_c U e_c + (1 - r_c) L^{-1} e_c, whose 5 x 5 block on the
    ends is corner (L^{-1} e_c lies in it).
    """
    ends = k[:, None] + np.arange(_EM_END)                  # (nodes, 5)
    r = w0[-_EM_END:] / w0[ends]
    blk = lu[ends[:, :, None], ends[:, None, :]]
    l_inv_e = np.linalg.inv(np.tril(blk, -1) + np.eye(_EM_END))
    upper = np.triu(blk)
    return ends, r, upper, upper * r[:, None, :] + l_inv_e * (1.0 - r[:, None, :])


def _log_det(log_u, k, corner, sigma, log_gamma, s_row):
    """log det(I + H) = log det A + log(-sigma) + log Gamma - log s_row, as in `DetState.log_det`.

    det A is the product of the leading k diagonal entries of U and det(corner).
    All are real: the phase is pi for an odd count of negative factors, else 0.
    """
    sign, log_corner = np.linalg.slogdet(corner)
    negatives = np.rint(log_u[k].imag / np.pi) + (sign < 0) + (sigma > 0)
    return (log_u[k].real + log_corner + np.log(np.abs(sigma)) + log_gamma - np.log(s_row)
            + 1j * np.pi * (negatives % 2))


def _chain_functionals(poles, ks, delta, m, lu, w0, corners):
    """(p, d, Q, alpha, beta, c_end, q_e) of one chain's functionals c = alpha d (`_chain_t0`)."""
    (ends, r, upper, corner), n1, y = corners, lu.shape[0], poles.ystar
    rate = np.concatenate([[y], -1j * ks])                  # border row, then each momentum
    chain = np.exp(delta * (np.arange(n1) - 0.5 * (n1 - 1))[:, None] * rate)   # (rows, 1 + momenta)
    p = solve_triangular(lu, chain[:, 0].real, lower=True, unit_diagonal=True, check_finite=False)
    d = w0[:, None] * chain
    re_im = solve_triangular(lu, np.hstack([d.real, d.imag]), trans="T", check_finite=False)
    big_q = re_im[:, :rate.size] + 1j * re_im[:, rate.size:]
    off = delta * (m - 1 - 0.5 * (n1 - 1))                  # xi of each node's row i0
    alpha = np.exp(-off[:, None] * rate)
    c_end = w0[-_EM_END:, None] * np.exp(-delta * np.arange(_EM_END - 1, -1, -1)[:, None] * rate)
    top = d[ends] - np.einsum("nic,nij->ncj", upper, big_q[ends])
    q_e = np.linalg.solve(np.swapaxes(corner, 1, 2), c_end - r[:, :, None] * alpha[:, None, :] * top)
    return p, d, big_q, alpha, np.exp(-y * off), c_end, q_e


def _chain_t0(poles, x, ks, delta, m, lu, log_u, w0):
    """(g, log det(I + H), sigma) at every node of one t = 0 chain from its packed factor lu.

    Node c's core A = L U' is as in `_chain_t`, with k = m - 5 leading
    rows; sigma is its border's Schur complement.  Only functionals
    c^T A^{-1} b are read, for the border row c = s_row w ghat (s_row applied
    last) and the read-out c = w e^{ik xi} at each momentum:
      * the a column: its right-hand side is column m - 1 of H, so
        A a = (A - I) e_{m-1} / w_{m-1} and a = (e_{m-1} - A^{-1} e_{m-1}) / w_{m-1},
        where L^{-1} e_{m-1} = e_{m-1};
      * the z column: ghat = e^{-y xi} is beta = e^{-y delta (m-1-i0)} times
        the leading rows of the chain vector f_i = e^{y delta (i-i0)}, centred
        on i0 = (n1 - 1) / 2 to keep f within e^{+-0.23 M_OP_CAP / 2}.
    Each c is alpha d on rows i < k, a per-node scalar times the chain vector
    d = w0 e^{rate delta (i-i0)} (rate y for the border, -ik for each
    read-out), and c_end on the ends.  L and U^T are lower triangular, so
    p = L^{-1} f and Q = U^{-T} d serve every node by their leading rows:
    c^T A^{-1} b = alpha Q[:k].(L^{-1} b)[:k] + q_e.(L^{-1} b)[ends], with
    q_e = corner^{-T}(c_end - r alpha U[:k, ends]^T Q[:k]).  The prefix dots
    are one cumulative sum per chain, and U[:k, ends]^T Q[:k] is
    d[ends] - triu(U[ends, ends])^T Q[ends], since U^T Q = d.
    """
    k = m - _EM_END
    corners = _node_corners(lu, w0, k)
    log_gamma, s_row, s_inv_gamma = _resonance_border(poles, x, 0.0)
    p, _, big_q, alpha, beta, c_end, q_e = _chain_functionals(poles, ks, delta, m, lu, w0, corners)
    prefix = np.concatenate([np.zeros((1, alpha.shape[1])), np.cumsum(big_q * p[:, None], axis=0)])
    cz = beta[:, None] * (alpha * prefix[k] + np.einsum("ncj,nc->nj", q_e, p[corners[0]]))
    ca = (c_end[-1] - q_e[:, -1]) / w0[-1]
    # the border row is s_row times column 0's functionals
    sigma = -s_inv_gamma - s_row * cz[:, 0].real            # Schur complement of the border
    mu = s_row * (1.0 - ca[:, 0].real) / sigma
    return (ca[:, 1:] - mu[:, None] * cz[:, 1:],
            _log_det(log_u, k, corners[3], sigma, log_gamma, s_row), sigma)


def _chain_t(poles, t, x, ks, delta, m, lu, log_u, w0, h1_rev):
    """(g, log det(I + H), gx, q, sigma) at every node of one t > 0 chain from its packed factor lu.

    lu is overwritten by its two triangular inverses.  Node c's core is L U',
    U' = [[U_kk, U_ke r], [0, corner]] over its k = m - 5 leading rows and five
    ends (`_node_corners`), and a leading block of a triangular inverse is the
    inverse of that block, so each node is read off the inverses in O(m):
      * a and z as in `_chain_t0`, from A^{-1} e_{m-1} and U'^{-1} p[:m], whose
        leading rows are U_kk^{-1} p[:k] plus U^{-1}[:k, ends] U_ee r
        corner^{-1} (e_4 or p[ends]), as U_kk^{-1} U_ke = -U^{-1}[:k, ends] U_ee;
      * the derivative solve A a_x = b_x, b_x the FFT correlation -H_1 W v of the
        node's solution v, only through lambda^T b_x for lambda = A^{-T} c =
        alpha (Q^T L^{-1})[:k] + L^{-1}[ends, :m]^T q_e: the border row, the
        read-outs and e_{m-1} (q = 2 v_x(xi = 0)).
    Nodes go in slabs of sqrt(_SLAB_WORK / n1) rows l0 <= l < l1, in increasing k
    (OpenBLAS runs products that small on one thread, where it would stall): the
    sums over l < l0 in U_kk^{-1} p[:k] and (Q^T L^{-1})[:k] are carried, and
    the band [l0, l1 + 5) of rows and columns adds the rest and the ends.
    """
    n1, k, n = lu.shape[0], m - _EM_END, len(m)
    ends, r, upper, corner = corners = _node_corners(lu, w0, k)
    log_gamma, s_row, s_inv_gamma = _resonance_border(poles, x, t)
    p, d, big_q, alpha, beta, c_end, q_e = _chain_functionals(poles, ks, delta, m, lu, w0, corners)
    e_last = np.eye(_EM_END)[-1]
    q_e = np.concatenate([q_e, np.linalg.solve(np.swapaxes(corner, 1, 2), e_last[:, None])], axis=2)
    tail = np.linalg.solve(corner, np.stack([np.broadcast_to(e_last, ends.shape), p[ends]], axis=2))
    coef = np.matmul(upper * r[:, None, :], tail)            # U_ee r corner^{-1} (e_4, p[ends])
    dtrtri(lu, overwrite_c=1)
    dtrtri(lu, lower=1, unitdiag=1, overwrite_c=1)
    g, gx = np.empty((n, ks.size), complex), np.empty((n, ks.size), complex)
    q, sigma = np.empty(n), np.empty(n)
    # the sums over l < l0: U^{-1} diag(p) over columns, diag(Q) L^{-1} over rows
    col_p, row_r = np.zeros(n1), np.zeros((alpha.shape[1], n1), complex)
    slab = math.isqrt(_SLAB_WORK // n1)
    for l0 in range(0, int(k.max()), slab):
        l1, rows = min(l0 + slab, n1), min(l0 + slab + _EM_END, n1)
        band = np.arange(l0, rows)
        u_band = np.triu(lu[:rows, l0:rows], -l0)
        l_band = np.tril(lu[l0:rows, :rows], l0 - 1)
        l_band[band - l0, band] = 1.0
        js = np.flatnonzero((k > l0) & (k <= l1))
        if js.size:
            kk, mm, cols = k[js], m[js], np.arange(js.size)[:, None]
            i, e_js = np.arange(rows)[:, None], ends[js]
            lead = i < kk
            # (A^{-1} e_{m-1}, U'^{-1} p[:m]) from U^{-1}'s band columns, weighted by p and coef
            spread = np.zeros((2, band.size, js.size))
            spread[1] = np.where(band[:, None] < kk, p[band, None], 0.0)
            spread[:, e_js - l0, cols] = np.moveaxis(coef[js], 2, 0)
            sol = np.stack([u_band @ spread[0], u_band @ spread[1] + col_p[:rows, None]], axis=2)
            sol[e_js, cols] = tail[js]
            a = -sol[..., 0] / w0[-1]
            a[mm - 1, cols[:, 0]] += 1.0 / w0[-1]
            z = beta[js] * sol[..., 1]
            # c^T a and c^T z for each functional: alpha d on the leading rows, c_end on the ends
            fa, fz = (alpha[js] * ((v * lead).T @ d[:rows]) + v[e_js, cols] @ c_end for v in (a, z))
            sigma[js] = sg = -s_inv_gamma[js] - s_row[js] * fz[:, 0].real    # the border's Schur
            mu = s_row[js] * (1.0 - fa[:, 0].real) / sg
            w = np.where(lead, w0[:rows, None], 0.0)
            w[e_js, cols] = w0[-_EM_END:]                # the node's own end corrections
            # a_x v = 2 H(k1) diag(w) v: corr[i] = sum_l 2 h1_rev[i + l] (w v)[l], an FFT
            # correlation along the contiguous last axis: one row per node
            size = 2 * _fast_len((3 * rows - 1) // 2)
            corr = irfft(rfft(2.0 * h1_rev[:2 * rows - 1], size)
                         * rfft(np.ascontiguousarray((w * (a - mu * z))[::-1].T), size)
                         )[:, rows - 1:2 * rows - 1].T
            b_x = (2.0 * h1_rev[mm - 1 + i] - corr) * (i < mm)
            # lambda^T b_x: (L^{-1} b_x) on the band's rows, the carried rows l < l0 as row_r
            l_b = l_band @ b_x
            f_x = np.einsum("nef,ne->nf", q_e[js], l_b[e_js - l0, cols])
            f_x[:, :-1] += alpha[js] * (row_r[:, :rows] @ b_x
                                        + big_q[band].T @ np.where(band[:, None] < kk, l_b, 0.0)).T
            mux = (2.0 * poles.ystar * s_inv_gamma[js] * mu - s_row[js] * f_x[:, 0].real) / sg
            g[js] = fa[:, 1:] - mu[:, None] * fz[:, 1:]
            gx[js] = f_x[:, 1:-1] - mux[:, None] * fz[:, 1:]
            q[js] = 2.0 * (f_x[:, -1].real - mux * z[mm - 1, cols[:, 0]])     # xi = 0: last row
        col_p[:rows] += u_band[:, :l1 - l0] @ p[l0:l1]
        row_r[:, :rows] += big_q[l0:l1].T @ l_band[:l1 - l0]
    return g, _log_det(log_u, k, corner, sigma, log_gamma, s_row), gx, q, sigma
