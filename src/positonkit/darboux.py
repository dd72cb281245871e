"""Insertion and removal of embedded eigenvalues by the binary Darboux transformation.

Insertion: from generating functions phi_n(x) = -2 Re[R(omega_n)^{1/2} psi(x, omega_n)]
(square root cut along the negative reals; the overall sign is a convention and
drops out of every even combination; `generating_functions`) build the Gram matrix

    G(x)_{mn} = alpha_m alpha_n Integral(phi_m phi_n, -inf..x),

then q_new = q - 2 (log det(I + G))'' and eigenfunctions y solving
(I + G(x)) y = -(alpha_n phi_n).  Removal takes q - 2 (log det Gbar)'' with the
right Gram matrix Gbar(x) = Integral(y_m y_n, x..inf) of an orthonormal set of
eigenfunctions.  Both are one resolvent step (`_resolvent`, a Cholesky sweep
along the node axis) for a matrix M with M' = sign f f^T: f = (alpha_n phi_n)
and sign = +1 for M = I + G, f = y and sign = -1 for M = Gbar.  Its log-det
derivatives are evaluated analytically through the resolvent (no numerical
differencing):

    (log det M)'  = sign f . u,          u = M^{-1} f,
    (log det M)'' = sign 2 f' . u - (f . u)^2.

Cumulative integrals use a derivative-corrected trapezoid rule; the infinite
tails use the oscillatory tail model of `tails`.

Every field of N states is one real array of shape (N, n_points), a row per
state on the grid's nodes: the generating functions, the eigenfunctions and
their x-derivatives.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import scattering as sct
from .errors import (
    OrthonormalityError,
    PoleEvaluationError,
    PositonkitError,
    ValidationError,
)
from .schrodinger import (
    DEFAULT_RTOL,
    Grid,
    PotentialSpec,
    right_jost,
    write_csv,
)
from .tails import fit_oscillatory_tail

__all__ = [
    "EmbeddedStateSpec", "TransformResult", "RemovalResult",
    "generating_functions", "gram_plus", "insert_embedded", "chain_insert",
    "transformed_solutions", "greens_diagonal_transformed",
    "remove_embedded",
    "cumulative_corrected_trapezoid", "tail_closed_gram", "gauge_map", "single_state_step",
]

RESONANCE_TOL = 1e-8
TAIL_WINDOW = 20.0         # the Gram tails are fitted on this much of each end of the grid
EXTEND_LEFT = 25.0         # the Gram tail is fitted this far left of the output grid
PROBE_XS = (-3.0, -1.3, 0.6)   # where the insertion precheck takes psi


@dataclass
class EmbeddedStateSpec:
    """One embedded state to insert: momentum omega > 0, norming constant alpha != 0,
    and the (unimodular) reflection value at omega."""

    omega: float
    alpha: float
    r_at_omega: complex

    def __post_init__(self):
        if not (isinstance(self.omega, numbers.Real) and isinstance(self.alpha, numbers.Real)
                and isinstance(self.r_at_omega, numbers.Complex)):
            raise ValidationError(
                "embedded state requires real omega and alpha and a complex r_at_omega, got "
                f"({self.omega!r:.40}, {self.alpha!r:.40}, {self.r_at_omega!r:.40})")
        if not (math.isfinite(self.omega) and math.isfinite(self.alpha)
                and cmath.isfinite(self.r_at_omega)):
            raise ValidationError(
                "embedded state requires finite omega, alpha and r_at_omega, got "
                f"({self.omega}, {self.alpha}, {self.r_at_omega})")
        if not self.omega > 0:
            raise ValidationError("embedded state requires omega > 0")
        if self.alpha == 0:
            raise ValidationError("embedded state requires alpha != 0")
        mod = abs(self.r_at_omega)
        if abs(mod - 1.0) > RESONANCE_TOL:
            raise ValidationError(
                f"|R(omega)| = {mod:.12f} is not 1; omega={self.omega} is not a "
                "full-reflection momentum")
        r = self.r_at_omega / mod
        # snap tiny imaginary parts so the square-root branch is deterministic
        if abs(r.imag) < 1e-9:
            r = complex(math.copysign(1.0, r.real), 0.0)
        self.r_at_omega = r

    @property
    def root_r(self) -> complex:
        """R(omega)^{1/2} with the cut along (-inf, 0), argument in (-pi, pi]."""
        return complex(np.sqrt(complex(self.r_at_omega)))

    @classmethod
    def for_wvn_example(cls, rho: float, alpha: float, omega: float = 1.0):
        from . import wvn_example as wvn
        _, r, _ = wvn.scattering_closed(rho, omega)
        return cls(omega, alpha, r)


@dataclass
class TransformResult:
    """Output of an insertion: new potential, log det, and one row per state of
    the eigenfunctions y and generating functions phi on the grid.

    gram is the Gram matrix G(x) of `gram_plus` at the grid's nodes, shape
    (n_points, N, N), and tail_fits the left tail fits that closed it.  With
    y = -(I + G)^{-1} (alpha_n phi_n),

        phi_n + sum_m alpha_m y_m Integral(phi_n phi_m, -inf..x) = -y_n / alpha_n,

    so the regular branch of phi_+N at k = omega_n (continuous through the
    pole), -R(omega_n)^{1/2} times the left side, is R(omega_n)^{1/2} y_n / alpha_n,
    with x-derivative R(omega_n)^{1/2} y_x,n / alpha_n.
    """

    spec: PotentialSpec
    grid: Grid
    states: list
    q_seed: np.ndarray
    q_new: np.ndarray
    log_det: np.ndarray
    y: np.ndarray                  # (N, n_points) eigenfunctions
    y_x: np.ndarray
    phi: np.ndarray                # (N, n_points) generating functions
    phi_x: np.ndarray
    gram: np.ndarray               # (n_points, N, N)
    tail_fits: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def omegas(self) -> np.ndarray:
        return np.array([s.omega for s in self.states], dtype=float)

    def eigenfunction_norms(self) -> np.ndarray:
        """L2 norms of the eigenfunctions, grid quadrature plus fitted tails."""
        cum, left, right, _ = tail_closed_gram(self.grid.x, self.grid.spacing, self.y,
                                               self.y_x, self.omegas, right=True)
        return np.sqrt(np.diagonal(cum[-1] + left + right))

    def to_csv(self, path):
        header = "x,q_seed,q_new,log_det" + "".join(f",y_{i + 1}" for i in range(len(self.y)))
        write_csv(path, header, [self.grid.x, self.q_seed, self.q_new, self.log_det, *self.y])

    def meta(self) -> dict:
        return {
            "states": [{"omega": s.omega, "alpha": s.alpha,
                        "r_at_omega": [s.r_at_omega.real, s.r_at_omega.imag]}
                       for s in self.states],
            "grid": {"x_min": self.grid.x_min, "x_max": self.grid.x_max,
                     "n": self.grid.n_points},
            "tail_fits": [
                {"side": f.side, "s0": f.s0, "omega": f.omega, "theta": f.theta,
                 "amp": f.amp, "a": f.a, "b": f.b, "residual": f.residual,
                 "zero_tail": f.zero_tail}
                for f in self.tail_fits],
            "diagnostics": self.diagnostics,
        }


@dataclass
class RemovalResult:
    q_minus: np.ndarray
    log_det: np.ndarray
    orthonormality: np.ndarray


def cumulative_corrected_trapezoid(f, fp, h):
    """Cumulative integral from the first node, trapezoid + derivative correction.

    Per-interval rule h(f0+f1)/2 + h^2 (f0'-f1')/12, locally O(h^5); h is the
    nodes' spacing, a scalar or one per interval.
    """
    f = np.asarray(f)
    fp = np.asarray(fp)
    inc = 0.5 * h * (f[:-1] + f[1:]) + (h * h / 12.0) * (fp[:-1] - fp[1:])
    out = np.empty(f.shape[0], dtype=inc.dtype)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


def tail_closed_gram(x: np.ndarray, h, values, derivs, omegas, right: bool = False):
    """Tail-closed integrals of the products f_m f_l of real oscillatory fields.

    The fields are sampled at the ascending nodes x, whose spacing h is a scalar
    or one per interval (`cumulative_corrected_trapezoid`).
    Returns (cum, left, right_tail, fits): cum[:, m, l] is the corrected
    trapezoid integral of f_m f_l from x_min to each node, left[m, l] the
    (-inf, x_min] piece from the `TailFit` models fitted on the leftmost
    `TAIL_WINDOW`, right_tail[m, l] the [x_max, inf) piece when `right` is set
    (else None), and fits the left fits.  Callers combine the three pieces.
    """
    if x[0] + TAIL_WINDOW > 0.5 * (x[0] + x[-1]):
        raise ValidationError(
            f"the {TAIL_WINDOW}-unit tail window reaches past the midpoint of the grid "
            f"[{x[0]}, {x[-1]}]; the tails need a grid at least {2 * TAIL_WINDOW} long")
    n = len(values)
    windows = [("left", x <= x[0] + TAIL_WINDOW)]
    if right:
        windows.append(("right", x >= x[-1] - TAIL_WINDOW))
    fits = [[fit_oscillatory_tail(x[win], v[win], w, side) for v, w in zip(values, omegas)]
            for side, win in windows]
    cum = np.empty((len(x), n, n))
    tails = np.empty((len(windows), n, n))
    for m in range(n):
        for l in range(m, n):
            dprod = derivs[m] * values[l] + values[m] * derivs[l]
            cum[:, m, l] = cum[:, l, m] = cumulative_corrected_trapezoid(
                values[m] * values[l], dprod, h)
            for i, f in enumerate(fits):
                tails[i, m, l] = tails[i, l, m] = (f[m].self_integral() if m == l
                                                   else f[m].cross_integral(f[l]))
    return cum, tails[0], tails[1] if right else None, fits[0]


def generating_functions(spec: PotentialSpec, states: list, grid: Grid,
                         rtol: float = DEFAULT_RTOL):
    """Real generating functions phi_n = -2 Re[R(omega_n)^{1/2} psi(., omega_n)] and phi_n'.

    One right Jost solve serves the momenta of all states; each of phi and
    phi_x has one row per state, shape (N, n_points).  The minus sign is this
    artifact's convention; it makes phi equal to +2 sin(x) on the right tail
    of the explicit example.  The right tail obeys phi ~ (+-)2 cos(omega x + arg R / 2).
    """
    psi, psi_x = right_jost(spec, np.array([s.omega for s in states], dtype=float), grid,
                            rtol=rtol)
    roots = np.array([s.root_r for s in states], dtype=complex)[:, None]
    return -2.0 * np.real(roots * psi), -2.0 * np.real(roots * psi_x)


def _rows(grid: Grid, omegas, *fields):
    """omegas as a 1-d float array and each field as a float array of one row per omega
    on the grid's nodes; any other shape, or omegas closer than 1e-12, raises ValidationError."""
    omegas = np.asarray(omegas, dtype=float)
    fields = [np.asarray(f, dtype=float) for f in fields]
    shape = (omegas.size, grid.n_points)
    if omegas.ndim != 1 or any(f.shape != shape for f in fields):
        raise ValidationError(f"need fields of shape {shape}: one row per omega on the grid")
    _check_apart(omegas)
    return omegas, fields


def gram_plus(phi, phi_x, omegas, alphas, grid: Grid):
    """Gram matrix field G(x)_{mn} = alpha_m alpha_n Integral(phi_m phi_n, -inf..x).

    phi and phi_x hold one real row per momentum omega_n, the omega of its
    tail model, on the grid's nodes.  The (-inf, x_min] piece comes from that
    oscillatory model fitted on the leftmost `TAIL_WINDOW` of the grid; it is
    G[0], where the cumulative part is 0.  Returns (G, fits): G of shape
    (n_points, N, N) and the left tail fits.
    """
    omegas, (phi, phi_x) = _rows(grid, omegas, phi, phi_x)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape != omegas.shape:
        raise ValidationError("need one alpha per phi")
    cum, left, _, fits = tail_closed_gram(grid.x, grid.spacing, phi, phi_x, omegas)
    weights = np.outer(alphas, alphas)
    return weights * (cum + left), fits


def _resolvent(mats, f, f_x, sign, singular):
    """log det M and its resolvent traces at every node, for M' = sign f f^T.

    mats: (n_points, N, N); f, f_x: (N, n_points).  One Cholesky sweep, a loop
    over the entries of M whose every operation is a vector over the nodes
    (the factor L is node-last, (N, N, n_points)), gives log det M as the sum
    of the logs of the pivots L_jj^2, and M^{-1} [f, f_x] by two substitutions.
    A node whose pivot is not > 0 (NaN included) is not positive definite,
    and raises singular, the caller's error, before any division.  Returns
    (log det M, (log det M)'' = sign 2 f_x . M^{-1} f - (f . M^{-1} f)^2,
    M^{-1} f, M^{-1} f_x, f . M^{-1} f), the vectors of shape (N, n_points).
    """
    n = len(f)
    a = np.moveaxis(mats, 0, -1)
    low = np.zeros(a.shape)
    log_det = np.zeros(a.shape[-1])
    for j in range(n):
        pivot = a[j, j] - np.einsum("kp,kp->p", low[j, :j], low[j, :j])
        if not np.all(pivot > 0):
            raise singular
        log_det += np.log(pivot)
        low[j, j] = np.sqrt(pivot)
        for i in range(j + 1, n):
            low[i, j] = (a[i, j] - np.einsum("kp,kp->p", low[i, :j], low[j, :j])) / low[j, j]
    sol = np.stack([f, f_x], axis=1)                    # (N, 2, n_points)
    for i in range(n):                                  # L z = [f, f_x]
        sol[i] = (sol[i] - np.einsum("kp,ksp->sp", low[i, :i], sol[:i])) / low[i, i]
    for i in reversed(range(n)):                        # L^T [u, w] = z
        sol[i] = (sol[i] - np.einsum("kp,ksp->sp", low[i + 1:, i], sol[i + 1:])) / low[i, i]
    u, w = sol[:, 0], sol[:, 1]
    jay = np.einsum("ip,ip->p", f, u)
    dd2 = 2.0 * sign * np.einsum("ip,ip->p", f_x, u) - jay**2
    return log_det, dd2, u, w, jay


def _check_apart(omegas):
    # the cross tail integrals divide by omega_m - omega_n
    if np.any(np.diff(np.sort(omegas)) < 1e-12):
        raise ValidationError("embedded momenta must be at least 1e-12 apart")


def _check_insertion_preconditions(spec, states):
    """Full reflection at each omega, and continuity of psi there.

    One right Jost solve (`scattering.resonance_probes`) gives both: R at
    every state's resonance momenta, read at the scattering Wronskians'
    X_EVAL, and psi at PROBE_XS over every state's `residue_stencil`, the
    momenta `residue_at` samples.
    """
    omegas = np.array([s.omega for s in states], dtype=float)
    r_res, psi = sct.resonance_probes(spec, omegas, PROBE_XS)
    for omega, r in zip(omegas, r_res):
        if abs(abs(r) - 1.0) > 1e-6:
            raise ValidationError(
                f"omega={omega} is not a full-reflection momentum of this potential "
                f"(|R|={abs(r):.8f})")
    for omega, psi_n in zip(omegas, psi):
        # the family's values at the stencil were solved above
        if sct.residue_at(omega, lambda ks, psi_n=psi_n: psi_n).classification != "regular":
            raise ValidationError(
                f"right Jost solution is singular at omega={omega}; "
                "insertion requires continuity there")


def _extended_grid(grid: Grid) -> tuple[Grid, int]:
    h = grid.spacing
    n_ext = int(math.ceil(EXTEND_LEFT / h))
    ext = Grid(grid.x_min - n_ext * h, grid.x_max, grid.n_points + n_ext)
    return ext, n_ext


def insert_embedded(spec: PotentialSpec, states: list, grid: Grid,
                    check_preconditions: bool = True,
                    rtol: float = DEFAULT_RTOL) -> TransformResult:
    """Insert embedded eigenvalues omega_n^2 into the potential.

    q_new = q - 2 d^2/dx^2 log det(I + G(x)); both derivatives are evaluated
    analytically through the resolvent.  The computation runs on a grid
    extended to the left of the requested one so the Gram tail is fitted in
    the asymptotic region; results are restricted to `grid`.
    """
    states = list(states)
    _check_apart([s.omega for s in states])
    q0 = np.asarray(spec.evaluate(grid.x), dtype=float)
    if not states:
        none = np.zeros((0, grid.n_points))
        return TransformResult(spec, grid, [], q0, q0.copy(), np.zeros(grid.n_points),
                               none, none, none, none, np.zeros((grid.n_points, 0, 0)))
    if check_preconditions:
        _check_insertion_preconditions(spec, states)
    ext, n_ext = _extended_grid(grid)
    phi, phi_x = generating_functions(spec, states, ext, rtol=rtol)
    alphas = np.array([s.alpha for s in states])
    gram, fits = gram_plus(phi, phi_x, [s.omega for s in states], alphas, ext)
    lost = PositonkitError("det(I + G) < 1: Gram accumulation lost positivity")
    log_det, dd2, u, w, jay = _resolvent(np.eye(len(states)) + gram, alphas[:, None] * phi,
                                         alphas[:, None] * phi_x, 1.0, lost)
    if np.any(log_det < -1e-10):
        raise lost
    y = -u
    y_x = -(y * jay) - w

    sl = slice(n_ext, None)
    return TransformResult(spec, grid, states, q0, q0 - 2.0 * dd2[sl], log_det[sl],
                           y[:, sl], y_x[:, sl], phi[:, sl], phi_x[:, sl], gram[sl], fits,
                           diagnostics={"extend_left": EXTEND_LEFT,
                                        "tail_window": TAIL_WINDOW})


def single_state_step(alpha, phi, phi_x, big_i):
    """One-state Darboux step from phi, phi' and I = Integral(phi^2, -inf..x).

    Returns (u, y, y', dq): u = 1 + alpha^2 I, the normalized eigenfunction
    y = -alpha phi / u with y' = -alpha phi'/u + alpha^3 phi^3/u^2, and the
    potential increment dq = -2 (log u)'' = -2 (2 alpha^2 phi phi'/u - (alpha^2 phi^2/u)^2).
    """
    a2 = alpha * alpha
    u = 1.0 + a2 * big_i
    y = -alpha * phi / u
    y_x = -alpha * phi_x / u + alpha * a2 * phi**3 / u**2
    jay = a2 * phi * phi / u
    dq = -2.0 * (2.0 * a2 * phi * phi_x / u - jay * jay)
    return u, y, y_x, dq


def chain_insert(spec: PotentialSpec, states: list, grid: Grid,
                 check_preconditions: bool = True) -> TransformResult:
    """Insert the states one at a time through the single-state recurrence.

    Each step transforms the remaining generating functions,
    phi_j <- phi_j + alpha_n y_n Integral(phi_n phi_j, -inf..x), which is the
    gauge transform of psi(., omega_j) evaluated at the new potential, and adds
    -2 d^2/dx^2 log(1 + alpha_n^2 Integral(phi_n^2)) to the potential.
    """
    states = list(states)
    _check_apart([s.omega for s in states])
    if check_preconditions and states:
        _check_insertion_preconditions(spec, states)
    ext, n_ext = _extended_grid(grid)
    phi, phi_x = generating_functions(spec, states, ext)
    cur_v, cur_d = phi.copy(), phi_x.copy()
    y, y_x = np.empty_like(phi), np.empty_like(phi)
    omegas = [s.omega for s in states]
    q = np.asarray(spec.evaluate(ext.x), dtype=float)
    q0 = q.copy()
    log_det_total = np.zeros(ext.n_points)
    for n, s in enumerate(states):
        a = s.alpha
        # row 0: the integrals of phi_n against itself and the remaining phi_j
        cum, left, _, _ = tail_closed_gram(ext.x, ext.spacing, cur_v[n:], cur_d[n:], omegas[n:])
        u, y[n], y_x[n], dq = single_state_step(a, cur_v[n], cur_d[n], left[0, 0] + cum[:, 0, 0])
        log_det_total += np.log(u)
        q = q + dq
        hcum = left[0, 1:, None] + cum[:, 0, 1:].T
        cur_d[n + 1:] += a * (y_x[n] * hcum + y[n] * cur_v[n] * cur_v[n + 1:])
        cur_v[n + 1:] += a * y[n] * hcum
    sl = slice(n_ext, None)
    return TransformResult(spec, grid, states, q0[sl], q[sl], log_det_total[sl],
                           y[:, sl], y_x[:, sl], phi[:, sl], phi_x[:, sl],
                           np.zeros((grid.n_points, 0, 0)), diagnostics={"method": "chain"})


def gauge_map(values, derivs, k, terms):
    """The Darboux gauge map psi -> psi + sum_n alpha_n y_n W(psi, phi_n)/(k^2 - omega_n^2).

    values, derivs: psi and psi' at momentum k, on a grid or at one point;
    terms: one (alpha, omega, y, y', phi, phi') per state, sampled where psi is.
    Returns the mapped (psi, psi').
    """
    v = np.asarray(values, dtype=complex)
    d = np.asarray(derivs, dtype=complex)
    for alpha, omega, y, yd, fv, fd in terms:
        denom = k * k - omega**2
        ay, ayd = alpha * y, alpha * yd
        w = values * fd - derivs * fv
        v = v + ay * w / denom
        d = d + (ayd * w / denom + ay * values * fv)
    return v, d


def _gauge_terms(result: TransformResult) -> list:
    """The (alpha, omega, y, y', phi, phi') of each state of a transform, for gauge_map."""
    return [(s.alpha, s.omega, *rows) for s, *rows in
            zip(result.states, result.y, result.y_x, result.phi, result.phi_x)]


def transformed_solutions(result: TransformResult, k):
    """Transformed pair (phi_+N, psi_+N) at the momenta k on the result grid.

    Both are the gauge map (`gauge_map`) of the seed's pair: psi is the right
    Jost solution and phi = T(k) `scattering.left_reference`, the seed's left
    Jost solution times its transmission coefficient, at every k.  An array k
    gives one row per momentum, and the momenta share each solve.  Returns
    ((phi, phi_x), (psi, psi_x)) on the grid's nodes, each of shape
    k.shape + (n_points,).  Evaluation exactly at k = +-omega_n raises: the
    residue there comes from `scattering.residue_at`, and the regular branch
    of phi_+N is R(omega_n)^{1/2} y_n / alpha_n (`TransformResult`).
    """
    grid = result.grid
    spec = result.spec
    kk = np.asarray(k)[..., None]          # momenta against the grid's nodes
    at_pole = np.any(np.abs(kk * kk - result.omegas**2) < 1e-12, axis=-1)
    if np.any(at_pole):
        k_pole = np.atleast_1d(k)[np.atleast_1d(at_pole)][0]
        raise PoleEvaluationError(
            f"psi_+N has a pole at k={k_pole}; use residue_at for the residue; the "
            "regular branch of phi_+N there is R(omega_n)^(1/2) y_n / alpha_n", k=k_pole)
    psi, psi_x = right_jost(spec, k, grid)
    t_val = np.asarray(sct.scattering_coefficients(spec, k)[1])[..., None]
    lv, ld = sct.left_reference(spec, k, grid.x)
    terms = _gauge_terms(result)
    return gauge_map(t_val * lv, t_val * ld, kk, terms), gauge_map(psi, psi_x, kk, terms)


def greens_diagonal_transformed(result: TransformResult, k: complex, x: float) -> complex:
    """Diagonal Green's function of the transformed potential, -phi_+N psi_+N / 2ik, at x.

    x is read at a node of the result grid; an x off its nodes raises ValidationError.
    """
    _, j, on = result.grid.index(x)
    if not on[0]:
        raise ValidationError(f"the Green's function is read at the grid's nodes, not x = {x}")
    (phi, _), (psi, _) = transformed_solutions(result, k)
    return complex(-phi[j[0]] * psi[j[0]] / (2j * k))


def remove_embedded(q_samples, y, y_x, omegas, grid: Grid,
                    ortho_tol: float = 1e-6) -> RemovalResult:
    """Remove embedded eigenvalues given an orthonormal set of eigenfunctions.

    q_samples holds q at the grid's nodes; y and y_x hold one real
    eigenfunction and its derivative per momentum omega_n, the omega of its
    tail model, on the grid's nodes.
    q_minus = q - 2 d^2/dx^2 log det(Gbar(x)) with Gbar(x) = Integral(y_m y_n, x..inf),
    which equals I - G_-(x) by orthonormality.  Gbar is positive definite for
    every finite x; a node where its Cholesky factor fails (a pivot not > 0),
    like a set that is not orthonormal, raises OrthonormalityError.
    """
    q = np.asarray(q_samples, dtype=float)
    if q.shape != (grid.n_points,):
        raise ValidationError("q samples must align with the grid")
    omegas, (yv, yd) = _rows(grid, omegas, y, y_x)
    n = omegas.size
    if n == 0:
        return RemovalResult(q.copy(), np.zeros(grid.n_points), np.zeros((0, 0)))
    cum, left, right, _ = tail_closed_gram(grid.x, grid.spacing, yv, yd, omegas, right=True)
    ortho = left + cum[-1] + right
    gbar = right + (cum[-1] - cum)
    dev = np.max(np.abs(ortho - np.eye(n)))
    if dev > ortho_tol:
        raise OrthonormalityError(
            f"eigenfunctions are not orthonormal within {ortho_tol} (deviation {dev:.3e})")
    log_det, dd2, *_ = _resolvent(gbar, yv, yd, -1.0, OrthonormalityError(
        "right Gram matrix lost positive definiteness"))
    return RemovalResult(q - 2.0 * dd2, log_det, ortho)
