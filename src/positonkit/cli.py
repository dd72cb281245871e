"""Command-line front end: scattering scans, insertion/removal, KdV evolution,
and the closed-form verification battery for the explicit example.

All runs are driven by a JSON config (single source of truth); outputs are a
CSV file plus a .meta.json sidecar holding the fully resolved configuration,
package versions and convergence diagnostics, so every output is reproducible
from its sidecar alone.  Exit codes: 0 success, 1 verification failures,
2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, darboux, kdv, scattering, wvn_example as wvn
from .errors import PositonkitError, ValidationError
from .schrodinger import Grid, PotentialSpec, count_ode_work

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERICAL = 3

FMT = "%.17g"


def _write_csv(path, header, columns):
    data = np.column_stack(columns)
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt=FMT)


def _write_meta(prefix, config, diagnostics):
    meta = {
        "config": config,
        "versions": {"positonkit": __version__, "numpy": np.__version__},
        "diagnostics": diagnostics,
    }
    with open(f"{prefix}.meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def _grid_from(cfg) -> Grid:
    g = cfg.get("grid", {})
    try:
        return Grid(float(g["x_min"]), float(g["x_max"]), _integer(g["n"], "grid n"))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValidationError(f"invalid grid config: {exc}")


def _potential_from(cfg) -> PotentialSpec:
    pot = cfg.get("potential")
    if not isinstance(pot, dict):
        raise ValidationError("config requires a 'potential' object")
    return PotentialSpec.from_json(pot)


def _finite(value, name) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        out = math.nan
    if not math.isfinite(out):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return out


def _integer(value, name) -> int:
    """value as an int; a fractional, non-finite or non-numeric value is rejected."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return value


def _k_grid_from(cfg) -> np.ndarray:
    """Momenta of the scatter scan: n points on [k_min, k_max] minus k ~ 0 and the exclusions."""
    kg = cfg.get("k_grid", {})
    if not isinstance(kg, dict):
        raise ValidationError("config requires a 'k_grid' object")
    k_min, k_max = _finite(kg["k_min"], "k_min"), _finite(kg["k_max"], "k_max")
    n = _integer(kg["n"], "k_grid n")
    if n < 2 or not (k_min < k_max):
        raise ValidationError("k_grid requires k_min < k_max and an integer n >= 2")
    try:
        exclusions = [(_finite(c, "exclusion centre"), _finite(r, "exclusion radius"))
                      for c, r in kg.get("exclusions", [])]
    except (TypeError, ValueError):
        raise ValidationError("k_grid exclusions must be [centre, radius] pairs")
    ks = np.linspace(k_min, k_max, n)
    keep = np.abs(ks) > 1e-3
    for c, r in exclusions:
        keep &= np.abs(ks - c) > r
    return ks[keep]


def _states_from(cfg, spec) -> list:
    states = cfg.get("states", [])
    if not isinstance(states, list) or not all(isinstance(s, dict) for s in states):
        raise ValidationError("'states' must be a list of objects")
    out = []
    for s in states:
        omega = _finite(s["omega"], "omega")
        alpha = _finite(s["alpha"], "alpha")
        if "r_at_omega" in s:
            r = s["r_at_omega"]
            if not isinstance(r, list) or len(r) != 2:
                raise ValidationError(f"r_at_omega must be a [re, im] pair, got {r!r}")
            r = complex(_finite(r[0], "Re r_at_omega"), _finite(r[1], "Im r_at_omega"))
            out.append(darboux.EmbeddedStateSpec(omega, alpha, r))
        elif spec.kind == "wvn_example":
            out.append(darboux.EmbeddedStateSpec.for_wvn_example(spec.rho, alpha, omega))
        else:
            raise ValidationError("state requires r_at_omega for this potential kind")
    return out


def _ode_tolerances_from(cfg) -> tuple:
    """(rtol, atol) of the insertion's ODE solves; None keeps the default."""
    tol = cfg.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ValidationError("'tolerances' must be an object")
    out = []
    for name in ("ode_rtol", "ode_atol"):
        value = tol.get(name)
        if value is not None:
            value = _finite(value, name)
            if value <= 0:
                raise ValidationError(f"{name} must be positive, got {value!r}")
        out.append(value)
    return tuple(out)


def _times_from(cfg) -> list:
    time = cfg.get("time", {})
    t_values = time.get("t_values", [0.0]) if isinstance(time, dict) else None
    if not isinstance(t_values, list) or not t_values:
        raise ValidationError("'time' must be an object whose t_values is a non-empty list")
    return [_finite(t, "t") for t in t_values]


def cmd_scatter(cfg, prefix):
    spec = _potential_from(cfg)
    ks = _k_grid_from(cfg)
    with count_ode_work() as work:
        rs, ts = scattering.scattering_coefficients(spec, ks)
    _write_csv(f"{prefix}.csv", "k,R_re,R_im,T_re,T_im",
               [ks, rs.real, rs.imag, ts.real, ts.imag])
    unit = float(np.max(np.abs(np.abs(rs) ** 2 + np.abs(ts) ** 2 - 1.0))) if len(ks) else 0.0
    _write_meta(prefix, cfg, {"n_k": len(ks), "max_unitarity_defect": unit,
                              "ode_solves": work.solves, "ode_nfev": work.nfev})
    return EXIT_OK


def cmd_insert(cfg, prefix):
    spec = _potential_from(cfg)
    grid = _grid_from(cfg)
    states = _states_from(cfg, spec)
    rtol, atol = _ode_tolerances_from(cfg)
    res = darboux.insert_embedded(spec, states, grid, rtol=rtol, atol=atol)
    res.to_csv(f"{prefix}.csv")
    diag = res.meta()
    if states:
        diag["eigenfunction_norms"] = res.eigenfunction_norms().tolist()
    _write_meta(prefix, cfg, diag)
    return EXIT_OK


def cmd_remove(cfg, prefix):
    """Insert the configured states, then remove them again (round trip)."""
    spec = _potential_from(cfg)
    grid = _grid_from(cfg)
    states = _states_from(cfg, spec)
    res = darboux.insert_embedded(spec, states, grid)
    rem = darboux.remove_embedded(res.q_new, res.y_fields, grid,
                                  omegas=[s.omega for s in states])
    _write_csv(f"{prefix}.csv", "x,q_seed,q_plus,q_removed",
               [grid.x, res.q_seed, res.q_new, rem.q_minus])
    _write_meta(prefix, cfg, {
        "round_trip_max_error": float(np.max(np.abs(rem.q_minus - res.q_seed))),
        "orthonormality": rem.orthonormality.tolist(),
    })
    return EXIT_OK


def cmd_evolve(cfg, prefix):
    spec = _potential_from(cfg)
    if spec.kind != "wvn_example":
        raise ValidationError("evolve supports the explicit example family")
    grid = _grid_from(cfg)
    states = _states_from(cfg, spec)
    if len(states) > 1:
        raise ValidationError("evolve handles at most one embedded state")
    t_values = _times_from(cfg)
    params = wvn.ExampleParams(spec.rho, states[0].alpha if states else 1.0)
    cols_x, cols_t, cols_q, cols_qp = [], [], [], []
    diags = {}
    for t in t_values:
        state = kdv.EvolvedState(t, params)
        # q at t > 0 from the GLM solves of a plane (the phi-plane, or without a
        # state the output grid itself); at t = 0 from resolvent traces
        if states:
            n = int(math.ceil((grid.x_max + 45.0) / grid.spacing)) + 1
            pg = Grid(grid.x_max - (n - 1) * grid.spacing, grid.x_max, n)
            plane = kdv.evolved_phi_plane(state, pg)
            q = plane.q_at(grid.x)
            q_plus = q + kdv.insertion_term(plane, states[0].alpha, grid.x)
        elif t > 0:
            plane = state.glm_plane(grid.x)
            q = q_plus = plane.q
        else:
            q = q_plus = np.array([kdv.dyson_q(state, float(x)) for x in grid.x])
        cols_x.append(grid.x)
        cols_t.append(np.full(grid.n_points, t))
        cols_q.append(q)
        cols_qp.append(q_plus)
        # sizes actually used: mn + 1 of the operator systems, the t > 0 plane's
        # factorizations and its kernel table
        diag = {"operator_points_min": min(state.operator_sizes, default=None),
                "operator_points_max": max(state.operator_sizes, default=None),
                "q_source": "plane_glm" if t > 0 else "trace"}
        if states:
            diag["plane_tail_fit_residual"] = float(plane.tail_fit.residual)
        if t > 0:
            diag["plane_operator_spacing"] = plane.delta
            diag["plane_chains"] = len(plane.factor_points)
            diag["plane_factor_points"] = list(plane.factor_points)
            tab = state.kernel()
            diag["kernel_u_points"] = len(tab.u_grid)
            diag["kernel_contour_points"] = {name: len(nodes)
                                             for name, (_, nodes, _) in tab.sides.items()}
        diags[f"t={t}"] = diag
    _write_csv(f"{prefix}.csv", "x,t,q,q_plus",
               [np.concatenate(c) for c in (cols_x, cols_t, cols_q, cols_qp)])
    _write_meta(prefix, cfg, diags)
    return EXIT_OK


def _verify_checks(rho, alpha):
    """Closed-form/numeric cross-checks of the explicit example; yields rows."""
    spec = PotentialSpec.wvn_example(rho)
    par = wvn.ExampleParams(rho, alpha)

    def row(name, value, tol):
        return (name, value, tol, value <= tol)

    # tau and potential basics
    xs = np.linspace(-30, 30, 2001)
    yield row("tau-lower-bound", float(np.max(1.0 - wvn.tau(rho, xs))), 0.0)
    yield row("tau-evenness", float(np.max(np.abs(wvn.tau(rho, xs) - wvn.tau(rho, -xs)))), 1e-14)
    yield row("seed-vanishes-right", abs(float(wvn.q_seed(rho, 3.7))), 0.0)

    # closed-form scattering algebra
    ks = np.linspace(0.2, 3.0, 200)
    tvals, rvals = [], []
    for k in ks:
        t, r, _ = wvn.scattering_closed(rho, k)
        tvals.append(t)
        rvals.append(r)
    unit = float(np.max(np.abs(np.abs(np.array(rvals))**2 + np.abs(np.array(tvals))**2 - 1)))
    yield row("reflection-unitarity-closed", unit, 1e-12)
    _, r1, _ = wvn.scattering_closed(rho, 1.0)
    yield row("full-reflection-at-resonance", abs(r1 + 1.0), 1e-12)

    # numeric scattering against closed forms
    errs = []
    ks = np.array([0.5, 1.7, 2.6])
    for k, r_num, t_num in zip(ks, *scattering.scattering_coefficients(spec, ks)):
        t_cl, r_cl, _ = wvn.scattering_closed(rho, k)
        errs.append(max(abs(r_num - r_cl), abs(t_num - t_cl)))
    yield row("numeric-scattering-match", float(max(errs)), 1e-6)
    r_res = scattering.reflection_at_resonance(spec, 1.0)
    yield row("numeric-full-reflection", abs(abs(r_res) - 1.0), 1e-6)

    # Jost solution against direct integration
    from .schrodinger import right_jost
    g = Grid(-12.0, 2.0, 1401)
    for k in (1.5, 1.0):
        psi = right_jost(spec, k, g)
        vc, _ = wvn.right_jost_closed(rho, g.x, k)
        yield row(f"jost-integration-match-k={k}", float(np.max(np.abs(psi.values - vc))), 1e-6)

    # insertion against the closed form
    grid = Grid(-20.0, 20.0, 2001)
    st = darboux.EmbeddedStateSpec.for_wvn_example(rho, alpha)
    res = darboux.insert_embedded(spec, [st], grid, check_preconditions=False)
    qc = wvn.q_plus1(rho, alpha, grid.x)
    yield row("insertion-closed-form-match", float(np.max(np.abs(res.q_new - qc))), 1e-6)
    yield row("eigenfunction-norm-one", abs(res.eigenfunction_norms()[0] - 1.0), 1e-6)

    # norming constant from the residue of the transformed Jost solution
    def fam(k):
        _, psi_n = darboux.transformed_solutions(res, k)
        return psi_n
    rr = scattering.residue_at(1.0, fam, delta0=1e-2)
    cum, left, right, _ = darboux.tail_closed_gram(
        grid, [np.real(rr.residue.values)], [np.real(rr.residue.derivs)], [1.0], right=True)
    norm = math.sqrt(cum[-1, 0, 0] + left[0, 0] + right[0, 0])
    yield row("residue-norming-constant", abs(norm - abs(alpha)), 1e-4)

    # transformed pair Wronskian: W(psi_+1, phi_+1) = -2ik
    phi_n, psi_n = darboux.transformed_solutions(res, 1.7)
    wr = psi_n.wronskian_with(phi_n, 3.1)
    yield row("transformed-wronskian", abs(wr + 2j * 1.7), 1e-6)

    # removal round trip
    rem = darboux.remove_embedded(res.q_new, res.y_fields, grid, omegas=[1.0])
    yield row("removal-round-trip", float(np.max(np.abs(rem.q_minus - res.q_seed))), 1e-6)

    # positon/soliton satisfy the PDE
    hx, ht = 1e-2, 1e-3
    xs2 = np.arange(-8.0, 8.0 + hx / 2, hx)
    u_sol = np.array([wvn.soliton_closed(xs2, tt) for tt in (np.arange(5) - 2) * ht])
    yield row("soliton-pde-residual", kdv.kdv_residual(u_sol, hx, ht), 1e-4)
    tts = 0.002 + (np.arange(5) - 2) * ht
    u_pos = np.array([wvn.positon_closed(xs2, tt) for tt in tts])
    mask = np.abs(xs2[None, :] - np.array([wvn.positon_singularity(tt) for tt in tts])[:, None]) > 1.0
    yield row("positon-pde-residual", kdv.kdv_residual(u_pos, hx, ht, mask=mask), 1e-4)



def cmd_verify_example(cfg, prefix):
    rho = float(cfg.get("rho", 2.0))
    alpha = float(cfg.get("alpha", 1.0))
    rows = list(_verify_checks(rho, alpha))
    width = max(len(r[0]) for r in rows) + 2
    n_fail = 0
    for name, value, tol, ok in rows:
        status = "PASS" if ok else "FAIL"
        if not ok:
            n_fail += 1
        print(f"{status}  {name:<{width}} value={value:.3e}  tol={tol:.1e}")
    print(f"{len(rows) - n_fail}/{len(rows)} checks passed (rho={rho}, alpha={alpha})")
    if prefix:
        _write_meta(prefix, cfg, {
            "checks": [{"name": n, "value": v, "tol": t, "passed": bool(ok)}
                       for n, v, t, ok in rows]})
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILED


COMMANDS = {
    "scatter": cmd_scatter,
    "insert": cmd_insert,
    "remove": cmd_remove,
    "evolve": cmd_evolve,
    "verify-example": cmd_verify_example,
}


def _report_error(kind, exc, code) -> int:
    """Print the one-line JSON error record and return the exit code."""
    print(json.dumps({"error": {"kind": kind, "message": str(exc)}}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="positonkit",
        description="Embedded eigenvalues, Darboux transformations, and bounded positons.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--output", default="positonkit_run", help="output path prefix")
    parser.add_argument("--rho", type=float, help="verify-example: tau slope")
    parser.add_argument("--alpha", type=float, help="verify-example: norming constant")
    args = parser.parse_args(argv)

    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return _report_error("config", exc, EXIT_BAD_CONFIG)
        if not isinstance(cfg, dict):
            return _report_error("config", "the config must be a JSON object", EXIT_BAD_CONFIG)
    if args.rho is not None:
        cfg["rho"] = args.rho
    if args.alpha is not None:
        cfg["alpha"] = args.alpha

    try:
        return COMMANDS[args.command](cfg, args.output)
    except np.linalg.LinAlgError as exc:   # a ValueError, but a numerical failure
        return _report_error("numerical", exc, EXIT_NUMERICAL)
    except (ValidationError, KeyError, ValueError) as exc:
        return _report_error("validation", exc, EXIT_BAD_CONFIG)
    except PositonkitError as exc:
        return _report_error("numerical", exc, EXIT_NUMERICAL)


if __name__ == "__main__":
    sys.exit(main())
