"""Command-line front end: scattering scans, insertion/removal, KdV evolution,
and the closed-form verification battery for the explicit example.

All runs are driven by a JSON config (single source of truth); outputs are a
CSV file plus a .meta.json sidecar holding the fully resolved configuration,
package versions and convergence diagnostics, so every output is reproducible
from its sidecar alone.  Each command reads its config with one declarative
reader (`COMMANDS`) that names unknown and missing keys by their path.  Exit
codes: 0 success, 1 verification failures, 2 invalid configuration,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from time import perf_counter

import numpy as np

from . import __version__, darboux, kdv, scattering, wvn_example as wvn
from .errors import PositonkitError, ValidationError
from .schrodinger import DEFAULT_RTOL, MAX_POINTS, Grid, PotentialSpec, count_ode_work
from .schrodinger import write_csv as _write_csv     # perfbench times the CSV writes by this name

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERICAL = 3


def _write_meta(prefix, config, diagnostics):
    env = os.environ
    meta = {
        "config": config,
        "versions": {"positonkit": __version__, "numpy": np.__version__},
        # the BLAS thread setting the run had: evolve's last digits depend on the thread count
        "blas_threads": env.get("OPENBLAS_NUM_THREADS") or env.get("OMP_NUM_THREADS") or None,
        "diagnostics": diagnostics,
    }
    with open(f"{prefix}.meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def _show(value) -> str:
    return f"{value!r:.60}"


def _number(value, path) -> float:
    """A finite JSON number (true and false are not numbers)."""
    try:
        out = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:          # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ValidationError(f"{path} must be a finite number, got {_show(value)}")
    return out


def _positive(value, path) -> float:
    out = _number(value, path)
    if out <= 0:
        raise ValidationError(f"{path} must be positive, got {_show(value)}")
    return out


def _count(least: int):
    """Reader of an integer in [least, MAX_POINTS]; an integral float counts as one."""
    def read(value, path) -> int:
        if type(value) is float and value.is_integer():
            value = int(value)
        if type(value) is not int or not least <= value <= MAX_POINTS:
            raise ValidationError(
                f"{path} must be an integer in [{least}, {MAX_POINTS}], got {_show(value)}")
        return value
    return read


def _list(item, least: int = 0, most: int = MAX_POINTS):
    """Reader of a list of least..most entries, each read by `item`."""
    def read(value, path) -> list:
        if type(value) is not list or not least <= len(value) <= most:
            raise ValidationError(
                f"{path} must be a list of {least} to {most} entries, got {_show(value)}")
        return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return read


def _object(fields: dict, build=dict):
    """Reader of an object with no keys but those of `fields`, passed to `build` by name.

    A field is a reader (a required key) or (reader, default) for an optional key.
    """
    def read(value, path):
        if type(value) is not dict:
            raise ValidationError(f"{path} must be an object, got {_show(value)}")
        unknown = sorted(set(value) - set(fields))
        if unknown:
            raise ValidationError(f"{path}.{unknown[0]} is not a known key "
                                  f"(expected {', '.join(fields)})")
        out = {}
        for name, field in fields.items():
            reader, default = field if type(field) is tuple else (field, ...)
            if name in value:
                out[name] = reader(value[name], f"{path}.{name}")
            elif default is ...:
                raise ValidationError(f"{path}.{name} is missing")
            else:
                out[name] = default
        return build(**out)
    return read


def _potential(value, path) -> PotentialSpec:
    """A potential: its "kind" names the reader of its other keys."""
    kind = value.get("kind") if type(value) is dict else None
    if type(kind) is not str or kind not in _POTENTIALS:
        raise ValidationError(f"{path} must be an object whose kind is one of "
                              f"{', '.join(_POTENTIALS)}, got {_show(value)}")
    return _POTENTIALS[kind]({k: v for k, v in value.items() if k != "kind"}, path)


def _kind(make, **fields):
    """Reader of one potential kind: its fields go to `make`; right_cutoff may override."""
    def build(right_cutoff=None, **kw):
        spec = make(**kw)
        return spec if right_cutoff is None else dataclasses.replace(spec, right_cutoff=right_cutoff)
    return _object(dict(fields, right_cutoff=(_number, None)), build)


_POTENTIALS = {
    "zero": _kind(PotentialSpec.zero),
    "wvn_example": _kind(PotentialSpec.wvn_example, rho=_number),
    "sampled": _kind(PotentialSpec.sampled, x=_list(_number, 2), q=_list(_number, 2)),
}


def _momenta(k_min, k_max, n, exclusions) -> np.ndarray:
    """Momenta of the scatter scan: n points on [k_min, k_max] minus k ~ 0 and the exclusions."""
    if not k_min < k_max:
        raise ValidationError("config.k_grid requires k_min < k_max")
    ks = np.linspace(k_min, k_max, n)
    keep = np.abs(ks) > 1e-3
    for c, r in exclusions:
        keep &= np.abs(ks - c) > r
    return ks[keep]


def _with_states(potential, states, **rest) -> dict:
    """The values read, each state completed to an `EmbeddedStateSpec` by the potential."""
    out = []
    for i, s in enumerate(states):
        if s["r_at_omega"] is not None:
            r = complex(*s["r_at_omega"])
            out.append(darboux.EmbeddedStateSpec(s["omega"], s["alpha"], r))
        elif potential.kind == "wvn_example":
            out.append(darboux.EmbeddedStateSpec.for_wvn_example(potential.rho, s["alpha"],
                                                                 s["omega"]))
        else:
            raise ValidationError(f"config.states[{i}].r_at_omega is missing; only a "
                                  "wvn_example potential supplies it")
    return dict(rest, potential=potential, states=out)


_GRID = _object({"x_min": _number, "x_max": _number, "n": _count(2)},
                lambda x_min, x_max, n: Grid(x_min, x_max, n))
_STATES = (_list(_object({"omega": _number, "alpha": _number,
                          "r_at_omega": (_list(_number, 2, 2), None)})), [])
# insert and remove: the rtol that sets the Magnus step bound of the insertion's
# full-field solves, h_s = rtol^(1/6) / max(1, omega)
_TOLERANCES = (_object({"ode_rtol": (_positive, DEFAULT_RTOL)},
                       lambda ode_rtol: {"rtol": ode_rtol}), {})


def _work_done(work) -> dict:
    """The sidecar record of the integration work counted by `count_ode_work`."""
    return {"magnus_steps": work.magnus_steps, "magnus_step_max": work.magnus_step_max,
            "ode_solves": work.solves, "ode_nfev": work.nfev}


def cmd_scatter(config, prefix, *, potential, k_grid):
    start = perf_counter()
    with count_ode_work() as work:
        rs, ts = scattering.scattering_coefficients(potential, k_grid)
    scanned = perf_counter()
    _write_csv(f"{prefix}.csv", "k,R_re,R_im,T_re,T_im",
               [k_grid, rs.real, rs.imag, ts.real, ts.imag])
    timings = {"scan": scanned - start, "csv": perf_counter() - scanned}
    unit = float(np.max(np.abs(np.abs(rs) ** 2 + np.abs(ts) ** 2 - 1.0))) if len(k_grid) else 0.0
    _write_meta(prefix, config, {"n_k": len(k_grid), "max_unitarity_defect": unit,
                                 **_work_done(work), "timings_s": timings})
    return EXIT_OK


def cmd_insert(config, prefix, *, potential, grid, states, tolerances):
    start = perf_counter()
    with count_ode_work() as work:
        res = darboux.insert_embedded(potential, states, grid, **tolerances)
    inserted = perf_counter()
    diag = dict(res.meta(), **_work_done(work))
    if states:
        # before any output: the norms' tail windows may not fit the grid
        diag["eigenfunction_norms"] = res.eigenfunction_norms().tolist()
    normed = perf_counter()
    res.to_csv(f"{prefix}.csv")
    diag["timings_s"] = {"insert": inserted - start, "norms": normed - inserted,
                         "csv": perf_counter() - normed}
    _write_meta(prefix, config, diag)
    return EXIT_OK


def cmd_remove(config, prefix, *, potential, grid, states, tolerances):
    """Insert the configured states, then remove them again (round trip)."""
    start = perf_counter()
    with count_ode_work() as work:
        res = darboux.insert_embedded(potential, states, grid, **tolerances)
    inserted = perf_counter()
    rem = darboux.remove_embedded(res.q_new, res.y, res.y_x, res.omegas, grid)
    removed = perf_counter()
    _write_csv(f"{prefix}.csv", "x,q_seed,q_plus,q_removed",
               [grid.x, res.q_seed, res.q_new, rem.q_minus])
    _write_meta(prefix, config, {
        "round_trip_max_error": float(np.max(np.abs(rem.q_minus - res.q_seed))),
        "orthonormality": rem.orthonormality.tolist(),
        **_work_done(work),
        "timings_s": {"insert": inserted - start, "remove": removed - inserted,
                      "csv": perf_counter() - removed},
    })
    return EXIT_OK


def cmd_evolve(config, prefix, *, potential, grid, states, time):
    if potential.kind != "wvn_example":
        raise ValidationError("evolve supports the explicit example family")
    if len(states) > 1:
        raise ValidationError("evolve handles at most one embedded state")
    if states and (states[0].omega != 1.0 or states[0].r_at_omega != -1.0):
        raise ValidationError("config.states[0]: evolve inserts at omega = 1, where R(1) = -1; "
                              f"got omega={states[0].omega}, r_at_omega={states[0].r_at_omega}")
    params = wvn.ExampleParams(potential.rho, states[0].alpha if states else 1.0)
    evolved = [kdv.EvolvedState(t, params) for t in time]
    try:        # every phi-plane is laid out, and so checked, before any solve
        plane_grids = [kdv.phi_plane_grid(state, grid) if states or t == 0 else None
                       for t, state in zip(time, evolved)]
    except ValidationError as exc:        # a fault of the config's grid
        raise ValidationError(f"config.{exc}") from exc
    cols, diags = [], {}
    for t, state, pg in zip(time, evolved, plane_grids):
        # q off the GLM solves of a plane: the phi-plane with a state and at
        # t = 0 (read off its chains' log-determinants there), else at t > 0 the
        # output grid itself
        start = perf_counter()
        if pg is not None:
            plane = kdv.evolved_phi_plane(state, pg, read_from=grid.x_min)
            solved = perf_counter()
            q = q_plus = plane.q_at(grid.x)
            if states:
                q_plus = kdv.q_plus_evolved(plane, states[0].alpha, grid.x)
        else:
            plane = state.glm_plane(grid.x)
            solved = perf_counter()
            q = q_plus = plane.q
        timings = {"plane": solved - start, "q": perf_counter() - solved}
        cols.append((grid.x, np.full(grid.n_points, t), q, q_plus))
        # sizes actually used: mn + 1 of the operator systems, the plane's
        # factorizations and the t > 0 kernel lattices; the pivot margin
        diag = {"operator_points_min": min(state.operator_sizes),
                "operator_points_max": max(state.operator_sizes),
                "q_source": "plane_glm" if t > 0 else "chain_log_det",
                "q_points_kink_chain": state.q_points_kink_chain,
                "pivot_margin": state.pivot_margin,
                "timings_s": timings}
        if pg is not None:
            diag["plane_tail_fit_residual"] = float(plane.tail_fit.residual)
            # the t = 0 plane's one chain for the nodes next to the kink, if any
            kink = plane.kink_chain
            diag["plane_kink_spacing"] = kink.delta if kink else None
            diag["plane_kink_factor_points"] = list(kink.factor_points) if kink else []
        # the nodes solved: on a phi-plane, chain 0's left of its window and the window's
        diag["plane_nodes"] = grid.n_points if pg is None else plane.solved
        diag["plane_spacing"] = (grid if pg is None else pg).spacing
        diag["plane_operator_spacing"] = plane.delta
        diag["plane_chains"] = len(plane.factor_points)
        diag["plane_factor_points"] = list(plane.factor_points)
        if t > 0:
            diag["kernel_u_points"] = state.kernel_u_points
            diag["kernel_contour_points"] = dict(state.kernel_contour_points)
        diags[f"t={t}"] = diag
    _write_csv(f"{prefix}.csv", "x,t,q,q_plus",
               [np.concatenate(c) for c in zip(*cols)])
    _write_meta(prefix, config, diags)
    return EXIT_OK


def _verify_checks(rho, alpha, estimates):
    """Closed-form/numeric cross-checks of the explicit example; yields rows.

    Self-estimates of accuracy that a check computes go into the dict estimates.
    """
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
    tvals, rvals, _ = wvn.scattering_closed(rho, np.linspace(0.2, 3.0, 200))
    unit = float(np.max(np.abs(np.abs(rvals)**2 + np.abs(tvals)**2 - 1)))
    yield row("reflection-unitarity-closed", unit, 1e-12)
    _, r1, _ = wvn.scattering_closed(rho, 1.0)
    yield row("full-reflection-at-resonance", abs(r1 + 1.0), 1e-12)

    # numeric scattering against closed forms
    ks = np.array([0.5, 1.7, 2.6])
    r_num, t_num = scattering.scattering_coefficients(spec, ks)
    t_cl, r_cl, _ = wvn.scattering_closed(rho, ks)
    yield row("numeric-scattering-match",
              float(max(np.max(np.abs(r_num - r_cl)), np.max(np.abs(t_num - t_cl)))), 1e-6)
    r_res = scattering.reflection_at_resonance(spec, 1.0)
    yield row("numeric-full-reflection", abs(abs(r_res) - 1.0), 1e-6)

    # Jost solution against direct integration
    from .schrodinger import right_jost
    g = Grid(-12.0, 2.0, 1401)
    for k in (1.5, 1.0):
        psi, _ = right_jost(spec, k, g)
        vc, _ = wvn.right_jost_closed(rho, g.x, k)
        yield row(f"jost-integration-match-k={k}", float(np.max(np.abs(psi - vc))), 1e-6)

    # insertion against the closed form
    grid = Grid(-20.0, 20.0, 2001)
    st = darboux.EmbeddedStateSpec.for_wvn_example(rho, alpha)
    res = darboux.insert_embedded(spec, [st], grid, check_preconditions=False)
    qc = wvn.q_plus1(rho, alpha, grid.x)
    yield row("insertion-closed-form-match", float(np.max(np.abs(res.q_new - qc))), 1e-6)
    yield row("eigenfunction-norm-one", abs(res.eigenfunction_norms()[0] - 1.0), 1e-6)

    # norming constant from the residue of the transformed Jost solution
    def fam(ks):
        return np.stack(darboux.transformed_solutions(res, ks)[1], axis=1)
    rr = scattering.residue_at(1.0, fam)
    estimates["residue_error_estimate"] = float(rr.error_estimate)
    cum, left, right, _ = darboux.tail_closed_gram(
        grid.x, grid.spacing, *np.real(rr.residue)[:, None], [1.0], right=True)
    norm = math.sqrt(cum[-1, 0, 0] + left[0, 0] + right[0, 0])
    yield row("residue-norming-constant", abs(norm - abs(alpha)), 1e-4)

    # transformed pair Wronskian: W(psi_+1, phi_+1) = -2ik
    (phi, phi_x), (psi, psi_x) = darboux.transformed_solutions(res, 1.7)
    j = grid.index(3.1)[1][0]
    wr = psi[j] * phi_x[j] - psi_x[j] * phi[j]
    yield row("transformed-wronskian", abs(wr + 2j * 1.7), 1e-6)

    # removal round trip
    rem = darboux.remove_embedded(res.q_new, res.y, res.y_x, res.omegas, grid)
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



def cmd_verify_example(config, prefix, *, rho, alpha):
    estimates = {}
    rows = list(_verify_checks(rho, alpha, estimates))
    width = max(len(r[0]) for r in rows) + 2
    n_fail = 0
    for name, value, tol, ok in rows:
        status = "PASS" if ok else "FAIL"
        if not ok:
            n_fail += 1
        print(f"{status}  {name:<{width}} value={value:.3e}  tol={tol:.1e}")
    print(f"{len(rows) - n_fail}/{len(rows)} checks passed (rho={rho}, alpha={alpha})")
    if prefix:
        _write_meta(prefix, config, {
            "checks": [{"name": n, "value": v, "tol": t, "passed": bool(ok)}
                       for n, v, t, ok in rows], **estimates})
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILED


_DARBOUX = _object({"potential": _potential, "grid": _GRID, "states": _STATES,
                    "tolerances": _TOLERANCES}, _with_states)

# command -> (function, reader of its config); the function gets the raw config
# for the sidecar, the output prefix and the values read
COMMANDS = {
    "scatter": (cmd_scatter, _object({
        "potential": _potential,
        "k_grid": _object({"k_min": _number, "k_max": _number, "n": _count(2),
                           "exclusions": (_list(_list(_number, 2, 2)), [])}, _momenta)})),
    "insert": (cmd_insert, _DARBOUX),
    "remove": (cmd_remove, _DARBOUX),
    "evolve": (cmd_evolve, _object({
        "potential": _potential, "grid": _GRID, "states": _STATES,
        "time": (_object({"t_values": (_list(_number, 1), [0.0])}, lambda t_values: t_values),
                 [0.0])}, _with_states)),
    "verify-example": (cmd_verify_example, _object({"rho": (_number, 2.0),
                                                    "alpha": (_number, 1.0)})),
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
        # ValueError: not JSON, or not text; RecursionError: nested beyond the parser's stack
        except (OSError, ValueError, RecursionError) as exc:
            return _report_error("config", exc, EXIT_BAD_CONFIG)
        if not isinstance(cfg, dict):
            return _report_error("config", "the config must be a JSON object", EXIT_BAD_CONFIG)
    if args.rho is not None:
        cfg["rho"] = args.rho
    if args.alpha is not None:
        cfg["alpha"] = args.alpha

    command, read = COMMANDS[args.command]
    try:
        return command(cfg, args.output, **read(cfg, "config"))
    except ValidationError as exc:
        return _report_error("validation", exc, EXIT_BAD_CONFIG)
    # ValueError covers LinAlgError; ArithmeticError is float overflow on extreme values
    except (PositonkitError, ValueError, ArithmeticError) as exc:
        return _report_error("numerical", exc, EXIT_NUMERICAL)


if __name__ == "__main__":
    sys.exit(main())
