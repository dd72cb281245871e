import contextlib
import copy
import io
import json
import math
import os
import signal
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positonkit import cli
from positonkit import wvn_example as wvn

WVN_POT = {"kind": "wvn_example", "rho": 2.0, "right_cutoff": 0.0}


def run_cli(tmp_path, name, cfg, command):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    prefix = str(tmp_path / name)
    code = cli.main([command, "--config", str(cfg_path), "--output", prefix])
    return code, prefix


def test_scatter_matches_closed_form(tmp_path):
    cfg = {"potential": WVN_POT,
           "k_grid": {"k_min": 0.2, "k_max": 3.0, "n": 40,
                      "exclusions": [[1.0, 1e-3]]}}
    code, prefix = run_cli(tmp_path, "scatter", cfg, "scatter")
    assert code == 0
    data = np.loadtxt(prefix + ".csv", delimiter=",", skiprows=1)
    ks = data[:, 0]
    r = data[:, 1] + 1j * data[:, 2]
    rc = np.array([wvn.scattering_closed(2.0, k)[1] for k in ks])
    assert np.max(np.abs(r - rc)) < 1e-6
    meta = json.loads(open(prefix + ".meta.json").read())
    assert meta["diagnostics"]["max_unitarity_defect"] < 1e-6


def test_scatter_deterministic(tmp_path):
    cfg = {"potential": WVN_POT,
           "k_grid": {"k_min": 0.5, "k_max": 2.0, "n": 7, "exclusions": [[1.0, 1e-3]]}}
    _, p1 = run_cli(tmp_path, "det1", cfg, "scatter")
    _, p2 = run_cli(tmp_path, "det2", cfg, "scatter")
    assert open(p1 + ".csv", "rb").read() == open(p2 + ".csv", "rb").read()


def test_insert_empty_states_identity(tmp_path):
    cfg = {"potential": WVN_POT,
           "grid": {"x_min": -5.0, "x_max": 5.0, "n": 201},
           "states": []}
    code, prefix = run_cli(tmp_path, "ins0", cfg, "insert")
    assert code == 0
    data = np.loadtxt(prefix + ".csv", delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1], data[:, 2])   # q_new == q_seed


def test_insert_with_state(tmp_path):
    cfg = {"potential": WVN_POT,
           "grid": {"x_min": -20.0, "x_max": 20.0, "n": 2001},
           "states": [{"omega": 1.0, "alpha": 1.0}]}
    code, prefix = run_cli(tmp_path, "ins1", cfg, "insert")
    assert code == 0
    data = np.loadtxt(prefix + ".csv", delimiter=",", skiprows=1)
    qc = wvn.q_plus1(2.0, 1.0, data[:, 0])
    assert np.max(np.abs(data[:, 2] - qc)) < 1e-6
    meta = json.loads(open(prefix + ".meta.json").read())
    assert abs(meta["diagnostics"]["eigenfunction_norms"][0] - 1.0) < 1e-6
    _assert_work_recorded(meta["diagnostics"])
    _assert_timed(meta["diagnostics"], {"insert", "norms", "csv"})


def _assert_work_recorded(diag):
    # phi on the grid extended 25 units left: [-45, 0] in 2250 intervals of
    # 0.02 < h_s = 1e-10^(1/6), one Magnus step each; DOP853 only for the
    # resonance's R(omega) and the continuity probes
    assert diag["magnus_steps"] == 2250
    assert diag["magnus_step_max"] == pytest.approx(1e-10 ** (1 / 6), rel=1e-12)
    assert diag["ode_solves"] == 2 and diag["ode_nfev"] > 0


def _assert_timed(diag, steps):
    assert set(diag["timings_s"]) == steps
    assert min(diag["timings_s"].values()) >= 0.0


def test_remove_round_trip(tmp_path):
    cfg = {"potential": WVN_POT,
           "grid": {"x_min": -20.0, "x_max": 20.0, "n": 2001},
           "states": [{"omega": 1.0, "alpha": 0.8}]}
    code, prefix = run_cli(tmp_path, "rem", cfg, "remove")
    assert code == 0
    meta = json.loads(open(prefix + ".meta.json").read())
    assert meta["diagnostics"]["round_trip_max_error"] < 1e-6
    _assert_work_recorded(meta["diagnostics"])
    _assert_timed(meta["diagnostics"], {"insert", "remove", "csv"})


def test_ode_rtol_sets_the_step_and_ode_atol_is_rejected(tmp_path, capsys):
    # tolerances.ode_rtol bounds the Magnus steps at rtol^(1/6); no grid
    # integration reads an absolute tolerance, so ode_atol is not a key
    cfg = {"potential": WVN_POT,
           "grid": {"x_min": -20.0, "x_max": 20.0, "n": 401},
           "states": [{"omega": 1.0, "alpha": 1.0}],
           "tolerances": {"ode_rtol": 1e-11}}
    code, prefix = run_cli(tmp_path, "rtol", cfg, "insert")
    assert code == 0
    diag = json.loads(open(prefix + ".meta.json").read())["diagnostics"]
    assert diag["magnus_step_max"] == pytest.approx(1e-11 ** (1 / 6), rel=1e-12)
    # [-45, 0] in 450 intervals of 0.1, each cut into ceil(0.1 / 0.0147) = 7 steps
    assert diag["magnus_steps"] == 450 * 7
    capsys.readouterr()
    cfg["tolerances"]["ode_atol"] = 1e-12
    code, prefix = run_cli(tmp_path, "atol", cfg, "insert")
    assert code == cli.EXIT_BAD_CONFIG
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "validation" and "config.tolerances.ode_atol" in error["message"]
    assert not os.path.exists(prefix + ".csv")


def test_evolve_seed_only(tmp_path):
    cfg = {"potential": WVN_POT,
           "grid": {"x_min": -3.0, "x_max": 3.0, "n": 7},
           "states": [],
           "time": {"t_values": [0.0, 0.02]}}
    code, prefix = run_cli(tmp_path, "evo", cfg, "evolve")
    assert code == 0
    data = np.loadtxt(prefix + ".csv", delimiter=",", skiprows=1)
    t0 = data[:, 1] == 0.0
    qc = wvn.q_seed(2.0, data[t0, 0])
    assert np.max(np.abs(data[t0, 2] - qc)) < 1e-3
    diag = json.loads(open(prefix + ".meta.json").read())["diagnostics"]
    # sizes actually used: operator nodes mn + 1, and the t > 0 kernel lattices and rules
    for key in ("t=0.0", "t=0.02"):
        lo, hi = diag[key]["operator_points_min"], diag[key]["operator_points_max"]
        assert 200 < lo <= hi <= 1601
        assert "plane_tail_fit_residual" not in diag[key]     # no state, no phi-plane
    # at t = 0 each x's q takes a chain of its own, but x = 0 (the thin support is x < 0)
    assert diag["t=0.0"]["q_source"] == "chain_log_det"
    assert diag["t=0.0"]["q_points_own_chain"] == 7
    for key in ("t=0.0", "t=0.02"):
        assert 0.0 <= diag[key]["log_det_phase_max"] < 1e-6
        assert set(diag[key]["timings_s"]) == {"plane", "q"}
        assert min(diag[key]["timings_s"].values()) >= 0.0
    assert diag["t=0.0"]["timings_s"]["plane"] == 0.0      # no plane: q from chains of their own
    assert "plane_nodes" not in diag["t=0.0"] and "plane_operator_spacing" not in diag["t=0.0"]
    assert "kernel_u_points" not in diag["t=0.0"]
    # without a state q at t > 0 comes from a GLM plane over the output grid
    # alone: spacing 1 > 0.11, one chain at delta = 1/10, factored where x = 3
    # needs it (60 rows + 200 intervals)
    assert diag["t=0.02"]["q_source"] == "plane_glm"
    assert diag["t=0.02"]["plane_nodes"] == 7
    assert diag["t=0.02"]["plane_spacing"] == 1.0
    assert diag["t=0.02"]["plane_operator_spacing"] == pytest.approx(0.1, abs=1e-12)
    assert diag["t=0.02"]["plane_chains"] == 1
    assert diag["t=0.02"]["plane_factor_points"] == [261]
    # the plane's one kernel lattice: 2 * 260 + 1 points at delta
    assert diag["t=0.02"]["kernel_u_points"] == 521
    sizes = diag["t=0.02"]["kernel_contour_points"]
    assert set(sizes) == {"u>=0", "u<0"} and min(sizes.values()) > 100
    # with a state, the plane on [-45, 3] at spacing 1 > 0.22 is one chain at
    # delta = 1/5 whose factorization spans the widest node, x = -45: 106/0.2
    # intervals; at t = 0 too, on [-45, 6] (three chain steps past x_max), since
    # u = 2 * -45 is node 450 of that chain
    cfg = dict(cfg, states=[{"omega": 1.0, "alpha": 1.0}])
    code, prefix = run_cli(tmp_path, "evo_plane", cfg, "evolve")
    assert code == 0
    diags = json.loads(open(prefix + ".meta.json").read())["diagnostics"]
    for key, q_source, nodes in (("t=0.0", "chain_log_det", 52), ("t=0.02", "plane_glm", 49)):
        diag = diags[key]
        assert diag["plane_nodes"] == nodes
        assert diag["plane_spacing"] == 1.0
        assert diag["plane_operator_spacing"] == pytest.approx(0.2, abs=1e-12)
        assert diag["plane_chains"] == 1
        assert diag["plane_factor_points"] == [531]
        assert diag["operator_points_max"] == 531
        assert diag["q_source"] == q_source
        assert 0.0 <= diag["plane_tail_fit_residual"] < 1e-2


@pytest.mark.parametrize("t, n", [(0.0, 101), (0.02, 51)])
def test_evolve_meta_records_pivot_margin(tmp_path, t, n):
    # the evolve_t0 and evolve_t benchmark configurations: the smallest chain
    # pivot or border Schur complement, relative to its scale, lies in (0, 1];
    # the sign margin stays pinned
    cfg = {"potential": WVN_POT, "grid": {"x_min": -3.0, "x_max": 2.0, "n": n},
           "states": [{"omega": 1.0, "alpha": 1.0}], "time": {"t_values": [t]}}
    code, prefix = run_cli(tmp_path, "evo_margin", cfg, "evolve")
    assert code == 0
    diag = json.loads(open(prefix + ".meta.json").read())["diagnostics"][f"t={t}"]
    assert 0.0 < diag["pivot_margin"] <= 1.0
    assert 0.0 <= diag["log_det_phase_max"] < 1e-6


def test_evolve_meta_records_the_window_chains(tmp_path):
    # the evolve_t configuration: two chains at delta = 0.2 over the plane [-45, 2];
    # chain 0 is solved at all of its 236 nodes and factored for x = -45, chain 1
    # only over the window from x = -3.8 (29 nodes, 200 intervals past the last)
    cfg = {"potential": WVN_POT, "grid": {"x_min": -3.0, "x_max": 2.0, "n": 51},
           "states": [{"omega": 1.0, "alpha": 1.0}], "time": {"t_values": [0.02]}}
    code, prefix = run_cli(tmp_path, "evo_window", cfg, "evolve")
    assert code == 0
    diag = json.loads(open(prefix + ".meta.json").read())["diagnostics"]["t=0.02"]
    assert diag["plane_factor_points"] == [531, 229]
    assert diag["plane_nodes"] == 236 + 29
    assert diag["plane_chains"] == 2 and diag["plane_spacing"] == pytest.approx(0.1, abs=1e-15)


def test_evolve_window_at_the_plane_start_is_the_whole_plane(tmp_path):
    # x_min - 3 delta - 2 h = -45.5 lies left of the plane's first node, x = -45:
    # nothing is left to drop, every chain spans the plane, and the CSV is byte for
    # byte that of the plane solved throughout (`evolved_phi_plane` without read_from)
    from positonkit import kdv
    from positonkit.schrodinger import Grid, write_csv
    cfg = {"potential": WVN_POT, "grid": {"x_min": -44.7, "x_max": 2.0, "n": 468},
           "states": [{"omega": 1.0, "alpha": 1.0}], "time": {"t_values": [0.02]}}
    code, prefix = run_cli(tmp_path, "evo_whole", cfg, "evolve")
    assert code == 0
    diag = json.loads(open(prefix + ".meta.json").read())["diagnostics"]["t=0.02"]
    assert diag["plane_nodes"] == 471 and diag["plane_factor_points"] == [531, 530]
    state = kdv.EvolvedState(0.02, wvn.ExampleParams(2.0, 1.0))
    grid = Grid(-44.7, 2.0, 468)
    plane = kdv.evolved_phi_plane(state, kdv.phi_plane_grid(state, grid))
    q = plane.q_at(grid.x)
    write_csv(tmp_path / "whole.csv", "x,t,q,q_plus",
              [grid.x, np.full(grid.n_points, 0.02), q, q + kdv.insertion_term(plane, 1.0, grid.x)])
    assert (tmp_path / "whole.csv").read_bytes() == open(prefix + ".csv", "rb").read()


@pytest.mark.parametrize("rho, own, kink, spacing, factor_points", [
    (2.0, 0, 15, 0.025, [715]),     # the evolve_t0 configuration, at delta = 0.1
    # x = -0.25 would need a spacing of 0.025 and take the factor past M_OP_CAP
    (0.3, 1, 12, 0.05, [1191])])
def test_evolve_t0_serves_q_next_to_the_kink_off_one_chain(tmp_path, rho, own, kink, spacing,
                                                          factor_points):
    # the output nodes on (-0.9, 0.3) that the phi-plane's chains cannot serve take
    # no chain each of their own (dyson_q) but share one kink chain, or the series
    cfg = {"potential": dict(WVN_POT, rho=rho), "grid": {"x_min": -3.0, "x_max": 2.0, "n": 101},
           "states": [{"omega": 1.0, "alpha": 1.0}], "time": {"t_values": [0.0]}}
    code, prefix = run_cli(tmp_path, "evo_kink", cfg, "evolve")
    assert code == 0
    diag = json.loads(open(prefix + ".meta.json").read())["diagnostics"]["t=0.0"]
    assert diag["q_points_own_chain"] == own
    assert diag["q_points_kink_chain"] == kink
    assert diag["plane_kink_factor_points"] == factor_points
    assert diag["plane_kink_spacing"] == pytest.approx(spacing, rel=1e-12)
    x, _, q, _ = np.loadtxt(prefix + ".csv", delimiter=",", skiprows=1).T
    near = (x > -0.9) & (x < 0.3)
    assert np.max(np.abs(q[near] - wvn.q_seed(rho, x[near]))) < 1e-4


@pytest.mark.parametrize("rho, grid, nodes, spacing", [
    (2.0, {"x_min": -3.0, "x_max": 2.03, "n": 101}, 530, 0.0503),   # x_max off the kink lattice
    (2.0, {"x_min": 1.9, "x_max": 2.0, "n": 11}, 600, 0.04),        # h = 0.01: the plane at 4 h
    # a kink-aligned grid per node would need 1601 intervals at x = -0.13
    (0.5, {"x_min": -3.0, "x_max": 2.013, "n": 101}, 531, 0.05013)])
def test_evolve_t0_reads_output_nodes_off_a_chained_plane(tmp_path, rho, grid, nodes, spacing):
    # the t = 0 phi-plane has nodes of its own, two chains at delta = 2 l h with
    # the kink on a node of each; the output nodes between its nodes are read
    # off it, and meet the evolve_t0 workload's bounds.  The nodes solved are
    # chain 0's left of the window and the window's: the layouts have 943, 1182
    # and 946 nodes
    cfg = {"potential": dict(WVN_POT, rho=rho), "grid": grid,
           "states": [{"omega": 1.0, "alpha": 1.0}], "time": {"t_values": [0.0]}}
    code, prefix = run_cli(tmp_path, "evo_t0", cfg, "evolve")
    assert code == 0
    x, _, q, q_plus = np.loadtxt(prefix + ".csv", delimiter=",", skiprows=1).T
    assert np.max(np.abs(q - wvn.q_seed(rho, x))) < 1e-3
    assert np.max(np.abs(q_plus - wvn.q_plus1(rho, 1.0, x))) < 2e-3
    diag = json.loads(open(prefix + ".meta.json").read())["diagnostics"]["t=0.0"]
    assert diag["plane_nodes"] == nodes
    assert diag["plane_spacing"] == pytest.approx(spacing, rel=1e-12)
    assert diag["plane_chains"] == 2
    assert diag["plane_operator_spacing"] == pytest.approx(2.0 * spacing, rel=1e-12)
    assert max(diag["plane_factor_points"]) <= 1601


def test_bad_config_exit_code(tmp_path, capsys):
    k_grid = {"k_min": 0.5, "k_max": 2.0, "n": 3}
    deep = {"kind": "zero"}
    for _ in range(600):        # nested past the interpreter's stack, not the JSON parser's
        deep = {"kind": "shifted", "inner": deep, "shift": 0.0}
    scatter = [{"potential": {"kind": "nope"}, "k_grid": k_grid},
               # json reads 1e400 as an infinite float
               {"potential": WVN_POT, "k_grid": dict(k_grid, k_min=-1e400)},
               {"potential": WVN_POT, "k_grid": dict(k_grid, n=1e400)},
               {"potential": [1, 2], "k_grid": k_grid},
               {"potential": dict(WVN_POT, rho=float("nan")), "k_grid": k_grid},
               {"potential": dict(WVN_POT, right_cutoff=float("nan")), "k_grid": k_grid},
               {"potential": dict(WVN_POT, right_cutoff=-3.0), "k_grid": k_grid},
               {"potential": dict(WVN_POT, right_cutoff="0"), "k_grid": k_grid},
               {"potential": {"kind": "shifted", "inner": 5, "shift": 1}, "k_grid": k_grid},
               {"potential": {"kind": "sum", "parts": None}, "k_grid": k_grid},
               {"potential": {"kind": "sampled", "x": "abc", "q": "def"}, "k_grid": k_grid},
               {"potential": {"kind": "sampled", "x": [0, 0, 1], "q": [0, 0, 0]}, "k_grid": k_grid},
               {"potential": {"kind": "sym_plus_one", "rho": 2, "tail_tol": "x"}, "k_grid": k_grid},
               {"potential": {"kind": "wvn_example", "rho": True}, "k_grid": k_grid},
               {"potential": WVN_POT, "k_grid": dict(k_grid, n=2**63)},
               {"potential": deep, "k_grid": k_grid}]
    base = {"potential": WVN_POT, "grid": {"x_min": -3.0, "x_max": 2.0, "n": 11},
            "states": [{"omega": 1.0, "alpha": 1.0}]}
    wide = dict(base, grid={"x_min": -20.0, "x_max": 20.0, "n": 401})
    nan_alpha = dict(base, states=[{"omega": 1, "alpha": float("nan")}])
    r_triple = dict(base, states=[{"omega": 1.0, "alpha": 1.0, "r_at_omega": [1, 2, 3]}])
    bad = [("scatter", cfg) for cfg in scatter] + [
        ("evolve", dict(base, time={"t_values": 0.02})),
        ("evolve", dict(base, time=5)),
        ("evolve", dict(base, time={"t_values": []})),
        ("evolve", dict(base, time={"t_values": [0.0, float("nan")]})),
        ("evolve", nan_alpha),
        ("insert", nan_alpha),
        ("insert", dict(base, states=5)),
        ("insert", dict(base, states=[5])),
        ("insert", dict(base, states=[{"omega": None, "alpha": 1.0}])),
        ("remove", dict(base, states=5)),
        ("insert", r_triple),
        ("remove", r_triple),
        ("insert", dict(base, tolerances={"ode_rtol": "x"})),
        ("insert", dict(base, grid={"x_min": -3.0, "x_max": 2.0, "n": 1e400})),
        ("insert", dict(base, grid={"x_min": -20.0, "x_max": 20.0, "n": 400.5})),
        ("insert", dict(base, grid={"x_min": -20.0, "x_max": 20.0, "n": 2**63})),
        # each of these is the only fault of a config that runs without it
        ("insert", dict(wide, grdi=wide["grid"])),
        ("remove", dict(wide, tolerances={"ode_rtol": -1})),
        ("evolve", dict(base, tolerances=7)),
        ("insert", dict(wide, states=[{"omega": 1.0, "alpha": 1.0},
                                      {"omega": 1.0 + 7e-13, "alpha": 1.0}])),
        # the 20-unit tail windows would cover the grid's non-asymptotic core
        ("insert", dict(base, grid={"x_min": -5.0, "x_max": 5.0, "n": 1001})),
        # with R(omega) given, only the eigenfunction norms' tail windows see it
        ("insert", dict(base, grid={"x_min": -1.0, "x_max": 20.0, "n": 401},
                        states=[{"omega": 1.0, "alpha": 1.0, "r_at_omega": [-1.0, 0.0]}])),
        # the t > 0 phi-plane on [-45, x_max] at the grid's spacing: 4.7e11 nodes, or none
        ("evolve", dict(base, grid={"x_min": 1.999999999, "x_max": 2.0, "n": 11},
                        time={"t_values": [0.02]})),
        ("evolve", dict(base, grid={"x_min": -50.0, "x_max": -45.0, "n": 11})),
        # output nodes left of the phi-plane's first node, at t = 0 and at t > 0
        ("evolve", dict(base, grid={"x_min": -50.0, "x_max": 2.0, "n": 105})),
        ("evolve", dict(base, grid={"x_min": -50.0, "x_max": 2.0, "n": 105},
                        time={"t_values": [0.02]})),
        # rho beyond the validated 5, on a grid whose t = 0 plane the cap coarsens to 3 h
        ("evolve", dict(base, potential=dict(WVN_POT, rho=10.0),
                        grid={"x_min": -3.0, "x_max": 2.0, "n": 168}))]
    messages = []
    for i, (command, cfg) in enumerate(bad):
        capsys.readouterr()
        code, prefix = run_cli(tmp_path, f"bad{i}", cfg, command)
        assert code == cli.EXIT_BAD_CONFIG
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"]["kind"] == "validation"
        messages.append(json.loads(lines[0])["error"]["message"])
        assert not (tmp_path / f"bad{i}.csv").exists()
    # a phi-plane fault is named by the config grid that makes it
    assert all("config.grid" in m for m in messages[-5:-1])
    assert "rho" in messages[-1]


def test_evolve_lays_out_every_plane_before_any_solve(tmp_path, monkeypatch):
    # the t = 0 plane of this grid is small (l in closed form); the t = 0.02
    # plane at the grid's spacing would have 4.7e11 nodes, a config fault
    # that exits 2 before the t = 0 plane is solved
    def solve(state, grid):
        pytest.fail("a phi-plane was solved before every t's plane was laid out")

    monkeypatch.setattr(cli.kdv, "evolved_phi_plane", solve)
    cfg = {"potential": WVN_POT, "grid": {"x_min": 1.999999999, "x_max": 2.0, "n": 11},
           "states": [{"omega": 1.0, "alpha": 1.0}], "time": {"t_values": [0.0, 0.02]}}
    code, _ = run_cli(tmp_path, "late_fault", cfg, "evolve")
    assert code == cli.EXIT_BAD_CONFIG


@pytest.mark.parametrize("state", [{"omega": 2.0, "alpha": 1.0, "r_at_omega": [-1, 0]},
                                   {"omega": 1.0, "alpha": 1.0, "r_at_omega": [1, 0]}])
def test_evolve_rejects_a_state_other_than_omega_one(tmp_path, capsys, state):
    # evolve inserts at omega = 1 with R(1) = -1; any other state is refused,
    # not silently replaced by that one
    cfg = {"potential": WVN_POT, "grid": {"x_min": -3.0, "x_max": 2.0, "n": 51},
           "states": [state], "time": {"t_values": [0.0]}}
    code, prefix = run_cli(tmp_path, "other_state", cfg, "evolve")
    assert code == cli.EXIT_BAD_CONFIG
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "validation" and "config.states[0]" in error["message"]
    assert not os.path.exists(prefix + ".csv")


def test_linalg_error_is_numerical(tmp_path, monkeypatch, capsys):
    def singular(spec, ks):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli.scattering, "scattering_coefficients", singular)
    cfg = {"potential": WVN_POT, "k_grid": {"k_min": 0.5, "k_max": 2.0, "n": 3}}
    code, _ = run_cli(tmp_path, "singular", cfg, "scatter")
    assert code == cli.EXIT_NUMERICAL
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "numerical"
    # so is a float overflow: a finite momentum that the closed form cannot cube
    cfg = {"potential": WVN_POT, "grid": {"x_min": -3.0, "x_max": 2.0, "n": 6},
           "states": [{"omega": 1e300, "alpha": 1.0}]}
    code, _ = run_cli(tmp_path, "overflow", cfg, "evolve")
    assert code == cli.EXIT_NUMERICAL
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "numerical"


def test_recursion_in_a_run_is_not_a_config_fault(tmp_path, monkeypatch):
    # only the reader's recursion over nested potentials is a config fault
    def deep(spec, ks):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli.scattering, "scattering_coefficients", deep)
    cfg = {"potential": WVN_POT, "k_grid": {"k_min": 0.5, "k_max": 2.0, "n": 3}}
    with pytest.raises(RecursionError):
        run_cli(tmp_path, "deep", cfg, "scatter")


def test_missing_config_file(tmp_path):
    code = cli.main(["scatter", "--config", str(tmp_path / "absent.json"),
                     "--output", str(tmp_path / "x")])
    assert code == cli.EXIT_BAD_CONFIG
    # nor can a file that is not text, or nests past the JSON parser's stack, be read
    for name, content in [("binary.json", b"\xff\xfe{"), ("deep.json", b"[" * 100000)]:
        (tmp_path / name).write_bytes(content)
        code = cli.main(["scatter", "--config", str(tmp_path / name),
                         "--output", str(tmp_path / "x")])
        assert code == cli.EXIT_BAD_CONFIG


def test_verify_example_passes(tmp_path, capsys):
    code = cli.main(["verify-example", "--rho", "2.0", "--alpha", "1.0",
                     "--output", str(tmp_path / "verify")])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    meta = json.loads(open(str(tmp_path / "verify") + ".meta.json").read())
    assert all(c["passed"] for c in meta["diagnostics"]["checks"])
    # the residue's Richardson error estimate, behind the norming-constant check
    assert 0.0 <= meta["diagnostics"]["residue_error_estimate"] < 1e-4


def test_scatter_meta_records_ode_work(tmp_path):
    cfg = {"potential": WVN_POT,
           "k_grid": {"k_min": 0.5, "k_max": 2.0, "n": 5, "exclusions": [[1.0, 1e-3]]}}
    code, prefix = run_cli(tmp_path, "work", cfg, "scatter")
    assert code == 0
    diag = json.loads(open(prefix + ".meta.json").read())["diagnostics"]
    assert diag["n_k"] == 5
    assert diag["ode_solves"] == 1      # every momentum rides in one solve
    assert diag["ode_nfev"] > 0
    assert "workers" not in diag
    _assert_timed(diag, {"scan", "csv"})


# -- fuzzing main with hostile configs -----------------------------------------

SMALL_CONFIGS = {
    "scatter": {"potential": WVN_POT,
                "k_grid": {"k_min": 0.5, "k_max": 2.0, "n": 3, "exclusions": [[1.0, 1e-3]]}},
    "insert": {"potential": WVN_POT, "grid": {"x_min": -20.0, "x_max": 20.0, "n": 401},
               "states": [{"omega": 1.0, "alpha": 1.0, "r_at_omega": [-1.0, 0.0]}],
               "tolerances": {"ode_rtol": 1e-8}},
    "evolve": {"potential": WVN_POT, "grid": {"x_min": -3.0, "x_max": 2.0, "n": 6},
               "states": [{"omega": 1.0, "alpha": 1.0}], "time": {"t_values": [0.02]}},
    "verify-example": {"rho": 2.0, "alpha": 1.0},
}
SMALL_CONFIGS["remove"] = SMALL_CONFIGS["insert"]

# wrong JSON types, non-finite and huge numbers (json reads 1e400 as inf), signs,
# zero and fractions, and nestings of them
_SCALARS = st.sampled_from(["x", None, True, math.nan, math.inf, -math.inf, 2**63, -1, 0, 0.5])
HOSTILE = _SCALARS | st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=2), inner, max_size=3), max_leaves=6)
HANG_S = 20.0


def _paths(node, path=()):
    """Paths to every value below node, in any object or list."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def hostile_config(draw, command):
    """The command's small config with one key deleted, one unknown key added or one
    value at any depth replaced by a hostile one."""
    cfg = copy.deepcopy(SMALL_CONFIGS[command])
    paths = list(_paths(cfg))
    op = draw(st.sampled_from(["delete", "add", "replace"]))
    if op == "delete":
        path = draw(st.sampled_from([p for p in paths if isinstance(_at(cfg, p[:-1]), dict)]))
        del _at(cfg, path[:-1])[path[-1]]
    elif op == "add":
        objects = [()] + [p for p in paths if isinstance(_at(cfg, p), dict)]
        _at(cfg, draw(st.sampled_from(objects)))["unknown"] = draw(HOSTILE)
    else:
        path = draw(st.sampled_from(paths))
        _at(cfg, path[:-1])[path[-1]] = draw(HOSTILE)
    return cfg


class _Hang(BaseException):
    """Raised by the per-example timer when main has not returned."""


def _raise_hang(signum, frame):
    raise _Hang


@pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
@given(data=st.data())
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
def test_main_is_total_on_hostile_configs(command, data):
    # every input ends in an exit code, with exactly one JSON error line on an
    # error exit, and an invalid config writes no output
    cfg = data.draw(hostile_config(command))
    with tempfile.TemporaryDirectory() as tmp:
        path, prefix = os.path.join(tmp, "config.json"), os.path.join(tmp, "run")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _raise_hang)
        signal.setitimer(signal.ITIMER_REAL, HANG_S)
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main([command, "--config", path, "--output", prefix])
        except _Hang:
            pytest.fail(f"{command} did not return within {HANG_S} s")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_BAD_CONFIG,
                        cli.EXIT_NUMERICAL)
        if code == cli.EXIT_CHECK_FAILED:
            assert command == "verify-example"
        if code in (cli.EXIT_BAD_CONFIG, cli.EXIT_NUMERICAL):
            lines = out.getvalue().splitlines()
            assert len(lines) == 1
            kind = json.loads(lines[0])["error"]["kind"]
            assert kind == ("validation" if code == cli.EXIT_BAD_CONFIG else "numerical")
        if code == cli.EXIT_BAD_CONFIG:
            assert not os.path.exists(prefix + ".csv")
