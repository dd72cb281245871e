import contextlib
import copy
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positonkit import cli, hankel, kdv
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


_SAMPLED_X = np.linspace(-8.0, 0.0, 161)
KIND_POTENTIALS = {"zero": {"kind": "zero"}, "wvn_example": WVN_POT,
                   "sampled": {"kind": "sampled", "x": _SAMPLED_X.tolist(),
                               "q": wvn.q_seed(2.0, _SAMPLED_X).tolist()}}


@pytest.mark.parametrize("kind", sorted(cli._POTENTIALS))
def test_every_potential_kind_scatters(tmp_path, kind):
    # every kind the reader accepts has a finite right cutoff and a left
    # reference solution, so a scan of it runs
    cfg = {"potential": KIND_POTENTIALS[kind],
           "k_grid": {"k_min": 0.5, "k_max": 2.0, "n": 4, "exclusions": [[1.0, 1e-3]]}}
    code, prefix = run_cli(tmp_path, kind, cfg, "scatter")
    assert code == cli.EXIT_OK
    data = np.loadtxt(prefix + ".csv", delimiter=",", skiprows=1)
    assert data.shape == (3, 5)          # k = 0.5, 1.5, 2: k = 1 is excluded
    diag = json.loads(open(prefix + ".meta.json").read())["diagnostics"]
    assert diag["max_unitarity_defect"] < 1e-6


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
        assert set(diag[key]["timings_s"]) == {"plane", "q"}
        assert min(diag[key]["timings_s"].values()) >= 0.0
    # at t = 0 q comes off the phi-plane a run with a state solves (below), and
    # only a t > 0 row without a state has no phi-plane
    assert diag["t=0.0"]["q_source"] == "chain_log_det"
    assert diag["t=0.0"]["timings_s"]["plane"] > 0.0
    assert 0.0 <= diag["t=0.0"]["plane_tail_fit_residual"] < 1e-2
    assert "q_points_own_chain" not in diag["t=0.0"]
    assert "plane_tail_fit_residual" not in diag["t=0.02"]
    assert "kernel_u_points" not in diag["t=0.0"]
    seed_only = diag["t=0.0"]
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
    # intervals.  At t = 0 the plane's step is S_MAX = 0.05 (phi_x is a stencil
    # along it): two chains at delta = 0.1, chain 0 alone left of the window
    # [-3.4, 3.3] (416 + 135 nodes), factored for x = -45 and for the window
    cfg = dict(cfg, states=[{"omega": 1.0, "alpha": 1.0}])
    code, prefix = run_cli(tmp_path, "evo_plane", cfg, "evolve")
    assert code == 0
    diags = json.loads(open(prefix + ".meta.json").read())["diagnostics"]
    for key, q_source, nodes, spacing, delta, factor_points in (
            ("t=0.0", "chain_log_det", 551, 0.05, 0.1, [1061, 267]),
            ("t=0.02", "plane_glm", 49, 1.0, 0.2, [531])):
        diag = diags[key]
        assert diag["plane_nodes"] == nodes
        assert diag["plane_spacing"] == pytest.approx(spacing, rel=1e-12)
        assert diag["plane_operator_spacing"] == pytest.approx(delta, abs=1e-12)
        assert diag["plane_chains"] == len(factor_points)
        assert diag["plane_factor_points"] == factor_points
        assert diag["operator_points_max"] == factor_points[0]
        assert diag["q_source"] == q_source
        assert 0.0 <= diag["plane_tail_fit_residual"] < 1e-2
    # the t = 0 phi-plane is the seed-only run's: the same layout and q, bit for bit
    for key in ("plane_nodes", "plane_spacing", "plane_factor_points", "plane_kink_factor_points"):
        assert seed_only[key] == diags["t=0.0"][key]
    with_state = np.loadtxt(prefix + ".csv", delimiter=",", skiprows=1)
    assert np.array_equal(with_state[t0, 2], data[t0, 2])


@pytest.mark.parametrize("t, n", [(0.0, 101), (0.02, 51)])
def test_evolve_meta_records_pivot_margin(tmp_path, t, n):
    # the evolve_t0 and evolve_t benchmark configurations: the smallest chain
    # pivot or border Schur complement, relative to its scale, lies in (0, 1]
    cfg = {"potential": WVN_POT, "grid": {"x_min": -3.0, "x_max": 2.0, "n": n},
           "states": [{"omega": 1.0, "alpha": 1.0}], "time": {"t_values": [t]}}
    code, prefix = run_cli(tmp_path, "evo_margin", cfg, "evolve")
    assert code == 0
    diag = json.loads(open(prefix + ".meta.json").read())["diagnostics"][f"t={t}"]
    assert 0.0 < diag["pivot_margin"] <= 1.0
    assert "log_det_phase_max" not in diag


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


@pytest.mark.parametrize("rho, dropped, kink, spacing, factor_points", [
    (2.0, 0, 15, 0.025, [715]),     # the evolve_t0 configuration, at delta = 0.1
    # x = -0.25 would need a spacing of 0.025 and take the factor past M_OP_CAP
    (0.3, 1, 12, 0.05, [1191])])
def test_evolve_t0_serves_q_next_to_the_kink_off_one_chain(tmp_path, rho, dropped, kink, spacing,
                                                          factor_points):
    # the output nodes -9 delta < x <= -x_thin that the phi-plane's chains cannot
    # serve share one kink chain; one it drops is read off its neighbours
    cfg = {"potential": dict(WVN_POT, rho=rho), "grid": {"x_min": -3.0, "x_max": 2.0, "n": 101},
           "states": [{"omega": 1.0, "alpha": 1.0}], "time": {"t_values": [0.0]}}
    code, prefix = run_cli(tmp_path, "evo_kink", cfg, "evolve")
    assert code == 0
    diag = json.loads(open(prefix + ".meta.json").read())["diagnostics"]["t=0.0"]
    assert diag["q_points_kink_chain"] == kink
    assert "q_points_own_chain" not in diag
    assert diag["plane_kink_factor_points"] == factor_points
    assert diag["plane_kink_spacing"] == pytest.approx(spacing, rel=1e-12)
    x, _, q, _ = np.loadtxt(prefix + ".csv", delimiter=",", skiprows=1).T
    x_thin = kdv.EvolvedState(0.0, wvn.ExampleParams(rho)).x_thin
    band = (x > -9.0 * diag["plane_operator_spacing"] + 1e-9) & (x <= -x_thin)
    assert np.count_nonzero(band) == kink + dropped
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


@pytest.mark.parametrize("x_max, n, refine", [(2.0, 51, 2), (2.0, 34, 4), (2.0, 26, 4),
                                              (3.0, 7, 20)])
def test_evolve_t0_coarse_grid_meets_its_gate(tmp_path, x_max, n, refine):
    # phi_x is a stencil along the plane, so the plane's step is the output's h
    # refined to S_MAX = 0.05 or below; at h = 0.1, 0.15, 0.2 and 1 itself the
    # closed-form q_plus error read 3.3e-3, 1.2e-2, 2.6e-2 and 1.3 on these grids
    cfg = {"potential": WVN_POT, "grid": {"x_min": -3.0, "x_max": x_max, "n": n},
           "states": [{"omega": 1.0, "alpha": 1.0}], "time": {"t_values": [0.0]}}
    code, prefix = run_cli(tmp_path, "evo_coarse", cfg, "evolve")
    assert code == 0
    x, _, q, q_plus = np.loadtxt(prefix + ".csv", delimiter=",", skiprows=1).T
    assert np.max(np.abs(q_plus - wvn.q_plus1(2.0, 1.0, x))) <= 2e-3
    diag = json.loads(open(prefix + ".meta.json").read())["diagnostics"]["t=0.0"]
    assert diag["plane_spacing"] == pytest.approx((x_max + 3.0) / (n - 1) / refine, rel=1e-12)


def test_bad_config_exit_code(tmp_path, capsys):
    k_grid = {"k_min": 0.5, "k_max": 2.0, "n": 3}
    sampled = {"kind": "sampled", "x": [-5.0, 0.0], "q": [0.0, 0.0]}
    scatter = [{"potential": {"kind": "nope"}, "k_grid": k_grid},
               # json reads 1e400 as an infinite float
               {"potential": WVN_POT, "k_grid": dict(k_grid, k_min=-1e400)},
               {"potential": WVN_POT, "k_grid": dict(k_grid, n=1e400)},
               {"potential": [1, 2], "k_grid": k_grid},
               {"potential": dict(WVN_POT, rho=float("nan")), "k_grid": k_grid},
               {"potential": dict(WVN_POT, right_cutoff=float("nan")), "k_grid": k_grid},
               {"potential": dict(WVN_POT, right_cutoff=-3.0), "k_grid": k_grid},
               {"potential": dict(WVN_POT, right_cutoff="0"), "k_grid": k_grid},
               # null is not a number, though None is the library's default cutoff
               {"potential": dict(WVN_POT, right_cutoff=None), "k_grid": k_grid},
               {"potential": {"kind": "shifted", "inner": 5, "shift": 1}, "k_grid": k_grid},
               {"potential": {"kind": "sum", "parts": None}, "k_grid": k_grid},
               {"potential": {"kind": "sampled", "x": "abc", "q": "def"}, "k_grid": k_grid},
               {"potential": {"kind": "sampled", "x": [0, 0, 1], "q": [0, 0, 0]}, "k_grid": k_grid},
               {"potential": {"kind": "sym_plus_one", "rho": 2, "tail_tol": "x"}, "k_grid": k_grid},
               # kinds and keys no command can run are unknown
               {"potential": {"kind": "sym_plus_one", "rho": 2}, "k_grid": k_grid},
               {"potential": {"kind": "shifted", "inner": WVN_POT, "shift": 0.0}, "k_grid": k_grid},
               {"potential": {"kind": "sum", "parts": [WVN_POT]}, "k_grid": k_grid},
               {"potential": dict(sampled, tail_tol=0.0), "k_grid": k_grid},
               {"potential": {"kind": "wvn_example", "rho": True}, "k_grid": k_grid},
               {"potential": WVN_POT, "k_grid": dict(k_grid, n=2**63)}]
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


@pytest.mark.parametrize("t", [0.0, 0.02])
def test_evolve_core_not_positive_definite_exits_numerical(tmp_path, monkeypatch, capsys, t):
    # every chain core is factored by Cholesky; a core that is not positive
    # definite (here negated) exits 3 with one JSON error line
    symmetric_core = hankel._symmetric_core
    monkeypatch.setattr(hankel, "_symmetric_core", lambda h, sqrt_w: -symmetric_core(h, sqrt_w))
    cfg = {"potential": WVN_POT, "grid": {"x_min": -3.0, "x_max": 2.0, "n": 6},
           "states": [], "time": {"t_values": [t]}}
    code, _ = run_cli(tmp_path, "indefinite", cfg, "evolve")
    assert code == cli.EXIT_NUMERICAL
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "numerical" and "not positive definite" in error["message"]


@pytest.mark.parametrize("t, n", [(0.0, 101), (0.02, 51)])
def test_evolve_negative_determinant_exits_numerical(tmp_path, monkeypatch, capsys, t, n):
    # 1 / Gamma lowered by 100 flips the sign of the resonance border's Schur
    # complement, and so of det(I + H), at every node of the evolve_t0 and
    # evolve_t benchmark configurations; each exits 3 with one JSON error line
    border = hankel._resonance_border

    def shifted(*args):
        log_gamma, s_row, s_inv_gamma = border(*args)
        return log_gamma, s_row, s_inv_gamma - 100.0

    monkeypatch.setattr(hankel, "_resonance_border", shifted)
    cfg = {"potential": WVN_POT, "grid": {"x_min": -3.0, "x_max": 2.0, "n": n},
           "states": [{"omega": 1.0, "alpha": 1.0}], "time": {"t_values": [t]}}
    code, prefix = run_cli(tmp_path, "negative", cfg, "evolve")
    assert code == cli.EXIT_NUMERICAL
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["kind"] == "numerical" and "positivity" in error["message"]
    assert not os.path.exists(prefix + ".csv")


def test_grid_past_the_samples_reads_q_as_zero(tmp_path):
    # the samples end at x = 0, and the grid runs on to x = 60, where q is 0
    x = np.linspace(-120.0, 0.0, 2401)
    cfg = {"potential": {"kind": "sampled", "x": x.tolist(), "q": wvn.q_seed(2.0, x).tolist()},
           "grid": {"x_min": -60.0, "x_max": 60.0, "n": 2001}, "states": []}
    code, prefix = run_cli(tmp_path, "past_samples", cfg, "insert")
    assert code == cli.EXIT_OK
    data = np.loadtxt(prefix + ".csv", delimiter=",", skiprows=1)
    assert np.all(data[data[:, 0] > 0.0, 1] == 0.0)
    assert np.max(np.abs(data[:, 1] - wvn.q_seed(2.0, data[:, 0]))) < 1e-4


def test_sampled_potential_right_of_the_wronskian_point_scatters(tmp_path):
    # the samples start right of x = -4, where the Wronskians are taken; q is 0 left of them
    cfg = {"potential": {"kind": "sampled", "x": [-3.0, -2.0, -1.0, 0.0],
                         "q": [0.1, 0.2, 0.1, 0.0]},
           "k_grid": {"k_min": 0.5, "k_max": 2.0, "n": 5}}
    code, prefix = run_cli(tmp_path, "short_samples", cfg, "scatter")
    assert code == cli.EXIT_OK
    diag = json.loads(open(prefix + ".meta.json").read())["diagnostics"]
    assert diag["max_unitarity_defect"] < 1e-6


def test_recursion_in_a_run_is_not_a_config_fault(tmp_path, monkeypatch):
    # a RecursionError raised past the JSON parser is a fault of the program
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


def test_evolve_t0_csv_is_independent_of_the_blas_thread_count(tmp_path):
    # the evolve_t0 benchmark's config, run in two child processes at
    # OPENBLAS_NUM_THREADS=1 and 2, writes byte-identical CSVs.  This holds for
    # t = 0 only: t = 0.02 rows on the same grid still differ between the two
    # thread counts by up to 2.7e-15, which is left open (README, "Identical configs")
    cfg = {"potential": WVN_POT, "grid": {"x_min": -3.0, "x_max": 2.0, "n": 101},
           "states": [{"omega": 1.0, "alpha": 1.0}], "time": {"t_values": [0.0]}}
    cfg_path = tmp_path / "evolve_t0.json"
    cfg_path.write_text(json.dumps(cfg))
    src = str(Path(__file__).resolve().parent.parent / "src")
    csvs = []
    for threads in ("1", "2"):
        prefix = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-m", "positonkit", "evolve", "--config",
                              str(cfg_path), "--output", str(prefix)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == cli.EXIT_OK, out.stderr
        meta = json.loads(prefix.with_suffix(".meta.json").read_text())
        assert meta["blas_threads"] == threads
        csvs.append(prefix.with_suffix(".csv").read_bytes())
    assert csvs[0] == csvs[1]
