"""Workload definitions: seeded CLI configs and the checks on their outputs.

`plan(name, seed)` returns the CLI calls of one repetition; it uses only the
standard library, so the parent process can write the configs without
importing numpy.  `check_outputs` runs in the child after the timed section;
it imports numpy and the package's closed forms lazily.

Every tolerance below is one the package's own acceptance tests already pin.
"""

from __future__ import annotations

import json
import math
import os
import random

RHO = 2.0
WVN = {"kind": "wvn_example", "rho": RHO, "right_cutoff": 0.0}
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference", "evolve_t.json")

WORKLOADS = ("scan", "darboux", "evolve_t0", "evolve_t")


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _scan(seed):
    rng = _rng("scan", seed)
    k_min = 0.2 + rng.uniform(-0.05, 0.05)
    k_max = 3.0 + rng.uniform(-0.05, 0.05)
    return [("scatter", f"scatter-rho{rho}",
             {"potential": dict(WVN, rho=rho),
              "k_grid": {"k_min": k_min, "k_max": k_max, "n": 200,
                         "exclusions": [[1.0, 1e-3]]}})
            for rho in (0.5, 2.0)]


def _darboux(seed):
    rng = _rng("darboux", seed)
    calls = []
    for i in range(3):
        alpha = rng.uniform(0.5, 1.5)
        cfg = {"potential": WVN,
               "grid": {"x_min": -200.0, "x_max": 200.0, "n": 20001},
               "states": [{"omega": 1.0, "alpha": alpha}]}
        calls.append(("insert", f"insert-{i}", cfg))
        calls.append(("remove", f"remove-{i}", cfg))
    return calls


def _evolve_t0(seed):
    alpha = _rng("evolve_t0", seed).uniform(0.5, 1.5)
    return [("evolve", "evolve-t0",
             {"potential": WVN,
              "grid": {"x_min": -3.0, "x_max": 2.0, "n": 101},
              "states": [{"omega": 1.0, "alpha": alpha}],
              "time": {"t_values": [0.0]}})]


def _evolve_t(seed):
    del seed    # criterion 10's configuration, fixed: its oracle is a stored reference
    return [("evolve", "evolve-t",
             {"potential": WVN,
              "grid": {"x_min": -3.0, "x_max": 2.0, "n": 51},
              "states": [{"omega": 1.0, "alpha": 1.0}],
              "time": {"t_values": [0.02]}})]


_PLANS = {"scan": _scan, "darboux": _darboux, "evolve_t0": _evolve_t0,
          "evolve_t": _evolve_t}


def plan(name: str, seed: int) -> list:
    """The CLI calls of one repetition: a list of (command, label, config)."""
    return _PLANS[name](seed)


# -- checks ------------------------------------------------------------------

def _check(name, err, tol, closed_form=True):
    """One checked item; err is the measured error, NaN when it is not finite."""
    err = float(err)
    ok = math.isfinite(err) and err <= tol
    margin = None       # log10(tol / err) in decades, negative when the check fails
    if closed_form and math.isfinite(err) and err > 0:
        margin = math.log10(tol / err)
    return {"name": name, "err": err if math.isfinite(err) else None, "tol": tol,
            "passed": ok, "closed_form": closed_form, "margin": margin}


def _load_csv(prefix):
    import numpy as np
    path = prefix + ".csv"
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {h: data[:, i] for i, h in enumerate(header)}


def _max_err(a, b):
    import numpy as np
    d = np.abs(np.asarray(a) - np.asarray(b))
    return float(np.max(d)) if np.all(np.isfinite(d)) else math.nan


def _expected_momenta(kg):
    import numpy as np
    return [k for k in np.linspace(kg["k_min"], kg["k_max"], kg["n"])
            if abs(k) > 1e-3 and all(abs(k - c) > r for c, r in kg["exclusions"])]


def _check_scatter(label, cfg, prefix):
    import numpy as np
    from positonkit import wvn_example as wvn
    rho = cfg["potential"]["rho"]
    col = _load_csv(prefix)
    ks = _expected_momenta(cfg["k_grid"])
    if len(col["k"]) != len(ks) or _max_err(col["k"], ks) > 1e-12:
        return [_check(f"{label}: momenta", math.nan, 0.0, closed_form=False)]
    closed = np.array([wvn.scattering_closed(rho, k)[:2] for k in ks])
    r = col["R_re"] + 1j * col["R_im"]
    t = col["T_re"] + 1j * col["T_im"]
    return [_check(f"{label}: |R - R_closed|", _max_err(r, closed[:, 1]), 1e-6),
            _check(f"{label}: |T - T_closed|", _max_err(t, closed[:, 0]), 1e-6)]


def _check_insert(label, cfg, prefix):
    from positonkit import wvn_example as wvn
    alpha = cfg["states"][0]["alpha"]
    col = _load_csv(prefix)
    with open(prefix + ".meta.json") as fh:
        norm = json.load(fh)["diagnostics"]["eigenfunction_norms"][0]
    return [_check(f"{label}: |q_new - q_plus1|",
                   _max_err(col["q_new"], wvn.q_plus1(RHO, alpha, col["x"])), 1e-6),
            _check(f"{label}: |norm - 1|", abs(float(norm) - 1.0), 1e-6)]


def _check_remove(label, cfg, prefix):
    from positonkit import wvn_example as wvn
    col = _load_csv(prefix)
    return [_check(f"{label}: |q_removed - q_seed|",
                   _max_err(col["q_removed"], wvn.q_seed(RHO, col["x"])), 1e-6)]


def _grid_x(cfg):
    import numpy as np
    g = cfg["grid"]
    return np.linspace(g["x_min"], g["x_max"], g["n"])


def _check_evolve(label, cfg, prefix):
    import numpy as np
    from positonkit import wvn_example as wvn
    col = _load_csv(prefix)
    if len(col["x"]) != cfg["grid"]["n"] or _max_err(col["x"], _grid_x(cfg)) > 1e-12:
        return [_check(f"{label}: x grid", math.nan, 0.0, closed_form=False)]
    if cfg["time"]["t_values"] == [0.0]:
        alpha = cfg["states"][0]["alpha"]
        return [_check(f"{label}: |q - q_seed|",
                       _max_err(col["q"], wvn.q_seed(RHO, col["x"])), 1e-3),
                _check(f"{label}: |q_plus - q_plus1|",
                       _max_err(col["q_plus"], wvn.q_plus1(RHO, alpha, col["x"])), 2e-3)]
    finite = all(np.all(np.isfinite(col[c])) for c in ("x", "t", "q", "q_plus"))
    out = [_check(f"{label}: finite", 0.0 if finite else math.nan, 0.0, closed_form=False)]
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    if ref["config"] != cfg:
        return out + [_check(f"{label}: reference config", math.nan, 0.0, closed_form=False)]
    for c in ("q", "q_plus"):
        out.append(_check(f"{label}: |{c} - reference|", _max_err(col[c], ref[c]), 1e-2,
                          closed_form=False))
    return out


_CHECKS = {"scatter": _check_scatter, "insert": _check_insert,
           "remove": _check_remove, "evolve": _check_evolve}


def check_outputs(command: str, label: str, cfg: dict, prefix: str) -> list:
    """Checks of one CLI call's outputs; a missing or unreadable output fails."""
    try:
        return _CHECKS[command](label, cfg, prefix)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [_check(f"{label}: outputs readable ({type(exc).__name__})",
                       math.nan, 0.0, closed_form=False)]


def output_rows(prefix: str) -> int:
    """Data rows in one call's CSV (0 when it is missing)."""
    try:
        with open(prefix + ".csv") as fh:
            return max(0, sum(1 for _ in fh) - 1)
    except OSError:
        return 0
