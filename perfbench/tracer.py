"""Outside-in tracing of positonkit's layers.

The tracer patches module and class attributes of the imported package with
timing wrappers and puts every original back afterwards.  Each wrapper opens a
span with a category (one layer, or one named piece of it); a span's self time
is its duration minus that of the wrapped spans it encloses, so the self times
of all categories partition the time spent inside the outermost spans.

A target that no longer exists is recorded as missing instead of failing, and
every metric that depends only on missing targets is reported as missing
rather than as 0.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Public functions of these modules are wrapped into a category named after
# the module.
LAYER_MODULES = ("schrodinger", "scattering", "darboux", "tails", "kdv", "cli")

# Named targets: (module, dotted attribute, category).  They override the
# per-module default above and reach into classes and imported names.
TARGETS = [
    ("schrodinger", "solve_ivp", "schrodinger.ode"),
    ("hankel", "KernelTable.__init__", "hankel.kernel_table"),
    ("hankel", "DetState.__init__", "hankel.det_build"),
    ("hankel", "DetState.log_det", "hankel.solve"),
    ("hankel", "DetState.log_det_derivatives", "hankel.solve"),
    ("hankel", "DetState.solve_jost", "hankel.solve"),
    ("hankel", "DetState.solve_jost_with_derivative", "hankel.solve"),
    ("hankel", "lu_factor", "hankel.lu"),
    ("hankel", "lu_solve", "hankel.lu_solve"),
    ("kdv", "EvolvedState.det_state", "kdv.det_state"),
    ("kdv", "EvolvedState.kernel", "kdv"),
    ("kdv", "evolved_phi_plane", "kdv.plane"),
    ("kdv", "dyson_q", "kdv.dyson_q"),
    ("cli", "_write_csv", "cli.write"),
    ("cli", "_write_meta", "cli.write"),
    ("darboux", "TransformResult.to_csv", "cli.write"),
]

MOMENTUM_ARGS = ("k", "ks", "omega", "lam")


def _resolve(owner, dotted):
    """(object holding the last name, last name, value) or None when absent."""
    *path, name = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name, vars(owner)[name]


class Tracer:
    """Spans, self times and work counters for one traced process."""

    def __init__(self):
        self.stack = []                       # per open span: seconds spent in its children
        self.active = Counter()               # open spans per category
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)     # time of spans not nested in their own category
        self.outer_calls = Counter()
        self.count = Counter()                # work counters filled by the hooks
        self.lu_n = []                        # order of each LU factorization
        self.momenta = set()                  # (CLI call, k) delivered by the scattering layer
        self.precheck_s = 0.0                 # scattering time nested in darboux calls
        self.cli_call = 0
        self.wrapped = set()                  # categories with at least one wrapper
        self.broken = set()                   # categories whose hook failed
        self.missing = []
        self.hook_errors = []
        self._patches = []
        self._signatures = {}

    # -- spans ----------------------------------------------------------------

    def _wrap(self, category, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = tracer.active[category] == 0
            if hook is not None and outer:
                tracer._run_hook(hook, category, "enter", fn, args, kwargs, None)
            tracer.stack.append(0.0)
            tracer.active[category] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.active[category] -= 1
                tracer.self_s[category] += dt - tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1] += dt
                if outer:
                    tracer.outer_s[category] += dt
                    tracer.outer_calls[category] += 1
                    if category == "scattering" and tracer.active["darboux"]:
                        tracer.precheck_s += dt
            if hook is not None and outer:
                tracer._run_hook(hook, category, "exit", fn, args, kwargs, result)
            return result

        return wrapper

    def _run_hook(self, hook, category, phase, fn, args, kwargs, result):
        try:
            hook(self, phase, fn, args, kwargs, result)
        except Exception as exc:   # a renamed field must not break the traced run
            self.broken.add(category)
            self.hook_errors.append(f"{hook.__name__}: {type(exc).__name__}: {exc}")

    def signature(self, fn):
        sig = self._signatures.get(fn)
        if sig is None:
            sig = self._signatures[fn] = inspect.signature(fn)
        return sig

    # -- patching ---------------------------------------------------------------

    def _patch(self, owner, name, original, wrapper):
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        modules = {name.rsplit(".", 1)[-1]: m for name, m in list(sys.modules.items())
                   if m is not None and (name == "positonkit" or name.startswith("positonkit."))}
        plan = {}                             # id(original) -> (original, category, [(owner, name)])
        for mod_name in LAYER_MODULES:
            mod = modules.get(mod_name)
            if mod is None:
                self.missing.append(mod_name)
                continue
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    plan[id(obj)] = (obj, mod_name, [(mod, name)])
        for mod_name, dotted, category in TARGETS:
            found = _resolve(modules.get(mod_name), dotted) if mod_name in modules else None
            if found is None or not callable(found[2]):
                self.missing.append(f"{mod_name}.{dotted}")
                continue
            owner, name, obj = found
            plan[id(obj)] = (obj, category, [(owner, name)])
        # names re-bound by import (`from .schrodinger import right_jost`, ...)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                entry = plan.get(id(obj))
                if entry is not None and entry[0] is obj and (mod, name) not in entry[2]:
                    entry[2].append((mod, name))
        for obj, category, sites in plan.values():
            wrapper = self._wrap(category, obj, HOOKS.get(category))
            self.wrapped.add(category)
            for owner, name in sites:
                self._patch(owner, name, obj, wrapper)

    def restore(self) -> bool:
        """Put every original back; True when all of them are in place again."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        ok = all(vars(owner).get(name) is original for owner, name, original in self._patches)
        self._patches.clear()
        return ok

    # -- metrics ----------------------------------------------------------------

    def metrics(self, x_rows: int, bytes_written: int) -> tuple[dict, list]:
        """Per-layer metrics and the names of those whose targets are missing."""
        def ratio(a, b):
            return a / b if b else 0.0

        c, s, o = self.count, self.self_s, self.outer_s
        lu_n = self.lu_n
        table = [
            ("schrodinger.ode_calls", "count", ["schrodinger.ode"], lambda: self.outer_calls["schrodinger.ode"]),
            ("schrodinger.ode_nfev", "count", ["schrodinger.ode"], lambda: c["ode_nfev"]),
            ("schrodinger.ode_s", "s", ["schrodinger.ode"], lambda: o["schrodinger.ode"]),
            ("schrodinger.self_s", "s", ["schrodinger"], lambda: s["schrodinger"]),
            ("scattering.calls", "count", ["scattering"], lambda: self.outer_calls["scattering"]),
            ("scattering.self_s", "s", ["scattering"], lambda: s["scattering"]),
            ("scattering.ode_per_momentum", "ratio", ["scattering", "schrodinger.ode"],
             lambda: ratio(c["ode_under_scattering"], len(self.momenta))),
            ("darboux.self_s", "s", ["darboux"], lambda: s["darboux"]),
            ("darboux.precheck_s", "s", ["darboux", "scattering"],
             lambda: self.precheck_s),
            ("tails.fit_calls", "count", ["tails"], lambda: self.outer_calls["tails"]),
            ("tails.fit_s", "s", ["tails"], lambda: o["tails"]),
            ("hankel.kernel_table_builds", "count", ["hankel.kernel_table"],
             lambda: self.outer_calls["hankel.kernel_table"]),
            ("hankel.kernel_table_s", "s", ["hankel.kernel_table"], lambda: o["hankel.kernel_table"]),
            ("hankel.kernel_table_u_points", "count", ["hankel.kernel_table"],
             lambda: c["kernel_table_u_points"]),
            ("hankel.det_builds", "count", ["hankel.det_build"], lambda: self.outer_calls["hankel.det_build"]),
            ("hankel.det_build_s", "s", ["hankel.det_build"], lambda: o["hankel.det_build"]),
            ("hankel.det_cache_hit_ratio", "ratio", ["hankel.det_build", "kdv.det_state"],
             lambda: ratio(self.outer_calls["kdv.det_state"] - self.outer_calls["hankel.det_build"],
                           self.outer_calls["kdv.det_state"])),
            ("hankel.lu_calls", "count", ["hankel.lu"], lambda: self.outer_calls["hankel.lu"]),
            ("hankel.lu_s", "s", ["hankel.lu"], lambda: o["hankel.lu"]),
            ("hankel.lu_n_max", "count", ["hankel.lu"], lambda: max(lu_n, default=0)),
            ("hankel.lu_n_mean", "count", ["hankel.lu"], lambda: ratio(sum(lu_n), len(lu_n))),
            ("hankel.lu_gflop", "GFLOP", ["hankel.lu"],
             lambda: sum(8.0 * n ** 3 / 3.0 for n in lu_n) / 1e9),
            ("hankel.lu_solve_calls", "count", ["hankel.lu_solve"],
             lambda: self.outer_calls["hankel.lu_solve"]),
            ("hankel.lu_solve_s", "s", ["hankel.lu_solve"], lambda: o["hankel.lu_solve"]),
            ("hankel.solve_self_s", "s", ["hankel.solve"], lambda: s["hankel.solve"]),
            ("kdv.plane_s", "s", ["kdv.plane"], lambda: o["kdv.plane"]),
            ("kdv.plane_nodes", "count", ["kdv.plane"], lambda: c["plane_nodes"]),
            ("kdv.plane_s_per_node", "s", ["kdv.plane"], lambda: ratio(o["kdv.plane"], c["plane_nodes"])),
            ("kdv.dyson_q_calls", "count", ["kdv.dyson_q"], lambda: self.outer_calls["kdv.dyson_q"]),
            ("kdv.dyson_q_per_x", "ratio", ["kdv.dyson_q"], lambda: ratio(self.outer_calls["kdv.dyson_q"], x_rows)),
            ("cli.write_s", "s", ["cli.write"], lambda: o["cli.write"]),
            ("cli.bytes_written", "B", [], lambda: bytes_written),
        ]
        usable = self.wrapped - self.broken
        out, missing = {}, []
        for name, unit, needs, fn in table:
            if all(cat in usable for cat in needs):
                out[name] = {"value": float(fn()), "unit": unit}
            else:
                missing.append(name)
        return out, missing


# -- hooks: work counters read from arguments and results ------------------------

def _ode_hook(tracer, phase, fn, args, kwargs, result):
    if phase == "enter":
        if tracer.active["scattering"]:
            tracer.count["ode_under_scattering"] += 1
    else:
        tracer.count["ode_nfev"] += int(result.nfev)


def _momentum_hook(tracer, phase, fn, args, kwargs, result):
    """Record the distinct momenta that a call into the scattering layer asks for."""
    if phase != "enter":
        return
    bound = tracer.signature(fn).bind_partial(*args, **kwargs).arguments
    for name in MOMENTUM_ARGS:
        if name in bound:
            for k in np.ravel(np.asarray(bound[name], dtype=complex)):
                tracer.momenta.add((tracer.cli_call, complex(k)))
            return


def _kernel_table_hook(tracer, phase, fn, args, kwargs, result):
    if phase == "exit":
        tracer.count["kernel_table_u_points"] += len(args[0].u_grid)


def _lu_hook(tracer, phase, fn, args, kwargs, result):
    if phase == "enter":
        a = tracer.signature(fn).bind_partial(*args, **kwargs).arguments["a"]
        tracer.lu_n.append(int(a.shape[0]))


def _plane_hook(tracer, phase, fn, args, kwargs, result):
    if phase == "enter":
        grid = tracer.signature(fn).bind_partial(*args, **kwargs).arguments["grid"]
        tracer.count["plane_nodes"] += int(grid.n_points)


HOOKS = {
    "schrodinger.ode": _ode_hook,
    "scattering": _momentum_hook,
    "hankel.kernel_table": _kernel_table_hook,
    "hankel.lu": _lu_hook,
    "kdv.plane": _plane_hook,
}
