"""The benchmark's tracer finds, in the package, every target its per-layer metrics time.

A metric whose target was renamed or deleted is reported as missing, and a
traced benchmark run then ends without a result line.  perfbench/tracer.py is
loaded from its file and only read.
"""

import importlib.util
from pathlib import Path

import numpy as np

import positonkit.cli  # noqa: F401  (imports every layer module the tracer patches)
from positonkit import kdv
from positonkit import wvn_example as wvn

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_resolves_every_per_layer_metric():
    tracer = _tracer()
    tracer.install()
    try:
        metrics, missing = tracer.metrics(0, 0)
    finally:
        restored = tracer.restore()
    assert restored
    assert missing == []
    assert len(metrics) == 32
    # the one absent target shares its category with targets that exist
    assert set(tracer.missing) <= {"hankel.DetState.log_det_derivatives"}


def test_tracer_counts_the_kernel_lattice_of_each_plane():
    # two chains at delta = 0.1 over nodes 0.05 apart: the t = 0.02 plane's one
    # KernelTable is the lattice 2 x[0] + 0.1 j, chain r's window its nodes j = r + i;
    # the t = 0 plane's closed-form kernel builds none
    x = -3.0 + 0.05 * np.arange(6)
    state = kdv.EvolvedState(0.02, wvn.ExampleParams(2.0))
    tracer = _tracer()
    tracer.install()
    try:
        plane = state.glm_plane(x)
        kdv.EvolvedState(0.0, wvn.ExampleParams(2.0)).glm_plane(x)
        metrics, missing = tracer.metrics(0, 0)
    finally:
        restored = tracer.restore()
    assert restored and missing == []
    assert tracer.broken == set() and tracer.hook_errors == []
    first, second = plane.factor_points
    assert metrics["hankel.kernel_table_builds"]["value"] == 1
    assert (metrics["hankel.kernel_table_u_points"]["value"] == state.kernel_u_points
            == max(2 * (first - 1), 1 + 2 * (second - 1)) + 1)


def test_every_chain_factor_goes_through_the_traced_lu_factor():
    # the benchmark's hankel.lu_* metrics count the calls of hankel.lu_factor:
    # a chain core factored any other way would leave them short of the plane's
    x = -3.0 + 0.05 * np.arange(6)
    for t in (0.0, 0.02):
        state = kdv.EvolvedState(t, wvn.ExampleParams(2.0))
        tracer = _tracer()
        tracer.install()
        try:
            plane = state.glm_plane(x)
            metrics, missing = tracer.metrics(0, 0)
        finally:
            restored = tracer.restore()
        assert restored and missing == []
        assert tracer.broken == set() and tracer.hook_errors == []
        assert metrics["hankel.lu_calls"]["value"] == len(plane.factor_points)
        assert metrics["hankel.lu_n_max"]["value"] == max(plane.factor_points)
