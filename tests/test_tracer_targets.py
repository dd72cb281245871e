"""The benchmark's tracer finds, in the package, every target its per-layer metrics time.

A metric whose target was renamed or deleted is reported as missing, and a
traced benchmark run then ends without a result line.  perfbench/tracer.py is
loaded from its file and only read.
"""

import importlib.util
from pathlib import Path

import positonkit.cli  # noqa: F401  (imports every layer module the tracer patches)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_resolves_every_per_layer_metric():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
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
