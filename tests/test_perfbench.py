"""The traced benchmark run wraps pptlab functions by name; every name it
looks up must exist, or `perfbench/run.py --trace 1` crashes at start-up."""

import importlib.util
from pathlib import Path

import pptlab
from pptlab import certify, cli, qstate, segre, zoo  # noqa: F401  (the wrapped modules)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{layer}.{name}" for layer, names in spans.WRAPPED.items()
               for name in names if not callable(getattr(getattr(pptlab, layer), name, None))]
    assert missing == []
    assert callable(getattr(pptlab.segre, "enumerate_product_vectors", None))
    assert callable(getattr(pptlab.cli.AnalysisReport, "to_json", None))
