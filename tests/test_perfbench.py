"""The benchmark's own code against the package: the traced run wraps pptlab
functions by name, so every name it looks up must exist, or
`perfbench/run.py --trace 1` crashes at start-up; and every operation of
every workload must get its expected verdict."""

import importlib.util
import sys
from pathlib import Path

import pytest

import pptlab
from pptlab import certify, cli, qstate, segre, zoo  # noqa: F401  (the wrapped modules)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = load("workloads").WORKLOADS


def test_every_wrapped_name_exists():
    spans = load("spans")
    missing = [f"{layer}.{name}" for layer, names in spans.WRAPPED.items()
               for name in names if not callable(getattr(getattr(pptlab, layer), name, None))]
    assert missing == []
    assert callable(getattr(pptlab.segre, "enumerate_product_vectors", None))
    assert callable(getattr(pptlab.cli.AnalysisReport, "to_json", None))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_op_gets_its_verdict(name, tmp_path):
    # one pass at seed 0: a verdict regression fails here before the
    # benchmark counts it among its incorrect outputs
    workload = WORKLOADS[name]
    problems = {op.label: op.run() for op in workload.build(0, tmp_path)}
    assert {label: p for label, p in problems.items()
            if p and label not in workload.known_defects} == {}
