"""Layer spans and counters for the traced benchmark run.

Nothing in pptlab is edited.  For the traced run the benchmark replaces the
public functions of each layer, at every module attribute that holds them
(so `certify.enumerate_product_vectors`, imported from `segre`, is wrapped
too), with wrappers that record a span: name, start, end, parent span and
operation id.  `numpy.linalg.svd`, `eigh` and `eigvalsh` are wrapped with
counters credited to the innermost open span's layer.  Everything is kept in
memory and restored when the traced run ends.

Self time is a span's duration minus the durations of its child spans.
Figures are per operation unless the name says otherwise; spans opened
during set-up (operation id None) only feed `zoo.construct.self_s`.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

import numpy as np

LAYERS = ("qstate", "segre", "certify", "cli")
LINALG = ("svd", "eigh", "eigvalsh")

# Public functions wrapped per layer; zoo constructors share one span name.
WRAPPED = {
    "qstate": ["rank_profile", "is_ppt", "kernel_basis", "range_basis", "load_state"],
    "zoo": ["good_3x4", "kon_mnogo", "gentiles2_upb", "upb_complement_state", "good_3xn",
            "bad_3x4", "bad_3xn", "bad_mxn"],
    "segre": ["find_line_subspaces", "transversal", "general_position", "minor_system_roots",
              "classify_goodness", "ces_certificate"],
    "certify": ["extremality_nullity", "edge_check", "witness_decomposition",
                "strongly_extreme_by_theorem"],
    "cli": ["main", "analyze_state"],
}


def _enumerate_name(parent):
    """Kernel, range-CES or edge-range enumeration, told apart by the caller."""
    if parent == "segre.ces_certificate":
        return "segre.enumerate.range_ces"
    if parent == "certify.edge_check":
        return "segre.enumerate.edge_range"
    return "segre.enumerate.kernel"


def svd_flops(shape, is_complex: bool, full_matrices: bool, compute_uv: bool) -> float:
    """Computed (not measured) flop count of one SVD, Golub-Van Loan estimates
    for the Golub-Reinsch algorithm; complex arithmetic counts four times."""
    m, n = max(shape[-2:]), min(shape[-2:])
    if not compute_uv:
        flops = 4 * m * n ** 2 - 4 * n ** 3 / 3
    elif full_matrices:
        flops = 4 * m ** 2 * n + 8 * m * n ** 2 + 9 * n ** 3
    else:
        flops = 14 * m * n ** 2 + 8 * n ** 3
    return flops * (4 if is_complex else 1)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list = []     # [name, start, end, parent index, op id]
        self.stack: list = []     # indices of open spans
        self.op = None            # current operation id; None during set-up
        self.counts = defaultdict(float)
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = name(tracer.spans[parent][0] if parent is not None else None) \
                if callable(name) else name
            idx = len(tracer.spans)
            tracer.spans.append([span, time.perf_counter(), None, parent, tracer.op])
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                tracer.spans[idx][2] = time.perf_counter()
            if on_result is not None and tracer.op is not None:
                on_result(span, result)
            return result
        return wrapper

    def _count_linalg(self, fn, kind):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if tracer.op is not None:
                layer = (tracer.spans[tracer.stack[-1]][0].split(".")[0]
                         if tracer.stack else "unattributed")
                arr = np.asarray(a)
                batch = math.prod(arr.shape[:-2])
                tracer.counts[f"{layer}.linalg.{kind}.calls"] += 1
                tracer.counts[f"{layer}.linalg.{kind}.matrices"] += batch
                if kind == "svd" and layer == "segre":
                    full = kwargs.get("full_matrices", args[0] if args else True)
                    uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
                    tracer.counts["segre.svd.flops_computed"] += batch * svd_flops(
                        arr.shape, np.iscomplexobj(arr), full, uv)
            return fn(a, *args, **kwargs)
        return wrapper

    def _on_enumeration(self, span, result):
        ev = result.evidence
        for key in ("starts_used", "rounds", "raw_accepted"):
            self.counts[f"{span}.{key}"] += ev.get(key, 0)
        self.counts[f"{span}.points"] += result.count

    def _on_edge(self, span, report):
        self.counts["certify.edge_check.starts_used"] += report.starts_used

    def _on_nullity(self, span, cert):
        self.counts["certify.extremality_nullity.nullity_gt1"] += cert.nullity > 1

    # -- installing --------------------------------------------------------

    def _replace(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self, pptlab):
        """Wrap the layer functions of the imported `pptlab` package."""
        mods = {name: getattr(pptlab, name) for name in ("qstate", "zoo", "segre", "certify", "cli")}
        everywhere = [pptlab, *mods.values()]
        hooks = {"certify.edge_check": self._on_edge,
                 "certify.extremality_nullity": self._on_nullity}
        for layer, names in WRAPPED.items():
            for fname in names:
                span = "zoo.construct" if layer == "zoo" else f"{layer}.{fname}"
                fn = getattr(mods[layer], fname)
                self._replace(everywhere, fn, self._wrap(fn, span, hooks.get(span)))
        fn = mods["segre"].enumerate_product_vectors
        self._replace(everywhere, fn, self._wrap(fn, _enumerate_name, self._on_enumeration))
        report = mods["cli"].AnalysisReport
        self._undo.append((report, "to_json", report.to_json))
        report.to_json = self._wrap(report.to_json, "cli.report.to_json")
        for kind in LINALG:
            fn = getattr(np.linalg, kind)
            self._undo.append((np.linalg, kind, fn))
            setattr(np.linalg, kind, self._count_linalg(fn, kind))

    def uninstall(self):
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------

    def metrics(self, op_times: list) -> dict:
        """Per-layer figures over the operations timed in `op_times`; a span
        or counter that never fired is absent, and reads as zero."""
        n_ops = len(op_times)
        total = sum(op_times)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        covered = 0.0
        construct = 0.0
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            own = end - start - child[i]
            if op is None:
                if name == "zoo.construct":
                    construct += own
                continue
            self_s[name] += own
            calls[name] += 1
            if parent is None:
                covered += end - start

        out = {"zoo.construct.self_s": construct}
        for name in self_s:
            out[f"{name}.self_s"] = self_s[name] / n_ops
            out[f"{name}.calls"] = calls[name] / n_ops
        for key, value in self.counts.items():
            out[key] = value / n_ops
        raw = self.counts["segre.enumerate.kernel.raw_accepted"]
        out["segre.enumerate.kernel.useful_ratio"] = (
            self.counts["segre.enumerate.kernel.points"] / raw if raw else 0.0)
        for layer in LAYERS:
            share = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
            out[f"{layer}.self_share"] = share / total if total else 0.0
        out["unattributed_s"] = (total - covered) / n_ops
        return out

    def span_records(self):
        for name, start, end, parent, op in self.spans:
            yield {"name": name, "start": start, "end": end, "parent": parent, "op": op}
