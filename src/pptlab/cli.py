"""Command line front end.

Four subcommands:

- ``construct``  build a named state (or product basis) and write it to a
  JSON file,
- ``analyze``    run the full certification pipeline on a state file and
  emit a JSON or markdown report,
- ``sweep``      analyze a family over a parameter grid or random draws,
  one JSONL report line per point,
- ``verify-identities``  exact combinatorial self-checks.

Exit codes: 0 success, 2 malformed input or invalid parameters, 3 when the
analysis flagged a numerical anomaly.  Reports follow the versioned schema
"pptlab-report/1" and are byte-deterministic for a fixed input and seed;
wall-clock timings are only included on request (--timings) since they
would break that reproducibility.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import certify, qstate, segre, zoo

SCHEMA = "pptlab-report/1"

# What each route of the range and edge verdicts can claim.
_ROUTE_NOTES = {
    "homotopy": "complete by count: the homotopy found every product vector of the range",
    "multistart": "numerical certificate: multistart search cannot prove emptiness",
    "dimension-count": "theorem: a subspace of dimension above (m-1)(n-1) "
                       "contains product vectors",
}


# ---------------------------------------------------------------------------
# analysis pipeline


@dataclass(eq=False)
class AnalysisReport:
    """Machine-readable verdicts for one state."""

    descriptor: dict
    tolerances: dict
    rank_profile: qstate.RankProfile
    ppt: bool
    ppt_min_eig: float
    kernel: segre.EnumerationResult
    kernel_general_position: Optional[bool]
    range_ces: Optional[bool]
    range_evidence: Optional[dict]
    goodness: segre.GoodnessVerdict
    extremality: certify.ExtremalityCert
    extremality_gamma: Optional[certify.ExtremalityCert]
    strongly_extreme: certify.StrongExtremality
    edge: Optional[certify.EdgeReport]
    anomalies: list
    timings: dict = field(default_factory=dict)

    def to_json(self, include_timings: bool = False) -> dict:
        rp = self.rank_profile
        out = {
            "schema": SCHEMA,
            "input": self.descriptor,
            "tolerances": self.tolerances,
            "rank_profile": {
                "rank": rp.rank, "rank_gamma": rp.rank_gamma,
                "rank_a": rp.rank_a, "rank_b": rp.rank_b,
                "birank": [rp.rank, rp.rank_gamma],
                "singular_gaps": [float(g) for g in rp.singular_gaps],
            },
            "ppt": {"verdict": self.ppt, "min_eigenvalue": self.ppt_min_eig},
            "kernel": dict(self.kernel.to_json(),
                           general_position=self.kernel_general_position),
            "range_ces": None if self.range_ces is None else {
                "verdict": self.range_ces,
                "best_residual": self.range_evidence.get("best_residual"),
                "starts_used": self.range_evidence.get("starts_used"),
                "route": self.range_evidence.get("route"),
                "paths": self.range_evidence.get("paths"),
                "note": _ROUTE_NOTES[self.range_evidence.get("route")],
            },
            "goodness": {
                "verdict": self.goodness.verdict.value,
                "reason": self.goodness.reason.value if self.goodness.reason else None,
                "count": self.goodness.count,
                "anomaly": self.goodness.anomaly,
            },
            "extremality": self.extremality.to_json(),
            "extremality_of_partial_transpose": (
                None if self.extremality_gamma is None else self.extremality_gamma.to_json()),
            "strongly_extreme": self.strongly_extreme.value,
            "edge": None if self.edge is None else {
                "is_edge": self.edge.is_edge,
                "pair_found": self.edge.violating_pair is not None,
                "starts_used": self.edge.starts_used,
                "best_residual": self.edge.best_residual,
                "route": self.edge.route,
                "paths": self.edge.paths,
                "note": _ROUTE_NOTES[self.edge.route],
            },
            "anomalies": self.anomalies,
        }
        if include_timings:
            out["timings"] = self.timings
        return out

    def to_markdown(self) -> str:
        j = self.to_json()
        rp = j["rank_profile"]
        lines = [
            f"# State report ({SCHEMA})",
            "",
            f"- input: `{json.dumps(self.descriptor, sort_keys=True)}`",
            f"- birank: ({rp['rank']}, {rp['rank_gamma']}), "
            f"local ranks: ({rp['rank_a']}, {rp['rank_b']})",
            f"- PPT: {j['ppt']['verdict']} (min eigenvalue of partial transpose: "
            f"{j['ppt']['min_eigenvalue']:.3e})",
            f"- kernel product vectors: {j['kernel']['classification']}, "
            f"count {j['kernel']['count']}",
            f"- goodness: {j['goodness']['verdict']}"
            + (f" ({j['goodness']['reason']})" if j['goodness']['reason'] else ""),
            f"- extremality: {j['extremality']['verdict']} "
            f"(nullity {j['extremality']['nullity']}, gap "
            + (f"{j['extremality']['gap_ratio']:.2e})" if j['extremality']['gap_ratio']
               is not None else "n/a)"),
            f"- strongly extreme (theorem route): {j['strongly_extreme']}",
        ]
        if j["range_ces"] is not None:
            ces = j["range_ces"]
            best = ces["best_residual"]
            detail = f", best residual {best:.3e}" if best is not None else ""
            lines.append(f"- range is completely entangled: {ces['verdict']} "
                         f"(route {ces['route']}{detail}; {ces['note']})")
        if j["edge"] is not None:
            edge = j["edge"]
            lines.append(f"- edge state: {edge['is_edge']} "
                         f"(route {edge['route']}; {edge['note']})")
        if self.anomalies:
            lines.append(f"- anomalies: {', '.join(self.anomalies)}")
        return "\n".join(lines) + "\n"


def analyze_state(state: qstate.BipartiteState, descriptor: dict,
                  tol_rank: float = qstate.RANK_TOL,
                  tol_psd: float = qstate.PSD_TOL,
                  starts: Optional[int] = None,
                  fast: bool = False) -> AnalysisReport:
    """Run the full pipeline; `fast` skips the range and edge searches."""
    dims = state.dims
    dlt = zoo.delta(dims.m, dims.n)
    tols = {"rank": tol_rank, "psd": tol_psd,
            "residual": segre.RESIDUAL_TOL, "starts": starts}
    timings: dict = {}
    anomalies: list = []

    t0 = time.perf_counter()
    profile = qstate.rank_profile(state, tol_rel=tol_rank)
    ppt, min_eig = qstate.is_ppt(state, tol=tol_psd)
    timings["ranks"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    opts = segre.EnumerationOptions(start_count=starts)
    kernel = qstate.kernel_basis(state, tol_rel=tol_rank)
    enum_res = segre.enumerate_product_vectors(kernel, dims, opts)
    gen_pos = None
    if enum_res.classification == segre.Classification.FINITE:
        try:
            gen_pos = segre.general_position(enum_res.points, dims)
        except ValueError:   # subset budget exceeded for large families
            gen_pos = None
    timings["kernel_enumeration"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    goodness = segre.classify_goodness(state, enumeration=enum_res)
    if goodness.anomaly:
        anomalies.append("kernel-count-below-delta-for-ppt-state")
    borderline = dims.m + dims.n - 2
    if (goodness.verdict == segre.Goodness.GOOD and profile.rank == borderline
            and enum_res.count != dlt):
        anomalies.append("good-at-borderline-rank-without-delta-points")
    timings["goodness"] = time.perf_counter() - t0

    range_ces = range_ev = None
    if not fast:
        t0 = time.perf_counter()
        ces_opts = segre.EnumerationOptions(start_count=starts or max(400, 4 * dlt))
        range_ces, range_res = segre.ces_certificate(
            qstate.range_basis(state, tol_rel=tol_rank), dims, ces_opts)
        range_ev = {"best_residual": range_res.evidence.get("best_residual"),
                    "starts_used": range_res.evidence.get("starts_used", 0),
                    "route": range_res.evidence["route"],
                    "paths": range_res.evidence["paths"]}
        timings["range_ces"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cert = certify.extremality_nullity(state)
    # the partial transpose verdict is reported alongside; no relation between
    # the two is assumed beyond what the good-case theorem gives
    cert_gamma = None
    if ppt:
        gamma_state = qstate.BipartiteState(
            qstate.HermitianOperator(dims, qstate.gamma_matrix(state)))
        cert_gamma = certify.extremality_nullity(gamma_state)
    timings["extremality"] = time.perf_counter() - t0

    edge = None
    if not fast:
        t0 = time.perf_counter()
        # the range searched for the CES verdict is the one the edge check
        # needs; a dimension short cut enumerated nothing, so search it there
        searched = not range_res.evidence.get("dimension_forces_product_vectors")
        edge = certify.edge_check(state, opts=ces_opts, tol_rel=tol_rank,
                                  enumeration=range_res if searched else None)
        timings["edge"] = time.perf_counter() - t0

    strong = certify.strongly_extreme_by_theorem(state, goodness=goodness, cert=cert)
    return AnalysisReport(descriptor=descriptor, tolerances=tols, rank_profile=profile,
                          ppt=ppt, ppt_min_eig=min_eig, kernel=enum_res,
                          kernel_general_position=gen_pos,
                          range_ces=range_ces, range_evidence=range_ev,
                          goodness=goodness, extremality=cert, extremality_gamma=cert_gamma,
                          strongly_extreme=strong,
                          edge=edge, anomalies=anomalies, timings=timings)


# ---------------------------------------------------------------------------
# construct


def _parse_floats(text: str, expect: Optional[int] = None) -> list:
    vals = [float(x) for x in text.split(",") if x.strip() != ""]
    if expect is not None and len(vals) != expect:
        raise ValueError(f"expected {expect} comma-separated values, got {len(vals)}")
    return vals


# (m, n) of the families with a fixed shape; None where --m or --n sets it
_FIXED_SHAPE = {"kon-mnogo": (3, 4), "good-3x4": (3, 4), "bad-3x4": (3, 4),
                "good-3xN": (3, None), "bad-3xN": (3, None)}
# the one family each parameter option applies to
_PARAM_FAMILY = {"b": "good-3xN", "c": "bad-MxN", "params": "bad-3x4"}


def _construct(args) -> int:
    family = args.family
    m, n = args.m, args.n
    fixed_m, fixed_n = _FIXED_SHAPE.get(family, (None, None))
    if (fixed_m is not None and m != fixed_m) or (fixed_n is not None and n != fixed_n):
        raise ValueError(f"{family} states are {fixed_m}x{fixed_n or 'N'}, "
                         f"got --m {m} --n {n}")
    for opt, owner in _PARAM_FAMILY.items():
        if getattr(args, opt) is not None and family != owner:
            raise ValueError(f"--{opt} applies to {owner} only, not to {family}")
    if family == "gentiles2":
        upb = zoo.gentiles2_upb(m, n)
        payload = {"m": m, "n": n, "family": upb.family_name,
                   "vectors": [{"a": segre._c2pairs(pv.a), "b": segre._c2pairs(pv.b)}
                               for pv in upb.vectors]}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        print(f"wrote product basis: dims ({m}, {n}), {len(upb)} vectors -> {args.out}")
        return 0
    if family == "upb-complement":
        state = zoo.upb_complement_state(zoo.gentiles2_upb(m, n))
    elif family == "kon-mnogo":
        state, _ = zoo.kon_mnogo()
    elif family == "good-3x4":
        state = zoo.good_3x4()
    elif family == "good-3xN":
        b = _parse_floats(args.b) if args.b else None
        state = zoo.good_3xn(n, b)
    elif family == "bad-3x4":
        params = _parse_floats(args.params, 7) if args.params else [1, 1, 1, 1, 1, 0, 0]
        state = zoo.bad_3x4(*params)
    elif family == "bad-3xN":
        state = zoo.bad_3xn(n)
    elif family == "bad-MxN":
        c = _parse_floats(args.c) if args.c else None
        state = zoo.bad_mxn(m, n, c)
    else:
        raise ValueError(f"unknown family {family!r}")
    qstate.save_state(state, args.out)
    rank = qstate.rank_profile(state).rank
    print(f"wrote state: dims ({state.dims.m}, {state.dims.n}), rank {rank}, "
          f"trace {state.trace:g} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_points(args) -> list:
    """Deterministic parameter points for a family sweep."""
    rng = np.random.default_rng(args.seed)
    pts = []
    if args.family == "bad-MxN":
        for m in range(4, args.max_sum - 3):
            for n in range(m, args.max_sum - m + 1):
                pts.append({"family": "bad-MxN", "m": m, "n": n,
                            "c": [float(i) for i in range(3, m)]})
    elif args.family == "bad-3xN":
        lo, hi = args.n_range
        for n in range(lo, hi + 1):
            pts.append({"family": "bad-3xN", "m": 3, "n": n})
    elif args.family == "good-3xN":
        lo, hi = args.n_range
        for n in range(lo, hi + 1):
            for _ in range(args.draws):
                while True:
                    b = np.round(rng.uniform(1.1, 4.0, size=n - 3), 6)
                    sq = b ** 2
                    if np.all(np.abs(sq - 1.0) > 1e-3) and (
                            len(b) < 2 or np.min(np.abs(np.subtract.outer(sq, sq))
                                                 [np.triu_indices(len(b), 1)]) > 1e-3):
                        break
                pts.append({"family": "good-3xN", "m": 3, "n": n, "b": b.tolist()})
    elif args.family == "bad-3x4":
        for _ in range(args.draws):
            core = rng.uniform(0.3, 2.0, size=5) * rng.choice([-1.0, 1.0], size=5)
            fg = rng.uniform(-1.0, 1.0, size=2)
            pts.append({"family": "bad-3x4", "m": 3, "n": 4,
                        "params": np.round(np.concatenate([core, fg]), 6).tolist()})
    else:
        raise ValueError(f"family {args.family!r} does not support sweeps")
    return pts


def _build_from_point(point: dict) -> qstate.BipartiteState:
    fam = point["family"]
    if fam == "bad-MxN":
        return zoo.bad_mxn(point["m"], point["n"], point["c"])
    if fam == "bad-3xN":
        return zoo.bad_3xn(point["n"])
    if fam == "good-3xN":
        return zoo.good_3xn(point["n"], point["b"])
    if fam == "bad-3x4":
        return zoo.bad_3x4(*point["params"])
    raise ValueError(f"unknown family {fam!r}")


def _sweep(args) -> int:
    points = _sweep_points(args)

    def run(idx_point):
        idx, point = idx_point
        try:
            state = _build_from_point(point)
            rep = analyze_state(state, dict(point, seed=args.seed),
                                tol_rank=args.tol_rank, tol_psd=args.tol_psd,
                                starts=args.starts, fast=args.fast)
            return idx, rep.to_json(include_timings=args.timings), rep
        except Exception as exc:   # recorded per-line, the sweep continues
            return idx, {"schema": SCHEMA, "input": point, "error": str(exc)}, None

    if args.parallel > 1:
        with ThreadPoolExecutor(max_workers=args.parallel) as pool:
            results = list(pool.map(run, enumerate(points)))
    else:
        results = [run(ip) for ip in enumerate(points)]
    results.sort(key=lambda t: t[0])

    out = open(args.out, "w") if args.out else sys.stdout
    tally: dict = {"points": len(points), "errors": 0, "extreme": 0, "good": 0,
                   "bad": 0, "ppt": 0}
    try:
        for _, payload, rep in results:
            out.write(json.dumps(payload, sort_keys=True) + "\n")
            if rep is None:
                tally["errors"] += 1
                continue
            tally["ppt"] += int(rep.ppt)
            tally["extreme"] += int(rep.extremality.verdict == certify.Extremality.EXTREME)
            tally["good"] += int(rep.goodness.verdict == segre.Goodness.GOOD)
            tally["bad"] += int(rep.goodness.verdict == segre.Goodness.BAD)
    finally:
        if args.out:
            out.close()
    print("sweep summary: " + json.dumps(tally, sort_keys=True), file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# identities


def _verify_identities(args) -> int:
    if args.max_mn > 12:
        raise ValueError("max_mn must be at most 12")
    rng = np.random.default_rng(7)
    binom_checked = binom_failed = 0
    for m in range(1, args.max_mn + 1):
        for n in range(1, args.max_mn + 1):
            for r in range(1, m + n - 1):
                binom_checked += 1
                if not zoo.degree_identity_holds(m, n, r):
                    binom_failed += 1
    circ_checked = circ_failed = 0
    for m in range(1, args.max_mn + 1):
        rows = [rng.integers(-9, 10, size=m).astype(float) for _ in range(3)]
        if m >= 3:
            rows.append(np.array([4 * m - 2] + [m - 2] + [-2] * (m - 3) + [m - 2], float)
                        if m > 3 else np.array([4 * m - 2, m - 2, m - 2], float))
        for row in rows:
            circ_checked += 1
            lhs = zoo.circulant_det(row)
            rhs = np.linalg.det(zoo.circulant_matrix(row))
            scale = max(abs(lhs), abs(rhs), 1.0)
            if abs(lhs - rhs) > 1e-8 * scale:
                circ_failed += 1
    ok = binom_failed == 0 and circ_failed == 0
    print(json.dumps({
        "binomial_identity": {"checked": binom_checked, "failed": binom_failed},
        "circulant_determinant": {"checked": circ_checked, "failed": circ_failed},
        "pass": ok,
    }, sort_keys=True))
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# argument parsing


def _analyze(args) -> int:
    try:
        state = qstate.load_state(args.path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep = analyze_state(state, {"path": args.path},
                        tol_rank=args.tol_rank, tol_psd=args.tol_psd,
                        starts=args.starts, fast=args.fast)
    if args.md:
        text = rep.to_markdown()
    else:
        text = json.dumps(rep.to_json(include_timings=args.timings),
                          sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 3 if rep.anomalies else 0


def _add_common(p):
    p.add_argument("--tol-rank", type=float, default=qstate.RANK_TOL,
                   help="relative singular value cutoff for ranks")
    p.add_argument("--tol-psd", type=float, default=qstate.PSD_TOL,
                   help="relative tolerance for positivity checks")
    p.add_argument("--starts", type=int, default=None,
                   help="multistart count for product vector searches")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte determinism)")
    p.add_argument("--fast", action="store_true",
                   help="skip the range and edge searches")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pptlab",
                                 description="certification toolkit for bipartite PPT states")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pc = sub.add_parser("construct", help="build a named state and write it to JSON")
    pc.add_argument("family", choices=["gentiles2", "kon-mnogo", "good-3x4", "good-3xN",
                                       "bad-3x4", "bad-3xN", "bad-MxN", "upb-complement"])
    pc.add_argument("--m", type=int, default=3)
    pc.add_argument("--n", type=int, default=4)
    pc.add_argument("--b", type=str, default=None, help="comma list for good-3xN")
    pc.add_argument("--c", type=str, default=None, help="comma list for bad-MxN")
    pc.add_argument("--params", type=str, default=None,
                    help="comma list a,b,c,d,e,f,g for bad-3x4")
    pc.add_argument("--out", type=str, required=True)
    pc.set_defaults(func=_construct)

    pa = sub.add_parser("analyze", help="full certification report for a state file")
    pa.add_argument("path")
    fmt = pa.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--md", action="store_true", help="markdown output")
    pa.add_argument("--out", type=str, default=None)
    _add_common(pa)
    pa.set_defaults(func=_analyze)

    ps = sub.add_parser("sweep", help="analyze a family over a grid or random draws")
    ps.add_argument("family", choices=["good-3xN", "bad-3x4", "bad-3xN", "bad-MxN"])
    ps.add_argument("--max-sum", type=int, default=14, help="bad-MxN: largest m+n")
    ps.add_argument("--n-range", type=lambda s: tuple(int(x) for x in s.split(":")),
                    default=(4, 8), help="good/bad-3xN: lo:hi range for n")
    ps.add_argument("--draws", type=int, default=5, help="random draws per grid point")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--parallel", type=int, default=1)
    ps.add_argument("--out", type=str, default=None)
    _add_common(ps)
    ps.set_defaults(func=_sweep)

    pv = sub.add_parser("verify-identities", help="exact combinatorial self-checks")
    pv.add_argument("--max-mn", type=int, default=8)
    pv.set_defaults(func=_verify_identities)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
