"""Command line front end.

Four subcommands:

- ``construct``  build a named state (or product basis) and write it to a
  JSON file,
- ``analyze``    run the full certification pipeline on a state file and
  emit a JSON or markdown report,
- ``sweep``      analyze a family over a parameter grid or random draws,
  one JSONL report line per point,
- ``verify-identities``  exact combinatorial self-checks.

Exit codes: 0 success, 2 malformed input, invalid parameters or an
unwritable --out, 3 when the analysis flagged a numerical anomaly.  Reports
follow the versioned schema "pptlab-report/1" and are byte-deterministic
for a fixed input and seed; wall-clock timings are only included on request
(--timings) since they would break that reproducibility.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import certify, qstate, segre, zoo

SCHEMA = "pptlab-report/1"

# What each route of the range and edge verdicts can claim; a range that
# the homotopy settled as infinite, by a plane, takes "homotopy-plane".
_ROUTE_NOTES = {
    "homotopy": "complete by count: the homotopy found every product vector of the range",
    "homotopy-plane": "proof: a product plane verified at homotopy endpoints lies in the range",
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
                "note": self.range_evidence["note"],
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
                # a route shared with the range enumeration makes its claim
                "note": (self.range_evidence["note"]
                         if self.edge.route == self.range_evidence["route"]
                         else _ROUTE_NOTES[self.edge.route]),
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
                  fast: bool = False) -> AnalysisReport:
    """Run the full pipeline at the cuts `tol_rank` and `tol_psd`, bound to the state once
    with no new decomposition or PSD check; `fast` skips the range and edge searches."""
    state = state._derived(cuts=(tol_rank, tol_psd))
    dims = state.dims
    tols = {"rank": tol_rank, "psd": tol_psd, "residual": segre.RESIDUAL_TOL}
    timings: dict = {}
    anomalies: list = []

    t0 = time.perf_counter()
    profile = qstate.rank_profile(state)
    ppt, min_eig = qstate.is_ppt(state)
    timings["ranks"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    kernel = qstate.kernel_basis(state)
    enum_res = segre.enumerate_product_vectors(kernel, dims)
    gen_pos = None
    if enum_res.classification == segre.Classification.FINITE:
        with contextlib.suppress(ValueError):   # subset budget exceeded for large families
            gen_pos = segre.general_position(enum_res.points, dims)
    timings["kernel_enumeration"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    goodness = segre.classify_goodness(state, enumeration=enum_res)
    if goodness.anomaly:
        anomalies.append("kernel-count-below-delta-for-ppt-state")
    timings["goodness"] = time.perf_counter() - t0

    range_ces = range_ev = None
    if not fast:
        t0 = time.perf_counter()
        range_ces, range_res = segre.ces_certificate(qstate.range_basis(state), dims)
        ev = range_res.to_json()["evidence"]    # an infinite best residual is None
        range_ev = {key: ev[key] for key in ("best_residual", "starts_used", "route", "paths")}
        plane = range_res.classification == segre.Classification.LIKELY_INFINITE
        range_ev["note"] = _ROUTE_NOTES["homotopy-plane" if plane and ev["route"] == "homotopy"
                                        else ev["route"]]
        timings["range_ces"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cert = certify.extremality_nullity(state)
    # the partial transpose verdict is reported alongside; no relation between
    # the two is assumed beyond what the good-case theorem gives
    cert_gamma = certify.extremality_nullity(state.gamma()) if ppt else None
    if any(c is not None and c.nullity == 0 for c in (cert, cert_gamma)):
        anomalies.append("extremality-nullity-zero")   # rho is always feasible
    timings["extremality"] = time.perf_counter() - t0

    edge = None
    if not fast:
        t0 = time.perf_counter()
        # the range enumerated for the CES verdict is the one the edge check
        # needs
        edge = certify.edge_check(state, enumeration=range_res)
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
# construct and sweep


# the options through which each subcommand hands values to a family
_FAMILY_OPTIONS = {
    "construct": sorted({f.param for f in zoo.FAMILIES.values() if f.param}),
    "sweep": sorted({opt for f in zoo.FAMILIES.values() if f.grid for opt in f.grid_defaults}),
}


def _family_options(args) -> dict:
    """The family options of `args` that its family reads, None or the grid
    default where not given; refuses a shape or an option the family lacks."""
    fam = zoo.FAMILIES[args.family]
    if args.cmd == "construct":
        zoo.check_shape(args.family, args.m, args.n)
        reads = {fam.param: None} if fam.param else {}
    else:
        reads = fam.grid_defaults
    for opt in _FAMILY_OPTIONS[args.cmd]:
        if opt not in reads and getattr(args, opt) is not None:
            raise ValueError(f"--{opt.replace('_', '-')} does not apply to {args.family}")
    return {opt: default if getattr(args, opt) is None else getattr(args, opt)
            for opt, default in reads.items()}


def _construct(args) -> int:
    fam = zoo.FAMILIES[args.family]
    text = _family_options(args).get(fam.param)
    m, n = args.m, args.n
    built = fam.build(m, n, [float(x) for x in text.split(",") if x.strip()] if text else None)
    if isinstance(built, zoo.UpbFamily):
        payload = {"m": m, "n": n, "family": built.family_name,
                   "vectors": [{"a": segre._c2pairs(pv.a), "b": segre._c2pairs(pv.b)}
                               for pv in built.vectors]}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        print(f"wrote product basis: dims ({m}, {n}), {len(built)} vectors -> {args.out}")
        return 0
    qstate.save_state(built, args.out)
    rank = qstate.rank_profile(built).rank
    print(f"wrote state: dims ({built.dims.m}, {built.dims.n}), rank {rank}, "
          f"trace {built.trace:g} -> {args.out}")
    return 0


def _sweep(args) -> int:
    fam = zoo.FAMILIES[args.family]
    opts = _family_options(args)
    points = []
    for m, n, params in fam.grid(np.random.default_rng(args.seed), **opts):
        points.append({"family": args.family, "m": m, "n": n})
        if fam.param:
            points[-1][fam.param] = params
    if not points:
        shown = ", ".join(f"--{opt.replace('_', '-')} {val}" for opt, val in opts.items())
        raise ValueError(f"the {args.family} sweep grid is empty at {shown}")

    def run(point):
        try:
            state = fam.build(point["m"], point["n"], point.get(fam.param))
            rep = analyze_state(state, dict(point, seed=args.seed), tol_rank=args.tol_rank,
                                tol_psd=args.tol_psd, fast=args.fast)
            return rep.to_json(include_timings=args.timings), rep
        except Exception as exc:   # recorded per-line, the sweep continues
            return {"schema": SCHEMA, "input": point, "error": str(exc)}, None

    # an unwritable --out fails before the grid is analyzed
    out = open(args.out, "w") if args.out else sys.stdout
    tally: dict = {"points": len(points), "errors": 0, "extreme": 0, "good": 0,
                   "bad": 0, "ppt": 0}
    try:
        with ThreadPoolExecutor(max_workers=args.parallel) as pool:
            for payload, rep in pool.map(run, points):
                out.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")
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
    # an unwritable --out fails before the analysis; it may name the input file,
    # so it is opened after the load and emptied only once the report is ready
    with open(args.out, "a") if args.out else contextlib.nullcontext(sys.stdout) as out:
        rep = analyze_state(state, {"path": args.path},
                            tol_rank=args.tol_rank, tol_psd=args.tol_psd, fast=args.fast)
        if args.md:
            text = rep.to_markdown()
        else:
            text = json.dumps(rep.to_json(include_timings=args.timings),
                              sort_keys=True, indent=2, allow_nan=False) + "\n"
        if args.out:
            out.truncate(0)
        out.write(text)
    return 3 if rep.anomalies else 0


def _add_common(p):
    p.add_argument("--tol-rank", type=_tolerance, default=qstate.RANK_TOL,
                   help="relative singular value cutoff for ranks")
    p.add_argument("--tol-psd", type=_tolerance, default=qstate.PSD_TOL,
                   help="relative tolerance for positivity checks")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte determinism)")
    p.add_argument("--fast", action="store_true",
                   help="skip the range and edge searches")


def _checked(parse, ok, expected: str):
    """An argparse type that parses its text and keeps a value passing `ok`;
    anything else exits 2 with a message naming the option."""
    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return convert


_n_range = _checked(lambda t: tuple(map(int, t.split(":"))),
                    lambda v: len(v) == 2 and v[0] <= v[1], "lo:hi with integers lo <= hi")
_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
# a zero, negative, nan or inf cut corrupts every rank or PPT verdict
_tolerance = _checked(float, lambda v: 0.0 < v < 1.0, "a tolerance 0 < t < 1")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pptlab",
                                 description="certification toolkit for bipartite PPT states")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pc = sub.add_parser("construct", help="build a named state and write it to JSON")
    pc.add_argument("family", choices=list(zoo.FAMILIES))
    pc.add_argument("--m", type=int, default=3)
    pc.add_argument("--n", type=int, default=4)
    for name, fam in zoo.FAMILIES.items():
        if fam.param:
            pc.add_argument(f"--{fam.param}", type=str, default=None,
                            help=f"comma list of parameters for {name}")
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
    ps.add_argument("family", choices=[k for k, f in zoo.FAMILIES.items() if f.grid])
    ps.add_argument("--max-sum", type=int, help="largest m+n of the grid")
    ps.add_argument("--n-range", type=_n_range, help="lo:hi range of n")
    ps.add_argument("--draws", type=int, help="random parameter draws (per n on an n grid)")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--parallel", type=_positive_int, default=1)
    ps.add_argument("--out", type=str, default=None)
    _add_common(ps)
    ps.set_defaults(func=_sweep)

    pv = sub.add_parser("verify-identities", help="exact combinatorial self-checks")
    pv.add_argument("--max-mn", type=_positive_int, default=8)
    pv.set_defaults(func=_verify_identities)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:   # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
