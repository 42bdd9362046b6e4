"""Command line front end.

Four subcommands:

- ``construct``  build a named state (or product basis) and write it to a
  JSON file,
- ``analyze``    run the full certification pipeline on a state file and
  emit a JSON or markdown report,
- ``sweep``      analyze a family over a parameter grid or random draws,
  one JSONL report line per point,
- ``verify-identities``  exact combinatorial self-checks.

`analyze` and `sweep` admit each state at --tol-rank and --tol-psd.  Options
are parsed and checked by argparse; `main` makes an OSError or ValueError exit 2.

Exit codes: 0 success, 2 malformed input, invalid parameters or an
unwritable --out, 3 when the analysis flagged a numerical anomaly.  Reports
follow the versioned schema "pptlab-report/1" and are byte-deterministic
for a fixed input and seed.  Only this module writes that format:
`analyze_state` turns the results of `segre` and `certify` into the report
body block by block, every non-finite float as null, and that body is its
one model: the JSON, the markdown and the sweep tally all read it.
Wall-clock timings are only added on request (--timings) since they would
break that reproducibility.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import certify, qstate, segre, zoo

SCHEMA = "pptlab-report/1"

# What each route of the range and edge verdicts can claim; a range that
# the homotopy settled as infinite, by a plane, takes "homotopy-plane".
_ROUTE_NOTES = {
    "homotopy": "complete by count: the homotopy found every product vector of the range",
    "homotopy-plane": "proof: a product plane verified at homotopy endpoints lies in the range",
    "hilbert": "proof: the Hilbert function of the range's equations is 0 at bidegree (1, 3), "
               "so the range holds no product vector",
    "multistart": "numerical certificate: multistart search cannot prove emptiness",
    "dimension-count": "theorem: a subspace of dimension above (m-1)(n-1) "
                       "contains product vectors",
}


# ---------------------------------------------------------------------------
# analysis pipeline


def _route_note(route: str, range_res: segre.EnumerationResult) -> str:
    """What `route` can claim in the range or edge block: a homotopy that
    found a product plane in the range proves that it holds product vectors."""
    plane = range_res.classification == segre.Classification.LIKELY_INFINITE
    return _ROUTE_NOTES["homotopy-plane" if plane and route == "homotopy" else route]


def _point(pv: qstate.ProductVector) -> dict:
    """A product vector as reports and product-basis files write it."""
    return {"a": qstate.complex_pairs(pv.a), "b": qstate.complex_pairs(pv.b)}


def _extremality(cert: certify.ExtremalityCert) -> dict:
    return {"nullity": cert.nullity, "verdict": cert.verdict.value,
            "gap_ratio": float(cert.gap_ratio), "margin": float(cert.margin),
            "singular_spectrum": [float(s) for s in cert.singular_spectrum],
            "has_witness": cert.witness is not None}


def _strict(value):
    """`value` with every non-finite float as None: strict JSON, whatever the keys."""
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


@contextlib.contextmanager
def _timed(timings: dict, stage: str):
    """Records the wall-clock seconds of the block as `timings[stage]`."""
    t0 = time.perf_counter()
    yield
    timings[stage] = time.perf_counter() - t0


@dataclass(eq=False)
class AnalysisReport:
    """The verdicts for one state: `body`, the pptlab-report/1 report and its
    one model, and `timings`, the seconds of each stage, which `to_json` adds
    only on request, as they break byte determinism."""

    body: dict
    timings: dict

    @property
    def anomalies(self) -> list:
        return self.body["anomalies"]

    def to_json(self, include_timings: bool = False) -> dict:
        return dict(self.body, timings=self.timings) if include_timings else dict(self.body)

    def to_markdown(self, include_timings: bool = False) -> str:
        j = self.body
        rp = j["rank_profile"]
        lines = [
            f"# State report ({SCHEMA})",
            "",
            f"- input: `{json.dumps(j['input'], sort_keys=True)}`",
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
        if include_timings:
            lines.append("- timings: " + ", ".join(f"{stage} {sec:.3f} s"
                                                   for stage, sec in self.timings.items()))
        return "\n".join(lines) + "\n"


def analyze_state(state: qstate.BipartiteState, descriptor: dict,
                  fast: bool = False) -> AnalysisReport:
    """Run the full pipeline at the state's own cuts, `rank_tol` and `psd_tol`,
    writing each block of the report as its verdict is decided; `fast` skips
    the range and edge searches, whose blocks are then None."""
    dims = state.dims
    anomalies, timings = [], {}
    body = {"schema": SCHEMA, "input": descriptor,
            "tolerances": {"rank": state.rank_tol, "psd": state.psd_tol,
                           "residual": segre.RESIDUAL_TOL},
            "range_ces": None, "edge": None, "anomalies": anomalies}

    with _timed(timings, "ranks"):
        rp = qstate.rank_profile(state)
        ppt, min_eig = qstate.is_ppt(state)
    body["rank_profile"] = {"rank": rp.rank, "rank_gamma": rp.rank_gamma, "rank_a": rp.rank_a,
                            "rank_b": rp.rank_b, "birank": [rp.rank, rp.rank_gamma],
                            "singular_gaps": [float(g) for g in rp.singular_gaps]}
    body["ppt"] = {"verdict": ppt, "min_eigenvalue": min_eig}

    with _timed(timings, "kernel_enumeration"):
        enum_res = segre.enumerate_product_vectors(qstate.kernel_basis(state), dims)
        gen_pos, refused = None, {}
        if enum_res.classification == segre.Classification.FINITE:
            try:
                gen_pos = segre.general_position(enum_res.points, dims)
            except ValueError as exc:   # subset budget exceeded for large families
                refused = {"general_position_reason": str(exc)}
    planes = [{"side": ls.side, "vector": qstate.complex_pairs(ls.vector),
               "subspace_dim": ls.subspace.dim, "residual": ls.residual}
              for ls in enum_res.evidence["line_subspaces"]]
    body["kernel"] = {"classification": enum_res.classification.value, "count": enum_res.count,
                      "points": [_point(p) for p in enum_res.points],
                      "residuals": [float(r) for r in enum_res.residuals],
                      "evidence": dict(enum_res.evidence, line_subspaces=planes),
                      "general_position": gen_pos, **refused}

    with _timed(timings, "goodness"):
        goodness = segre.classify_goodness(state, enumeration=enum_res)
    body["goodness"] = {"verdict": goodness.verdict.value,
                        "reason": goodness.reason.value if goodness.reason else None,
                        "count": goodness.count, "anomaly": goodness.anomaly}
    if goodness.anomaly:
        anomalies.append("kernel-count-below-delta-for-ppt-state")

    range_res = None
    if not fast:
        with _timed(timings, "range_ces"):
            range_ces, range_res = segre.ces_certificate(qstate.range_basis(state), dims)
        ev = range_res.evidence
        body["range_ces"] = {"verdict": range_ces, "best_residual": ev["best_residual"],
                             "starts_used": ev["starts_used"], "route": ev["route"],
                             "paths": ev["paths"], "hilbert": ev["hilbert"],
                             "note": _route_note(ev["route"], range_res)}

    with _timed(timings, "extremality"):
        cert = certify.extremality_nullity(state)
        # the partial transpose verdict is reported alongside; no relation between
        # the two is assumed beyond what the good-case theorem gives
        cert_gamma = certify.extremality_nullity(state.gamma()) if ppt else None
    body["extremality"] = _extremality(cert)
    body["extremality_of_partial_transpose"] = (None if cert_gamma is None
                                                else _extremality(cert_gamma))
    if any(c is not None and c.nullity == 0 for c in (cert, cert_gamma)):
        anomalies.append("extremality-nullity-zero")   # rho is always feasible

    if not fast:
        with _timed(timings, "edge"):
            # the edge check reads the range enumerated for the CES verdict
            edge = certify.edge_check(state, range_res)
        body["edge"] = {"is_edge": edge.is_edge, "pair_found": edge.violating_pair is not None,
                        "starts_used": edge.starts_used, "best_residual": edge.best_residual,
                        "route": edge.route, "paths": range_res.evidence["paths"],
                        "note": _route_note(edge.route, range_res)}

    body["strongly_extreme"] = certify.strongly_extreme_by_theorem(state, goodness, cert).value
    return AnalysisReport(_strict(body), timings)


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
    m, n = args.m, args.n
    built = fam.build(m, n, _family_options(args).get(fam.param))
    if isinstance(built, zoo.UpbFamily):
        payload = {"m": m, "n": n, "family": built.family_name,
                   "vectors": [_point(pv) for pv in built.vectors]}
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
    if opts.get("n_range", (4,))[0] < 4:       # the families an n-range sweeps are 3xN, n > 3
        raise ValueError("--n-range %d:%d: a 3xN family starts at n = 4" % args.n_range)
    points = []
    for m, n, params in fam.grid(np.random.default_rng(args.seed), **opts):
        points.append({"family": args.family, "m": m, "n": n})
        if fam.param:
            points[-1][fam.param] = params
    if not points:
        shown = ", ".join(f"--{opt.replace('_', '-')} {val}" for opt, val in opts.items())
        raise ValueError(f"the {args.family} sweep grid is empty at {shown}")

    def run(point):
        descriptor = dict(point, seed=args.seed)
        try:
            built = fam.build(point["m"], point["n"], point.get(fam.param))
            state = qstate.BipartiteState(built.op, rank_tol=args.tol_rank, psd_tol=args.tol_psd)
            return analyze_state(state, descriptor,
                                 fast=args.fast).to_json(include_timings=args.timings)
        except Exception as exc:   # recorded per-line, the sweep continues
            return {"schema": SCHEMA, "input": descriptor, "error": str(exc)}

    # an unwritable --out fails before the grid is analyzed
    out = open(args.out, "w") if args.out else sys.stdout
    tally: dict = {"points": len(points), "errors": 0, "extreme": 0, "good": 0,
                   "bad": 0, "ppt": 0}
    try:
        with ThreadPoolExecutor(max_workers=args.parallel) as pool:
            for payload in pool.map(run, points):
                out.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")
                if "error" in payload:
                    tally["errors"] += 1
                    continue
                verdict = payload["goodness"]["verdict"]
                tally["ppt"] += int(payload["ppt"]["verdict"])
                tally["extreme"] += int(payload["extremality"]["verdict"]
                                        == certify.Extremality.EXTREME.value)
                tally["good"] += int(verdict == segre.Goodness.GOOD.value)
                tally["bad"] += int(verdict == segre.Goodness.BAD.value)
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
    state = qstate.load_state(args.path, rank_tol=args.tol_rank, psd_tol=args.tol_psd)
    # an unwritable --out fails before the analysis; it may name the input file,
    # so it is opened after the load and emptied only once the report is ready
    with open(args.out, "a") if args.out else contextlib.nullcontext(sys.stdout) as out:
        rep = analyze_state(state, {"path": args.path}, fast=args.fast)
        text = rep.to_markdown(include_timings=args.timings) if args.md else json.dumps(
            rep.to_json(include_timings=args.timings), sort_keys=True, indent=2,
            allow_nan=False) + "\n"
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
_numbers = _checked(lambda t: [float(x) for x in t.split(",")], lambda v: all(np.isfinite(v)),
                    "a comma list of finite numbers")
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
            pc.add_argument(f"--{fam.param}", type=_numbers, default=None,
                            help=f"comma list of parameters for {name}")
    pc.add_argument("--out", type=str, required=True)
    pc.set_defaults(func=_construct)

    pa = sub.add_parser("analyze", help="full certification report for a state file")
    pa.add_argument("path")
    pa.add_argument("--md", action="store_true", help="markdown output (default JSON)")
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
    except (OSError, ValueError) as exc:   # an unreadable file or --out, a refused input
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
