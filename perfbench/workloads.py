"""The three benchmark workloads: their states, operations and expected verdicts.

Each workload's ``build`` is its set-up: it constructs every state the timed
loop uses (and writes state files where the workload loads them), and returns
the fixed list of operations for one pass.  An operation calls pptlab on one
state and checks the answer against the expected-verdict table below; it
returns the list of contradictions it found, empty when the answer is right.

The expected verdicts come from the claims the acceptance criteria pin, not
from what any particular commit outputs:

- good states: GOOD, with count delta(m, n);
- bad states: BAD with reason infinite-component;
- the ranges named in criteria 03, 05 and 08: completely entangled (CES),
  and therefore edge states (a range without product vectors has no
  violating pair);
- every state in criteria 03-07: extreme with nullity one, and so is its
  partial transpose (partial transposition maps the PPT set onto itself
  linearly, so it preserves extreme points);
- separable states with fewer product terms than full rank: not extreme,
  with a witness splitting that reconstructs the state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import pptlab
from pptlab import certify, cli, qstate, segre, zoo

# Operations whose verdict is wrong at the parent commit for a documented
# reason.  They stay in the workload and count as failures; `correct` in the
# benchmark output only turns false for a contradiction outside this list.
KNOWN_DEFECTS = {
    "good_3x7": "K1: default good_3xn(7) kernel classified likely-infinite (ROADMAP)",
    "good_3x8": "K1: default good_3xn(8) kernel classified likely-infinite (ROADMAP)",
}


def _source_digest() -> str:
    """Hash of the pptlab sources under test, so results and reference
    reports from one version of the code are never compared with another's."""
    h = hashlib.sha256()
    for path in sorted(Path(pptlab.__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


SOURCE_DIGEST = _source_digest()


@dataclass
class Op:
    label: str
    run: Callable[[], list]


@dataclass
class Workload:
    name: str
    build: Callable[[int, Path], list]
    known_defects: dict = field(default_factory=dict)


def _want(problems: list, what: str, got, expected) -> None:
    if got != expected:
        problems.append(f"{what}: got {got!r}, expected {expected!r}")


def _bad_3x4_params(rng: np.random.Generator) -> list:
    """Seven parameters drawn from criterion 05's ranges."""
    core = rng.uniform(0.3, 2.0, size=5) * rng.choice([-1.0, 1.0], size=5)
    fg = rng.uniform(-1.0, 1.0, size=2)
    return [float(x) for x in np.concatenate([core, fg])]


# ---------------------------------------------------------------------------
# analyze-zoo: full `pptlab analyze` through cli.main on state files


def _check_report(rep: dict, exp: dict) -> list:
    bad: list = []
    rp = rep["rank_profile"]
    _want(bad, "ppt", rep["ppt"]["verdict"], True)
    for key in ("rank", "rank_gamma", "rank_a", "rank_b"):
        if key in exp:
            _want(bad, key, rp[key], exp[key])
    if "kernel" in exp:
        _want(bad, "kernel", (rep["kernel"]["classification"], rep["kernel"]["count"]),
              exp["kernel"])
    if "general_position" in exp:
        _want(bad, "kernel general position", rep["kernel"]["general_position"],
              exp["general_position"])
    good = rep["goodness"]
    if "good_count" in exp:
        _want(bad, "goodness", (good["verdict"], good["count"]), ("good", exp["good_count"]))
    if exp.get("bad"):
        _want(bad, "goodness", (good["verdict"], good["reason"]), ("bad", "infinite-component"))
    if exp.get("range_ces"):
        ces = rep["range_ces"]
        _want(bad, "range CES", ces and ces["verdict"], True)
        _want(bad, "edge (implied by a CES range)", rep["edge"] and rep["edge"]["is_edge"], True)
        if ces and ces["starts_used"] < 400:
            bad.append(f"range CES used {ces['starts_used']} starts, fewer than 400")
    if "ces_best_residual_above" in exp:
        best = rep["range_ces"]["best_residual"]
        if best is None or best <= exp["ces_best_residual_above"]:
            bad.append(f"range CES best residual {best!r} not above "
                       f"{exp['ces_best_residual_above']}")
    if exp.get("extreme"):
        ext = rep["extremality"]
        _want(bad, "extremality", (ext["verdict"], ext["nullity"]), ("extreme", 1))
    if "strongly_extreme" in exp:
        _want(bad, "strongly extreme", rep["strongly_extreme"], exp["strongly_extreme"])
    return bad


def _analyze_op(label: str, path: Path, out: Path, reference: Path, exp: dict) -> Op:
    def run() -> list:
        out.unlink(missing_ok=True)
        rc = cli.main(["analyze", str(path), "--out", str(out)])
        data = out.read_bytes()
        problems = _check_report(json.loads(data), exp)
        _want(problems, "exit code", rc, 0)
        # Default reports are byte-deterministic: every report of this input
        # must equal the first one this version of the code wrote in this
        # checkout, in this run or an earlier one.
        if reference.exists():
            if reference.read_bytes() != data:
                problems.append("report bytes differ from the first report of this input")
        else:
            reference.write_bytes(data)
        return problems
    return Op(label, run)


def build_analyze_zoo(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng(seed)
    params = _bad_3x4_params(rng)
    states = [
        ("good_3x4", zoo.good_3x4(),
         dict(rank=5, rank_gamma=5, kernel=("finite", 10), general_position=True,
              good_count=10, range_ces=True, ces_best_residual_above=1e-4,
              extreme=True, strongly_extreme="yes")),
        ("kon_mnogo", zoo.kon_mnogo()[0],
         dict(rank=5, rank_a=3, rank_b=4, kernel=("finite", 10), general_position=False,
              good_count=10)),
        ("gentiles2_3x4", zoo.upb_complement_state(zoo.gentiles2_upb(3, 4)),
         dict(rank=5, rank_a=3, rank_b=4, good_count=10, range_ces=True)),
        ("bad_3x4", zoo.bad_3x4(*params),
         dict(rank=5, rank_gamma=5, bad=True, range_ces=True, extreme=True)),
        ("bad_4x5", zoo.bad_mxn(4, 5), dict(rank=7, bad=True, extreme=True)),
    ]
    reference = workdir / "reference" / SOURCE_DIGEST
    for sub in (workdir / "states", workdir / "reports", reference):
        sub.mkdir(parents=True, exist_ok=True)
    ops = []
    for label, state, exp in states:
        path = workdir / "states" / f"{label}.json"
        qstate.save_state(state, path)
        key = label
        if label == "bad_3x4":
            key += "-" + hashlib.sha256(json.dumps(params).encode()).hexdigest()[:12]
        ops.append(_analyze_op(label, path, workdir / "reports" / f"{label}.json",
                               reference / f"{key}.json", exp))
    return ops


# ---------------------------------------------------------------------------
# kernel-census: segre.classify_goodness on finite and continuum kernels


def _goodness_op(label: str, state, expect_count) -> Op:
    def run() -> list:
        verdict = segre.classify_goodness(state)
        problems: list = []
        reason = verdict.reason and verdict.reason.value
        if expect_count is None:
            _want(problems, "goodness", (verdict.verdict.value, reason),
                  ("bad", "infinite-component"))
        else:
            _want(problems, "goodness", (verdict.verdict.value, verdict.count),
                  ("good", expect_count))
        return problems
    return Op(label, run)


def build_kernel_census(seed: int, workdir: Path) -> list:
    ops = [_goodness_op(f"good_3x{n}", zoo.good_3xn(n), zoo.delta(3, n)) for n in range(4, 9)]
    ops.append(_goodness_op("bad_3x5", zoo.bad_3xn(5), None))
    ops.append(_goodness_op("bad_4x5", zoo.bad_mxn(4, 5), None))
    ops.append(_goodness_op("bad_5x5", zoo.bad_mxn(5, 5), None))
    return ops


# ---------------------------------------------------------------------------
# extremality-grid: ranks, PPT and the nullity certificate, no product vectors

# (m, n, product terms): every count is below m*n, so no state has full rank.
# Their costs fill the middle of the grid's op-time distribution, which keeps
# the median from jumping between two distant grid states.
SEPARABLE_SHAPES = [(2, 2, 3), (2, 3, 4), (2, 3, 5), (2, 4, 5), (2, 4, 6), (2, 5, 6),
                    (3, 3, 5), (3, 3, 6), (3, 3, 7), (3, 3, 8), (3, 4, 6), (3, 4, 7)]


def _separable_state(m: int, n: int, terms: int, rng: np.random.Generator):
    rho = np.zeros((m * n, m * n), dtype=complex)
    for _ in range(terms):
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = np.kron(a, b)
        rho += np.outer(v, v.conj())
    return qstate.BipartiteState(qstate.HermitianOperator(qstate.BipartiteDims(m, n), rho))


def _gamma_state(state):
    return qstate.BipartiteState(qstate.HermitianOperator(state.dims, qstate.gamma_matrix(state)))


def _check_witness(state, cert) -> list:
    rho1, rho2 = certify.witness_decomposition(state, cert)
    problems: list = []
    err = np.linalg.norm(rho1.matrix + rho2.matrix - 2 * state.matrix)
    if err > 1e-10 * np.linalg.norm(state.matrix):
        problems.append(f"witness splitting does not reconstruct the state: error {err:.3e}")
    if not (qstate.is_ppt(rho1)[0] and qstate.is_ppt(rho2)[0]):
        problems.append("witness splitting left the PPT set")
    return problems


def _nullity_op(label: str, state, gamma, rank: int, extreme: bool) -> Op:
    want_verdict = certify.Extremality.EXTREME if extreme else certify.Extremality.NOT_EXTREME

    def run() -> list:
        problems: list = []
        profile = qstate.rank_profile(state)
        _want(problems, "rank", profile.rank, rank)
        for which, st in (("state", state), ("partial transpose", gamma)):
            _want(problems, f"{which} PPT", qstate.is_ppt(st)[0], True)
            if which == "partial transpose":
                _want(problems, "rank of the partial transpose",
                      qstate.rank_profile(st).rank, profile.rank_gamma)
            cert = certify.extremality_nullity(st)
            if extreme:
                _want(problems, f"{which} extremality", (cert.verdict, cert.nullity),
                      (want_verdict, 1))
            else:
                _want(problems, f"{which} extremality", cert.verdict, want_verdict)
                if cert.verdict == want_verdict:
                    problems += [f"{which}: {p}" for p in _check_witness(st, cert)]
        return problems
    return Op(label, run)


def build_extremality_grid(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng(seed)
    entries = []
    for m in range(4, 11):
        for n in range(m, 15 - m):
            entries.append((f"bad_{m}x{n}", zoo.bad_mxn(m, n), m + n - 2, True))
    for n in range(4, 9):
        entries.append((f"good_3x{n}", zoo.good_3xn(n), n + 1, True))
    for m, n, terms in SEPARABLE_SHAPES:
        entries.append((f"sep_{m}x{n}_k{terms}", _separable_state(m, n, terms, rng), terms, False))
    return [_nullity_op(label, st, _gamma_state(st), rank, extreme)
            for label, st, rank, extreme in entries]


WORKLOADS = {
    w.name: w for w in [
        Workload("extremality-grid", build_extremality_grid),
        Workload("analyze-zoo", build_analyze_zoo),
        Workload("kernel-census", build_kernel_census, KNOWN_DEFECTS),
    ]
}
