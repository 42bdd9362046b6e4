import dataclasses
import functools
import json
import os
import pathlib
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

from pptlab import certify, cli, qstate, segre, zoo
from pptlab.cli import analyze_state, build_parser, main
from pptlab.qstate import (BipartiteDims, BipartiteState, HermitianOperator, kernel_basis,
                           load_state, save_state)
from conftest import random_product_vector
from test_certify import continuum_by_homotopy, record_edge_residuals, seeded_separable
from test_segre import conic_subspace, decline_hilbert, refuse_plane_search, slocc_changed


def plane_range_state(rng):
    """rho = |00><00| + |01><01| + |ab><ab| on C^3 (x) C^3, a|b> drawn from
    rng: its range holds the product plane |0> (x) span(|0>, |1>)."""
    dims = BipartiteDims(3, 3)
    e = np.eye(3)
    terms = (np.kron(e[0], e[0]), np.kron(e[0], e[1]), random_product_vector(dims, rng).vec())
    return BipartiteState(HermitianOperator(dims, sum(np.outer(v, v.conj()) for v in terms)))


def entangled_lift() -> HermitianOperator:
    """good_3x4 plus 1e-7 of its top eigenvalue along the maximally entangled
    vector of the 3x3 corner: its partial transpose is PSD at psd_tol 1e-6,
    not at the default 1e-9."""
    state = zoo.good_3x4()
    psi = np.zeros(12)
    psi[[0, 5, 10]] = 1 / np.sqrt(3)
    top = np.linalg.eigvalsh(state.matrix)[-1]
    return HermitianOperator(state.dims, state.matrix + 1e-7 * top * np.outer(psi, psi))


def kernel_dip(scale: float) -> HermitianOperator:
    """good_3x4 less `scale` times its top eigenvalue along a kernel product
    vector: its least eigenvalue is about -scale relative to the top one."""
    state = zoo.good_3x4()
    p = segre.enumerate_product_vectors(kernel_basis(state), state.dims).points[0].vec()
    top = np.linalg.eigvalsh(state.matrix)[-1]
    return HermitianOperator(state.dims, state.matrix - scale * top * np.outer(p, p.conj()))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    @pytest.mark.parametrize("family,extra,m,n", [
        ("good-3x4", [], 3, 4),
        ("good-3xN", ["--b", "2,3"], 3, 5),
        ("bad-3x4", ["--params", "1,1,1,1,1,0,0"], 3, 4),
        ("bad-3xN", [], 3, 6),
        ("bad-MxN", [], 4, 5),
        ("kon-mnogo", [], 3, 4),
        ("upb-complement", [], 3, 4),
    ])
    def test_state_families(self, tmp_path, capsys, family, extra, m, n):
        out = tmp_path / "state.json"
        code, stdout, _ = run_cli(capsys, "construct", family,
                                  "--m", str(m), "--n", str(n), "--out", str(out), *extra)
        assert code == 0
        assert "rank" in stdout
        state = load_state(out)
        assert (state.dims.m, state.dims.n) == (m, n)

    def test_good_3xn_rank_printed(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code, stdout, _ = run_cli(capsys, "construct", "good-3xN",
                                  "--n", "5", "--b", "2,3", "--out", str(out))
        assert code == 0
        assert "rank 6" in stdout

    def test_gentiles2_writes_basis_file(self, tmp_path, capsys):
        out = tmp_path / "upb.json"
        code, stdout, _ = run_cli(capsys, "construct", "gentiles2",
                                  "--m", "3", "--n", "4", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["vectors"]) == 7

    def test_bad_mxn_at_m3_matches_bad_3xn(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code, _, _ = run_cli(capsys, "construct", "bad-MxN",
                             "--m", "3", "--n", "4", "--out", str(out))
        assert code == 0
        assert np.array_equal(load_state(out).matrix, zoo.bad_3xn(4).matrix)

    def test_invalid_parameters_exit_2(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code, _, err = run_cli(capsys, "construct", "good-3xN",
                               "--n", "5", "--b", "1,1", "--out", str(out))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("family,argv,named", [
        ("good-3xN", ["--m", "4", "--n", "5"], "3xN"),
        ("bad-3x4", ["--m", "4", "--n", "6"], "3x4"),
        ("kon-mnogo", ["--n", "7"], "3x4"),
        ("good-3xN", ["--c", "1,2"], "--c"),
    ])
    def test_shape_or_parameter_of_another_family_exit_2(self, tmp_path, capsys,
                                                          family, argv, named):
        out = tmp_path / "s.json"
        code, _, err = run_cli(capsys, "construct", family, *argv, "--out", str(out))
        assert code == 2
        assert named in err and family in err
        assert not out.exists()

    @pytest.mark.parametrize("family,option,text", [
        ("good-3xN", "--b", "1.5,abc"),
        ("good-3xN", "--b", "2,,3"),
        ("good-3xN", "--b", ""),
        ("bad-3x4", "--params", "1,1,1,x,1,0,0"),
        ("bad-MxN", "--c", "nan"),
    ])
    def test_malformed_parameter_list_exit_2(self, tmp_path, capsys, family, option, text):
        # an empty item is not skipped: the list is read whole or refused
        out = tmp_path / "s.json"
        with pytest.raises(SystemExit) as exc:
            main(["construct", family, "--out", str(out), f"{option}={text}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected a comma list of finite numbers, got '{text}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("family", ["good-3x4", "gentiles2"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, family):
        # a state file and a product basis file are written by different code
        out = tmp_path / "missing" / "s.json"
        code, stdout, err = run_cli(capsys, "construct", family, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and str(out) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("family", ["kon-mnogo", "good-3x4", "bad-3x4", "good-3xN"])
    def test_default_shape_builds_3x4(self, tmp_path, capsys, family):
        out = tmp_path / "s.json"
        code, _, _ = run_cli(capsys, "construct", family, "--out", str(out))
        assert code == 0
        dims = load_state(out).dims
        assert (dims.m, dims.n) == (3, 4)


class TestAnalyze:
    def test_good_3x4_report(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_state(zoo.good_3x4(), path)
        out = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "analyze", str(path), "--out", str(out))
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["schema"] == "pptlab-report/1"
        assert rep["rank_profile"]["birank"] == [5, 5]
        assert rep["ppt"]["verdict"] is True
        assert rep["kernel"]["count"] == 10
        assert rep["kernel"]["general_position"] is True
        assert rep["goodness"]["verdict"] == "good"
        assert rep["extremality"]["verdict"] == "extreme"
        assert rep["strongly_extreme"] == "yes"
        assert rep["edge"]["is_edge"] is True
        assert rep["range_ces"]["verdict"] is True

    def test_one_decomposition_per_operator(self, tmp_path, capsys, monkeypatch):
        # rho and rho^Gamma: two mn x mn eigendecompositions decide every
        # rank, kernel, range and PPT verdict of the report, the partial
        # transpose's own extremality included, and no SVD does; rho_A and
        # rho_B take one eigvalsh each, from the report's one rank profile
        path = tmp_path / "s.json"
        save_state(zoo.good_3x4(), path)
        calls, reduced = [], []

        def spy(kind, fn):
            def counted(a, *args, **kwargs):
                if np.shape(a)[-2:] == (12, 12):
                    calls.append(kind)
                elif kind == "eigvalsh":
                    reduced.append(np.shape(a))
                return fn(a, *args, **kwargs)
            return counted

        for kind in ("svd", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, kind, spy(kind, getattr(np.linalg, kind)))
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 0, err
        assert len(calls) <= 2 and "svd" not in calls, calls
        # and the range's Hilbert certificate one eigvalsh of its 60 x 60 Gram
        assert reduced.count((60, 60)) == 1, reduced
        assert len(reduced) - 1 + calls.count("eigvalsh") <= 2, reduced

    def test_kon_mnogo_report(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        state, _ = zoo.kon_mnogo()
        save_state(state, path)
        code, stdout, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        rep = json.loads(stdout)
        assert rep["rank_profile"]["rank"] == 5
        assert (rep["rank_profile"]["rank_a"], rep["rank_profile"]["rank_b"]) == (3, 4)
        assert rep["kernel"]["count"] == 10
        assert rep["kernel"]["general_position"] is False

    def test_pure_product_report(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        rho = np.zeros((4, 4))
        rho[0, 0] = 1.0
        save_state(BipartiteState(HermitianOperator(BipartiteDims(2, 2), rho)), path)
        code, stdout, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        rep = json.loads(stdout)
        assert rep["rank_profile"]["rank"] == 1
        assert rep["ppt"]["verdict"] is True
        assert rep["extremality"]["verdict"] == "extreme"
        assert (rep["goodness"]["verdict"], rep["goodness"]["reason"]) == ("good", "pure-state")

    @pytest.mark.parametrize("m,n,rank", [(1, 3, 2), (3, 1, 2), (1, 4, 1), (1, 1, 1)])
    def test_a_local_dimension_of_one(self, m, n, rank, tmp_path, capsys):
        # the homotopy's start splits have m - 1 or n - 1 = 0 columns, and at
        # 1 x 1 the range's system has no equation at all; every vector of
        # C^m (x) C^n is a product vector, so no range is CES
        rng = np.random.default_rng(10 * m + n)
        v = rng.standard_normal((rank, m * n)) + 1j * rng.standard_normal((rank, m * n))
        path = tmp_path / "s.json"
        save_state(BipartiteState(HermitianOperator(BipartiteDims(m, n), v.T @ v.conj())), path)
        code, stdout, err = run_cli(capsys, "analyze", str(path))
        assert code == 0, err
        rep = json.loads(stdout)
        assert rep["rank_profile"]["rank"] == rank
        assert rep["range_ces"]["verdict"] is False

    def test_tol_psd_reaches_every_ppt_test(self, tmp_path, capsys, recwarn, monkeypatch):
        # NPT at the default tolerance, PPT at --tol-psd 1e-6, so rho^Gamma
        # is analyzed too, at that cut
        path = tmp_path / "s.json"
        save_state(BipartiteState(entangled_lift()), path)
        cuts = record_nullity_cuts(monkeypatch)
        out = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "analyze", str(path), "--tol-psd", "1e-6",
                               "--out", str(out))
        assert code == 0, err
        rep = json.loads(out.read_text())
        assert rep["ppt"]["verdict"] is True
        assert rep["extremality_of_partial_transpose"] is not None
        assert cuts == [(1e-9, 1e-6)] * 2, cuts
        assert not [w for w in recwarn if "NPT" in str(w.message)]

    def test_analysis_runs_at_the_states_cuts(self, recwarn, monkeypatch):
        # the lift built at psd_tol 1e-6 is PPT at its own cut, so rho^Gamma
        # is analyzed too, and every state the analysis reads keeps that cut
        cuts = record_nullity_cuts(monkeypatch)
        rep = analyze_state(BipartiteState(entangled_lift(), psd_tol=1e-6), {}, fast=True)
        j = rep.to_json()
        assert j["tolerances"] == {"rank": 1e-9, "psd": 1e-6, "residual": segre.RESIDUAL_TOL}
        assert j["ppt"]["verdict"] and j["extremality_of_partial_transpose"] is not None
        assert cuts == [(1e-9, 1e-6)] * 2, cuts
        assert not [w for w in recwarn if "NPT" in str(w.message)]

    def test_a_file_not_psd_at_tol_psd_exit_2(self, tmp_path, capsys):
        # a dip of 1e-10 is PSD at the default cut and not at --tol-psd 1e-11:
        # the file is admitted at the cut it is analysed at, so it is refused
        # as the constructor refuses it, and no report is written
        op = kernel_dip(1e-10)
        with pytest.raises(ValueError, match="not PSD") as refused:
            BipartiteState(op, psd_tol=1e-11)
        path, out = tmp_path / "s.json", tmp_path / "r.json"
        save_state(BipartiteState(op), path)
        code, stdout, err = run_cli(capsys, "analyze", str(path), "--tol-psd", "1e-11", "--fast",
                                    "--out", str(out))
        assert code == 2
        assert stdout == "" and err == f"error: {refused.value}\n"
        assert not out.exists()

    def test_a_file_psd_at_tol_psd_is_admitted(self, tmp_path, capsys):
        # a dip of 1e-7 is refused at the default cut and admitted at 1e-6
        op = kernel_dip(1e-7)
        with pytest.raises(ValueError, match="not PSD"):
            BipartiteState(op)
        path = tmp_path / "s.json"
        save_state(BipartiteState(op, psd_tol=1e-6), path)
        code, stdout, err = run_cli(capsys, "analyze", str(path), "--tol-psd", "1e-6")
        assert code == 0, err
        assert json.loads(stdout)["tolerances"]["psd"] == 1e-6

    def test_nullity_zero_is_an_anomaly(self, tmp_path, capsys, monkeypatch):
        # rho is feasible for its own nullity problem, so zero cannot be right
        path = tmp_path / "s.json"
        save_state(zoo.good_3x4(), path)
        monkeypatch.setattr(certify, "extremality_nullity", lambda state, **_: certify.ExtremalityCert(
            0, certify.Extremality.BORDERLINE, 0.0, np.ones(1)))
        code, stdout, _ = run_cli(capsys, "analyze", str(path), "--fast")
        assert code == 3
        assert json.loads(stdout)["anomalies"] == ["extremality-nullity-zero"]

    def test_markdown_output(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_state(zoo.good_3x4(), path)
        code, stdout, _ = run_cli(capsys, "analyze", str(path), "--md", "--fast")
        assert code == 0
        assert stdout.startswith("# State report")

    @pytest.mark.parametrize("fast,keys", [
        (False, {"ranks", "kernel_enumeration", "goodness", "range_ces", "extremality", "edge"}),
        (True, {"ranks", "kernel_enumeration", "goodness", "extremality"}),
    ], ids=["full", "fast"])
    def test_timings_on_request(self, tmp_path, capsys, fast, keys):
        path = tmp_path / "s.json"
        save_state(zoo.good_3x4(), path)
        flags = ["--fast"] if fast else []
        code, stdout, _ = run_cli(capsys, "analyze", str(path), "--timings", *flags)
        assert code == 0
        timings = json.loads(stdout)["timings"]
        assert set(timings) == keys
        assert all(type(t) is float and np.isfinite(t) and t >= 0 for t in timings.values())
        code, stdout, _ = run_cli(capsys, "analyze", str(path), *flags)
        assert "timings" not in json.loads(stdout)

    def test_markdown_timings_on_request(self, tmp_path, capsys):
        # --md takes one timings line, stages in the order they ran, exactly
        # when --timings is given
        path = tmp_path / "s.json"
        save_state(zoo.good_3x4(), path)
        code, stdout, _ = run_cli(capsys, "analyze", str(path), "--md", "--timings")
        assert code == 0
        [line] = [ln for ln in stdout.splitlines() if ln.startswith("- timings")]
        stages = [item.split()[0] for item in line[len("- timings: "):].split(", ")]
        assert stages == ["ranks", "kernel_enumeration", "goodness", "range_ces",
                          "extremality", "edge"]
        _, stdout, _ = run_cli(capsys, "analyze", str(path), "--md")
        assert "- timings" not in stdout

    def test_refused_general_position_says_why(self):
        # good_3xn(7) has 28 kernel points: the check would take C(28, 7)
        # B-subsets, above the budget, so the report gives null and the reason
        kern = analyze_state(zoo.good_3xn(7), {}, fast=True).to_json()["kernel"]
        assert (kern["classification"], kern["count"]) == ("finite", 28)
        assert kern["general_position"] is None
        assert kern["general_position_reason"].startswith(
            "general position check needs 1184040 subsets")
        # a check that ran carries no reason
        kern = analyze_state(zoo.good_3x4(), {}, fast=True).to_json()["kernel"]
        assert kern["general_position"] is True and "general_position_reason" not in kern

    def test_byte_determinism(self, tmp_path, capsys):
        # cuts away from the defaults are bound to the state once: the
        # report is byte-deterministic, names them and keeps every verdict
        # of the default-cut report
        path = tmp_path / "s.json"
        save_state(zoo.good_3x4(), path)
        for flags, cuts in (((), (qstate.RANK_TOL, qstate.PSD_TOL)),
                            (("--tol-rank", "1e-7", "--tol-psd", "1e-6"), (1e-7, 1e-6))):
            _, first, _ = run_cli(capsys, "analyze", str(path), *flags)
            _, second, _ = run_cli(capsys, "analyze", str(path), *flags)
            assert first == second
            rep = json.loads(first)
            assert (rep["tolerances"]["rank"], rep["tolerances"]["psd"]) == cuts
            assert invariant_fields(rep) == base_fields("good_3x4")

    @pytest.mark.parametrize("state_fn", [lambda: zoo.bad_mxn(4, 5), zoo.bad_3x4],
                             ids=["bad_4x5", "bad_3x4"])
    def test_two_processes_write_the_same_bytes(self, state_fn, tmp_path):
        # every search, the plane searches' starting frames included, is
        # seeded, and bad_3x4's kernel plane is the representative the dedup
        # picks by residual: an order or hash dependence would show here
        path = tmp_path / "s.json"
        save_state(state_fn(), path)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        runs = [subprocess.run([sys.executable, "-m", "pptlab.cli", "analyze", str(path)],
                               env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
                               capture_output=True)
                for seed in ("0", "1")]
        assert [r.returncode for r in runs] == [0, 0], [r.stderr for r in runs]
        assert runs[0].stdout == runs[1].stdout

    def test_reports_are_strict_json(self, tmp_path, capsys):
        # no NaN/Infinity tokens even for degenerate inputs such as full rank
        state = BipartiteState(HermitianOperator(
            BipartiteDims(2, 2), np.eye(4) + np.diag([1.0, 0, 0, 1.0])))
        rep = analyze_state(state, {"case": "full-rank"})
        json.dumps(rep.to_json(), sort_keys=True, allow_nan=False)
        assert rep.to_markdown().startswith("# State report")

    def test_plane_range_report_is_strict_json(self, tmp_path, capsys, rng):
        # rho = |00><00| + |01><01| + |ab><ab|: the product plane
        # |0> (x) span(|0>, |1>) in the range settles it without a search
        path = tmp_path / "s.json"
        save_state(plane_range_state(rng), path)
        code, stdout, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0

        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        rep = json.loads(stdout, parse_constant=refuse)
        ces = rep["range_ces"]
        assert (ces["verdict"], ces["route"]) == (False, "homotopy")
        assert isinstance(ces["best_residual"], float) and np.isfinite(ces["best_residual"])
        assert rep["edge"]["is_edge"] is False

    @pytest.mark.parametrize("edit,message", [
        ({"m": 2.5}, "field 'm' must be an integer, got 2.5"),
        ({"n": True}, "field 'n' must be an integer, got true"),
        ({"entry": [True, False]}, "entry (0, 0) is [true, false]"),
        ({"r": 7}, "field 'r' must be the integer 1, the blocks' row count, got 7"),
    ], ids=["float-m", "boolean-n", "boolean-entry", "factor-r-not-row-count"])
    def test_non_integer_or_boolean_field_exit_2(self, tmp_path, capsys, edit, message):
        rows = [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        if "entry" in edit:
            rows[0][0] = edit.pop("entry")
        payload = {"m": 2, "n": 2, "matrix": rows}
        if "r" in edit:
            # the factored form of |00><00|: two 1 x 2 blocks
            payload = {"m": 2, "n": 2, "blocks": [[[[1.0, 0.0], [0.0, 0.0]]],
                                                  [[[0.0, 0.0], [0.0, 0.0]]]]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(dict(payload, **edit)))
        code, stdout, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert stdout == ""
        assert message in err

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_state(zoo.good_3x4(), path)
        out = tmp_path / "missing" / "report.json"
        code, stdout, err = run_cli(capsys, "analyze", str(path), "--fast", "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and str(out) in err

    def test_unwritable_out_fails_before_the_analysis(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "s.json"
        save_state(zoo.good_3x4(), path)
        calls = []
        monkeypatch.setattr(cli, "analyze_state", lambda *a, **k: calls.append(a))
        out = tmp_path / "missing" / "report.json"
        code, stdout, err = run_cli(capsys, "analyze", str(path), "--out", str(out))
        assert code == 2
        assert stdout == "" and str(out) in err
        assert calls == []

    def test_failed_analysis_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "s.json"
        save_state(zoo.good_3x4(), path)
        before = path.read_bytes()

        def fail(*args, **kwargs):
            raise ValueError("analysis failed")

        monkeypatch.setattr(cli, "analyze_state", fail)
        code, _, err = run_cli(capsys, "analyze", str(path), "--out", str(path))
        assert code == 2 and "analysis failed" in err
        assert path.read_bytes() == before

    def test_out_may_name_the_input_file(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_state(zoo.good_3x4(), path)
        code, _, _ = run_cli(capsys, "analyze", str(path), "--fast", "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text())["rank_profile"]["rank"] == 5

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        # a file without a matrix, a missing path, a file that is not JSON,
        # one nested too deeply to parse and an entry too large for a float
        path = tmp_path / "nonsense.json"
        path.write_text("{\"m\": 2}")
        text = tmp_path / "text.json"
        text.write_text("m = 2\n")
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"m": 1, "n": 1, "matrix": [[[10 ** 400, 0]]]}))
        for name in (path, tmp_path / "missing.json", text, deep, huge):
            code, stdout, err = run_cli(capsys, "analyze", str(name))
            assert code == 2
            assert stdout == "" and err.startswith("error: ")

    def test_ragged_state_exit_2(self, tmp_path, capsys):
        rows = [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        rows[2].pop()
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"m": 2, "n": 2, "matrix": rows}))
        code, stdout, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert stdout == ""
        assert "error: matrix is ragged: row 2 has 3 entries, expected 4" in err

    def test_non_finite_state_exit_2(self, tmp_path, capsys):
        rows = [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({"m": 2, "n": 2, "matrix": rows})
                        .replace("[1.0, 0.0]", "[1e400, 0.0]", 1))
        code, stdout, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert stdout == ""
        assert "error: matrix has non-finite entries (NaN or Inf)" in err


class TestReportBlocks:
    """Each block of pptlab-report/1 as `analyze_state` writes it from the
    result objects of `segre` and `certify`."""

    def test_non_finite_values_are_null(self, tmp_path, capsys, monkeypatch):
        # a block no route fills with a non-finite value: the report is
        # still strict JSON, with null in its place
        profile = qstate.rank_profile

        def infinite_gap(state):
            rp = profile(state)
            return dataclasses.replace(rp, singular_gaps=(np.inf, *rp.singular_gaps[1:]))

        monkeypatch.setattr(qstate, "rank_profile", infinite_gap)
        path = tmp_path / "s.json"
        save_state(zoo.good_3x4(), path)
        code, stdout, err = run_cli(capsys, "analyze", str(path), "--fast")
        assert code == 0, err
        gaps = json.loads(stdout)["rank_profile"]["singular_gaps"]
        assert gaps[0] is None and gaps[1:] == list(profile(zoo.good_3x4()).singular_gaps[1:])

    def test_markdown_reads_the_nulls(self):
        # a full-rank state: nothing is kept, so the gap ratio and the margin
        # are infinite; the body holds null, which the markdown prints as n/a
        state = BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.eye(4)))
        rep = analyze_state(state, {}, fast=True)
        assert (rep.body["extremality"]["gap_ratio"], rep.body["extremality"]["margin"]) == (
            None, None)
        assert "(nullity 16, gap n/a)" in rep.to_markdown()

    def test_kernel_block_serializes(self):
        kernel = analyze_state(zoo.good_3x4(), {}, fast=True).body["kernel"]
        payload = json.dumps(kernel, allow_nan=False)
        assert "classification" in payload
        assert kernel["count"] == len(kernel["points"]) == 10

    def test_kernel_block_is_deterministic(self):
        state = zoo.kon_mnogo()[0]
        first, second = (analyze_state(state, {}, fast=True).body["kernel"] for _ in range(2))
        assert json.dumps(first) == json.dumps(second)

    def test_extremality_block_keeps_the_margin(self):
        state = zoo.good_3x4()
        block = analyze_state(state, {}, fast=True).body["extremality"]
        assert block["margin"] == certify.extremality_nullity(state).margin


def count_enumerations(monkeypatch):
    """The dimension of every subspace whose product vectors are enumerated:
    every enumeration is segre's, and `certify` calls none."""
    calls = []
    original = segre.enumerate_product_vectors

    def counted(*args, **kwargs):
        calls.append(args[0].dim)
        return original(*args, **kwargs)

    monkeypatch.setattr(segre, "enumerate_product_vectors", counted)
    return calls


def record_ces_certificates(monkeypatch):
    """The (verdict, enumeration) of every range CES certificate made."""
    seen = []
    original = segre.ces_certificate

    def recorded(k, dims):
        seen.append(original(k, dims))
        return seen[-1]

    monkeypatch.setattr(segre, "ces_certificate", recorded)
    return seen


def record_basis_cuts(monkeypatch):
    """The `tol_used` of every SubspaceBasis built, wherever it is built."""
    cuts = []
    original = qstate.SubspaceBasis.__init__

    def recorded(self, *args, **kwargs):
        original(self, *args, **kwargs)
        cuts.append(self.tol_used)

    monkeypatch.setattr(qstate.SubspaceBasis, "__init__", recorded)
    return cuts


def record_nullity_cuts(monkeypatch):
    """The (rank_tol, psd_tol) of every state whose extremality nullity is
    taken."""
    cuts = []
    original = certify.extremality_nullity

    def recorded(state):
        cuts.append((state.rank_tol, state.psd_tol))
        return original(state)

    monkeypatch.setattr(certify, "extremality_nullity", recorded)
    return cuts


START_SEEDS = (1, 2, 3)


def verdict_fields(report: dict) -> dict:
    """The verdicts, counts, routes, path tallies and start counts of a report."""
    kern, ces, edge = report["kernel"], report["range_ces"], report["edge"]
    ev = kern["evidence"]
    return {
        "kernel": (kern["classification"], kern["count"], ev["route"], ev["paths"],
                   ev["starts_used"]),
        "goodness": tuple(report["goodness"][k] for k in ("verdict", "count", "reason")),
        "range_ces": (ces["verdict"], ces["route"], ces["paths"], ces["starts_used"]),
        "edge": (edge["is_edge"], edge["route"], edge["paths"], edge["starts_used"]),
        "extremality": (report["extremality"]["verdict"], report["extremality"]["nullity"]),
        "strongly_extreme": report["strongly_extreme"],
    }


class TestStartSource:
    """No verdict depends on the seed of the multistart starts."""

    def test_the_seed_moves_the_starts(self, monkeypatch):
        a0, b0 = segre.start_pairs(8, 3, 4)
        monkeypatch.setattr(segre, "_START_SEED", START_SEEDS[0])
        a1, b1 = segre.start_pairs(8, 3, 4)
        assert not np.allclose(a0, a1) and not np.allclose(b0, b1)

    @pytest.mark.parametrize("state_fn", [zoo.good_3x4, lambda: zoo.bad_mxn(4, 5)],
                             ids=["good_3x4", "bad_4x5"])
    def test_report_verdicts_ignore_the_seed(self, state_fn, monkeypatch):
        ref = verdict_fields(analyze_state(state_fn(), {}).to_json())
        assert ref["range_ces"][3] == 400    # the cross-check round drew its starts
        for seed in START_SEEDS:
            monkeypatch.setattr(segre, "_START_SEED", seed)
            assert verdict_fields(analyze_state(state_fn(), {}).to_json()) == ref

    def test_search_route_ignores_the_seed(self, monkeypatch):
        sub, dims = conic_subspace()

        def fields():
            res = segre.enumerate_product_vectors(sub, dims)
            return res.classification, res.evidence["route"], res.evidence["starts_used"]

        ref = fields()
        assert ref[1:] == ("multistart", 400)
        for seed in START_SEEDS:
            monkeypatch.setattr(segre, "_START_SEED", seed)
            assert fields() == ref

    def test_plane_search_ignores_the_seed(self, monkeypatch):
        state = zoo.bad_mxn(4, 5)
        kern = kernel_basis(state)
        for seed in (segre._START_SEED,) + START_SEEDS:
            monkeypatch.setattr(segre, "_START_SEED", seed)
            a_hits = [ls for ls in segre.find_line_subspaces(kern, state.dims) if ls.side == "A"]
            assert a_hits
            for hit in a_hits:
                for w_vec in hit.subspace.vectors:
                    assert kern.project_residual(np.kron(hit.vector, w_vec)) < 1e-8

    def test_edge_fallback_ignores_the_seed(self, monkeypatch):
        def fields():
            report = certify.edge_check(zoo.good_3x4(), enumeration=continuum_by_homotopy())
            return report.is_edge, report.route, report.starts_used

        ref = fields()
        assert ref == (True, "multistart", certify.EDGE_FALLBACK_STARTS)
        for seed in START_SEEDS:
            monkeypatch.setattr(segre, "_START_SEED", seed)
            assert fields() == ref

    def test_runtime_leaves_scipy_unimported(self):
        """No module of the scipy package is loaded by the import, a full
        analysis, the extremality nullity and witness splitting of a
        separable state, or a rank-n separable decomposition."""
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        code = ("import sys, numpy as np, pptlab.cli\n"
                "from pptlab import certify, zoo\n"
                "from pptlab.qstate import BipartiteDims, BipartiteState, HermitianOperator\n"
                "def loaded():\n"
                "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                "def state(diag):\n"
                "    return BipartiteState(HermitianOperator(BipartiteDims(2, 2), np.diag(diag)))\n"
                "seen = [loaded()]\n"
                "pptlab.cli.analyze_state(zoo.good_3x4(), {})\n"
                "seen.append(loaded())\n"
                "sep = state([1.0, 1.0, 1.0, 1.0])\n"
                "certify.witness_decomposition(sep, certify.extremality_nullity(sep))\n"
                "seen.append(loaded())\n"
                "certify.rank_n_separable_decomposition(state([1.0, 0.0, 0.0, 1.0]))\n"
                "seen.append(loaded())\n"
                "print(seen)")
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == str([[]] * 4)


def swap_parties(state):
    """The state with its two parties exchanged, on C^n (x) C^m."""
    m, n = state.dims.m, state.dims.n
    rho = state.matrix.reshape(m, n, m, n).transpose(1, 0, 3, 2).reshape(m * n, m * n)
    return BipartiteState(HermitianOperator(BipartiteDims(n, m), rho))


def conjugated(state, a, b):
    """(A (x) B) rho (A (x) B)^H."""
    u = np.kron(a, b)
    return BipartiteState(HermitianOperator(state.dims, u @ state.matrix @ u.conj().T))


def invariant_fields(report: dict) -> dict:
    """The verdicts, counts and routes that no change of scale, of local
    basis or of party order may move."""
    kern, ces, edge = report["kernel"], report["range_ces"], report["edge"]
    prof, gamma = report["rank_profile"], report["extremality_of_partial_transpose"]
    return {
        # the swap exchanges the local ranks
        "ranks": (prof["rank"], prof["rank_gamma"], sorted((prof["rank_a"], prof["rank_b"]))),
        "ppt": report["ppt"]["verdict"],
        "kernel": (kern["classification"], kern["count"], kern["evidence"]["route"],
                   kern["general_position"]),
        "goodness": (report["goodness"]["verdict"], report["goodness"]["reason"]),
        "extremality": (report["extremality"]["verdict"], report["extremality"]["nullity"],
                        None if gamma is None else gamma["verdict"], report["strongly_extreme"]),
        "range_ces": (ces["verdict"], ces["route"]),
        "edge": (edge["is_edge"], edge["route"]),
        "anomalies": report["anomalies"],
    }


INVARIANCE_BASES = {"good_3x4": zoo.good_3x4, "bad_3x4": zoo.bad_3x4,
                    "bad_4x5": lambda: zoo.bad_mxn(4, 5)}


@functools.lru_cache(maxsize=None)
def base_fields(label: str) -> dict:
    return invariant_fields(analyze_state(INVARIANCE_BASES[label](), {}).to_json())


def changed(state, change: str):
    """The state scaled, with its parties swapped, or under a local unitary
    or SLOCC change drawn from default_rng(20)."""
    m, n = state.dims.m, state.dims.n
    rng = np.random.default_rng(20)

    def cplx(k):
        return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))

    if change.startswith("x"):
        return BipartiteState(HermitianOperator(state.dims, float(change[1:]) * state.matrix))
    if change == "swap":
        return swap_parties(state)
    if change == "local_unitary":
        return conjugated(state, np.linalg.qr(cplx(m))[0], np.linalg.qr(cplx(n))[0])
    return conjugated(state, cplx(m), cplx(n))


class TestReportInvariance:
    """Every verdict of the full report is invariant under scale, local
    unitary and SLOCC changes and the party swap (LMO 2007 for extremality);
    the zoo states are real, so the seeded complex changes are what would
    expose a missing conjugate."""

    @pytest.mark.parametrize("label, change", [
        (label, change) for label in ("good_3x4", "bad_3x4")
        for change in ("x1e12", "x1e-12", "swap", "local_unitary")
    ] + [("good_3x4", "slocc"), ("bad_4x5", "swap"), ("bad_3x4", "slocc"),
         ("bad_4x5", "slocc")])
    def test_verdicts_counts_and_routes(self, label, change):
        state = changed(INVARIANCE_BASES[label](), change)
        assert invariant_fields(analyze_state(state, {}).to_json()) == base_fields(label)

    def test_report_ignores_the_null_space_layout(self, monkeypatch):
        # the searches read the membership stack in the layout
        # membership_stack gives it, whatever layout the null space has
        ref = json.dumps(analyze_state(zoo.good_3x4(), {}).to_json())
        original = segre.null_space
        for layout in (np.asfortranarray, np.ascontiguousarray):
            monkeypatch.setattr(segre, "null_space", lambda x, f=layout: f(original(x)))
            assert json.dumps(analyze_state(zoo.good_3x4(), {}).to_json()) == ref


class TestTolerances:
    @pytest.mark.parametrize("option", ["--tol-rank", "--tol-psd"])
    @pytest.mark.parametrize("text", ["-1", "0", "nan", "inf", "1"])
    @pytest.mark.parametrize("cmd", ["analyze", "sweep"])
    def test_out_of_range_exit_2(self, tmp_path, capsys, cmd, option, text):
        # zero or negative cuts report the rank-5 extreme state as rank 12
        # or NPT, and nan or inf failed deep inside with another message
        path = tmp_path / "s.json"
        save_state(zoo.good_3x4(), path)
        target = [str(path)] if cmd == "analyze" else ["bad-3x4", "--draws", "1"]
        with pytest.raises(SystemExit) as exc:
            main([cmd, *target, "--fast", f"{option}={text}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected a tolerance 0 < t < 1, got '{text}'" in err

    @pytest.mark.parametrize("cmd", ["analyze", "sweep"])
    def test_small_tolerances_run(self, tmp_path, capsys, cmd):
        path = tmp_path / "s.json"
        save_state(zoo.good_3x4(), path)
        target = [str(path)] if cmd == "analyze" else ["bad-3x4", "--draws", "1"]
        code, stdout, _ = run_cli(capsys, cmd, *target, "--fast", "--tol-rank", "1e-9",
                                  "--tol-psd", "1e-9")
        assert code == 0
        report = json.loads(stdout if cmd == "analyze" else stdout.splitlines()[0])
        assert report["tolerances"]["rank"] == 1e-9


class TestRoutes:
    def test_good_3x4_range_proven_empty(self):
        # the range's Hilbert certificate proves it empty: no path is tracked
        rep = analyze_state(zoo.good_3x4(), {"case": "good_3x4"})
        j = rep.to_json()
        for block in (j["range_ces"], j["edge"]):
            assert block["route"] == "hilbert"
            assert block["paths"] is None
            assert block["note"].startswith("proof: the Hilbert function")
        hilbert = j["range_ces"]["hilbert"]
        assert (hilbert["bidegree"], hilbert["value"]) == ([1, 3], 0)
        assert hilbert["margin"] > qstate.MARGIN_FACTOR
        assert j["kernel"]["evidence"]["hilbert"] is None
        assert j["range_ces"]["verdict"] is True and j["edge"]["is_edge"] is True
        assert j["range_ces"]["starts_used"] == 400
        md = rep.to_markdown()
        assert "- range is completely entangled: True (route hilbert" in md
        assert "- edge state: True (route hilbert" in md

    def test_one_range_enumeration_per_analysis(self, monkeypatch):
        # ker rho and R(rho), each built and enumerated once: the edge check
        # reads the range enumeration of the CES verdict and the kernels the
        # state keeps, and builds no basis of its own
        cuts = record_basis_cuts(monkeypatch)
        calls = count_enumerations(monkeypatch)
        analyze_state(zoo.good_3x4(), {})
        assert len(cuts) == 2
        assert calls == [7, 5]

    def test_separable_range_settled_by_count(self, rng):
        # the range of two product terms holds them; the count finds both,
        # so the range is not CES and the edge check finds a pair
        dims = BipartiteDims(2, 3)
        rho = sum(np.outer(v, v.conj()) for v in
                  (random_product_vector(dims, rng).vec() for _ in range(2)))
        rep = analyze_state(BipartiteState(HermitianOperator(dims, rho)), {"case": "sep"})
        j = rep.to_json()
        assert j["range_ces"]["verdict"] is False
        assert j["range_ces"]["route"] == "homotopy"
        assert j["range_ces"]["note"].startswith("complete by count")
        assert j["edge"]["is_edge"] is False
        assert j["edge"]["route"] == "homotopy"
        assert "(route homotopy" in rep.to_markdown()

    def test_search_route_reported(self, monkeypatch):
        # a homotopy that loses a path settles nothing: the range, whose
        # Hilbert certificate declines, is searched by one multistart round,
        # and the edge check runs its fallback
        decline_hilbert(monkeypatch)
        original = segre._homotopy_roots

        def lossy(wc):
            points, residuals, paths, planes = original(wc)
            return points[:-1], residuals[:-1], paths, planes

        monkeypatch.setattr(segre, "_homotopy_roots", lossy)
        rep = analyze_state(zoo.good_3x4(), {"case": "lossy"})
        j = rep.to_json()
        n0 = 400
        assert j["range_ces"]["route"] == "multistart"
        assert j["range_ces"]["note"].startswith("numerical certificate")
        assert j["range_ces"]["starts_used"] == n0
        assert j["edge"]["route"] == "multistart"
        assert j["edge"]["starts_used"] == n0 + 256
        assert "(route multistart" in rep.to_markdown()

    @pytest.mark.parametrize("state_fn,range_route", [
        (zoo.good_3x4, "hilbert"),
        # full rank: the range enumeration settles it by dimension count,
        # and the edge check reuses it
        (lambda: BipartiteState(HermitianOperator(
            BipartiteDims(2, 2), np.eye(4) + np.diag([1.0, 0, 0, 1.0]))), "dimension-count"),
    ], ids=["good_3x4", "full_rank"])
    def test_two_enumerations_per_state(self, state_fn, range_route, monkeypatch):
        calls = count_enumerations(monkeypatch)
        rep = analyze_state(state_fn(), {"case": "count"})
        assert len(calls) == 2, calls
        assert rep.to_json()["range_ces"]["route"] == range_route

    def test_separable_range_count_runs_no_plane_search(self, monkeypatch):
        # eight seeded product terms in 3 x 4: the range enumeration, whose
        # dim K^perp = 4 < m + n - 2 settles it by dimension count, runs no
        # plane search, and the edge check reuses it
        refuse_plane_search(monkeypatch)
        seen = record_ces_certificates(monkeypatch)
        rng = np.random.default_rng(1)
        rho = np.zeros((12, 12), dtype=complex)
        for _ in range(8):
            v = np.kron(rng.standard_normal(3) + 1j * rng.standard_normal(3),
                        rng.standard_normal(4) + 1j * rng.standard_normal(4))
            rho += np.outer(v, v.conj())
        j = analyze_state(BipartiteState(HermitianOperator(BipartiteDims(3, 4), rho)),
                          {}).to_json()
        assert j["range_ces"]["route"] == "dimension-count"
        assert [(r.classification, r.evidence["route"], r.evidence["line_subspaces"])
                for _, r in seen] == [(segre.Classification.LIKELY_INFINITE,
                                       "dimension-count", [])]
        assert (j["edge"]["is_edge"], j["edge"]["pair_found"]) == (False, True)

    def test_plane_range_settled_by_its_endpoints(self, rng, monkeypatch):
        # the homotopy of the squared-down range system ends paths on the
        # plane |0> (x) span(|0>, |1>), verified on the range itself: that
        # settles the range with no plane search and no starts, and the
        # edge check finds its pair among the homotopy roots
        refuse_plane_search(monkeypatch)
        seen = record_ces_certificates(monkeypatch)
        j = analyze_state(plane_range_state(rng), {}).to_json()
        ces, edge = j["range_ces"], j["edge"]
        assert (ces["verdict"], ces["route"], ces["starts_used"]) == (False, "homotopy", 0)
        assert ces["note"].startswith("proof")
        [(_, res)] = seen
        assert res.classification == segre.Classification.LIKELY_INFINITE
        assert res.evidence["paths"]["on_plane"] >= 1
        planes = res.evidence["line_subspaces"]
        assert [(ls.side, ls.subspace.dim) for ls in planes] == [("A", 2)]
        assert abs(planes[0].vector[0]) > 1 - 1e-8
        assert (edge["is_edge"], edge["pair_found"], edge["route"]) == (False, True, "homotopy")
        assert edge["note"] == ces["note"]

    @pytest.mark.parametrize("seed", [101, 102])
    def test_good_3x4_range_count_survives_strong_slocc(self, seed, monkeypatch):
        # kappa = 1000 per factor leaves near roots of the squared-down range
        # system that polish off the range; they are dropped, and the count
        # still proves the range empty where the Hilbert certificate declines
        decline_hilbert(monkeypatch)
        seen = record_ces_certificates(monkeypatch)
        j = analyze_state(slocc_changed(zoo.good_3x4(), 1000, seed), {}).to_json()
        assert [res.classification for _, res in seen] == [segre.Classification.EMPTY]
        ces, edge = j["range_ces"], j["edge"]
        assert (ces["verdict"], ces["route"], ces["starts_used"]) == (True, "homotopy", 400)
        assert ces["note"].startswith("complete by count")
        assert (edge["is_edge"], edge["route"]) == (True, "homotopy")

    def test_tol_rank_reaches_the_edge_check(self, monkeypatch):
        # every basis the analysis builds is cut at the state's rank_tol, the
        # edge check reuses the range enumeration (two enumerations in all),
        # and the ker rho^Gamma that its rule reads is cut there too: three
        # product terms in 2 x 3, whose range points are a violating pair
        cuts = record_basis_cuts(monkeypatch)
        calls = count_enumerations(monkeypatch)
        measured = record_edge_residuals(monkeypatch)
        state = BipartiteState(seeded_separable(2, 3, 3, 0).op, rank_tol=1e-7)
        j = analyze_state(state, {"case": "tol"}).to_json()
        assert len(cuts) == 2 and set(cuts) == {1e-7}, cuts
        assert len(calls) == 2, calls
        assert [(st.rank_tol, len(st.split(gamma=True)[0])) for st, *_ in measured] == \
            [(1e-7, 6 - j["rank_profile"]["rank_gamma"])]
        assert (j["edge"]["is_edge"], j["edge"]["route"]) == (False, "homotopy")

    def test_tol_rank_reaches_every_rank_cut(self, monkeypatch):
        # the extremality nullity of rho and of rho^Gamma reads states cut
        # at the state's rank_tol, and the ranks of the report are cut there too
        cuts = record_nullity_cuts(monkeypatch)
        state = BipartiteState(zoo.good_3x4().op, rank_tol=1e-7)
        j = analyze_state(state, {"case": "tol"}).to_json()
        assert cuts == [(1e-7, 1e-9)] * 2, cuts
        assert j["tolerances"]["rank"] == 1e-7
        assert j["rank_profile"]["birank"] == [5, 5]
        assert j["extremality_of_partial_transpose"]["verdict"] == "extreme"

    def test_tol_rank_reaches_goodness_and_strong_extremality(self):
        # good_3x4 plus 1e-8 of its top eigenvalue along a kernel product
        # vector: rank 5 at its own rank_tol 1e-7, so it is good at the
        # borderline and the theorem applies
        state = zoo.good_3x4()
        p = segre.enumerate_product_vectors(kernel_basis(state), state.dims).points[0].vec()
        top = np.linalg.eigvalsh(state.matrix)[-1]
        op = HermitianOperator(state.dims, state.matrix + 1e-8 * top * np.outer(p, p.conj()))
        j = analyze_state(BipartiteState(op, rank_tol=1e-7), {"case": "lifted"}).to_json()
        assert j["tolerances"]["rank"] == 1e-7
        assert j["rank_profile"]["birank"] == [5, 5]
        assert (j["kernel"]["classification"], j["kernel"]["count"]) == ("finite", 10)
        assert j["extremality"]["verdict"] == "extreme"
        assert (j["goodness"]["verdict"], j["goodness"]["reason"]) == ("good", "count-equals-delta")
        assert j["strongly_extreme"] == "yes"
        # at the default cut the lift is rank, and the theorem does not apply
        j = analyze_state(BipartiteState(op), {"case": "lifted"}).to_json()
        assert j["rank_profile"]["birank"] == [6, 6]
        assert j["extremality"]["verdict"] == "not-extreme"
        assert j["strongly_extreme"] == "not-applicable"


class TestSweep:
    def test_bad_3x4_draws(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        code, _, err = run_cli(capsys, "sweep", "bad-3x4", "--draws", "2",
                               "--seed", "7", "--fast", "--out", str(out))
        assert code == 0
        reps = [json.loads(line) for line in out.read_text().strip().splitlines()]
        assert len(reps) == 2
        for rep in reps:
            assert rep["extremality"]["verdict"] == "extreme"
            assert rep["goodness"]["verdict"] == "bad"
        # the summary tallies the lines it wrote
        summary = json.loads(err.split("sweep summary: ", 1)[1])
        assert summary == {
            "points": len(reps), "errors": sum("error" in rep for rep in reps),
            "ppt": sum(rep["ppt"]["verdict"] for rep in reps),
            "extreme": sum(rep["extremality"]["verdict"] == "extreme" for rep in reps),
            "good": sum(rep["goodness"]["verdict"] == "good" for rep in reps),
            "bad": sum(rep["goodness"]["verdict"] == "bad" for rep in reps)}

    def test_seed_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        run_cli(capsys, "sweep", "bad-3x4", "--draws", "2", "--seed", "3",
                "--fast", "--out", str(out1))
        run_cli(capsys, "sweep", "bad-3x4", "--draws", "2", "--seed", "3",
                "--fast", "--parallel", "2", "--out", str(out2))
        assert out1.read_text() == out2.read_text()

    def test_good_3xn_draws(self, tmp_path, capsys):
        # zoo._good_3xn_grid: n - 3 parameters in [1.1, 4.0] per draw, their
        # squares kept 1e-3 away from 1 and from each other
        written = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            code, _, _ = run_cli(capsys, "sweep", "good-3xN", "--n-range", "4:5", "--draws", "2",
                                 "--seed", "3", "--fast", "--out", str(out))
            assert code == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        reps = [json.loads(line) for line in written[0].decode().splitlines()]
        assert [rep["input"]["n"] for rep in reps] == [4, 4, 5, 5]
        for rep in reps:
            b = np.array(rep["input"]["b"])
            assert b.shape == (rep["input"]["n"] - 3,)
            assert np.all((b >= 1.1) & (b <= 4.0))
            sq = b ** 2
            assert np.all(np.abs(sq - 1.0) >= 1e-3)
            assert np.all(np.abs(np.subtract.outer(sq, sq))[np.triu_indices(b.size, 1)] >= 1e-3)
            assert rep["goodness"]["verdict"] == "good"

    def test_grid_sweep_bad_3xn(self, tmp_path, capsys):
        out = tmp_path / "grid.jsonl"
        code, _, _ = run_cli(capsys, "sweep", "bad-3xN", "--n-range", "4:5",
                             "--fast", "--out", str(out))
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().strip().splitlines()]
        assert [rep["input"]["n"] for rep in lines] == [4, 5]
        assert all(rep["extremality"]["nullity"] == 1 for rep in lines)


    @pytest.mark.parametrize("family,argv,named", [
        ("bad-3xN", ["--n-range", "4:4", "--draws", "3", "--max-sum", "99"], "--draws"),
        ("bad-3x4", ["--n-range", "4:5"], "--n-range"),
        ("bad-MxN", ["--draws", "2"], "--draws"),
        ("good-3xN", ["--max-sum", "9"], "--max-sum"),
    ])
    def test_option_of_another_family_exit_2(self, tmp_path, capsys, family, argv, named):
        out = tmp_path / "s.jsonl"
        code, _, err = run_cli(capsys, "sweep", family, *argv, "--fast", "--out", str(out))
        assert code == 2
        assert named in err and family in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["4", "6:4"])
    def test_malformed_n_range_exit_2(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "bad-3xN", "--n-range", text, "--fast"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --n-range: expected lo:hi with integers lo <= hi" in err

    @pytest.mark.parametrize("family,text", [("good-3xN", "2:3"), ("good-3xN", "3:3"),
                                             ("bad-3xN", "1:4")])
    def test_n_range_below_the_family_exit_2(self, tmp_path, capsys, family, text):
        # no 3xN family has a member below n = 4: the sweep writes no line
        out = tmp_path / "s.jsonl"
        code, stdout, err = run_cli(capsys, "sweep", family, "--n-range", text, "--fast",
                                    "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert f"error: --n-range {text}: a 3xN family starts at n = 4" in err
        assert not out.exists()

    def test_cuts_reach_every_point(self, capsys):
        code, stdout, _ = run_cli(capsys, "sweep", "bad-3x4", "--draws", "2", "--fast",
                                  "--tol-rank", "1e-7", "--tol-psd", "1e-6")
        assert code == 0
        for line in stdout.splitlines():
            tols = json.loads(line)["tolerances"]
            assert (tols["rank"], tols["psd"]) == (1e-7, 1e-6)

    def test_points_refused_at_the_cut_are_error_lines(self, capsys):
        # each point is admitted at --tol-psd, where rounding in C^dag C is
        # already not PSD: every line is an error, and the sweep goes on
        code, stdout, err = run_cli(capsys, "sweep", "bad-3x4", "--draws", "2", "--fast",
                                    "--seed", "1", "--tol-psd", "1e-300")
        assert code == 0
        lines = [json.loads(line) for line in stdout.splitlines()]
        assert len(lines) == 2
        assert all(line["error"].startswith("matrix is not PSD") for line in lines), lines
        assert '"errors": 2' in err
        # an error line names its point as the report of that point does
        code, stdout, _ = run_cli(capsys, "sweep", "bad-3x4", "--draws", "2", "--fast",
                                  "--seed", "1")
        assert code == 0
        assert [line["input"] for line in lines] == [
            json.loads(line)["input"] for line in stdout.splitlines()]
        assert all(line["input"]["seed"] == 1 for line in lines)

    def test_unwritable_out_exits_before_the_grid(self, tmp_path, capsys, monkeypatch):
        analyzed = []
        monkeypatch.setattr(cli, "analyze_state", lambda *args, **kw: analyzed.append(args))
        out = tmp_path / "missing" / "sweep.jsonl"
        code, stdout, err = run_cli(capsys, "sweep", "bad-3xN", "--n-range", "4:5",
                                    "--fast", "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and str(out) in err
        assert analyzed == []

    @pytest.mark.parametrize("text", ["0", "-3"])
    def test_parallel_below_one_exit_2(self, tmp_path, capsys, text):
        out = tmp_path / "s.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "bad-3xN", "--n-range", "4:4", "--parallel", text,
                  "--fast", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --parallel: expected an integer >= 1, got '{text}'" in err
        assert not out.exists()

    def test_empty_grid_exit_2(self, capsys):
        code, stdout, err = run_cli(capsys, "sweep", "bad-MxN", "--max-sum", "7", "--fast")
        assert code == 2
        assert stdout == ""
        assert "error: the bad-MxN sweep grid is empty at --max-sum 7" in err


class TestRegistryDrift:
    def test_parser_choices_are_the_registry(self):
        subs = build_parser()._subparsers._group_actions[0].choices
        family = {cmd: next(a for a in subs[cmd]._actions if a.dest == "family")
                  for cmd in ("construct", "sweep")}
        assert family["construct"].choices == list(zoo.FAMILIES)
        assert family["sweep"].choices == [k for k, f in zoo.FAMILIES.items() if f.grid]
        for cmd in ("construct", "sweep"):
            dests = {a.dest for a in subs[cmd]._actions}
            assert set(cli._FAMILY_OPTIONS[cmd]) <= dests

    def test_readme_command_lines_parse(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = [line.split("#", 1)[0] for line in block.splitlines()
                 if line.startswith("pptlab ")]
        assert len(lines) >= 10
        for line in lines:
            args = build_parser().parse_args(shlex.split(line)[1:])
            if args.cmd in ("construct", "sweep"):
                cli._family_options(args)   # a refused shape or option raises


    def test_readme_quick_start_runs(self, capsys):
        # each print prints what its comment says; "~" marks a rounded value
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Library quick start", 1)[1].split("```python", 1)[1]
        block = block.split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        printed = capsys.readouterr().out.splitlines()
        said = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
        assert len(printed) == len(said) == 5
        for out, comment in zip(printed, said):
            assert "~" in comment or out == comment


def test_console_script_runs(tmp_path):
    # the installed `pptlab` script, or the module on `src` where none is
    # installed, runs each subcommand in a fresh process
    script = shutil.which("pptlab")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    cmd = [script] if script else [sys.executable, "-m", "pptlab.cli"]
    env = os.environ if script else dict(os.environ, PYTHONPATH=str(src))

    def run(*argv) -> str:
        done = subprocess.run([*cmd, *argv], cwd=tmp_path, env=env, capture_output=True,
                              text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout

    run("construct", "good-3x4", "--out", "g.json")
    run("analyze", "g.json", "--fast")
    run("verify-identities")
    run("sweep", "bad-3xN", "--n-range", "4:4", "--fast", "--out", "s.jsonl")
    rep = json.loads(run("analyze", "g.json", "--tol-rank", "1e-7", "--tol-psd", "1e-6"))
    assert (rep["tolerances"]["rank"], rep["tolerances"]["psd"]) == (1e-7, 1e-6)


class TestVerifyIdentities:
    def test_small_bound_passes(self, capsys):
        code, stdout, _ = run_cli(capsys, "verify-identities", "--max-mn", "6")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["pass"] is True
        assert payload["binomial_identity"]["failed"] == 0
        assert payload["circulant_determinant"]["failed"] == 0

    def test_trivial_bound(self, capsys):
        code, stdout, _ = run_cli(capsys, "verify-identities", "--max-mn", "1")
        assert code == 0
        assert json.loads(stdout)["pass"] is True

    @pytest.mark.parametrize("text", ["0", "-3"])
    def test_bound_below_one_exit_2(self, capsys, text):
        # an empty range would check nothing and still report a pass
        with pytest.raises(SystemExit) as exc:
            main(["verify-identities", "--max-mn", text])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --max-mn: expected an integer >= 1, got '{text}'" in captured.err

    def test_bound_cap(self, capsys):
        code, _, err = run_cli(capsys, "verify-identities", "--max-mn", "13")
        assert code == 2
        assert "at most 12" in err
