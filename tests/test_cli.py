import json
import pathlib
import shlex

import numpy as np
import pytest

from pptlab import certify, cli, segre, zoo
from pptlab.cli import analyze_state, build_parser, main
from pptlab.qstate import BipartiteDims, BipartiteState, HermitianOperator, load_state, save_state
from conftest import random_product_vector


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

    def test_byte_determinism(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_state(zoo.good_3x4(), path)
        _, first, _ = run_cli(capsys, "analyze", str(path), "--fast")
        _, second, _ = run_cli(capsys, "analyze", str(path), "--fast")
        assert first == second

    def test_reports_are_strict_json(self, tmp_path, capsys):
        # no NaN/Infinity tokens even for degenerate inputs such as full rank
        state = BipartiteState(HermitianOperator(
            BipartiteDims(2, 2), np.eye(4) + np.diag([1.0, 0, 0, 1.0])))
        rep = analyze_state(state, {"case": "full-rank"})
        json.dumps(rep.to_json(), sort_keys=True, allow_nan=False)
        assert rep.to_markdown().startswith("# State report")

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nonsense.json"
        path.write_text("{\"m\": 2}")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "error" in err

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


def count_enumerations(monkeypatch):
    """Count every product-vector enumeration, wherever it is called from."""
    calls = []
    original = segre.enumerate_product_vectors

    def counted(*args, **kwargs):
        calls.append(args[0].dim)
        return original(*args, **kwargs)

    for mod in (segre, certify):
        monkeypatch.setattr(mod, "enumerate_product_vectors", counted)
    return calls


class TestRoutes:
    def test_good_3x4_range_proven_empty(self):
        rep = analyze_state(zoo.good_3x4(), {"case": "good_3x4"})
        j = rep.to_json()
        for block in (j["range_ces"], j["edge"]):
            assert block["route"] == "homotopy"
            assert block["paths"] == {"tracked": 10, "finished": 10, "accepted": 10}
            assert block["note"].startswith("complete by count")
        assert j["range_ces"]["verdict"] is True and j["edge"]["is_edge"] is True
        assert j["range_ces"]["starts_used"] == 400
        md = rep.to_markdown()
        assert "- range is completely entangled: True (route homotopy" in md
        assert "- edge state: True (route homotopy" in md

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
        # a homotopy that loses a path settles nothing: the range is searched
        # by one multistart round, and the edge check runs its fallback
        original = segre._homotopy_roots

        def lossy(wc):
            points, residuals, paths = original(wc)
            return points[:-1], residuals[:-1], paths

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
        (zoo.good_3x4, "homotopy"),
        # full rank: the CES verdict comes from the dimension count, so the
        # edge check enumerates the range itself
        (lambda: BipartiteState(HermitianOperator(
            BipartiteDims(2, 2), np.eye(4) + np.diag([1.0, 0, 0, 1.0]))), "dimension-count"),
    ], ids=["good_3x4", "full_rank"])
    def test_two_enumerations_per_state(self, state_fn, range_route, monkeypatch):
        calls = count_enumerations(monkeypatch)
        rep = analyze_state(state_fn(), {"case": "count"})
        assert len(calls) == 2, calls
        assert rep.to_json()["range_ces"]["route"] == range_route

    def test_tol_rank_reaches_the_edge_check(self, monkeypatch):
        seen = []
        original = certify.edge_check

        def spy(state, **kwargs):
            seen.append(kwargs)
            return original(state, **kwargs)

        monkeypatch.setattr(certify, "edge_check", spy)
        analyze_state(zoo.good_3x4(), {"case": "tol"}, tol_rank=1e-7)
        assert seen[0]["tol_rel"] == 1e-7
        assert seen[0]["enumeration"].evidence["route"] == "homotopy"

    def test_tol_rank_reaches_every_rank_cut(self, monkeypatch):
        # the extremality nullity of rho and of rho^Gamma, and the range of
        # rho^Gamma in the edge check, all cut at --tol-rank
        nullity_tols, basis_tols = [], []
        original_nullity, original_basis = certify.extremality_nullity, certify.SubspaceBasis

        def nullity_spy(state, **kwargs):
            nullity_tols.append(kwargs.get("rank_tol"))
            return original_nullity(state, **kwargs)

        def basis_spy(ambient_dim, vectors, tol_used):
            basis_tols.append(tol_used)
            return original_basis(ambient_dim, vectors, tol_used)

        monkeypatch.setattr(certify, "extremality_nullity", nullity_spy)
        monkeypatch.setattr(certify, "SubspaceBasis", basis_spy)
        analyze_state(zoo.good_3x4(), {"case": "tol"}, tol_rank=1e-7)
        assert nullity_tols == [1e-7, 1e-7]
        assert basis_tols == [1e-7]


class TestSweep:
    def test_bad_3x4_draws(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        code, _, err = run_cli(capsys, "sweep", "bad-3x4", "--draws", "2",
                               "--seed", "7", "--fast", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            rep = json.loads(line)
            assert rep["extremality"]["verdict"] == "extreme"
            assert rep["goodness"]["verdict"] == "bad"
        assert "sweep summary" in err

    def test_seed_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        run_cli(capsys, "sweep", "bad-3x4", "--draws", "2", "--seed", "3",
                "--fast", "--out", str(out1))
        run_cli(capsys, "sweep", "bad-3x4", "--draws", "2", "--seed", "3",
                "--fast", "--parallel", "2", "--out", str(out2))
        assert out1.read_text() == out2.read_text()

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

    def test_bound_cap(self, capsys):
        code, _, err = run_cli(capsys, "verify-identities", "--max-mn", "13")
        assert code == 2
        assert "at most 12" in err
