import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import otsm.cli
from conftest import HARD_OPT, I32, J32, make_hard_problem, random_stiefel
from otsm.builders import hard_example, synth_procrustes
from otsm.cli import build_parser, main
from otsm.core import BlockOrthogonal, ValidationError, objective
from otsm.experiment import CSV_HEADER, ExperimentGrid
from otsm.formats import load_problem, load_solution, save_problem, save_solution
from otsm.solver import SolverConfig


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")


def test_parser_defaults_are_the_library_defaults():
    parser = build_parser()
    args = parser.parse_args(["solve", "--input", "p.json", "--out", "r.json"])
    config = SolverConfig()
    assert (args.alpha, args.tol, args.max_iter, args.init) == (
        config.alpha, config.tol, config.max_iter, config.init)
    args = parser.parse_args(["bench", "--d", "5", "--sigma", "0.1", "--out", "g.csv"])
    grid = ExperimentGrid(d_values=(5,), sigma_values=(0.1,))
    assert (args.m, args.n, args.r, args.reps, args.seed) == (
        grid.m, grid.n, grid.r, grid.reps, grid.base_seed)


@pytest.fixture
def hard_file(tmp_path):
    path = tmp_path / "hard.json"
    save_problem(hard_example(3, 2), path)
    return path


class TestProblemFile:
    def test_round_trip(self, tmp_path, hard_file):
        problem = load_problem(hard_file)
        reference = make_hard_problem()
        assert problem.dims == reference.dims
        for key, block in reference.sblocks.items():
            assert np.array_equal(problem.sblocks[key], block)

    def test_views_variant(self, tmp_path):
        rng = np.random.default_rng(3)
        views = [rng.standard_normal((6, d)) for d in (3, 4)]
        path = tmp_path / "views.json"
        write_json(path, {"r": 2, "views": [v.tolist() for v in views]})
        problem = load_problem(path)
        assert problem.dims.dims == (3, 4)
        assert_allclose(problem.sblocks[(0, 1)], views[0].T @ views[1])

    def test_views_dims_cross_check(self, tmp_path):
        path = tmp_path / "views.json"
        write_json(
            path,
            {"r": 1, "dims": [2, 3], "views": [[[1.0, 2.0]], [[3.0, 4.0]]]},
        )
        with pytest.raises(ValidationError, match="dims"):
            load_problem(path)

    def test_exactly_one_of_s_and_views(self, tmp_path):
        path = tmp_path / "bad.json"
        write_json(path, {"dims": [1, 1], "r": 1})
        with pytest.raises(ValidationError, match="exactly one"):
            load_problem(path)
        write_json(
            path,
            {"dims": [1, 1], "r": 1, "S": [], "views": [[[1.0]], [[1.0]]]},
        )
        with pytest.raises(ValidationError, match="exactly one"):
            load_problem(path)

    def test_missing_or_bad_r(self, tmp_path):
        path = tmp_path / "bad.json"
        write_json(path, {"dims": [1, 1], "S": []})
        with pytest.raises(ValidationError, match="'r'"):
            load_problem(path)
        write_json(path, {"dims": [1, 1], "r": "two", "S": []})
        with pytest.raises(ValidationError, match="'r'"):
            load_problem(path)
        write_json(path, {"dims": [1, 1], "r": True, "S": []})
        with pytest.raises(ValidationError, match="'r'"):
            load_problem(path)

    def test_unknown_top_level_field(self, tmp_path):
        path = tmp_path / "bad.json"
        write_json(path, {"dims": [1, 1], "r": 1, "S": [], "extra": 0})
        with pytest.raises(ValidationError, match="'extra'"):
            load_problem(path)

    def test_entry_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        base = {"dims": [2, 2], "r": 1}

        write_json(path, {**base, "S": [{"i": 2, "j": 1, "data": [[1.0]]}]})
        with pytest.raises(ValidationError, match="1 <= i < j"):
            load_problem(path)

        write_json(path, {**base, "S": [{"i": 0, "j": 1, "data": [[1.0]]}]})
        with pytest.raises(ValidationError, match="1-based"):
            load_problem(path)

        entry = {"i": 1, "j": 2, "data": np.eye(2).tolist()}
        write_json(path, {**base, "S": [entry, entry]})
        with pytest.raises(ValidationError, match="duplicate"):
            load_problem(path)

        write_json(path, {**base, "S": [{"i": 1, "j": 2, "data": [[1.0]]}]})
        with pytest.raises(ValidationError, match="shape"):
            load_problem(path)

        write_json(path, {**base, "S": [{"i": 1, "j": 2}]})
        with pytest.raises(ValidationError, match="data"):
            load_problem(path)

        write_json(
            path,
            {**base, "S": [{"i": 1, "j": 2, "data": np.eye(2).tolist(), "x": 1}]},
        )
        with pytest.raises(ValidationError, match="unknown"):
            load_problem(path)

    def test_bad_coupling_data_names_its_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        good = {"i": 1, "j": 2, "data": np.eye(2).tolist()}
        for data in ([[1.0]], [[1.0, "x"], [0.0, 1.0]], [[1.0, float("nan")], [0.0, 1.0]]):
            bad = {"i": 1, "j": 3, "data": data}
            write_json(path, {"dims": [2, 2, 2], "r": 1, "S": [good, bad]})
            with pytest.raises(ValidationError, match=r"bad\.json: field 'S\[1\]\.data'"):
                load_problem(path)

    def test_views_dims_not_a_list(self, tmp_path):
        path = tmp_path / "views.json"
        write_json(path, {"r": 1, "dims": 5, "views": [[[1.0, 2.0]], [[3.0, 4.0]]]})
        with pytest.raises(ValidationError, match=r"views\.json: field 'dims'"):
            load_problem(path)

    def test_dims_past_numpy_limit(self, tmp_path):
        # 8 D^2 bytes above the largest np.intp: no D x D float64 array exists.
        # One row fewer is addressable, and loading allocates nothing D x D.
        path = tmp_path / "huge.json"
        write_json(path, {"dims": [2**30, 1], "r": 1, "S": []})
        with pytest.raises(ValidationError, match=r"huge\.json: field 'dims'"):
            load_problem(path)
        write_json(path, {"dims": [2**30 - 2, 1], "r": 1, "S": []})
        assert load_problem(path).dims.total_dim == 2**30 - 1

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"dims": [1, 1], "r": 1, "S": [], "x": "\u00e9"}'.encode("latin-1"))
        with pytest.raises(ValidationError, match=r"latin1\.json: not UTF-8"):
            load_problem(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError, match="malformed JSON"):
            load_problem(path)

    def test_rank_too_large_names_file(self, tmp_path):
        path = tmp_path / "bad.json"
        write_json(path, {"dims": [2, 2], "r": 3, "S": []})
        with pytest.raises(ValidationError, match="bad.json"):
            load_problem(path)

    def test_rank_is_checked_before_the_couplings(self, tmp_path):
        # One pass in file order: a bad r is reported before a ragged coupling.
        path = tmp_path / "bad.json"
        ragged = {"i": 1, "j": 2, "data": [[1.0, 0.0], [1.0]]}
        write_json(path, {"dims": [2, 2], "r": 3, "S": [ragged]})
        with pytest.raises(ValidationError, match=r"bad\.json: rank r=3") as info:
            load_problem(path)
        assert "S[0].data" not in str(info.value)

    def test_empty_couplings_allowed(self, tmp_path):
        path = tmp_path / "zero.json"
        write_json(path, {"dims": [3, 3], "r": 2, "S": []})
        problem = load_problem(path)
        assert problem.sblocks == {}


class TestSolutionFile:
    def test_round_trip(self, tmp_path):
        point = BlockOrthogonal(HARD_OPT)
        path = tmp_path / "sol.json"
        save_solution(point, path)
        loaded = load_solution(path)
        for a, b in zip(loaded.blocks, point.blocks):
            assert np.array_equal(a, b)

    def test_flat_blocks_need_dims(self, tmp_path):
        problem = hard_example(3, 2)
        path = tmp_path / "sol.json"
        write_json(
            path, {"blocks": [np.asarray(b).ravel().tolist() for b in HARD_OPT]}
        )
        loaded = load_solution(path, dims=problem.dims)
        for a, b in zip(loaded.blocks, HARD_OPT):
            assert np.array_equal(a, np.asarray(b))
        with pytest.raises(ValidationError, match="flat block"):
            load_solution(path)

    def test_orthonormality_warn_band(self, tmp_path):
        block = np.eye(3, 2)
        block[0, 1] = 1e-6  # deviation ~2e-6: above the warn line, below error
        path = tmp_path / "warn.json"
        write_json(path, {"blocks": [block.tolist(), np.eye(3, 2).tolist()]})
        with pytest.warns(UserWarning, match="orthonormality"):
            loaded = load_solution(path)
        assert loaded.orthonormality_error() > 1e-8

    def test_orthonormality_error_band(self, tmp_path):
        block = np.eye(3, 2)
        block[0, 1] = 0.05
        path = tmp_path / "bad.json"
        write_json(path, {"blocks": [block.tolist(), np.eye(3, 2).tolist()]})
        with pytest.raises(ValidationError, match="orthonormal"):
            load_solution(path)

    def test_block_count_checked(self, tmp_path):
        problem = hard_example(3, 2)
        path = tmp_path / "sol.json"
        write_json(path, {"blocks": [np.eye(3, 2).tolist()]})
        with pytest.raises(ValidationError, match="blocks"):
            load_solution(path, dims=problem.dims)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "sol.json"
        path.write_bytes(b'{"blocks": [[[1.0]], [[1.0]]]}\xff')
        with pytest.raises(ValidationError, match=r"sol\.json: not UTF-8"):
            load_solution(path)

    def test_missing_blocks_field(self, tmp_path):
        path = tmp_path / "sol.json"
        write_json(path, {})
        with pytest.raises(ValidationError, match="'blocks'"):
            load_solution(path)


class TestSolveCommand:
    def test_spectral_certify(self, tmp_path, hard_file, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "solve",
                "--input",
                str(hard_file),
                "--init",
                "spectral",
                "--certify",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["objective"] == pytest.approx(3.0, abs=1e-4)
        assert report["stop_reason"] == "converged"
        assert report["certificate"]["verdict"] == "certified_global"
        assert set(report["certificate"]) == {"taus", "verdict", "gap_bound"}
        # The written solution must reproduce the written objective.
        solution = load_solution(tmp_path / "report.solution.json")
        problem = load_problem(hard_file)
        assert objective(problem, solution) == pytest.approx(
            report["objective"], abs=1e-10
        )

    def test_identity_trap(self, tmp_path, hard_file):
        out = tmp_path / "report.json"
        code = main(["solve", "--input", str(hard_file), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["objective"] == pytest.approx(2.0, abs=1e-12)
        assert report["iterations"] == 1

    def test_max_iter_exit_code(self, tmp_path, hard_file):
        out = tmp_path / "report.json"
        code = main(
            [
                "solve",
                "--input",
                str(hard_file),
                "--init",
                "spectral",
                "--max-iter",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["stop_reason"] == "max_iter"

    def test_stagnation_exit_code(self, tmp_path):
        # No couplings and an unreachable tolerance: the stagnation guard
        # stops the solve, which the CLI reports as a non-converged exit.
        problem_path = tmp_path / "zero.json"
        write_json(problem_path, {"dims": [4, 4], "r": 2, "S": []})
        rng = np.random.default_rng(9)
        start = BlockOrthogonal([random_stiefel(rng, 4, 2) for _ in range(2)])
        start_path = tmp_path / "start.json"
        save_solution(start, start_path)
        out = tmp_path / "report.json"
        code = main(
            [
                "solve",
                "--input",
                str(problem_path),
                "--init",
                f"file:{start_path}",
                "--tol",
                "1e-300",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["stop_reason"] == "stagnated"

    def test_trace_flag(self, tmp_path, hard_file):
        out = tmp_path / "report.json"
        code = main(
            [
                "solve",
                "--input",
                str(hard_file),
                "--init",
                "spectral",
                "--trace",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert len(report["objective_trace"]) == report["iterations"] + 1

    def test_init_from_file(self, tmp_path, hard_file):
        start_path = tmp_path / "start.json"
        save_solution(BlockOrthogonal(HARD_OPT), start_path)
        out = tmp_path / "report.json"
        code = main(
            [
                "solve",
                "--input",
                str(hard_file),
                "--init",
                f"file:{start_path}",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["objective"] == pytest.approx(3.0, abs=1e-12)

    def test_bad_init_value(self, tmp_path, hard_file, capsys):
        code = main(
            [
                "solve",
                "--input",
                str(hard_file),
                "--init",
                "random",
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert "--init" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(
            [
                "solve",
                "--input",
                str(tmp_path / "missing.json"),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("layout", ["views_dims_int", "not_utf8", "huge_int_data",
                                        "huge_int_views", "deep_nesting", "long_int",
                                        "huge_dims", "unaddressable_dims"])
    def test_bad_problem_file_is_an_error(self, tmp_path, capsys, layout):
        path = tmp_path / "bad.json"
        if layout in ("huge_dims", "unaddressable_dims"):  # no D x D float64 array
            d = 10**400 if layout == "huge_dims" else 10**13
            write_json(path, {"dims": [d, 1], "r": 1, "S": []})
        elif layout == "views_dims_int":
            write_json(path, {"r": 1, "dims": 5, "views": [[[1.0, 2.0]], [[3.0, 4.0]]]})
        elif layout == "huge_int_data":  # beyond float range
            write_json(path, {"dims": [1, 1], "r": 1,
                              "S": [{"i": 1, "j": 2, "data": [[10**400]]}]})
        elif layout == "huge_int_views":
            write_json(path, {"r": 1, "views": [[[1.0, 2.0]], [[3.0, 10**400]]]})
        elif layout == "deep_nesting":  # deeper than the recursion limit
            path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        elif layout == "long_int":  # past the interpreter's digit limit
            path.write_text('{"dims": [1, 1], "r": ' + "1" * 5000 + ', "S": []}',
                            encoding="utf-8")
        else:
            path.write_bytes(b'{"dims": [1, 1], "r": 1, "S": []}\xe9')
        code = main(["solve", "--input", str(path), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert f"error: problem file {path}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_out_of_memory_is_an_error(self, tmp_path, hard_file, capsys, monkeypatch):
        def solve(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(otsm.cli, "solve", solve)
        out = tmp_path / "r.json"
        assert main(["solve", "--input", str(hard_file), "--out", str(out)]) == 1
        assert "error: Unable to allocate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("init", ["identity", "spectral"])
    @pytest.mark.parametrize("value", [1.7e308, 1e300])
    def test_overflow_is_an_input_error(self, tmp_path, capsys, value, init):
        # Entries of 1.7e308 overflow the objective or the sweep: the run is
        # an input error and no file holds NaN or infinity.  Entries of
        # 1e300 solve and certify, because the stationarity residuals are
        # scaled before their squares are summed.
        path = tmp_path / "huge.json"
        write_json(path, {"dims": [3, 3], "r": 2,
                          "S": [{"i": 1, "j": 2, "data": [[value] * 3] * 3}]})
        out = tmp_path / "r.json"
        argv = ["solve", "--input", str(path), "--init", init, "--certify",
                "--out", str(out)]
        with np.errstate(all="ignore"):
            code = main(argv)
        if value == 1e300:
            assert code == 0
            report = json.loads(out.read_text(encoding="utf-8"))
            assert report["certificate"]["verdict"] == "certified_global"
            assert 1e284 < report["stationarity"]["max_grad_residual"] < 1e286
            return
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["huge.json"]

    def test_infinite_alpha_warns(self, tmp_path, capsys):
        rng = np.random.default_rng(21)
        problem_path = tmp_path / "pair.json"
        write_json(
            problem_path,
            {
                "dims": [3, 3],
                "r": 2,
                "S": [{"i": 1, "j": 2, "data": rng.standard_normal((3, 3)).tolist()}],
            },
        )
        out = tmp_path / "report.json"
        code = main(
            [
                "solve",
                "--input",
                str(problem_path),
                "--alpha",
                "inf",
                "--init",
                "spectral",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "alpha=inf" in capsys.readouterr().err

    def test_no_temp_debris(self, tmp_path, hard_file):
        out = tmp_path / "report.json"
        main(["solve", "--input", str(hard_file), "--out", str(out)])
        leftovers = [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


def test_krylov_path_reruns_are_byte_identical(tmp_path, capsys):
    """At D = 1000 the spectral start comes from the seeded Krylov solve,
    and two runs of otsm solve --init spectral --certify write the same bytes."""
    problem, _ = synth_procrustes(5, 30, 200, 3, 1.0, 0)
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    written = []
    for tag in ("a", "b"):
        out = tmp_path / f"report-{tag}.json"
        argv = ["solve", "--input", str(path), "--init", "spectral", "--certify",
                "--out", str(out)]
        assert main(argv) == 0
        solution = tmp_path / f"report-{tag}.solution.json"
        written.append((out.read_bytes(), solution.read_bytes()))
    capsys.readouterr()
    assert written[0] == written[1]
    assert json.loads(written[0][0])["certificate"]["verdict"] == "certified_global"


class TestCertifyCommand:
    def test_global_optimum(self, tmp_path, hard_file):
        sol = tmp_path / "opt.json"
        save_solution(BlockOrthogonal(HARD_OPT), sol)
        out = tmp_path / "cert.json"
        code = main(
            [
                "certify",
                "--input",
                str(hard_file),
                "--solution",
                str(sol),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["certificate"]["taus"] == pytest.approx((1.0, 1.0, 1.0))
        assert report["certificate"]["verdict"] == "certified_global"
        assert set(report) == {"objective", "stationarity", "certificate"}

    def test_stationary_trap_inconclusive(self, tmp_path, hard_file):
        sol = tmp_path / "cycle.json"
        save_solution(BlockOrthogonal([I32, J32, I32]), sol)
        out = tmp_path / "cert.json"
        code = main(
            [
                "certify",
                "--input",
                str(hard_file),
                "--solution",
                str(sol),
                "--out",
                str(out),
            ]
        )
        assert code == 3
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["certificate"]["verdict"] == "inconclusive"

    def test_certified_not_global(self, tmp_path):
        problem_path = tmp_path / "pair.json"
        write_json(
            problem_path,
            {
                "dims": [2, 2],
                "r": 2,
                "S": [{"i": 1, "j": 2, "data": (-np.eye(2)).tolist()}],
            },
        )
        sol = tmp_path / "identity.json"
        save_solution(BlockOrthogonal([np.eye(2), np.eye(2)]), sol)
        out = tmp_path / "cert.json"
        code = main(
            [
                "certify",
                "--input",
                str(problem_path),
                "--solution",
                str(sol),
                "--out",
                str(out),
            ]
        )
        assert code == 4
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["certificate"]["verdict"] == "certified_not_global"

    def test_shape_mismatch(self, tmp_path, hard_file, capsys):
        sol = tmp_path / "short.json"
        write_json(sol, {"blocks": [np.eye(2).tolist(), np.eye(2).tolist()]})
        code = main(
            [
                "certify",
                "--input",
                str(hard_file),
                "--solution",
                str(sol),
                "--out",
                str(tmp_path / "cert.json"),
            ]
        )
        assert code == 1
        assert "blocks" in capsys.readouterr().err


    def test_solution_huge_integer(self, tmp_path, hard_file, capsys):
        sol = tmp_path / "sol.json"
        blocks = [np.asarray(b).tolist() for b in HARD_OPT]
        blocks[2][2][0] = 10**400  # beyond float range
        write_json(sol, {"blocks": blocks})
        out = tmp_path / "cert.json"
        code = main(["certify", "--input", str(hard_file), "--solution", str(sol),
                     "--out", str(out)])
        assert code == 1
        assert (f"error: solution file {sol}: field 'blocks[2]' contains non-finite"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_solution_not_utf8(self, tmp_path, hard_file, capsys):
        sol = tmp_path / "sol.json"
        sol.write_bytes(b"\xff\xfe")
        code = main(
            [
                "certify",
                "--input",
                str(hard_file),
                "--solution",
                str(sol),
                "--out",
                str(tmp_path / "cert.json"),
            ]
        )
        assert code == 1
        assert f"error: solution file {sol}: not UTF-8" in capsys.readouterr().err


class TestDemoCommand:
    def test_validates_and_is_deterministic(self, capsys):
        assert main(["demo-oscillation"]) == 0
        first = capsys.readouterr().out
        assert main(["demo-oscillation"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "objective per state: 2 2 2 2" in first
        assert first.count("cycle state") == 4


class TestBenchCommand:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            [
                "bench",
                "--m",
                "3",
                "--n",
                "20",
                "--d",
                "4",
                "--sigma",
                "0.1",
                "--r",
                "2",
                "--reps",
                "2",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_bytes().decode("utf-8").splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 3  # header + one cell x two inits

    def test_repeat_is_byte_identical(self, tmp_path):
        args = [
            "bench",
            "--m",
            "3",
            "--n",
            "20",
            "--d",
            "4,5",
            "--sigma",
            "0.1",
            "--r",
            "2",
            "--reps",
            "2",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_list_argument(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--d",
                "5,,10",
                "--sigma",
                "0.1",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert "--d" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--m",
                "3",
                "--n",
                "10",
                "--d",
                "4",
                "--sigma",
                "0.1",
                "--r",
                "2",
                "--reps",
                "1",
                "--out",
                str(tmp_path / "no-dir" / "x.csv"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_is_an_input_error(self, tmp_path, capsys):
        code = main(
            ["bench", "--d", "3", "--sigma", "0.1", "--m", "3", "--n", "10", "--r", "2",
             "--reps", "1", "--seed", "-1", "--out", str(tmp_path / "g.csv")]
        )
        assert code == 1
        assert "error: base_seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()
