import csv
import math
from collections import Counter

import numpy as np
import pytest

import otsm.solver
from otsm.builders import synth_procrustes
from otsm.certificate import Verdict, certify
from otsm.core import InternalError, ValidationError
from otsm.experiment import (
    CSV_HEADER,
    CellResult,
    ExperimentGrid,
    ExportError,
    export_results,
    run_grid,
)
from otsm.solver import SolverConfig, solve

# A grid small enough to run in well under a second but large enough to
# exercise aggregation across cells, reps, and both initializations.
SMALL = dict(d_values=(4,), sigma_values=(0.1,), m=3, n=20, r=2, reps=3, base_seed=5)


class TestExperimentGrid:
    def test_defaults(self):
        grid = ExperimentGrid(d_values=(5, 10), sigma_values=(0.1, 10.0))
        assert grid.m == 5
        assert grid.n == 100
        assert grid.r == 3
        assert grid.reps == 20
        assert grid.init_strategies == ("identity", "spectral")

    def test_coercion(self):
        grid = ExperimentGrid(d_values=[5], sigma_values=[1], reps=np.int64(2))
        assert grid.d_values == (5,)
        assert grid.sigma_values == (1.0,)
        assert grid.reps == 2 and type(grid.reps) is int
        with pytest.raises(ValidationError, match="reps must be an integer"):
            ExperimentGrid(d_values=[5], sigma_values=[1], reps=2.0)

    def test_non_integer_sizes_rejected(self):
        for field, value in (("m", 3.7), ("n", 20.5), ("r", 2.5), ("reps", 1.9),
                             ("base_seed", 0.5), ("m", True)):
            with pytest.raises(ValidationError, match=f"{field} must be an integer"):
                ExperimentGrid(d_values=(5,), sigma_values=(0.1,), **{field: value})
        with pytest.raises(ValidationError, match="d must be an integer"):
            ExperimentGrid(d_values=(5.9,), sigma_values=(0.1,))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="base_seed must be nonnegative"):
            ExperimentGrid(d_values=(5,), sigma_values=(0.1,), base_seed=-1)

    def test_numpy_real_noise_accepted(self):
        grid = ExperimentGrid(d_values=(5,), sigma_values=(np.float32(0.1),))
        assert grid.sigma_values == (float(np.float32(0.1)),)
        assert type(grid.sigma_values[0]) is float
        with pytest.raises(ValidationError, match="noise level must be finite"):
            ExperimentGrid(d_values=(5,), sigma_values=(np.True_,))

    def test_non_finite_noise_rejected(self):
        for sigma in (math.nan, math.inf, "0.1"):
            with pytest.raises(ValidationError, match="noise level must be finite"):
                ExperimentGrid(d_values=(5,), sigma_values=(sigma,))

    @pytest.mark.parametrize(
        "m, n, d, r, sigma",
        [
            (1, 20, 4, 2, 0.1),
            (3.0, 20, 4, 2, 0.1),
            (True, 20, 4, 2, 0.1),
            (3, 0, 4, 2, 0.1),
            (3, 20.5, 4, 2, 0.1),
            (3, 20, 0, 1, 0.1),
            (3, 20, 4.5, 2, 0.1),
            (3, 20, 4, 5, 0.1),
            (3, 20, 4, 0, 0.1),
            (3, 20, 4, np.float64(2), 0.1),
            (3, 20, 4, 2, -0.5),
            (3, 20, 4, 2, math.nan),
            (3, 20, 4, 2, math.inf),
            (3, 20, 4, 2, "0.1"),
            (3, 20, 4, 2, np.True_),
        ],
    )
    def test_cell_rules_are_synth_procrustes_rules(self, m, n, d, r, sigma):
        with pytest.raises(ValidationError) as from_builder:
            synth_procrustes(m, n, d, r, sigma, 0)
        with pytest.raises(ValidationError) as from_grid:
            ExperimentGrid(d_values=(d,), sigma_values=(sigma,), m=m, n=n, r=r)
        assert str(from_grid.value) == str(from_builder.value)

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentGrid(d_values=(), sigma_values=(0.1,))
        with pytest.raises(ValidationError):
            ExperimentGrid(d_values=(5,), sigma_values=())
        with pytest.raises(ValidationError):
            ExperimentGrid(d_values=(0,), sigma_values=(0.1,))
        with pytest.raises(ValidationError):
            ExperimentGrid(d_values=(5,), sigma_values=(-1.0,))
        with pytest.raises(ValidationError):
            ExperimentGrid(d_values=(5,), sigma_values=(0.1,), reps=0)
        with pytest.raises(ValidationError):
            ExperimentGrid(d_values=(5,), sigma_values=(0.1,), r=6)
        with pytest.raises(ValidationError):
            ExperimentGrid(d_values=(5,), sigma_values=(0.1,), m=1)
        with pytest.raises(ValidationError):
            ExperimentGrid(d_values=(5,), sigma_values=(0.1,), init_strategies=())
        with pytest.raises(ValidationError):
            ExperimentGrid(
                d_values=(5,), sigma_values=(0.1,), init_strategies=("identity",) * 2
            )
        with pytest.raises(ValidationError):
            ExperimentGrid(
                d_values=(5,), sigma_values=(0.1,), init_strategies=("random",)
            )


class TestRunGrid:
    def test_counts_sum_to_reps(self):
        results = run_grid(ExperimentGrid(**SMALL))
        assert len(results) == 2  # one cell, two inits
        for cell in results:
            assert cell.total_reps == 3
            assert cell.failure_count == 0
            assert 0.0 <= cell.certified_fraction <= 1.0
            assert cell.mean_iterations <= 2000

    def test_internal_error_propagates(self, monkeypatch):
        def broken(problem, config):
            raise InternalError("audit fired")

        monkeypatch.setattr("otsm.experiment._solve_batch", broken)
        with pytest.raises(InternalError, match="audit fired"):
            run_grid(ExperimentGrid(**SMALL))

    def test_rejected_data_is_tallied(self, monkeypatch):
        def rejecting(problem, config):
            raise ValidationError("bad instance")

        monkeypatch.setattr("otsm.experiment._solve_batch", rejecting)
        for cell in run_grid(ExperimentGrid(**SMALL)):
            assert cell.failure_count == cell.total_reps == 3

    def test_failed_start_is_tallied_for_its_rep(self, monkeypatch):
        import otsm.solver

        real = otsm.solver._spectrum
        seen = []

        def flaky(problem, op=None, k=0):
            # Only a spectral start asks for the eigenvectors.
            if not any(p is problem for p in seen):
                seen.append(problem)
            if len(seen) > 1 and problem is seen[1]:  # rep 1 of the one cell
                raise np.linalg.LinAlgError("injected")
            return real(problem, op, k)

        monkeypatch.setattr(otsm.solver, "_spectrum", flaky)
        by_init = {c.init: c for c in run_grid(ExperimentGrid(**SMALL))}
        spectral = by_init["spectral"]
        assert spectral.failure_count == 1
        assert spectral.failure_reasons == ("LinAlgError: injected",)
        assert spectral.certified_count == 2
        assert by_init["identity"].failure_count == 0
        assert by_init["identity"].failure_reasons == ()
        assert by_init["identity"].certified_count == 3

    def test_failed_batch_is_solved_one_by_one(self, monkeypatch):
        import otsm.experiment

        real = otsm.experiment._solve_batch
        batches = []

        def failing(problems, configs):
            if len(problems) > 1:
                batches.append(problems)
                raise np.linalg.LinAlgError("batch step")
            if problems[0] is batches[0][2]:  # rep 1, both starts
                raise ValidationError("bad rep")
            return real(problems, configs)

        monkeypatch.setattr(otsm.experiment, "_solve_batch", failing)
        results = run_grid(ExperimentGrid(**SMALL))
        assert len(batches) == 1
        for cell in results:
            assert cell.failure_count == 1
            assert cell.failure_reasons == ("ValidationError: bad rep",)
            assert cell.certified_count == 2

    def test_split_batches_change_no_result(self, monkeypatch):
        import otsm.experiment

        whole = run_grid(ExperimentGrid(**SMALL))
        sizes = []
        real = otsm.experiment._solve_batch

        def counted(problems, configs):
            sizes.append(len(problems))
            return real(problems, configs)

        monkeypatch.setattr(otsm.experiment, "_solve_batch", counted)
        # D = 12: a budget of three coupling matrices puts three runs in a
        # batch, so rep 1's two starts are swept in different batches.
        monkeypatch.setattr(otsm.solver, "_BATCH_STILDE_BYTES", 3 * 8 * 12 * 12)
        assert run_grid(ExperimentGrid(**SMALL)) == whole
        assert sizes == [3, 3]

    def test_factored_cells_batch_by_their_views(self, monkeypatch):
        # D = 40 >= 3 n: a run holds its 10 x 40 views (3200 bytes, not
        # the 12800 of S-tilde), and neither several runs per batch nor
        # one changes a result.
        import otsm.experiment

        grid = ExperimentGrid(d_values=(10,), sigma_values=(0.1, 10.0), m=4, n=10, r=2,
                              reps=3, base_seed=5)
        sizes = []
        real = otsm.experiment._solve_batch

        def counted(problems, configs):
            sizes.append(len(problems))
            return real(problems, configs)

        monkeypatch.setattr(otsm.experiment, "_solve_batch", counted)
        whole = run_grid(grid)
        assert sizes == [12]
        for runs, expected in ((3, [3, 3] * 2), (1, [1] * 12)):
            sizes.clear()
            monkeypatch.setattr(otsm.solver, "_BATCH_STILDE_BYTES", runs * 8 * 10 * 40)
            assert run_grid(grid) == whole
            assert sizes == expected

    def test_one_batch_per_size(self, monkeypatch):
        # The two sigma cells of a d share D = 3 d: all 8 runs of a d (2 cells
        # x 2 reps x 2 starts) fit the default budget and take one batch.
        import otsm.experiment

        grid = ExperimentGrid(d_values=(3, 4), sigma_values=(0.1, 10.0), m=3, n=20, r=2,
                              reps=2, base_seed=5)
        batches = []
        real = otsm.experiment._solve_batch

        def counted(problems, configs):
            batches.append((problems[0].dims.total_dim, len(problems)))
            return real(problems, configs)

        monkeypatch.setattr(otsm.experiment, "_solve_batch", counted)
        run_grid(grid)
        assert batches == [(9, 8), (12, 8)]

    def test_signed_zero_cells_stay_apart(self, monkeypatch):
        # 0.0 and -0.0 are two cells with their own seeds, yet equal as keys;
        # d = 3 twice repeats both.  Merged into one batch per d, every cell
        # must equal its runs solved one per batch.
        grid = ExperimentGrid(d_values=(3, 3), sigma_values=(0.0, -0.0), m=3, n=20, r=2,
                              reps=2, base_seed=5)
        merged = run_grid(grid)
        assert [(c.d, math.copysign(1.0, c.sigma), c.init) for c in merged] == [
            (3, sign, init) for sign in (1.0, -1.0) for init in ("identity", "spectral")
        ] * 2
        for plus, minus in zip(merged[:2], merged[2:4]):
            assert plus.mean_final_objective != minus.mean_final_objective
        assert merged[4:] == merged[:4]
        monkeypatch.setattr(otsm.solver, "_BATCH_STILDE_BYTES", 1)  # one run per batch
        assert run_grid(grid) == merged

    @pytest.mark.parametrize("runs", [1, 3])
    def test_one_decomposition_per_rep(self, monkeypatch, runs):
        # Budgets of one and three D = 12 coupling matrices cut a rep's two
        # starts into different batches; only the spectral start decomposes
        # S-tilde, because the certificates never do.
        work = Counter()

        def counted(name, fn):
            def wrapper(a, *args, **kwargs):
                work[name] += a.shape == (12, 12)
                return fn(a, *args, **kwargs)

            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        monkeypatch.setattr(otsm.solver, "_BATCH_STILDE_BYTES", runs * 8 * 12 * 12)
        run_grid(ExperimentGrid(**SMALL))
        assert work == Counter(eigh=SMALL["reps"])

    def test_single_rep_single_init(self):
        grid = ExperimentGrid(
            d_values=(4,),
            sigma_values=(0.1,),
            m=3,
            n=20,
            r=2,
            reps=1,
            init_strategies=("spectral",),
        )
        results = run_grid(grid)
        assert len(results) == 1
        cell = results[0]
        assert cell.total_reps == 1
        # Only one strategy configured: no cross-init gaps can exist.
        assert cell.objective_gap_records == ()

    def test_result_ordering_follows_grid(self):
        grid = ExperimentGrid(
            d_values=(4, 5), sigma_values=(0.1, 1.0), m=3, n=10, r=2, reps=1
        )
        results = run_grid(grid)
        coords = [(c.d, c.sigma, c.init) for c in results]
        assert coords == [
            (4, 0.1, "identity"),
            (4, 0.1, "spectral"),
            (4, 1.0, "identity"),
            (4, 1.0, "spectral"),
            (5, 0.1, "identity"),
            (5, 0.1, "spectral"),
            (5, 1.0, "identity"),
            (5, 1.0, "spectral"),
        ]

    def test_low_noise_certifies(self):
        # The easy regime: every rep of every cell certifies.
        results = run_grid(ExperimentGrid(**SMALL))
        for cell in results:
            assert cell.certified_count == cell.total_reps
            assert cell.objective_gap_records == ()

    def test_determinism(self):
        a = run_grid(ExperimentGrid(**SMALL))
        b = run_grid(ExperimentGrid(**SMALL))
        assert a == b

    def test_base_seed_changes_instances(self):
        a = run_grid(ExperimentGrid(**SMALL))
        b = run_grid(ExperimentGrid(**{**SMALL, "base_seed": 6}))
        assert any(
            x.mean_final_objective != y.mean_final_objective for x, y in zip(a, b)
        )

    def test_gap_records_match_direct_recomputation(self):
        # High noise leaves some reps uncertified; rebuild those instances
        # with the harness's own seed rule and check each recorded gap is
        # exactly (other init's objective) - (this init's objective).
        grid = ExperimentGrid(
            d_values=(4,), sigma_values=(10.0,), m=3, n=20, r=2, reps=6, base_seed=3
        )
        results = run_grid(grid)
        by_init = {c.init: c for c in results}
        from otsm.experiment import _derived_seed

        recomputed = {"identity": [], "spectral": []}
        for rep in range(6):
            seed = _derived_seed(3, 4, 10.0, rep)
            problem, _ = synth_procrustes(3, 20, 4, 2, 10.0, seed)
            reports = {
                init: solve(problem, SolverConfig(init=init))
                for init in ("identity", "spectral")
            }
            verdicts = {
                init: certify(problem, reports[init].solution).verdict
                for init in reports
            }
            for init, other in (("identity", "spectral"), ("spectral", "identity")):
                if verdicts[init] is not Verdict.CERTIFIED_GLOBAL:
                    recomputed[init].append(
                        reports[other].objective - reports[init].objective
                    )
        for init in ("identity", "spectral"):
            assert by_init[init].objective_gap_records == pytest.approx(
                tuple(recomputed[init]), abs=1e-12
            )
            uncert = (
                by_init[init].inconclusive_count + by_init[init].not_global_count
            )
            assert len(by_init[init].objective_gap_records) == uncert


class TestExportResults:
    def test_empty_results_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        export_results([], out)
        assert out.read_bytes() == (
            b"d,sigma,init,certified,inconclusive,not_global,"
            b"mean_iter,mean_final_objective,failures,nonconverged\r\n"
        )

    def test_row_count(self, tmp_path):
        grid = ExperimentGrid(
            d_values=(4, 5), sigma_values=(0.1,), m=3, n=10, r=2, reps=1
        )
        out = tmp_path / "rows.csv"
        export_results(run_grid(grid), out)
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_HEADER)
        assert len(rows) == 1 + 4  # header + 2 cells x 2 inits

    def test_round_trip_numeric_fields(self, tmp_path):
        results = run_grid(ExperimentGrid(**SMALL))
        out = tmp_path / "trip.csv"
        export_results(results, out)
        with open(out, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            parsed = list(reader)
        assert len(parsed) == len(results)
        for row, cell in zip(parsed, results):
            assert int(row["d"]) == cell.d
            assert float(row["sigma"]) == pytest.approx(cell.sigma, abs=1e-12)
            assert row["init"] == cell.init
            assert int(row["certified"]) == cell.certified_count
            assert int(row["inconclusive"]) == cell.inconclusive_count
            assert int(row["not_global"]) == cell.not_global_count
            assert float(row["mean_iter"]) == pytest.approx(
                cell.mean_iterations, abs=1e-12
            )
            assert float(row["mean_final_objective"]) == pytest.approx(
                cell.mean_final_objective, abs=1e-12
            )

    def test_failure_and_nonconverged_counts_round_trip(self, tmp_path):
        cells = [
            CellResult(
                d=4,
                sigma=0.1,
                init=init,
                certified_count=1,
                inconclusive_count=0,
                not_global_count=0,
                failure_count=failures,
                nonconverged_count=nonconverged,
                mean_iterations=3.0,
                mean_final_objective=1.0,
                objective_gap_records=(),
            )
            for init, failures, nonconverged in (("identity", 2, 1), ("spectral", 0, 3))
        ]
        out = tmp_path / "counts.csv"
        export_results(cells, out)
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        # The new columns come last, so earlier column positions are unchanged.
        assert CSV_HEADER[-2:] == ("failures", "nonconverged")
        assert [int(row["failures"]) for row in rows] == [c.failure_count for c in cells]
        assert [int(row["nonconverged"]) for row in rows] == [
            c.nonconverged_count for c in cells
        ]

    def test_byte_determinism(self, tmp_path):
        grid = ExperimentGrid(**SMALL)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        export_results(run_grid(grid), out1)
        export_results(run_grid(grid), out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_unwritable_path_raises_with_path(self, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        with pytest.raises(ExportError) as info:
            export_results([], target)
        assert str(target) == info.value.path

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        bad = CellResult(
            d=4,
            sigma=0.1,
            init="identity",
            certified_count=1,
            inconclusive_count=0,
            not_global_count=0,
            failure_count=0,
            nonconverged_count=0,
            mean_iterations=3.0,
            mean_final_objective=1.0,
            objective_gap_records=(),
        )
        target = tmp_path / "nope" / "x.csv"
        with pytest.raises(ExportError):
            export_results([bad], target)
        assert not target.exists()
        assert not (tmp_path / "nope").exists()
