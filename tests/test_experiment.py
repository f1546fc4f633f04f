import csv
import math

import numpy as np
import pytest

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
        grid = ExperimentGrid(d_values=[5], sigma_values=[1], reps=2.0)
        assert grid.d_values == (5,)
        assert grid.sigma_values == (1.0,)
        assert grid.reps == 2

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

        monkeypatch.setattr("otsm.experiment.solve", broken)
        with pytest.raises(InternalError, match="audit fired"):
            run_grid(ExperimentGrid(**SMALL))

    def test_rejected_data_is_tallied(self, monkeypatch):
        def rejecting(problem, config):
            raise ValidationError("bad instance")

        monkeypatch.setattr("otsm.experiment.solve", rejecting)
        for cell in run_grid(ExperimentGrid(**SMALL)):
            assert cell.failure_count == cell.total_reps == 3

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
