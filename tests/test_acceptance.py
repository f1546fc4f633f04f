"""Acceptance gate: headline behaviors pinned at fixed tolerances.

Each criterion is one test that prints a single ``CRITERION n: PASS/FAIL``
line (visible with -v on failure, or with -s/-rA always); the shared
solve corpus built by the module fixture feeds the cross-cutting
monotonicity, descent, and dual-bound criteria.
"""

import json
import time

import numpy as np
import pytest

from conftest import HARD_OPT, I32, J32
from otsm.builders import hard_example
from otsm.certificate import Verdict, certify, dual_upper_bound
from otsm.cli import main
from otsm.core import BlockDims, BlockOrthogonal, OtsmProblem, objective
from otsm.experiment import ExperimentGrid, export_results, run_grid
from otsm.formats import save_problem
from otsm.solver import SolverConfig, StopReason, oscillation_demo, solve


def _line(num, status, detail):
    print(f"CRITERION {num:2d}: {status} — {detail}")


def _report(num, ok, detail):
    _line(num, "PASS" if ok else "FAIL", detail)
    return ok


@pytest.fixture(scope="module")
def corpus():
    """All solves for criteria 1-5, shared so criteria 6-7 can audit them."""
    data = {"records": []}

    def track(label, problem, config):
        report = solve(problem, config)
        data["records"].append((label, problem, report))
        return report

    # Criterion 1/2: the hard three-block instance from both starts.
    hard = hard_example(3, 2)
    t0 = time.perf_counter()
    data["hard_spectral"] = track("hard/spectral", hard, SolverConfig(init="spectral"))
    data["hard_spectral_cert"] = certify(hard, data["hard_spectral"].solution)
    data["t_hard_spectral"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    data["hard_identity"] = track("hard/identity", hard, SolverConfig(init="identity"))
    data["hard_identity_cert"] = certify(hard, data["hard_identity"].solution)
    data["t_hard_identity"] = time.perf_counter() - t0
    data["hard"] = hard

    # Criterion 4: two-block instances with the closed-form optimum.
    rng = np.random.default_rng(2024)
    pairs = []
    t0 = time.perf_counter()
    for k in range(100):
        r = int(rng.integers(1, 5))
        d1 = int(rng.integers(r, 13))
        d2 = int(rng.integers(r, 13))
        s12 = rng.standard_normal((d1, d2))
        problem = OtsmProblem(BlockDims((d1, d2), r), {(0, 1): s12})
        report = track(f"pair/{k}", problem, SolverConfig(init="spectral"))
        cert = certify(problem, report.solution)
        oracle = float(np.linalg.svd(s12, compute_uv=False)[:r].sum())
        pairs.append((problem, report, cert, oracle))
    data["pairs"] = pairs
    data["t_pairs"] = time.perf_counter() - t0

    # Criterion 5: scalar sign problems small enough to enumerate.
    rng = np.random.default_rng(777)
    signs = []
    t0 = time.perf_counter()
    for k in range(200):
        m = int(rng.integers(3, 6))
        couplings = {
            (i, j): np.array([[rng.standard_normal()]])
            for i in range(m)
            for j in range(i + 1, m)
        }
        problem = OtsmProblem(BlockDims((1,) * m, 1), couplings)
        report = track(f"sign/{k}", problem, SolverConfig(init="spectral"))
        cert = certify(problem, report.solution)
        best = -np.inf
        for bits in range(2**m):
            vec = [1.0 if bits & (1 << t) else -1.0 for t in range(m)]
            point = BlockOrthogonal([np.array([[v]]) for v in vec])
            best = max(best, objective(problem, point))
        signs.append((problem, report, cert, best))
    data["signs"] = signs
    data["t_signs"] = time.perf_counter() - t0
    return data


@pytest.fixture(scope="module")
def grid_run():
    grid = ExperimentGrid(
        d_values=(5, 10, 20),
        sigma_values=(0.1, 10.0),
        m=5,
        n=100,
        r=3,
        reps=20,
        base_seed=0,
    )
    t0 = time.perf_counter()
    results = run_grid(grid)
    elapsed = time.perf_counter() - t0
    return grid, results, elapsed


def test_criterion_01_hard_instance_global_solve(corpus):
    report = corpus["hard_spectral"]
    cert = corpus["hard_spectral_cert"]
    gap = abs(report.objective - 3.0)
    ok = (
        gap <= 1e-4
        and cert.verdict is Verdict.CERTIFIED_GLOBAL
        and corpus["t_hard_spectral"] < 5.0
    )
    assert _report(
        1,
        ok,
        f"spectral start reaches {report.objective:.10f} (|gap| = {gap:.2e} <= 1e-4), "
        f"verdict {cert.verdict.value}, {corpus['t_hard_spectral']:.2f}s",
    )


def test_criterion_02_hard_instance_stationary_trap(corpus):
    report = corpus["hard_identity"]
    cert = corpus["hard_identity_cert"]
    ok = (
        report.iterations == 1
        and abs(report.objective - 2.0) <= 1e-12
        and report.stop_reason is StopReason.CONVERGED
        and cert.verdict is Verdict.INCONCLUSIVE
        and corpus["t_hard_identity"] < 1.0
    )
    assert _report(
        2,
        ok,
        f"identity start stops after {report.iterations} cycle at "
        f"{report.objective:g}, verdict {cert.verdict.value}",
    )


def test_criterion_03_oscillation_demo_validates():
    t0 = time.perf_counter()
    trace = oscillation_demo()
    elapsed = time.perf_counter() - t0
    max_obj_dev = max(abs(v - 2.0) for v in trace.objectives)
    max_residual = max(trace.argmax_residuals)
    ok = (
        len(trace.iterates) == 4
        and max_obj_dev <= 1e-12
        and max_residual <= 1e-10
        and trace.fixed_point_mean_change <= 1e-12
        and elapsed < 1.0
    )
    assert _report(
        3,
        ok,
        f"4-cycle argmax residuals <= {max_residual:.1e} (tol 1e-10), objective "
        f"constant 2 (+/- {max_obj_dev:.1e}), proximal fixed-point change "
        f"{trace.fixed_point_mean_change:.1e}",
    )


def test_criterion_04_two_block_closed_form(corpus):
    worst_gap = 0.0
    certified = 0
    bad_verdicts = 0
    for problem, report, cert, oracle in corpus["pairs"]:
        worst_gap = max(worst_gap, abs(report.objective - oracle))
        if cert.verdict is Verdict.CERTIFIED_GLOBAL:
            certified += 1
        elif cert.verdict is not Verdict.INCONCLUSIVE:
            bad_verdicts += 1
    ok = (
        worst_gap <= 1e-6
        and certified >= 95
        and bad_verdicts == 0
        and corpus["t_pairs"] < 30.0
    )
    assert _report(
        4,
        ok,
        f"100 two-block instances: worst gap to the singular-value sum "
        f"{worst_gap:.2e} (tol 1e-6), {certified} certified (need >= 95), "
        f"{bad_verdicts} forbidden verdicts, {corpus['t_pairs']:.2f}s",
    )


def test_criterion_05_brute_force_soundness(corpus):
    global_errors = 0
    not_global_errors = 0
    counts = {v: 0 for v in Verdict}
    for problem, report, cert, best in corpus["signs"]:
        counts[cert.verdict] += 1
        if cert.verdict is Verdict.CERTIFIED_GLOBAL:
            if report.objective < best - 1e-8:
                global_errors += 1
        elif cert.verdict is Verdict.CERTIFIED_NOT_GLOBAL:
            if best <= report.objective + 1e-10:
                not_global_errors += 1
    ok = (
        global_errors == 0
        and not_global_errors == 0
        and corpus["t_signs"] < 10.0
    )
    assert _report(
        5,
        ok,
        f"200 sign problems enumerated: "
        f"{counts[Verdict.CERTIFIED_GLOBAL]} certified-global all confirmed "
        f"({global_errors} errors), {counts[Verdict.CERTIFIED_NOT_GLOBAL]} "
        f"certified-not-global all strictly beaten ({not_global_errors} errors), "
        f"{counts[Verdict.INCONCLUSIVE]} inconclusive, {corpus['t_signs']:.2f}s",
    )


def test_criterion_06_monotone_ascent_and_descent_inequality(corpus):
    violations_mono = 0
    violations_descent = 0
    n_cycles = 0
    for label, problem, report in corpus["records"]:
        trace = report.objective_trace
        changes = report.change_sq_trace
        assert len(trace) == len(changes) + 1
        for k in range(len(changes)):
            f_old, f_new = trace[k], trace[k + 1]
            n_cycles += 1
            if f_new < f_old - 1e-12 * (1.0 + abs(f_old)):
                violations_mono += 1
            lower = changes[k] / (2.0 * 1000.0)
            if (f_new - f_old) - lower < -1e-10 * (1.0 + abs(f_new)):
                violations_descent += 1
    ok = violations_mono == 0 and violations_descent == 0 and n_cycles > 0
    assert _report(
        6,
        ok,
        f"{len(corpus['records'])} solves / {n_cycles} cycles audited: "
        f"{violations_mono} monotonicity violations (slack 1e-12 rel), "
        f"{violations_descent} descent-inequality violations (slack 1e-10)",
    )


def test_criterion_07_dual_bound_validity(corpus):
    violations = 0
    for label, problem, report in corpus["records"]:
        if dual_upper_bound(problem) < report.objective - 1e-8:
            violations += 1
    hard_gap = abs(dual_upper_bound(corpus["hard"]) - 3.0)
    ok = violations == 0 and hard_gap <= 1e-10
    assert _report(
        7,
        ok,
        f"dual bound >= final objective on all {len(corpus['records'])} solves "
        f"({violations} violations, slack 1e-8); hard-instance bound off by "
        f"{hard_gap:.1e} from 3 (tol 1e-10)",
    )


def test_criterion_08_synthetic_alignment_study(grid_run):
    grid, results, elapsed = grid_run
    low_fracs = [c.certified_fraction for c in results if c.sigma == 0.1]
    high_fracs = [c.certified_fraction for c in results if c.sigma == 10.0]
    not_global = sum(c.not_global_count for c in results)
    nonconverged = sum(c.nonconverged_count for c in results)
    failures = sum(c.failure_count for c in results)
    ok = (
        len(results) == 12
        and all(f == 1.0 for f in low_fracs)
        and all(f <= 0.6 for f in high_fracs)
        and not_global == 0
        and nonconverged == 0
        and failures == 0
        and elapsed < 300.0
    )
    assert _report(
        8,
        ok,
        f"grid d=(5,10,20) x sigma=(0.1,10) x 20 reps x 2 starts: low-noise "
        f"certified fractions {sorted(set(low_fracs))} (need all 1.0), high-noise "
        f"max {max(high_fracs):.2f} (need <= 0.6), {not_global} not-global "
        f"verdicts, {nonconverged} non-converged solves, {elapsed:.1f}s",
    )


def test_criterion_09_wine_tasting_data_regression():
    _line(9, "SKIP", "wine-tasting input data not shipped with this build; "
          "conditional regression skipped (criteria 1-8 stand alone)")
    pytest.skip("wine-tasting input data unavailable; criterion is conditional")


def test_criterion_10_determinism(tmp_path, capsys, grid_run):
    # Re-run the solves behind criteria 1, 3, and 8 and require
    # byte-identical report, demo, and CSV outputs.
    grid, results, _ = grid_run
    hard_path = tmp_path / "hard.json"
    save_problem(hard_example(3, 2), hard_path)

    reports = []
    solutions = []
    for tag in ("a", "b"):
        out = tmp_path / f"report-{tag}.json"
        code = main(
            [
                "solve",
                "--input",
                str(hard_path),
                "--init",
                "spectral",
                "--certify",
                "--trace",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        reports.append(out.read_bytes())
        solutions.append((tmp_path / f"report-{tag}.solution.json").read_bytes())
    report_ok = reports[0] == reports[1] and solutions[0] == solutions[1]

    capsys.readouterr()
    assert main(["demo-oscillation"]) == 0
    demo_first = capsys.readouterr().out
    assert main(["demo-oscillation"]) == 0
    demo_second = capsys.readouterr().out
    demo_ok = demo_first == demo_second

    csv_a = tmp_path / "grid-a.csv"
    csv_b = tmp_path / "grid-b.csv"
    export_results(results, csv_a)
    export_results(run_grid(grid), csv_b)
    csv_ok = csv_a.read_bytes() == csv_b.read_bytes()

    ok = report_ok and demo_ok and csv_ok
    assert _report(
        10,
        ok,
        f"reruns byte-identical: solve report {report_ok}, demo output "
        f"{demo_ok}, benchmark CSV {csv_ok}",
    )
