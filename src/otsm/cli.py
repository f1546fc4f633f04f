"""Command-line front end: solve, certify, demo, and benchmark commands.

The commands read and write the JSON files described in
:mod:`otsm.formats`.  Exit codes are the machine contract (stdout is
human-oriented): ``solve`` 0 converged / 2 stopped without meeting the
tolerance / 1 input error; ``certify`` 0 certified global / 3
inconclusive / 4 certified not global / 1 input error;
``demo-oscillation`` 0 validated / 5 validation failure; ``bench`` 0
done / 1 input or output error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .certificate import Verdict, _certify, certify
from .core import InternalError, ValidationError
from .experiment import ExperimentGrid, ExportError, export_results, run_grid
from .formats import (
    _save_certify_report,
    _save_solve_report,
    load_problem,
    load_solution,
    save_problem,  # noqa: F401  benchmarks/workloads.py calls otsm.cli.save_problem
)
from .solver import SolverConfig, StopReason, oscillation_demo, solve

__all__ = ["main"]

_SOLVE_EXIT = {
    StopReason.CONVERGED: 0,
    StopReason.MAX_ITER: 2,
    StopReason.STAGNATED: 2,
}

_CERTIFY_EXIT = {
    Verdict.CERTIFIED_GLOBAL: 0,
    Verdict.INCONCLUSIVE: 3,
    Verdict.CERTIFIED_NOT_GLOBAL: 4,
}


# --------------------------------------------------------------------------
# Commands


def _cmd_solve(args) -> int:
    problem = load_problem(args.input)
    if args.init in SolverConfig._STARTS:
        init = args.init
    elif args.init.startswith("file:"):
        init = load_solution(args.init[len("file:") :], dims=problem.dims)
    else:
        raise ValidationError(
            f"argument --init: expected 'identity', 'spectral', or 'file:PATH', "
            f"got {args.init!r}"
        )
    if math.isinf(args.alpha):
        print(
            "warning: alpha=inf disables the proximal safeguard; the classical "
            "ascent may oscillate without converging",
            file=sys.stderr,
        )
    config = SolverConfig(
        alpha=args.alpha, tol=args.tol, max_iter=args.max_iter, init=init
    )
    report = solve(problem, config)
    cert = None
    if args.certify:  # from the multipliers of the report's stationarity pass
        cert = _certify(problem, report.solution, report._lambdas, report.stationarity)
    solution_path = _save_solve_report(args.out, report, cert, args.trace)
    print(f"objective: {report.objective:.10g}")
    print(f"iterations: {report.iterations}")
    print(f"stop reason: {report.stop_reason.value}")
    if cert is not None:
        print(f"certificate verdict: {cert.verdict.value}")
    print(f"report: {args.out}")
    print(f"solution: {solution_path}")
    return _SOLVE_EXIT[report.stop_reason]


def _cmd_certify(args) -> int:
    problem = load_problem(args.input)
    point = load_solution(args.solution, dims=problem.dims)
    cert = certify(problem, point)
    # f = (1/2) sum_i tr(L_i): the multipliers' pass gives the objective too.
    _save_certify_report(args.out, 0.5 * float(sum(map(np.trace, cert.lambdas))), cert)
    print(f"certificate verdict: {cert.verdict.value}")
    print(f"gap bound: {cert.gap_bound:.6e}")
    print(f"report: {args.out}")
    return _CERTIFY_EXIT[cert.verdict]


def _cmd_demo_oscillation(args) -> int:
    try:
        trace = oscillation_demo()
    except InternalError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 5

    def fmt(value):
        return f"{value + 0.0:g}"  # adding 0.0 normalizes -0.0

    print("classical full-step ascent on the 3-block identity-coupling instance")
    print("starting point (I, J, I); optimum objective 3, cycle objective 2")
    for k, point in enumerate(trace.iterates):
        print(f"cycle state {k}:")
        for i, block in enumerate(point.blocks):
            rows = " ".join(
                "[" + " ".join(fmt(v) for v in row) + "]" for row in block
            )
            print(f"  block {i + 1}: {rows}")
    print("objective per state:", " ".join(fmt(v) for v in trace.objectives))
    print(
        "largest argmax residual across the 12 scripted block updates: "
        f"{max(trace.argmax_residuals):.3e}"
    )
    print(
        "finite-alpha mean change over one cycle from the same start: "
        f"{trace.fixed_point_mean_change:.3e}"
    )
    print("all checks passed: the cycle is a valid trajectory of the")
    print("classical ascent and its start is a proximal fixed point")
    return 0


def _parse_number_list(text, field, converter):
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ValidationError(f"argument {field}: empty entry in list {text!r}")
        try:
            values.append(converter(part))
        except ValueError as exc:
            raise ValidationError(f"argument {field}: {exc}") from exc
    return tuple(values)


def _cmd_bench(args) -> int:
    grid = ExperimentGrid(
        d_values=_parse_number_list(args.d, "--d", int),
        sigma_values=_parse_number_list(args.sigma, "--sigma", float),
        m=args.m,
        n=args.n,
        r=args.r,
        reps=args.reps,
        base_seed=args.seed,
    )
    results = run_grid(grid)
    export_results(results, args.out)
    print(f"wrote {len(results)} result rows to {args.out}")
    return 0


# --------------------------------------------------------------------------
# Parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otsm",
        description=(
            "Solve block trace-sum problems over products of orthonormal "
            "frames, certify solutions for global optimality, and run the "
            "synthetic alignment benchmark."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", help="run the proximal block-relaxation solver on a problem file"
    )
    p_solve.add_argument("--input", required=True, help="problem file (JSON)")
    p_solve.add_argument(
        "--alpha",
        type=float,
        default=SolverConfig.alpha,
        help="proximity constant; 'inf' requests the unsafe classical mode",
    )
    p_solve.add_argument(
        "--tol",
        type=float,
        default=SolverConfig.tol,
        help="mean block-change stopping tolerance",
    )
    p_solve.add_argument(
        "--max-iter",
        type=int,
        default=SolverConfig.max_iter,
        help="maximum number of cycles",
    )
    p_solve.add_argument(
        "--init",
        default=SolverConfig.init,
        help="starting point: identity, spectral, or file:PATH (solution file)",
    )
    p_solve.add_argument(
        "--certify",
        action="store_true",
        help="certify the solution and embed the result in the report",
    )
    p_solve.add_argument(
        "--out", required=True, help="report path; the solution is written beside it"
    )
    p_solve.add_argument(
        "--trace", action="store_true", help="include the objective trace in the report"
    )
    p_solve.set_defaults(handler=_cmd_solve)

    p_cert = sub.add_parser(
        "certify", help="certify a solution file against a problem file"
    )
    p_cert.add_argument("--input", required=True, help="problem file (JSON)")
    p_cert.add_argument("--solution", required=True, help="solution file (JSON)")
    p_cert.add_argument("--out", required=True, help="certificate report path")
    p_cert.set_defaults(handler=_cmd_certify)

    p_demo = sub.add_parser(
        "demo-oscillation",
        help="show the classical ascent's 4-cycle and validate it",
    )
    p_demo.set_defaults(handler=_cmd_demo_oscillation)

    p_bench = sub.add_parser(
        "bench", help="run the synthetic alignment benchmark grid and export CSV"
    )
    p_bench.add_argument(
        "--m", type=int, default=ExperimentGrid.m, help="views per instance"
    )
    p_bench.add_argument(
        "--n", type=int, default=ExperimentGrid.n, help="samples per view"
    )
    p_bench.add_argument(
        "--d", required=True, help="comma-separated landmark dimensions, e.g. 5,10,20"
    )
    p_bench.add_argument(
        "--sigma", required=True, help="comma-separated noise levels, e.g. 0.1,10"
    )
    p_bench.add_argument("--r", type=int, default=ExperimentGrid.r, help="solve rank")
    p_bench.add_argument(
        "--reps", type=int, default=ExperimentGrid.reps, help="instances per cell"
    )
    p_bench.add_argument(
        "--seed", type=int, default=ExperimentGrid.base_seed, help="base seed"
    )
    p_bench.add_argument("--out", required=True, help="CSV output path")
    p_bench.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    """Entry point; returns the exit code (the console script raises it)."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, ExportError, OSError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
