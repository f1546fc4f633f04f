"""Command-line front end: solve, certify, demo, and benchmark commands.

File formats (all JSON, written atomically via a temporary sibling):

* problem file — either explicit couplings::

      {"dims": [d1, ..., dm], "r": r,
       "S": [{"i": 1, "j": 2, "data": [[...], ...]}, ...]}

  with 1-based block indices ``i < j`` and ``data`` of shape ``d_i x d_j``
  (absent pairs are zero couplings), or raw data views::

      {"r": r, "views": [[[...], ...], ...]}

  which builds the cross-Gram agreement problem from the m views
  (``dims`` is optional here and cross-checked when present).  Exactly
  one of ``"S"`` and ``"views"`` must be present.

* solution file — ``{"blocks": [...]}`` with one ``d_i x r`` matrix per
  block, written as nested row lists; a flat row-major list per block is
  also accepted on input when the problem fixes the shapes.  Blocks are
  checked for orthonormality on load: deviations above 1e-8 warn, above
  1e-4 error out.

* report file — objective, iterations, stop_reason, stationarity maxima,
  optional certificate summary and objective trace.  Numbers are written
  in shortest round-trip form.

Exit codes are the machine contract (stdout is human-oriented):
``solve`` 0 converged / 2 stopped without meeting the tolerance / 1 input
error; ``certify`` 0 certified global / 3 inconclusive / 4 certified not
global / 1 input error; ``demo-oscillation`` 0 validated / 5 validation
failure; ``bench`` 0 done / 1 input or output error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from ._fileio import atomic_write_text
from .builders import ViewData, build_maxdiff
from .certificate import Verdict, certify
from .core import (
    BlockDims,
    BlockOrthogonal,
    InternalError,
    OtsmProblem,
    ValidationError,
    objective,
)
from .experiment import ExperimentGrid, ExportError, export_results, run_grid
from .solver import SolverConfig, StopReason, oscillation_demo, solve

__all__ = [
    "main",
    "load_problem",
    "save_problem",
    "load_solution",
    "save_solution",
]

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

#: Orthonormality deviation that draws a warning when loading a solution.
SOLUTION_WARN_TOL = 1e-8
#: Orthonormality deviation that rejects a loaded solution outright.
SOLUTION_ERROR_TOL = 1e-4


# --------------------------------------------------------------------------
# JSON plumbing


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _read_json(path, kind):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{kind} file {path}: malformed JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{kind} file {path}: not UTF-8 text: {exc}") from exc


# --------------------------------------------------------------------------
# Problem files


def _bad_field(path, kind, field, msg):
    return ValidationError(f"{kind} file {path}: field '{field}': {msg}")


def _as_int(value, path, kind, field):
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad_field(path, kind, field, f"expected an integer, got {value!r}")
    return value


def _as_matrix_field(value, path, kind, field):
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _bad_field(path, kind, field, f"not a numeric matrix: {exc}") from exc
    if arr.ndim != 2:
        raise _bad_field(path, kind, field, f"expected a matrix, got ndim={arr.ndim}")
    return arr


def _dims_field(raw, path):
    """The problem file's ``dims``: a non-empty list of integers."""
    if not isinstance(raw["dims"], list) or not raw["dims"]:
        raise _bad_field(path, "problem", "dims", "expected a non-empty list")
    return tuple(
        _as_int(d, path, "problem", f"dims[{k}]") for k, d in enumerate(raw["dims"])
    )


def load_problem(path) -> OtsmProblem:
    """Load and validate a problem file; raises ValidationError on defects."""
    raw = _read_json(path, "problem")
    if not isinstance(raw, dict):
        raise ValidationError(f"problem file {path}: top level must be an object")
    unknown = set(raw) - {"dims", "r", "S", "views"}
    if unknown:
        field = sorted(unknown)[0]
        raise _bad_field(path, "problem", field, "unknown field")
    if "r" not in raw:
        raise _bad_field(path, "problem", "r", "required field is missing")
    r = _as_int(raw["r"], path, "problem", "r")
    has_s = "S" in raw
    has_views = "views" in raw
    if has_s == has_views:
        raise ValidationError(
            f"problem file {path}: exactly one of fields 'S' and 'views' "
            f"must be present"
        )

    if has_views:
        views_raw = raw["views"]
        if not isinstance(views_raw, list) or len(views_raw) < 2:
            raise _bad_field(
                path, "problem", "views", "expected a list of at least 2 views"
            )
        views = tuple(
            _as_matrix_field(v, path, "problem", f"views[{k}]")
            for k, v in enumerate(views_raw)
        )
        if "dims" in raw:
            dims_given = _dims_field(raw, path)
            widths = tuple(v.shape[1] for v in views)
            if dims_given != widths:
                raise _bad_field(
                    path,
                    "problem",
                    "dims",
                    f"{dims_given} does not match view widths {widths}",
                )
        try:
            return build_maxdiff(ViewData(views), r)
        except ValidationError as exc:
            raise ValidationError(f"problem file {path}: {exc}") from exc

    if "dims" not in raw:
        raise _bad_field(path, "problem", "dims", "required field is missing")
    dims_list = _dims_field(raw, path)
    entries = raw["S"]
    if not isinstance(entries, list):
        raise _bad_field(path, "problem", "S", "expected a list of coupling entries")
    m = len(dims_list)
    sblocks = {}
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise _bad_field(path, "problem", f"S[{k}]", "expected an object")
        extra = set(entry) - {"i", "j", "data"}
        if extra:
            raise _bad_field(
                path, "problem", f"S[{k}].{sorted(extra)[0]}", "unknown field"
            )
        for need in ("i", "j", "data"):
            if need not in entry:
                raise _bad_field(
                    path, "problem", f"S[{k}].{need}", "required field is missing"
                )
        i = _as_int(entry["i"], path, "problem", f"S[{k}].i")
        j = _as_int(entry["j"], path, "problem", f"S[{k}].j")
        if not 1 <= i < j <= m:
            raise _bad_field(
                path,
                "problem",
                f"S[{k}]",
                f"indices (i={i}, j={j}) must satisfy 1 <= i < j <= m={m} (1-based)",
            )
        if (i - 1, j - 1) in sblocks:
            raise _bad_field(path, "problem", f"S[{k}]", f"duplicate pair (i={i}, j={j})")
        data = _as_matrix_field(entry["data"], path, "problem", f"S[{k}].data")
        expected = (dims_list[i - 1], dims_list[j - 1])
        if data.shape != expected:
            raise _bad_field(
                path,
                "problem",
                f"S[{k}].data",
                f"shape {data.shape} does not match (d_{i}, d_{j}) = {expected}",
            )
        sblocks[(i - 1, j - 1)] = data
    try:
        return OtsmProblem(BlockDims(dims_list, r), sblocks)
    except ValidationError as exc:
        raise ValidationError(f"problem file {path}: {exc}") from exc


def save_problem(problem: OtsmProblem, path) -> None:
    """Write a problem to a file in the explicit-couplings layout."""
    payload = {
        "dims": list(problem.dims.dims),
        "r": problem.dims.r,
        "S": [
            {"i": i + 1, "j": j + 1, "data": s.tolist()}
            for (i, j), s in sorted(problem.sblocks.items())
        ],
    }
    atomic_write_text(path, _dump_json(payload))


# --------------------------------------------------------------------------
# Solution files


def load_solution(path, dims: BlockDims | None = None) -> BlockOrthogonal:
    """Load a solution file, checking orthonormality (warn/error) and shape.

    Flat row-major block entries are reshaped using ``dims`` when given;
    nested entries stand alone.  Orthonormality deviations above
    ``SOLUTION_WARN_TOL`` warn, above ``SOLUTION_ERROR_TOL`` raise.
    """
    raw = _read_json(path, "solution")
    if not isinstance(raw, dict):
        raise ValidationError(f"solution file {path}: top level must be an object")
    if "blocks" not in raw:
        raise _bad_field(path, "solution", "blocks", "required field is missing")
    entries = raw["blocks"]
    if not isinstance(entries, list):
        raise _bad_field(path, "solution", "blocks", "expected a list of blocks")
    if dims is not None and len(entries) != dims.m:
        raise _bad_field(
            path,
            "solution",
            "blocks",
            f"got {len(entries)} blocks, expected m={dims.m}",
        )
    blocks = []
    for k, entry in enumerate(entries):
        field = f"blocks[{k}]"
        try:
            arr = np.array(entry, dtype=float)
        except (TypeError, ValueError) as exc:
            raise _bad_field(path, "solution", field, f"not numeric: {exc}") from exc
        if arr.ndim == 1:
            if dims is None:
                raise _bad_field(
                    path,
                    "solution",
                    field,
                    "flat block needs a problem to fix its shape; use nested rows",
                )
            shape = (dims.dims[k], dims.r)
            if arr.size != shape[0] * shape[1]:
                raise _bad_field(
                    path,
                    "solution",
                    field,
                    f"has {arr.size} entries, expected {shape[0]}x{shape[1]}",
                )
            arr = arr.reshape(shape)
        elif arr.ndim != 2:
            raise _bad_field(
                path, "solution", field, f"expected a matrix, got ndim={arr.ndim}"
            )
        blocks.append(arr)
    try:
        point = BlockOrthogonal(blocks, dims=dims, orth_tol=SOLUTION_ERROR_TOL)
    except ValidationError as exc:
        raise ValidationError(f"solution file {path}: {exc}") from exc
    deviation = point.orthonormality_error()
    if deviation > SOLUTION_WARN_TOL:
        warnings.warn(
            f"solution file {path}: blocks deviate from orthonormality "
            f"by {deviation:.3e}",
            stacklevel=2,
        )
    return point


def save_solution(point: BlockOrthogonal, path) -> None:
    """Write a solution file with nested row lists per block."""
    payload = {"blocks": [b.tolist() for b in point.blocks]}
    atomic_write_text(path, _dump_json(payload))


def _solution_sibling(report_path) -> str:
    """Solution path written alongside a report: X.json -> X.solution.json."""
    report_path = os.fspath(report_path)
    base, ext = os.path.splitext(report_path)
    if ext.lower() == ".json":
        return base + ".solution.json"
    return report_path + ".solution.json"


# --------------------------------------------------------------------------
# Report payloads


def _certificate_payload(cert) -> dict:
    return {
        "taus": list(cert.taus),
        "lmin_full": cert.lmin_full,
        "verdict": cert.verdict.value,
        "dual_bound": cert.dual_bound,
    }


def _stationarity_payload(report) -> dict:
    return {
        "max_grad_residual": report.max_grad_residual,
        "max_asymmetry": report.max_asymmetry,
    }


# --------------------------------------------------------------------------
# Commands


def _cmd_solve(args) -> int:
    problem = load_problem(args.input)
    if args.init in ("identity", "spectral"):
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
    cert = certify(problem, report.solution) if args.certify else None
    payload = {
        "objective": report.objective,
        "iterations": report.iterations,
        "stop_reason": report.stop_reason.value,
        "stationarity": _stationarity_payload(report.stationarity),
    }
    if cert is not None:
        payload["certificate"] = _certificate_payload(cert)
    if args.trace:
        payload["objective_trace"] = list(report.objective_trace)
    save_solution(report.solution, _solution_sibling(args.out))
    atomic_write_text(args.out, _dump_json(payload))
    print(f"objective: {report.objective:.10g}")
    print(f"iterations: {report.iterations}")
    print(f"stop reason: {report.stop_reason.value}")
    if cert is not None:
        print(f"certificate verdict: {cert.verdict.value}")
    print(f"report: {args.out}")
    print(f"solution: {_solution_sibling(args.out)}")
    return _SOLVE_EXIT[report.stop_reason]


def _cmd_certify(args) -> int:
    problem = load_problem(args.input)
    point = load_solution(args.solution, dims=problem.dims)
    cert = certify(problem, point)
    payload = {
        "objective": objective(problem, point),
        "stationarity": _stationarity_payload(cert.stationarity),
        "certificate": _certificate_payload(cert),
    }
    atomic_write_text(args.out, _dump_json(payload))
    print(f"certificate verdict: {cert.verdict.value}")
    print(f"smallest certificate eigenvalue: {cert.lmin_full:.6e}")
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
        default=1000.0,
        help="proximity constant; 'inf' requests the unsafe classical mode",
    )
    p_solve.add_argument(
        "--tol", type=float, default=1e-5, help="mean block-change stopping tolerance"
    )
    p_solve.add_argument(
        "--max-iter", type=int, default=2000, help="maximum number of cycles"
    )
    p_solve.add_argument(
        "--init",
        default="identity",
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
    p_bench.add_argument("--m", type=int, default=5, help="views per instance")
    p_bench.add_argument("--n", type=int, default=100, help="samples per view")
    p_bench.add_argument(
        "--d", required=True, help="comma-separated landmark dimensions, e.g. 5,10,20"
    )
    p_bench.add_argument(
        "--sigma", required=True, help="comma-separated noise levels, e.g. 0.1,10"
    )
    p_bench.add_argument("--r", type=int, default=3, help="solve rank")
    p_bench.add_argument("--reps", type=int, default=20, help="instances per cell")
    p_bench.add_argument("--seed", type=int, default=0, help="base seed")
    p_bench.add_argument("--out", required=True, help="CSV output path")
    p_bench.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    """Entry point; returns the exit code (the console script raises it)."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, ExportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
