"""Seeded benchmark harness for the synthetic alignment study.

Runs a grid of synthetic alignment instances over landmark dimension and
noise level, solves each instance from every configured initialization,
certifies the solutions, and aggregates per-cell success frequencies,
iteration counts, and objective gaps for the uncertified runs.  Per-rep
seeds are derived deterministically from the base seed and the cell
coordinates, so every cell is independently reproducible and two runs of
the same grid produce identical CSV bytes.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from dataclasses import dataclass

import numpy as np

from .builders import _check_synth, synth_procrustes
from .certificate import Verdict, _certify
from .core import ValidationError, _is_int
from .formats import atomic_write_text
from .solver import SolverConfig, StopReason, _runs_per_batch, _solve_batch

__all__ = [
    "ExperimentGrid",
    "CellResult",
    "ExportError",
    "run_grid",
    "export_results",
    "CSV_HEADER",
]

#: Column order of the exported CSV, one row per (cell, init).
CSV_HEADER = (
    "d",
    "sigma",
    "init",
    "certified",
    "inconclusive",
    "not_global",
    "mean_iter",
    "mean_final_objective",
    "failures",
    "nonconverged",
)


@dataclass(frozen=True)
class ExperimentGrid:
    """Grid specification for the synthetic alignment study.

    Parameters
    ----------
    d_values : tuple of int
        Landmark dimensions to sweep, non-empty.
    sigma_values : tuple of float
        Noise levels to sweep, non-empty.
    m, n, r : int
        Views per instance, samples per view, solve rank (fixed across
        the grid).
    reps : int
        Instances per (d, sigma) cell.
    base_seed : int
        Root of the per-rep seed derivation, nonnegative.
    init_strategies : tuple of str
        Named starts of :class:`~otsm.solver.SolverConfig`; every instance
        is solved once per strategy.

    Every ``(m, n, d, r, sigma)`` of the grid must pass the checks of
    :func:`~otsm.builders.synth_procrustes`.  Sizes and the seed must be
    integers (NumPy integers are kept as ``int``; bools and floats are
    rejected); lists become tuples.
    """

    d_values: tuple[int, ...]
    sigma_values: tuple[float, ...]
    m: int = 5
    n: int = 100
    r: int = 3
    reps: int = 20
    base_seed: int = 0
    init_strategies: tuple[str, ...] = SolverConfig._STARTS

    def __post_init__(self):
        for name in ("reps", "base_seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.reps < 1:
            raise ValidationError(f"reps must be at least 1, got {self.reps}")
        if self.base_seed < 0:
            raise ValidationError(f"base_seed must be nonnegative, got {self.base_seed}")
        d_values, sigma_values = tuple(self.d_values), tuple(self.sigma_values)
        if not d_values:
            raise ValidationError("d_values must be non-empty")
        if not sigma_values:
            raise ValidationError("sigma_values must be non-empty")
        # Every cell must be a valid synth_procrustes instance.
        for d, sigma in itertools.product(d_values, sigma_values):
            m, n, _, r, _ = _check_synth(self.m, self.n, d, self.r, sigma)
        for name, value in (
            ("m", m),
            ("n", n),
            ("r", r),
            ("d_values", tuple(int(d) for d in d_values)),
            ("sigma_values", tuple(float(s) for s in sigma_values)),
            ("init_strategies", tuple(str(s) for s in self.init_strategies)),
        ):
            object.__setattr__(self, name, value)
        if not self.init_strategies:
            raise ValidationError("init_strategies must be non-empty")
        if len(set(self.init_strategies)) != len(self.init_strategies):
            raise ValidationError(f"duplicate strategies in {self.init_strategies}")
        for s in self.init_strategies:
            if s not in SolverConfig._STARTS:
                raise ValidationError(
                    f"unknown init strategy {s!r}; choose from {SolverConfig._STARTS}"
                )


@dataclass(frozen=True)
class CellResult:
    """Aggregated outcomes for one (d, sigma, init) cell.

    The three verdict counts plus ``failure_count`` sum to the grid's
    reps; ``nonconverged_count`` tracks reps whose solve stopped without
    meeting the tolerance (their verdicts are still tallied).
    ``objective_gap_records`` holds, for every rep this strategy left
    uncertified, the objective attained by the other strategy minus this
    one's (positive means the other initialization found a better point).
    ``failure_reasons`` holds one ``"Type: message"`` string per failed
    rep, in rep order; it is not exported to the CSV.
    """

    d: int
    sigma: float
    init: str
    certified_count: int
    inconclusive_count: int
    not_global_count: int
    failure_count: int
    nonconverged_count: int
    mean_iterations: float
    mean_final_objective: float
    objective_gap_records: tuple[float, ...]
    failure_reasons: tuple[str, ...] = ()

    @property
    def total_reps(self) -> int:
        return (
            self.certified_count
            + self.inconclusive_count
            + self.not_global_count
            + self.failure_count
        )

    @property
    def certified_fraction(self) -> float:
        return self.certified_count / self.total_reps


class ExportError(RuntimeError):
    """Writing a results file failed; carries the offending path."""

    def __init__(self, path, reason):
        super().__init__(f"cannot write results to {path}: {reason}")
        self.path = path


def _derived_seed(base_seed, d, sigma, rep) -> int:
    """Deterministic per-rep seed from the base seed and cell coordinates.

    The noise level enters through its IEEE-754 bit pattern so distinct
    float values never collide.
    """
    sigma_bits = int(np.float64(sigma).view(np.uint64))
    seq = np.random.SeedSequence([int(base_seed), int(d), sigma_bits, int(rep)])
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class _RepOutcome:
    ok: bool
    verdict: object = None
    iterations: int = 0
    final_objective: float = float("nan")
    converged: bool = False
    reason: str = ""


def _outcome(problem, config, report) -> _RepOutcome:
    """Certify a solve's report from its own multipliers; with no report, solve
    the problem alone first."""
    try:
        if report is None:
            report = _solve_batch([problem], [config])[0]
        cert = _certify(problem, report.solution, report._lambdas, report.stationarity)
    except (ValidationError, np.linalg.LinAlgError) as exc:
        return _RepOutcome(ok=False, reason=f"{type(exc).__name__}: {exc}")
    return _RepOutcome(
        ok=True,
        verdict=cert.verdict,
        iterations=report.iterations,
        final_objective=report.objective,
        converged=report.stop_reason is StopReason.CONVERGED,
    )


def _size_runs(grid, d):
    """Yield ``(cell, rep, init, problem, config)`` for every run of one ``d``:
    cell by cell, ``cell`` being the position of its ``sigma`` in
    ``grid.sigma_values``, then rep by rep.

    Each rep's problem is built once and shared by its starts.  Cells are
    told apart by position, not by ``sigma``: ``0.0`` and ``-0.0`` are two
    cells with their own seeds, yet equal as keys.
    """
    for cell, sigma in enumerate(grid.sigma_values):
        for rep in range(grid.reps):
            seed = _derived_seed(grid.base_seed, d, sigma, rep)
            problem, _ = synth_procrustes(grid.m, grid.n, d, grid.r, sigma, seed)
            for init in grid.init_strategies:
                yield cell, rep, init, problem, SolverConfig(init=init)


def _aggregate(d, sigma, init, outcomes, other_outcomes) -> CellResult:
    counts = {v: 0 for v in Verdict}
    failures = 0
    nonconverged = 0
    iters = []
    finals = []
    gaps = []
    reasons = []
    for rep, out in enumerate(outcomes):
        if not out.ok:
            failures += 1
            reasons.append(out.reason)
            continue
        counts[out.verdict] += 1
        if not out.converged:
            nonconverged += 1
        iters.append(out.iterations)
        finals.append(out.final_objective)
        if out.verdict is not Verdict.CERTIFIED_GLOBAL and other_outcomes is not None:
            other = other_outcomes[rep]
            if other.ok:
                gaps.append(other.final_objective - out.final_objective)
    return CellResult(
        d=int(d),
        sigma=float(sigma),
        init=init,
        certified_count=counts[Verdict.CERTIFIED_GLOBAL],
        inconclusive_count=counts[Verdict.INCONCLUSIVE],
        not_global_count=counts[Verdict.CERTIFIED_NOT_GLOBAL],
        failure_count=failures,
        nonconverged_count=nonconverged,
        mean_iterations=float(np.mean(iters)) if iters else float("nan"),
        mean_final_objective=float(np.mean(finals)) if finals else float("nan"),
        objective_gap_records=tuple(gaps),
        failure_reasons=tuple(reasons),
    )


def run_grid(grid: ExperimentGrid) -> list[CellResult]:
    """Run the study and return one CellResult per (d, sigma, init).

    For every cell and rep, one instance is generated with a seed derived
    from (base_seed, d, sigma, rep) — identical across initializations,
    so the objective-gap records compare the two strategies on the same
    instance.  The runs of one ``d`` (cells x reps x starts, cell by cell,
    rep by rep), which share the problems' shape, are swept as one stream
    in batches within a fixed memory budget, sized from what the problem
    of a batch's first run stores (see :func:`otsm.solver._runs_per_batch`);
    each solve report and certificate is identical to solving and
    certifying that rep from that start alone.  A start, solve or
    certificate that rejects its data (``ValidationError``) or whose
    decomposition fails (``LinAlgError``) is tallied, with its reason, as a
    failure of its own rep and does not abort the grid; an
    :class:`~otsm.core.InternalError` signals a bug and propagates.
    Results are ordered by grid position (d outermost, then sigma, then
    init), independent of execution order.
    """
    results = []
    for d in grid.d_values:
        per_cell: list[dict[str, list[_RepOutcome]]] = [
            {init: [None] * grid.reps for init in grid.init_strategies}
            for _ in grid.sigma_values
        ]
        runs = _size_runs(grid, d)
        for first in runs:
            batch = [first, *itertools.islice(runs, _runs_per_batch(first[3]) - 1)]
            try:
                reports = _solve_batch([b[3] for b in batch], [b[4] for b in batch])
            except (ValidationError, np.linalg.LinAlgError):
                reports = [None] * len(batch)  # _outcome solves them one by one
            for (cell, rep, init, problem, config), report in zip(batch, reports):
                per_cell[cell][init][rep] = _outcome(problem, config, report)
        for sigma, per_init in zip(grid.sigma_values, per_cell):
            for init in grid.init_strategies:
                others = [s for s in grid.init_strategies if s != init]
                other_outcomes = per_init[others[0]] if others else None
                results.append(
                    _aggregate(d, sigma, init, per_init[init], other_outcomes)
                )
    return results


def export_results(results, path) -> None:
    """Write cell results to a CSV file (RFC-4180, one row per cell).

    Columns follow :data:`CSV_HEADER`; floats are written in shortest
    round-trip form, so re-parsing reproduces the values exactly and
    identical results always produce identical bytes.  The file is
    written to a temporary sibling and atomically renamed, so a failure
    never leaves a partial file at the destination.
    """
    path = os.fspath(path)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for cell in results:
        writer.writerow(
            (
                str(cell.d),
                repr(cell.sigma),
                cell.init,
                str(cell.certified_count),
                str(cell.inconclusive_count),
                str(cell.not_global_count),
                repr(cell.mean_iterations),
                repr(cell.mean_final_objective),
                str(cell.failure_count),
                str(cell.nonconverged_count),
            )
        )
    try:
        atomic_write_text(path, (buf.getvalue(),))
    except OSError as exc:
        raise ExportError(path, exc) from exc
