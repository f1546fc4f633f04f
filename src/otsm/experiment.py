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
import os
from dataclasses import dataclass

import numpy as np

from ._fileio import atomic_write_text
from .builders import synth_procrustes
from .certificate import Verdict, certify
from .core import ValidationError
from .solver import SolverConfig, StopReason, solve

__all__ = [
    "ExperimentGrid",
    "CellResult",
    "ExportError",
    "run_grid",
    "export_results",
    "CSV_HEADER",
]

_KNOWN_INITS = ("identity", "spectral")

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
        Landmark dimensions to sweep.
    sigma_values : tuple of float
        Noise levels to sweep.
    m, n, r : int
        Views per instance, samples per view, solve rank (fixed across
        the grid).
    reps : int
        Instances per (d, sigma) cell.
    base_seed : int
        Root of the per-rep seed derivation.
    init_strategies : tuple of str
        Subset of {"identity", "spectral"}; every instance is solved once
        per strategy.
    """

    d_values: tuple[int, ...]
    sigma_values: tuple[float, ...]
    m: int = 5
    n: int = 100
    r: int = 3
    reps: int = 20
    base_seed: int = 0
    init_strategies: tuple[str, ...] = ("identity", "spectral")

    def __post_init__(self):
        object.__setattr__(self, "d_values", tuple(int(d) for d in self.d_values))
        object.__setattr__(
            self, "sigma_values", tuple(float(s) for s in self.sigma_values)
        )
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "r", int(self.r))
        object.__setattr__(self, "reps", int(self.reps))
        object.__setattr__(self, "base_seed", int(self.base_seed))
        object.__setattr__(
            self, "init_strategies", tuple(str(s) for s in self.init_strategies)
        )
        if not self.d_values:
            raise ValidationError("d_values must be non-empty")
        if not self.sigma_values:
            raise ValidationError("sigma_values must be non-empty")
        if any(d < 1 for d in self.d_values):
            raise ValidationError(f"dimensions must be positive, got {self.d_values}")
        if any(s < 0 for s in self.sigma_values):
            raise ValidationError(
                f"noise levels must be nonnegative, got {self.sigma_values}"
            )
        if self.m < 2:
            raise ValidationError(f"need at least 2 views, got m={self.m}")
        if self.n < 1:
            raise ValidationError(f"need at least one sample, got n={self.n}")
        if not 1 <= self.r <= min(self.d_values):
            raise ValidationError(
                f"rank r={self.r} must satisfy 1 <= r <= min(d_values)="
                f"{min(self.d_values)}"
            )
        if self.reps < 1:
            raise ValidationError(f"reps must be at least 1, got {self.reps}")
        if not self.init_strategies:
            raise ValidationError("init_strategies must be non-empty")
        if len(set(self.init_strategies)) != len(self.init_strategies):
            raise ValidationError(f"duplicate strategies in {self.init_strategies}")
        for s in self.init_strategies:
            if s not in _KNOWN_INITS:
                raise ValidationError(
                    f"unknown init strategy {s!r}; choose from {_KNOWN_INITS}"
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


def _solve_and_certify(problem, init) -> _RepOutcome:
    try:
        report = solve(problem, SolverConfig(init=init))
        cert = certify(problem, report.solution)
    except (ValidationError, np.linalg.LinAlgError):
        return _RepOutcome(ok=False)
    return _RepOutcome(
        ok=True,
        verdict=cert.verdict,
        iterations=report.iterations,
        final_objective=report.objective,
        converged=report.stop_reason is StopReason.CONVERGED,
    )


def _aggregate(d, sigma, init, outcomes, other_outcomes) -> CellResult:
    counts = {v: 0 for v in Verdict}
    failures = 0
    nonconverged = 0
    iters = []
    finals = []
    gaps = []
    for rep, out in enumerate(outcomes):
        if not out.ok:
            failures += 1
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
    )


def run_grid(grid: ExperimentGrid) -> list[CellResult]:
    """Run the study and return one CellResult per (d, sigma, init).

    For every cell and rep, one instance is generated with a seed derived
    from (base_seed, d, sigma, rep) — identical across initializations,
    so the objective-gap records compare the two strategies on the same
    instance.  A solve or certificate that rejects its data
    (``ValidationError``) or whose decomposition fails (``LinAlgError``)
    is tallied as a failure of its cell and does not abort the grid; an
    :class:`~otsm.core.InternalError` signals a bug and propagates.
    Results are ordered by grid position (d outermost, then sigma, then
    init), independent of execution order.
    """
    results = []
    for d in grid.d_values:
        for sigma in grid.sigma_values:
            per_init: dict[str, list[_RepOutcome]] = {
                init: [] for init in grid.init_strategies
            }
            for rep in range(grid.reps):
                seed = _derived_seed(grid.base_seed, d, sigma, rep)
                problem, _ = synth_procrustes(grid.m, grid.n, d, grid.r, sigma, seed)
                for init in grid.init_strategies:
                    per_init[init].append(_solve_and_certify(problem, init))
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
        atomic_write_text(path, buf.getvalue())
    except OSError as exc:
        raise ExportError(path, exc) from exc
