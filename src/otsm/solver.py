"""Proximal block-relaxation solver for the block trace-sum problem.

One cycle sweeps the blocks in ascending order; the update for block i
maximizes the proximal surrogate

    tr(O^T B)  with  B = sum_{j != i} S_ij O_j + (1/alpha) O_i,

whose solution is the polar factor of B.  With finite alpha the objective
is nondecreasing cycle over cycle and the iterates converge to a
stationary point; alpha = +inf drops the proximal term and recovers the
classical ascent, which may oscillate (see :func:`oscillation_demo`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    BlockDims,
    BlockOrthogonal,
    InternalError,
    OtsmProblem,
    StationarityReport,
    ValidationError,
    _cross_sums,
    assemble_stilde,
    objective,
    polar_project,
    stationarity,
)

__all__ = [
    "StopReason",
    "SolverConfig",
    "SolveReport",
    "OscillationTrace",
    "init_identity",
    "init_spectral",
    "step_block",
    "solve",
    "oscillation_demo",
]

_STAGNATION_EPS = 1e-14
_STAGNATION_CYCLES = 10
#: Relative slack of the audit that no cycle lowers the objective.
_MONOTONE_SLACK = 1e-12


class StopReason(Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    STAGNATED = "stagnated"


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.

    alpha is the proximity constant; ``math.inf`` is accepted as an
    explicit request for the unsafe classical mode with no proximal term.
    Stopping: the solver stops once the mean block change over a full
    cycle, (1/m) sum_i ||O_i^k - O_i^(k-1)||_F, falls below ``tol``, or
    after ``max_iter`` cycles.  ``init`` is "identity", "spectral", or a
    custom BlockOrthogonal starting point.
    """

    alpha: float = 1000.0
    tol: float = 1e-5
    max_iter: int = 2000
    init: str | BlockOrthogonal = "identity"

    def __post_init__(self):
        if not (isinstance(self.alpha, (int, float)) and self.alpha > 0):
            raise ValidationError(f"alpha must be positive (or inf), got {self.alpha!r}")
        if not (isinstance(self.tol, (int, float)) and self.tol > 0):
            raise ValidationError(f"tol must be positive, got {self.tol!r}")
        if int(self.max_iter) < 1:
            raise ValidationError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if not isinstance(self.init, BlockOrthogonal) and self.init not in (
            "identity",
            "spectral",
        ):
            raise ValidationError(
                f"init must be 'identity', 'spectral', or a BlockOrthogonal, got {self.init!r}"
            )


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve.

    ``objective_trace[0]`` is the objective at the initial point and
    ``objective_trace[k]`` the value after cycle k: the start's objective
    plus the exact gains ``tr((O_i^+ - O_i)^T G_i)`` of every block update
    so far, where ``G_i = sum_{j != i} S_ij O_j`` (the objective is linear
    in each block).  ``mean_change_trace`` and ``change_sq_trace`` (the
    per-cycle sum of squared block changes, kept for descent audits) have
    one entry per completed cycle.  ``iterations`` counts completed cycles.
    """

    solution: BlockOrthogonal
    objective_trace: tuple[float, ...]
    mean_change_trace: tuple[float, ...]
    change_sq_trace: tuple[float, ...]
    iterations: int
    stop_reason: StopReason
    stationarity: StationarityReport

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]


def init_identity(dims: BlockDims) -> BlockOrthogonal:
    """Starting point whose block i is the first r columns of I_{d_i}."""
    return BlockOrthogonal([np.eye(d, dims.r) for d in dims.dims])


def init_spectral(problem: OtsmProblem) -> BlockOrthogonal:
    """Starting point from the top-r eigenvectors of the assembled coupling matrix.

    The D x r eigenvector matrix is split row-wise into blocks and each
    block is polar-projected onto the orthonormal set.  Eigensolver
    failures propagate as ``numpy.linalg.LinAlgError``.
    """
    dims = problem.dims
    _, vecs = np.linalg.eigh(assemble_stilde(problem))
    top = vecs[:, ::-1][:, : dims.r]
    off = dims.offsets()
    return BlockOrthogonal(
        [polar_project(top[off[i] : off[i + 1]]) for i in range(dims.m)]
    )


def step_block(problem, point, i, alpha=1000.0):
    """One block update: the polar factor of B = sum_{j != i} S_ij O_j + O_i/alpha.

    Returns the new d_i x r block; ``alpha=math.inf`` drops the proximal
    term, in which case B may be rank deficient and the maximizer is not
    unique (the deterministic SVD completion is returned).
    """
    if problem.dims != point.dims:
        raise ValidationError(
            f"point dims {point.dims} do not match problem dims {problem.dims}"
        )
    if not 0 <= i < problem.dims.m:
        raise ValidationError(f"block index {i} out of range for m={problem.dims.m}")
    if not alpha > 0:
        raise ValidationError(f"alpha must be positive (or inf), got {alpha!r}")
    b = _cross_sums(problem, point.blocks)[i]
    if not math.isinf(alpha):
        b += point.blocks[i] / alpha
    return polar_project(b)


def solve(problem: OtsmProblem, config: SolverConfig | None = None) -> SolveReport:
    """Run block relaxation until the mean block change drops below tol.

    Parameters
    ----------
    problem : OtsmProblem
    config : SolverConfig, optional
        Defaults to ``SolverConfig()``.

    Returns
    -------
    SolveReport
        Final point, traces, cycle count, stop reason, and stationarity
        diagnostics.

    Notes
    -----
    A cycle updates block i to the polar factor of ``G_i + O_i/alpha``,
    with ``G_i = stilde[rows_i] @ O`` read from the assembled coupling
    matrix, and advances the objective by the exact gain
    ``tr((O_i^+ - O_i)^T G_i)``; ``objective`` runs only at the start.
    With finite alpha each cycle's gain is checked to be nonnegative
    (within a fixed relative slack of 1e-12) and checked against the
    descent inequality

        (1/(2 alpha)) sum_i ||O_i^(k+1) - O_i^k||_F^2  <=  f^(k+1) - f^k,

    up to floating-point slack.  A violation raises :class:`InternalError`
    because it indicates a bug, not bad data.  In the alpha = +inf mode
    these audits are skipped and a stagnation guard stops the loop when
    the objective freezes while the iterates keep moving (oscillation).
    """
    if config is None:
        config = SolverConfig()
    if isinstance(config.init, BlockOrthogonal):
        if config.init.dims != problem.dims:
            raise ValidationError(
                f"custom init dims {config.init.dims} do not match problem {problem.dims}"
            )
        start = config.init
    elif config.init == "identity":
        start = init_identity(problem.dims)
    else:
        start = init_spectral(problem)

    dims = problem.dims
    m = dims.m
    off = dims.offsets()
    slices = [slice(off[i], off[i + 1]) for i in range(m)]
    stilde = assemble_stilde(problem)
    finite = not math.isinf(config.alpha)
    inv_alpha = 1.0 / config.alpha if finite else 0.0

    current = start.stack()  # a fresh array, updated in place
    f = objective(problem, start)
    obj_trace = [f]
    change_trace = []
    change_sq_trace = []
    stop = StopReason.MAX_ITER
    iterations = 0
    stagnant = 0

    for k in range(1, int(config.max_iter) + 1):
        gain = 0.0
        change_sq = 0.0
        change_sum = 0.0
        for i in range(m):
            rows = slices[i]
            g = stilde[rows] @ current
            b = g + inv_alpha * current[rows] if finite else g
            new = polar_project(b)
            delta = new - current[rows]
            current[rows] = new
            gain += float(np.sum(delta * g))
            diff = float(np.linalg.norm(delta))
            change_sum += diff
            change_sq += diff * diff
        mean_change = change_sum / m
        iterations = k

        if finite:
            if gain < -_MONOTONE_SLACK * (1.0 + abs(f)):
                raise InternalError(
                    f"objective decreased by {-gain!r} from {f!r} at cycle {k} "
                    f"with finite alpha={config.alpha}; this is a bug"
                )
            descent_gap = 0.5 * inv_alpha * change_sq - gain
            if descent_gap > 1e-10 * (1.0 + abs(f + gain)):
                raise InternalError(
                    f"descent inequality violated by {descent_gap:.3e} at cycle {k}; "
                    f"this is a bug"
                )

        f += gain
        obj_trace.append(f)
        change_trace.append(mean_change)
        change_sq_trace.append(change_sq)
        stagnant = stagnant + 1 if abs(gain) < _STAGNATION_EPS else 0
        if mean_change < config.tol:
            stop = StopReason.CONVERGED
            break
        if stagnant >= _STAGNATION_CYCLES:
            stop = StopReason.STAGNATED
            break

    point = BlockOrthogonal([current[rows] for rows in slices])
    return SolveReport(
        solution=point,
        objective_trace=tuple(obj_trace),
        mean_change_trace=tuple(change_trace),
        change_sq_trace=tuple(change_sq_trace),
        iterations=iterations,
        stop_reason=stop,
        stationarity=stationarity(problem, point),
    )


@dataclass(frozen=True)
class OscillationTrace:
    """Scripted non-convergence trace for the classical alpha = +inf ascent.

    ``iterates`` holds the four distinct cycle states; ``objectives`` the
    (constant) objective along them; ``argmax_residuals`` the gap between
    each scripted block update's trace inner product and the nuclear norm
    it must attain; ``fixed_point_mean_change`` the first-cycle mean change
    of the finite-alpha solver started at the same point (zero: the cycle's
    start is a proximal fixed point).
    """

    iterates: tuple[BlockOrthogonal, ...]
    objectives: tuple[float, ...]
    argmax_residuals: tuple[float, ...]
    fixed_point_mean_change: float


def oscillation_demo() -> OscillationTrace:
    """Reproduce the classical ascent's 4-cycle on the 3-block identity-coupling instance.

    Starting from (I, J, I) with alpha = +inf, the block updates cycle
    through four states of constant objective 2 without converging, while
    the true optimum value is 3.  Each scripted update is verified to be a
    valid argmax via the nuclear-norm identity (tolerance 1e-10), the
    objective is verified constant at 2, and the same starting point is
    verified to be a fixed point of the finite-alpha solver.  Any check
    failing raises :class:`InternalError`.
    """
    eye = np.eye(3)
    i32 = eye[:, :2]
    j32 = i32[:, ::-1]
    problem = OtsmProblem(
        BlockDims((3, 3, 3), 2), {(0, 1): -eye, (0, 2): eye, (1, 2): eye}
    )
    states = [
        (i32, j32, i32),
        (-j32, i32, -j32),
        (-i32, -j32, -i32),
        (j32, -i32, j32),
    ]
    iterates = tuple(BlockOrthogonal(s) for s in states)

    objectives = []
    residuals = []
    for k, state in enumerate(states):
        val = objective(problem, iterates[k])
        if abs(val - 2.0) > 1e-12:
            raise InternalError(f"cycle objective is {val!r} at state {k}, expected 2")
        objectives.append(val)
        work = list(state)
        target = states[(k + 1) % len(states)]
        for i in range(3):
            b = _cross_sums(problem, work)[i]
            nuclear = float(np.sum(np.linalg.svd(b, compute_uv=False)))
            attained = float(np.sum(target[i] * b))
            gap = abs(attained - nuclear)
            if gap > 1e-10 * (1.0 + nuclear):
                raise InternalError(
                    f"scripted block {i} of transition {k} is not an argmax "
                    f"(gap {gap:.3e})"
                )
            residuals.append(gap)
            work[i] = target[i]

    report = solve(
        problem,
        SolverConfig(alpha=1000.0, init=iterates[0], max_iter=5),
    )
    drift = max(
        float(np.linalg.norm(a - b))
        for a, b in zip(report.solution.blocks, iterates[0].blocks)
    )
    if drift > 1e-12 or report.stop_reason is not StopReason.CONVERGED:
        raise InternalError(
            f"(I, J, I) is not a finite-alpha fixed point (drift {drift:.3e}, "
            f"stop {report.stop_reason})"
        )
    return OscillationTrace(
        iterates=iterates,
        objectives=tuple(objectives),
        argmax_residuals=tuple(residuals),
        fixed_point_mean_change=report.mean_change_trace[0],
    )
