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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .builders import hard_example
from .core import (
    BlockDims,
    BlockOrthogonal,
    InternalError,
    OtsmProblem,
    StationarityReport,
    ValidationError,
    _check_match,
    _Coupling,
    _first_order,
    _is_int,
    _is_real,
    _product,
    _spectrum,
    objective,
    polar_project,
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

#: A cycle is flat when its gain is at most this fraction of the objective.
_STAGNATION_EPS = 1e-14
_STAGNATION_CYCLES = 10
#: Slacks of the audits that no cycle lowers the objective and that each
#: cycle satisfies the descent inequality, relative to the cycle's sum of
#: the nuclear norms ||B_i||_* of its block updates.
_MONOTONE_SLACK = 1e-12
_DESCENT_SLACK = 1e-10
#: Bytes of coupling data that one batch of the sweep may hold: per run an
#: assembled S-tilde (dense backend) or the views (factored backend).
_BATCH_STILDE_BYTES = 4 * 2**20


class StopReason(Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    STAGNATED = "stagnated"


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.

    alpha is the proximity constant; ``math.inf`` is accepted as an
    explicit request for the unsafe classical mode with no proximal term.
    ``alpha`` and ``tol`` are real numbers (not bools, NumPy reals
    included), kept as ``float``, and ``max_iter`` is an integer (not a
    bool).  Stopping: the solver stops once the mean block change over a
    full cycle, (1/m) sum_i ||O_i^k - O_i^(k-1)||_F, falls below ``tol``,
    or after ``max_iter`` cycles.  ``init`` is "identity", "spectral", or a
    custom BlockOrthogonal starting point.
    """

    alpha: float = 1000.0
    tol: float = 1e-5
    max_iter: int = 2000
    init: str | BlockOrthogonal = "identity"

    #: The named starts ``init`` accepts (a class constant, not a field).
    _STARTS = ("identity", "spectral")

    def __post_init__(self):
        if not (_is_real(self.alpha) and self.alpha > 0):
            raise ValidationError(f"alpha must be positive (or inf), got {self.alpha!r}")
        if not (_is_real(self.tol) and self.tol > 0):
            raise ValidationError(f"tol must be positive, got {self.tol!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "tol", float(self.tol))
        if not (_is_int(self.max_iter) and self.max_iter >= 1):
            raise ValidationError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not isinstance(self.init, BlockOrthogonal) and self.init not in self._STARTS:
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
    ``stationarity`` comes from one product pass at the solution, whose raw
    multipliers the report keeps for the certificate (see
    :func:`otsm.certificate._certify`), so that certifying the solution
    makes no second pass.
    """

    solution: BlockOrthogonal
    objective_trace: tuple[float, ...]
    mean_change_trace: tuple[float, ...]
    change_sq_trace: tuple[float, ...]
    iterations: int
    stop_reason: StopReason
    stationarity: StationarityReport
    _lambdas: tuple[np.ndarray, ...] = field(repr=False, compare=False)

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

    The eigenvectors are memoized on the problem by its first spectral
    start, from one path per size and rank (see
    :func:`otsm.core._spectrum`): one ``eigh`` of ``stilde`` below D = 200
    or where the Krylov basis cap holds too few blocks of ``r + 2`` (15
    below D = 1000, 3 from there on), else a block Krylov solve, which
    never falls back to ``eigh``, forms no D x D eigenvector matrix and,
    on the factored backend, no D x D array at all; later starts on the
    same problem decompose nothing.
    """
    top = _spectrum(problem)
    return BlockOrthogonal([polar_project(top[rows]) for rows in problem.dims.rows])


def step_block(problem, point, i, alpha=SolverConfig.alpha):
    """One block update: the polar factor of B = sum_{j != i} S_ij O_j + O_i/alpha.

    Returns the new d_i x r block; ``alpha=math.inf`` drops the proximal
    term, in which case B may be rank deficient and the maximizer is not
    unique (the deterministic SVD completion is returned).  ``i`` is an
    integer (not a bool); ``alpha`` follows :class:`SolverConfig`'s rule.
    The arithmetic is that of the block's update in a :func:`solve` sweep,
    on the problem's coupling backend; the dense one assembles ``stilde``.
    """
    _check_match(problem, point)
    if not (_is_int(i) and 0 <= i < problem.dims.m):
        raise ValidationError(f"block index {i!r} out of range for m={problem.dims.m}")
    alpha = SolverConfig(alpha=alpha).alpha
    op = _Coupling([problem])
    op.track(point.stack()[None])
    return _polar_step(op, i, 0.0 if math.isinf(alpha) else 1.0 / alpha)[1][0]


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
    A cycle updates block i to the polar factor of ``B_i = G_i + O_i/alpha``,
    with ``G_i = stilde[rows_i] @ O``, and advances the objective by the
    exact gain ``tr((O_i^+ - O_i)^T G_i)``; ``objective`` runs only at the
    start.
    With finite alpha each cycle's gain is checked to be nonnegative and
    checked against the descent inequality

        (1/(2 alpha)) sum_i ||O_i^(k+1) - O_i^k||_F^2  <=  f^(k+1) - f^k,

    with slacks of 1e-12 and 1e-10 times the cycle's sum of ``||B_i||_*``
    (the singular values of its block SVDs), so they scale with ``S``.
    A violation raises :class:`InternalError` because it indicates a bug,
    not bad data.  In the alpha = +inf mode these audits are skipped and a
    stagnation guard stops the loop when the objective freezes while the
    iterates keep moving (oscillation).  For every alpha, a start objective
    or cycle gain that is not finite (the couplings overflow float64)
    raises :class:`ValidationError`.

    A problem built from views ``A_i`` with ``D >= 3 n`` (``n`` samples)
    takes the factored backend: ``G_i = s A_i^T (U - P_i)``, with the block
    products ``P_j = A_j O_j`` kept and ``U = sum_j P_j``.  A block update
    forms ``G_i`` and its new ``P_i``, two products with ``A_i``, about
    ``2 n r`` work per row against ``D r`` for ``stilde``, and no D x D
    array; ``U`` follows each update and is summed afresh from the ``P_j``
    once per cycle.  The two backends agree to rounding, not bit for bit.

    A solve is the batch of one of the sweep that
    :func:`otsm.experiment.run_grid` runs over the same-shape problems of
    one ``d`` at once; a problem's result does not depend on the batch it
    is swept in.  The report's ``stationarity`` is one product pass at the
    solution, and ``otsm solve --certify`` and the grid certify from that
    pass's multipliers instead of making another.
    """
    return _solve_batch([problem], [config])[0]


def _runs_per_batch(problem) -> int:
    """How many runs like ``problem`` one batch of the sweep takes.

    As many as fit ``_BATCH_STILDE_BYTES``, and at least one; a run holds
    what its problem stores: ``8 n D`` bytes where it keeps views of ``n``
    rows, ``8 D^2`` for the assembled S-tilde otherwise.
    """
    total = problem.dims.total_dim
    width = total if problem._factor is None else problem._factor[0][0].shape[0]
    return max(1, _BATCH_STILDE_BYTES // (8 * width * total))


def _start(problem, init, op, k):
    """The starting point ``init`` asks for; the problem is item k of ``op``."""
    if isinstance(init, BlockOrthogonal):
        return init
    if init == "identity":
        return init_identity(problem.dims)
    # Fill the start-vector memo from the batch's operator, so that
    # init_spectral assembles no second copy.
    _spectrum(problem, op=op, k=k)
    return init_spectral(problem)


def _polar_step(op, i, inv_alpha):
    """Block i's update in each item of ``op`` at its iterates ``x``.

    Returns ``G_i``, the polar factor of ``G_i + inv_alpha x_i`` and its
    singular values; ``inv_alpha`` is 0 for alpha = inf, the classical ascent.
    """
    g = op.block(i)
    u, s, vt = np.linalg.svd(g + inv_alpha * op.x[:, op.rows[i]], full_matrices=False)
    return g, u @ vt, s


class _Item:
    """One problem of a batch: its settings, objective, traces and stop rules."""

    __slots__ = ("position", "problem", "config", "finite", "inv_alpha", "f",
                 "obj_trace", "change_trace", "change_sq_trace", "stagnant")

    def __init__(self, position, problem, config, start):
        self.position = position  # in the batch's input lists
        self.problem = problem
        self.config = config
        self.finite = not math.isinf(config.alpha)
        self.inv_alpha = 1.0 / config.alpha if self.finite else 0.0
        self.f = objective(problem, start)
        if not math.isfinite(self.f):
            raise ValidationError(f"the objective at the start is {self.f!r}: float64 overflow")
        self.obj_trace = [self.f]
        self.change_trace = []
        self.change_sq_trace = []
        self.stagnant = 0

    def advance(self, k, gain, mean_change, change_sq, scale):
        """Audit and record cycle k; return the stop reason once the item is done.

        The audit slacks are relative to ``scale``, the cycle's sum of ||B_i||_*.
        """
        f = self.f
        if not math.isfinite(gain):
            raise ValidationError(f"the gain of cycle {k} is {gain!r}: float64 overflow")
        if self.finite:
            if gain < -_MONOTONE_SLACK * scale:
                raise InternalError(
                    f"objective decreased by {-gain!r} from {f!r} at cycle {k} "
                    f"with finite alpha={self.config.alpha}; this is a bug"
                )
            descent_gap = 0.5 * self.inv_alpha * change_sq - gain
            if descent_gap > _DESCENT_SLACK * scale:
                raise InternalError(
                    f"descent inequality violated by {descent_gap:.3e} at cycle {k}; "
                    f"this is a bug"
                )
        self.f = f + gain
        self.obj_trace.append(self.f)
        self.change_trace.append(mean_change)
        self.change_sq_trace.append(change_sq)
        flat = abs(gain) <= _STAGNATION_EPS * abs(f)
        self.stagnant = self.stagnant + 1 if flat else 0
        if mean_change < self.config.tol:
            return StopReason.CONVERGED
        if self.stagnant >= _STAGNATION_CYCLES:
            return StopReason.STAGNATED
        if k >= self.config.max_iter:
            return StopReason.MAX_ITER
        return None

    def report(self, point, iterations, stop) -> SolveReport:
        lams, stat = _first_order(self.problem, point)
        return SolveReport(
            solution=point,
            objective_trace=tuple(self.obj_trace),
            mean_change_trace=tuple(self.change_trace),
            change_sq_trace=tuple(self.change_sq_trace),
            iterations=iterations,
            stop_reason=stop,
            stationarity=stat,
            _lambdas=tuple(lams),
        )


def _solve_batch(problems, configs) -> list[SolveReport]:
    """Solve same-shape problems in one sweep; item k is ``solve(problems[k], configs[k])``.

    The batch's :class:`~otsm.core._Coupling` holds the ``(B, D, r)``
    iterates beside ``(B, D, D)`` ``stilde`` or the views with ``P, U, W``.
    A block step takes one stacked product (two with ``A_i`` on views), one
    stacked SVD for the polar factors, and the gains and change norms of the
    batch, with arithmetic per item that does not depend on the batch size.
    Audits, traces and stopping rules are per item; an item that stops
    leaves the batch, whose arrays are compacted in place, and its report
    takes one product pass at its point for ``stationarity`` and the
    multipliers it keeps.  Items may come from different problems of one
    shape, such as every run of one ``d`` of a grid.  Any error
    raised for one item ends the whole call, as does a ``configs`` of
    another length than ``problems`` (``ValueError``) or a batch that mixes
    shapes or coupling backends (``ValidationError``).
    """
    configs = [c or SolverConfig() for _, c in zip(problems, configs, strict=True)]
    if not problems:
        return []
    dims = problems[0].dims
    for problem, config in zip(problems, configs):
        if problem.dims != dims:
            raise ValidationError(f"a batch needs one shape, got {problem.dims} and {dims}")
        if isinstance(config.init, BlockOrthogonal) and config.init.dims != dims:
            raise ValidationError(
                f"custom init dims {config.init.dims} do not match problem {dims}"
            )
    m = dims.m
    op = _Coupling(problems)
    current = np.empty((len(problems), dims.total_dim, dims.r))
    items = []
    for position, (problem, config) in enumerate(zip(problems, configs)):
        start = _start(problem, config.init, op, position)
        items.append(_Item(position, problem, config, start))
        np.concatenate(start.blocks, out=current[position])
    op.track(current)  # updated in place
    reports = [None] * len(items)

    k = 0
    while items:
        k += 1
        batch = len(items)
        inv_alpha = np.array([it.inv_alpha for it in items])[:, None, None]
        # Per block and item: the gain, the change, its square and ||B||_*.
        sums = np.empty((4, m, batch))
        for i in range(m):
            g, new, s = _polar_step(op, i, inv_alpha)
            delta = op.update(i, new)
            np.add.reduce(delta * g, axis=(1, 2), out=sums[0, i])
            # Row times column is one dot per item, whatever the batch size.
            flat = delta.reshape(batch, 1, -1)
            np.matmul(flat, flat.transpose(0, 2, 1), out=sums[2, i, :, None, None])
            np.add.reduce(s, axis=1, out=sums[3, i])

        np.sqrt(sums[2], out=sums[1])
        np.multiply(sums[1], sums[1], out=sums[2])
        # A sequential sum over the blocks; a pairwise np.sum could add
        # them in an order that varies with the batch size.
        totals = np.add.accumulate(sums, axis=1)[:, -1].tolist()
        keep = []
        for j, (it, dg, cs, csq, nuc) in enumerate(zip(items, *totals)):
            stop = it.advance(k, dg, cs / m, csq, nuc)
            if stop is None:
                keep.append(j)
                continue
            point = BlockOrthogonal([op.x[j, rows] for rows in op.rows])
            reports[it.position] = it.report(point, k, stop)
        if len(keep) < batch:
            op.keep(keep)
            items = [items[j] for j in keep]
    return reports


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
    i32 = np.eye(3, 2)
    j32 = i32[:, ::-1]
    problem = hard_example(3, 2)
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
            b = _product(problem, np.vstack(work))[problem.dims.rows[i]]
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
