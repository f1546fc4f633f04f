"""Build trace-sum problems from application data.

Each builder reduces a familiar task to the block trace-sum form consumed
by the solver: multi-set correlation analysis (maximize agreement between
linearly transformed views), generalized orthogonal alignment of landmark
sets, and orthogonal least squares.  The module also ships the small
three-block instance with a known global optimum and a known stationary
trap, plus a seeded synthetic alignment generator for benchmark grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BlockDims,
    OtsmProblem,
    ValidationError,
    _as_matrix,
    _from_views,
    _is_int,
    _is_real,
    polar_project,
)

__all__ = [
    "ViewData",
    "OlsData",
    "build_maxdiff",
    "build_procrustes",
    "pairwise_discrepancy",
    "build_ols",
    "ols_residual",
    "hard_example",
    "synth_procrustes",
]


@dataclass(frozen=True)
class ViewData:
    """A collection of data views sharing a common sample count.

    Parameters
    ----------
    views : sequence of ndarray
        Matrices ``A_i`` of shape ``n x d_i`` with a common row count n
        (one row per sample, one view per block).
    """

    views: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(_as_matrix(a, f"view {k}") for k, a in enumerate(self.views))
        if len(mats) < 2:
            raise ValidationError(f"need at least 2 views, got {len(mats)}")
        n = mats[0].shape[0]
        if n < 1:
            raise ValidationError(f"need at least one sample, got n={n}")
        for k, a in enumerate(mats):
            if a.shape[0] != n:
                raise ValidationError(
                    f"view {k} has {a.shape[0]} rows, expected n={n} from view 0"
                )
        object.__setattr__(self, "views", mats)

    @property
    def m(self) -> int:
        """Number of views."""
        return len(self.views)

    @property
    def n(self) -> int:
        """Common sample count (rows per view)."""
        return self.views[0].shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        """Column counts (d_1, ..., d_m) of the views."""
        return tuple(a.shape[1] for a in self.views)


@dataclass(frozen=True)
class OlsData:
    """Target and regressor matrices for orthogonal least squares.

    Parameters
    ----------
    target : ndarray
        The ``n x d`` matrix ``Y`` to be approximated.
    regressors : sequence of ndarray
        ``K`` matrices ``A_k``, each ``n x d``, combined as
        ``sum_k A_k O_k`` with square orthogonal ``O_k``.
    """

    target: np.ndarray
    regressors: tuple[np.ndarray, ...]

    def __post_init__(self):
        y = _as_matrix(self.target, "target")
        mats = tuple(
            _as_matrix(a, f"regressor {k}") for k, a in enumerate(self.regressors)
        )
        if len(mats) < 1:
            raise ValidationError("need at least 1 regressor")
        if y.shape[0] < 1:
            raise ValidationError(f"need at least one sample, got n={y.shape[0]}")
        for k, a in enumerate(mats):
            if a.shape != y.shape:
                raise ValidationError(
                    f"regressor {k} has shape {a.shape}, expected {y.shape} like target"
                )
        object.__setattr__(self, "target", y)
        object.__setattr__(self, "regressors", mats)

    @property
    def k(self) -> int:
        """Number of regressor blocks."""
        return len(self.regressors)

    @property
    def n(self) -> int:
        return self.target.shape[0]

    @property
    def d(self) -> int:
        return self.target.shape[1]


def build_maxdiff(data: ViewData, r: int) -> OtsmProblem:
    """Reduce multi-set agreement maximization to a trace-sum problem.

    The couplings are the cross-Gram matrices ``S_ij = A_i^T A_j``, so the
    trace-sum objective at ``(O_1, ..., O_m)`` is the total pairwise
    agreement ``sum_{i<j} tr((A_i O_i)^T (A_j O_j))`` of the transformed
    views.  From ``D >= 3 n`` the problem keeps the views as the factor of
    its couplings and forms the pairs only when ``sblocks`` is read (see
    :func:`otsm.core._from_views`).

    Parameters
    ----------
    data : ViewData
    r : int
        Number of components to extract; needs ``r <= min(d_i)``.
    """
    return _from_views(BlockDims(data.dims, r), data.views)


def build_procrustes(data: ViewData, r: int | None = None):
    """Reduce generalized orthogonal alignment to a trace-sum problem.

    All views must share a common column count d.  Maximizing the
    trace-sum objective minimizes the total pairwise misalignment
    ``sum_{i<j} ||A_i O_i - A_j O_j||_F^2``; see
    :func:`pairwise_discrepancy` for the exact relation.

    Parameters
    ----------
    data : ViewData
        Landmark sets, all of shape ``n x d``.
    r : int, optional
        Alignment rank; defaults to d (classical full-rotation case).
        Values below d give the partial variant.

    Returns
    -------
    (OtsmProblem, float)
        The problem plus the constant offset ``sum_i ||A_i||_F^2``; for
        square blocks (r = d) the discrepancy above equals
        ``(m - 1) * offset - 2 * objective``.
    """
    widths = set(data.dims)
    if len(widths) != 1:
        raise ValidationError(
            f"alignment needs views of equal width, got widths {data.dims}"
        )
    d = widths.pop()
    if r is None:
        r = d
    offset = sum(float(np.sum(a * a)) for a in data.views)
    return build_maxdiff(data, r), offset


def pairwise_discrepancy(data: ViewData, point) -> float:
    """Total pairwise misalignment ``sum_{i<j} ||A_i O_i - A_j O_j||_F^2``.

    Computed directly from the data, so it is exact for every rank.  For
    square blocks (r = d) it equals ``(m - 1) * offset - 2 * objective``
    with the offset returned by :func:`build_procrustes`; for r < d the
    per-view energies ``||A_i O_i||_F^2`` are no longer constant and the
    direct sum here is the only correct evaluation.
    """
    if data.dims != point.dims.dims:
        raise ValidationError(
            f"point dims {point.dims.dims} do not match view widths {data.dims}"
        )
    rotated = [a @ o for a, o in zip(data.views, point.blocks)]
    total = 0.0
    for i in range(len(rotated)):
        for j in range(i + 1, len(rotated)):
            total += float(np.sum((rotated[i] - rotated[j]) ** 2))
    return total


def build_ols(data: OlsData):
    """Reduce orthogonal least squares to a trace-sum problem.

    Minimizing ``0.5 * ||Y - sum_k A_k O_k||_F^2`` over square orthogonal
    ``O_k`` is equivalent to maximizing the trace-sum objective of the
    augmented problem on ``m = K + 1`` blocks with couplings
    ``S_ij = -A_i^T A_j`` (the target enters as block ``K + 1``).  A
    solution ``(Ot_1, ..., Ot_{K+1})`` of the augmented problem maps back
    to the minimizer ``O_k = -Ot_k Ot_{K+1}^T``.  From ``D >= 3 n`` the
    problem keeps ``A_1, ..., A_K, Y`` and the sign -1 as its factor.

    Parameters
    ----------
    data : OlsData

    Returns
    -------
    (OtsmProblem, callable)
        The augmented problem and a recovery map sending a feasible point
        of it to the list of K recovered square-orthogonal blocks.
    """
    stacked = list(data.regressors) + [data.target]
    dims = BlockDims(tuple(a.shape[1] for a in stacked), data.d)
    problem = _from_views(dims, stacked, -1.0)
    k = data.k

    def recover(point):
        """Map an augmented solution to the K recovered rotations."""
        if point.dims != dims:
            raise ValidationError(
                f"point dims {point.dims} do not match augmented dims {dims}"
            )
        last = point.blocks[k]
        return [-point.blocks[i] @ last.T for i in range(k)]

    return problem, recover


def ols_residual(data: OlsData, rotations) -> float:
    """Fit criterion ``0.5 * ||Y - sum_k A_k O_k||_F^2`` of recovered blocks."""
    if len(rotations) != data.k:
        raise ValidationError(
            f"got {len(rotations)} rotations for {data.k} regressors"
        )
    fit = np.zeros_like(data.target)
    for k, (a, o) in enumerate(zip(data.regressors, rotations)):
        q = _as_matrix(o, f"rotation {k}")
        if q.shape != (data.d, data.d):
            raise ValidationError(
                f"rotation {k} has shape {q.shape}, expected ({data.d}, {data.d})"
            )
        fit = fit + a @ q
    return 0.5 * float(np.sum((data.target - fit) ** 2))


def hard_example(d: int, r: int) -> OtsmProblem:
    """Three-block instance with a known global optimum and a trap.

    The couplings are ``S_12 = -I_d``, ``S_13 = I_d``, ``S_23 = I_d``
    (always full d x d, whatever the rank).  Any feasible triple of the
    form ``(O, O', O + O')`` with mutually orthogonal ranges attains the
    global maximum ``3`` at d=3, r=2, while the all-identity triple is a
    stationary point with objective 2 that blocks naive ascent.
    """
    dims = BlockDims((d, d, d), r)
    eye = np.eye(d)
    return OtsmProblem(dims, {(0, 1): -eye, (0, 2): eye, (1, 2): eye})


def _check_synth(m, n, d, r, sigma):
    """Check the sizes and noise level of :func:`synth_procrustes`.

    Returns them as ``(int, int, int, int, float)``.
    :class:`~otsm.experiment.ExperimentGrid` checks each of its cells here.
    """
    for name, value in (("m", m), ("n", n), ("d", d), ("r", r)):
        if not _is_int(value):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    m, n, d, r = int(m), int(n), int(d), int(r)
    if m < 2:
        raise ValidationError(f"need at least 2 views, got m={m}")
    if n < 1:
        raise ValidationError(f"need at least one sample, got n={n}")
    if not 1 <= r <= d:
        raise ValidationError(f"rank r={r} must satisfy 1 <= r <= d={d}")
    if not (_is_real(sigma) and math.isfinite(sigma) and sigma >= 0):
        raise ValidationError(
            f"noise level must be finite and nonnegative, got {sigma!r}"
        )
    return m, n, d, r, float(sigma)


def synth_procrustes(m, n, d, r, sigma, seed):
    """Seeded synthetic alignment instance with known ground truth.

    Draws an ``n x d`` landmark matrix ``L`` with standard normal entries
    and m rotations ``R_i`` (orthonormal polar factors of Gaussian d x d
    matrices, uniform over the orthogonal group), then forms the views
    ``A_i = L R_i^T + sigma * E_i`` with standard normal noise ``E_i``
    (``n x d``) and builds the rank-r agreement problem on them.  The RNG
    draw order is fixed (L, then Z_i and E_i per view), so a seed pins
    the instance bit for bit.

    Parameters
    ----------
    m, n, d : int
        Number of views, samples per view, landmark dimension.
    r : int
        Rank of the alignment problem, ``r <= d``.
    sigma : float
        Noise level, finite and ``>= 0``.
    seed : int
        Seed for the per-call generator, ``>= 0``; no global RNG state is
        touched.

    Returns
    -------
    (OtsmProblem, tuple of ndarray)
        The problem and the m true rotations ``R_i`` (d x d).  Recovery
        from a solve is only ever expected up to a common orthogonal
        right factor shared by all blocks.
    """
    m, n, d, r, sigma = _check_synth(m, n, d, r, sigma)
    if not _is_int(seed):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    landmarks = rng.standard_normal((n, d))
    views = []
    truth = []
    for _ in range(m):
        rot = polar_project(rng.standard_normal((d, d)))
        noise = rng.standard_normal((n, d))
        views.append(landmarks @ rot.T + sigma * noise)
        truth.append(rot)
    problem = build_maxdiff(ViewData(tuple(views)), r)
    return problem, tuple(truth)
