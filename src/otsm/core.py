"""Shared primitives for orthogonal trace-sum maximization.

The problem: given coupling matrices ``S_ij`` (``i < j``) between ``m``
blocks, maximize

    sum_{i<j} tr(O_i^T S_ij O_j)

over tuples ``(O_1, ..., O_m)`` of partially orthogonal matrices, where
``O_i`` is ``d_i x r`` with ``O_i^T O_i = I_r``.  This module holds the
problem and iterate containers, the assembled symmetric coupling matrix,
objective evaluation, the polar projection onto the orthonormal set, and
first-order stationarity diagnostics.  Everything downstream (solver,
certificates, builders) is written against these primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

__all__ = [
    "DEFAULT_ORTH_TOL",
    "ValidationError",
    "InternalError",
    "BlockDims",
    "OtsmProblem",
    "BlockOrthogonal",
    "StationarityReport",
    "assemble_stilde",
    "objective",
    "polar_project",
    "lagrange_multipliers",
    "stationarity",
]

#: Default tolerance on ||O_i^T O_i - I_r||_F for orthonormality checks.
DEFAULT_ORTH_TOL = 1e-10


class ValidationError(ValueError):
    """Problem data, dimensions, or iterates failed a feasibility check."""


class InternalError(RuntimeError):
    """A runtime self-check failed.  Signals a bug, not bad input data."""


@dataclass(frozen=True)
class BlockDims:
    """Row dimensions of the blocks and their common column rank.

    Parameters
    ----------
    dims : tuple of int
        Positive row dimensions ``(d_1, ..., d_m)``, one per block.
    r : int
        Common column rank, ``1 <= r <= min(dims)``.
    """

    dims: tuple[int, ...]
    r: int

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "r", int(self.r))
        if self.m < 2:
            raise ValidationError(f"need at least 2 blocks, got {self.m}")
        if any(d < 1 for d in self.dims):
            raise ValidationError(f"block dimensions must be positive, got {self.dims}")
        if not 1 <= self.r <= min(self.dims):
            raise ValidationError(
                f"rank r={self.r} must satisfy 1 <= r <= min(dims)={min(self.dims)}"
            )

    @property
    def m(self) -> int:
        """Number of blocks."""
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        """Total row dimension D = sum of the d_i."""
        return sum(self.dims)

    def offsets(self) -> tuple[int, ...]:
        """Cumulative row offsets (m+1 entries, from 0 to D)."""
        out = [0]
        for d in self.dims:
            out.append(out[-1] + d)
        return tuple(out)


class OtsmProblem:
    """Coupling data for the block trace-sum problem.

    Only the upper-triangular couplings ``S_ij`` with ``i < j`` are stored;
    ``S_ji`` is always ``S_ij^T`` by construction and pairs that are absent
    from the map are implicit zero matrices.  Instances are immutable after
    construction and safe to share.

    Parameters
    ----------
    dims : BlockDims
        Block dimensions.
    sblocks : mapping (i, j) -> ndarray
        Zero-based pairs with ``i < j``; entry shape must be ``d_i x d_j``.
    """

    __slots__ = ("dims", "sblocks")

    def __init__(self, dims, sblocks):
        if not isinstance(dims, BlockDims):
            raise ValidationError(f"dims must be a BlockDims, got {type(dims).__name__}")
        clean = {}
        for key, mat in sblocks.items():
            try:
                i, j = (int(key[0]), int(key[1]))
            except (TypeError, ValueError, IndexError):
                raise ValidationError(f"coupling key {key!r} is not an index pair") from None
            if not 0 <= i < j < dims.m:
                raise ValidationError(
                    f"coupling key ({i},{j}) must satisfy 0 <= i < j < m={dims.m}"
                )
            a = np.array(mat, dtype=float)
            expected = (dims.dims[i], dims.dims[j])
            if a.shape != expected:
                raise ValidationError(
                    f"coupling ({i},{j}) has shape {a.shape}, expected {expected}"
                )
            if not np.all(np.isfinite(a)):
                raise ValidationError(f"coupling ({i},{j}) contains non-finite entries")
            a.flags.writeable = False
            clean[(i, j)] = a
        self.dims = dims
        self.sblocks = MappingProxyType(clean)

    def coupling(self, i, j):
        """Return the coupling between blocks i and j (i != j), as an array.

        Transposes the stored block when ``i > j`` and returns a zero matrix
        for pairs that were never stored.
        """
        if i == j:
            raise ValidationError("diagonal couplings are identically zero by construction")
        if i < j:
            block = self.sblocks.get((i, j))
            if block is not None:
                return block
        else:
            block = self.sblocks.get((j, i))
            if block is not None:
                return block.T
        return np.zeros((self.dims.dims[i], self.dims.dims[j]))


class BlockOrthogonal:
    """A tuple of orthonormal blocks ``O_i`` (``d_i x r``), the iterate type.

    Parameters
    ----------
    blocks : sequence of ndarray
        One ``d_i x r`` matrix per block, each with orthonormal columns.
    dims : BlockDims, optional
        Cross-checked against the block shapes when given.
    orth_tol : float
        Maximum allowed ``||O_i^T O_i - I_r||_F``.
    """

    __slots__ = ("dims", "blocks")

    def __init__(self, blocks, dims=None, orth_tol=DEFAULT_ORTH_TOL):
        mats = []
        for k, b in enumerate(blocks):
            a = np.array(b, dtype=float)
            if a.ndim != 2:
                raise ValidationError(f"block {k} must be a matrix, got ndim={a.ndim}")
            if not np.all(np.isfinite(a)):
                raise ValidationError(f"block {k} contains non-finite entries")
            a.flags.writeable = False
            mats.append(a)
        if len(mats) < 2:
            raise ValidationError(f"need at least 2 blocks, got {len(mats)}")
        r = mats[0].shape[1]
        for k, a in enumerate(mats):
            if a.shape[1] != r:
                raise ValidationError(
                    f"block {k} has {a.shape[1]} columns, expected r={r} from block 0"
                )
        derived = BlockDims(tuple(a.shape[0] for a in mats), r)
        if dims is not None and dims != derived:
            raise ValidationError(
                f"block shapes imply {derived}, which does not match dims={dims}"
            )
        for k, a in enumerate(mats):
            err = float(np.linalg.norm(a.T @ a - np.eye(r)))
            if err > orth_tol:
                raise ValidationError(
                    f"block {k} is not orthonormal: ||O^T O - I||_F = {err:.3e} > {orth_tol:.1e}"
                )
        self.dims = derived
        self.blocks = tuple(mats)

    def stack(self):
        """Stack the blocks vertically into a single D x r matrix."""
        return np.vstack(self.blocks)

    def orthonormality_error(self) -> float:
        """Max over blocks of ``||O_i^T O_i - I_r||_F``."""
        r = self.dims.r
        return max(float(np.linalg.norm(b.T @ b - np.eye(r))) for b in self.blocks)

    def __repr__(self):
        return f"BlockOrthogonal(dims={self.dims.dims}, r={self.dims.r})"


@dataclass(frozen=True)
class StationarityReport:
    """First-order diagnostics at a feasible point.

    ``grad_residuals[i]`` is ``||sum_{j != i} S_ij O_j - O_i L_i||_F`` and
    ``asymmetries[i]`` is ``||L_i - L_i^T||_F`` for the multiplier
    ``L_i = O_i^T sum_{j != i} S_ij O_j``.  Both vanish exactly on the
    stationary set.
    """

    grad_residuals: tuple[float, ...]
    asymmetries: tuple[float, ...]

    @property
    def max_grad_residual(self) -> float:
        return max(self.grad_residuals)

    @property
    def max_asymmetry(self) -> float:
        return max(self.asymmetries)


def _check_match(problem, point):
    if problem.dims != point.dims:
        raise ValidationError(
            f"point dims {point.dims} do not match problem dims {problem.dims}"
        )


def _cross_sums(problem, blocks):
    """Per-block coupling sums G_i = sum_{j != i} S_ij O_j over the stored pairs.

    ``blocks`` is any sequence of ``d_i x r`` matrices, one per block.
    """
    dims = problem.dims
    sums = [np.zeros((d, dims.r)) for d in dims.dims]
    for (i, j), s in problem.sblocks.items():
        sums[i] += s @ blocks[j]
        sums[j] += s.T @ blocks[i]
    return sums


def assemble_stilde(problem) -> np.ndarray:
    """Assemble the full D x D symmetric coupling matrix.

    Block ``(i, j)`` is ``S_ij`` for ``i < j``, block ``(j, i)`` its
    transpose, and diagonal blocks are zero; the result is exactly
    symmetric by construction.
    """
    dims = problem.dims
    off = dims.offsets()
    full = np.zeros((dims.total_dim, dims.total_dim))
    for (i, j), s in problem.sblocks.items():
        full[off[i] : off[i + 1], off[j] : off[j + 1]] = s
        full[off[j] : off[j + 1], off[i] : off[i + 1]] = s.T
    return full


def objective(problem, point) -> float:
    """Evaluate the trace-sum objective at a feasible point.

    Parameters
    ----------
    problem : OtsmProblem
    point : BlockOrthogonal

    Returns
    -------
    float
        ``sum_{i<j} tr(O_i^T S_ij O_j)``, which equals
        ``0.5 * tr(O^T stilde O)`` for the stacked ``O``.
    """
    _check_match(problem, point)
    total = 0.0
    for (i, j), s in problem.sblocks.items():
        total += float(np.sum(point.blocks[i] * (s @ point.blocks[j])))
    return total


def polar_project(b) -> np.ndarray:
    """Project a d x r matrix (d >= r) onto the orthonormal set.

    Computes a singular value decomposition ``b = P diag(s) Q^T`` and
    returns the polar factor ``P Q^T``, a maximizer of ``tr(O^T b)`` over
    orthonormal ``O``; the attained value is the nuclear norm ``sum(s)``.
    For rank-deficient ``b`` the maximizer is not unique and the output is
    whatever the SVD routine's deterministic null-space completion yields.
    """
    a = np.asarray(b, dtype=float)
    if a.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={a.ndim}")
    d, r = a.shape
    if d < r:
        raise ValidationError(f"polar projection needs d >= r, got shape {a.shape}")
    p, _, qt = np.linalg.svd(a, full_matrices=False)
    return p @ qt


def lagrange_multipliers(problem, point) -> list[np.ndarray]:
    """Multiplier estimates ``L_i = O_i^T (sum_{j != i} S_ij O_j)``.

    Returned without symmetrization: the asymmetric part is diagnostic
    (it vanishes at stationary points).
    """
    _check_match(problem, point)
    sums = _cross_sums(problem, point.blocks)
    return [point.blocks[i].T @ sums[i] for i in range(problem.dims.m)]


def stationarity(problem, point) -> StationarityReport:
    """First-order stationarity diagnostics at a feasible point.

    A point is stationary when every block satisfies
    ``O_i L_i = sum_{j != i} S_ij O_j`` with a symmetric multiplier
    ``L_i``; the report carries the per-block residuals of both
    conditions.
    """
    _check_match(problem, point)
    sums = _cross_sums(problem, point.blocks)
    residuals = []
    asyms = []
    for i in range(problem.dims.m):
        lam = point.blocks[i].T @ sums[i]
        residuals.append(float(np.linalg.norm(sums[i] - point.blocks[i] @ lam)))
        asyms.append(float(np.linalg.norm(lam - lam.T)))
    return StationarityReport(tuple(residuals), tuple(asyms))
