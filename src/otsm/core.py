"""Shared primitives for orthogonal trace-sum maximization.

The problem: given coupling matrices ``S_ij`` (``i < j``) between ``m``
blocks, maximize

    sum_{i<j} tr(O_i^T S_ij O_j)

over tuples ``(O_1, ..., O_m)`` of partially orthogonal matrices, where
``O_i`` is ``d_i x r`` with ``O_i^T O_i = I_r``.  This module holds the
problem and iterate containers, the assembled coupling matrix and the
products with it (``_product``, ``_Coupling``), the memoized Krylov
spectral start, the objective, the polar projection and stationarity;
solver, certificates and builders are written against these primitives.
"""

from __future__ import annotations

import itertools
import math
import numbers
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
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


def _is_int(value) -> bool:
    """True for an integer that is not a bool (NumPy integers included)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for a real number that is not a bool (NumPy reals included)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_matrix(value, what) -> np.ndarray:
    """A read-only float64 copy of ``value``, which must be a finite matrix.

    Always a copy, so that no later write to ``value``, or to an array that
    shares its data, reaches the result.  Raises ValidationError, naming
    ``what``, for anything else: ragged or non-numeric data, a wrong number
    of dimensions, NaN or infinity.
    """
    try:
        a = np.array(value, dtype=float)
    except OverflowError as exc:  # an integer beyond float range
        raise ValidationError(f"{what} contains non-finite entries") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} is not a numeric matrix: {exc}") from exc
    if a.ndim != 2:
        raise ValidationError(f"{what} must be a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} contains non-finite entries")
    a.flags.writeable = False
    return a


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
        dims = tuple(self.dims)
        if not all(_is_int(d) for d in dims) or not _is_int(self.r):
            raise ValidationError(f"dims and r must be integers, got {dims!r}, r={self.r!r}")
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
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
        return (0, *itertools.accumulate(self.dims))

    @cached_property
    def rows(self) -> tuple[slice, ...]:
        """Block ``i``'s rows ``off[i]:off[i+1]`` of a stacked D-row array."""
        off = self.offsets()
        return tuple(map(slice, off, off[1:]))


class OtsmProblem:
    """Coupling data for the block trace-sum problem.

    Only the upper-triangular couplings ``S_ij`` with ``i < j`` are stored;
    ``S_ji`` is always ``S_ij^T`` by construction and pairs that are absent
    from the map are implicit zero matrices.  The coupling data is immutable
    after construction and instances are safe to share.  The top-r
    eigenvectors of the assembled coupling matrix are memoized on the
    instance by its first spectral start (see
    :func:`otsm.solver.init_spectral`).  The view builders may keep
    the views privately, as a factor of the couplings for the solver and
    the certificate (see :func:`_from_views`); this constructor keeps none.
    A problem that keeps its views stores no pairs: only a read of
    :attr:`sblocks` forms them all and keeps them; :meth:`coupling` forms
    just the pair it returns.

    Parameters
    ----------
    dims : BlockDims
        Block dimensions.
    sblocks : mapping (i, j) -> ndarray
        Zero-based integer pairs with ``i < j``, each at most once; entry
        shape must be ``d_i x d_j``.  Each entry is copied (see
        :func:`_as_matrix`).
    """

    __slots__ = ("dims", "_sblocks", "_spectrum", "_factor")

    def __init__(self, dims, sblocks):
        if not isinstance(dims, BlockDims):
            raise ValidationError(f"dims must be a BlockDims, got {type(dims).__name__}")
        if not isinstance(sblocks, Mapping):
            raise ValidationError(f"sblocks must be a mapping, got {type(sblocks).__name__}")
        clean = {}
        for key, mat in sblocks.items():
            if not (isinstance(key, tuple) and len(key) == 2 and all(map(_is_int, key))):
                raise ValidationError(f"coupling key {key!r} is not an index pair")
            i, j = map(int, key)
            if not 0 <= i < j < dims.m:
                raise ValidationError(
                    f"coupling key ({i},{j}) must satisfy 0 <= i < j < m={dims.m}"
                )
            if (i, j) in clean:
                raise ValidationError(f"coupling ({i},{j}) is given twice")
            a = _as_matrix(mat, f"coupling ({i},{j})")
            expected = (dims.dims[i], dims.dims[j])
            if a.shape != expected:
                raise ValidationError(
                    f"coupling ({i},{j}) has shape {a.shape}, expected {expected}"
                )
            clean[(i, j)] = a
        self.dims = dims
        self._sblocks = MappingProxyType(clean)
        self._spectrum = None
        self._factor = None

    @property
    def sblocks(self):
        """Read-only mapping ``(i, j) -> S_ij`` of the couplings, ``i < j``;
        on a problem that keeps its views, formed on first read and kept."""
        pairs = self._sblocks
        if pairs is None:
            formed = dict(_view_pairs(*self._factor))
            with _MEMO_LOCK:
                if self._sblocks is None:
                    self._sblocks = MappingProxyType(formed)
                pairs = self._sblocks
        return pairs

    def coupling(self, i, j):
        """Return the coupling between blocks i and j (integers i != j in 0..m-1).

        Transposes ``S_ji`` when ``i > j`` and returns a zero matrix for pairs
        that were never stored; a problem that keeps its views forms only this
        pair, bit for bit as :attr:`sblocks` would, and keeps it nowhere.
        """
        if not (_is_int(i) and _is_int(j) and 0 <= min(i, j) and max(i, j) < self.dims.m):
            raise ValidationError(f"block pair ({i!r}, {j!r}) out of range for m={self.dims.m}")
        if i == j:
            raise ValidationError("diagonal couplings are identically zero by construction")
        lo, hi = min(i, j), max(i, j)
        if self._sblocks is None:
            views, sign = self._factor
            block = next(_view_pairs((views[lo], views[hi]), sign))[1]
        else:
            block = self._sblocks.get((lo, hi))
        if block is None:
            return np.zeros((self.dims.dims[i], self.dims.dims[j]))
        return block if i < j else block.T


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
        mats = [_as_matrix(b, f"block {k}") for k, b in enumerate(blocks)]
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


def _exponent(a) -> int:
    """The ``e`` with ``2^(e-1) <= max |a| < 2^e`` (0 for zero): dividing ``a``
    by ``2^e``, which is exact, leaves entries whose squares cannot overflow."""
    return math.frexp(float(np.max(np.abs(a))))[1]


def _norm(a) -> float:
    """``||a||_F`` of ``a / 2^_exponent(a)``, exact, scaled back: no square over-
    or underflows at any scale, and it is ``np.linalg.norm``'s wherever that
    neither does.  A norm beyond the largest float is ``inf``."""
    e = _exponent(a)
    return float(np.ldexp(np.linalg.norm(np.ldexp(a, -e)), e))


def _first_order(problem, point):
    """Raw multipliers ``L_i = O_i^T G_i`` and the stationarity report, from one product."""
    _check_match(problem, point)
    sums = _product(problem, point.stack())
    lams, residuals, asyms = [], [], []
    for o, rows in zip(point.blocks, problem.dims.rows):
        g = sums[rows]
        lam = o.T @ g
        lams.append(lam)
        residuals.append(_norm(g - o @ lam))
        asyms.append(_norm(lam - lam.T))
    return lams, StationarityReport(tuple(residuals), tuple(asyms))


def _pairs(problem):
    """The problem's pairs ``((i, j), S_ij)`` in ascending ``(i, j)`` order: the
    stored ones, or, where none are stored, those :func:`_view_pairs` forms,
    kept by no one but the caller."""
    stored = problem._sblocks
    if stored is None:
        return _view_pairs(*problem._factor)
    return sorted(stored.items(), key=lambda pair: pair[0])


def _stack_stilde(problems) -> np.ndarray:
    """One zeroed (B, D, D) array whose slot k is ``assemble_stilde(problems[k])``.

    The problems share one shape.  This is the one writer of couplings
    into an assembled matrix; it stores no pair on a problem that keeps
    its views.
    """
    dims = problems[0].dims
    rows = dims.rows
    stack = np.zeros((len(problems), dims.total_dim, dims.total_dim))
    for full, problem in zip(stack, problems):
        for (i, j), s in _pairs(problem):
            full[rows[i], rows[j]] = s
            full[rows[j], rows[i]] = s.T
    return stack


def assemble_stilde(problem) -> np.ndarray:
    """Assemble the full D x D symmetric coupling matrix.

    Block ``(i, j)`` is ``S_ij`` for ``i < j``, block ``(j, i)`` its
    transpose, and diagonal blocks are zero; the result is exactly
    symmetric by construction.
    """
    return _stack_stilde([problem])[0]


#: Views ``A_i`` (n x d_i) take the factored backend from ``D = _FACTOR_RATIO
#: * n`` on: a dense sweep does about ``D r`` work per row of S-tilde, a
#: factored one about ``2 n r`` in more calls.  Dense/factored ms per cycle
#: at n = 100, m = 10, r = 3 (one BLAS thread, 200 cycles): 0.26/0.33 at
#: D = 300, 0.35/0.36 at 500, 0.80/0.40 at 1000.  Below about ``5 n`` the
#: factored cycle is slower, by about a quarter, but it needs neither the
#: pairs' ``n D^2`` build nor the ``8 D^2`` bytes of S-tilde.
_FACTOR_RATIO = 3


def _from_views(dims, views, sign=1.0):
    """The problem with couplings ``S_ij = sign A_i^T A_j`` for the finite,
    read-only ``n x d_i`` ``views`` and ``sign = +-1``.

    This is where the backend is chosen.  Like the constructor, it first
    raises ValidationError for a pair with a non-finite entry (see
    :func:`_check_view_pairs`).  From ``D = _FACTOR_RATIO * n`` on it keeps
    the views with the sign as its ``_factor`` and stores no pair (the
    factored backend); below that it stores the pairs of
    :func:`_view_pairs`, not copied, and keeps no views.
    """
    _check_view_pairs(views)
    if _FACTOR_RATIO * views[0].shape[0] > dims.total_dim:
        return _with_pairs(dims, dict(_view_pairs(views, sign)))
    problem = OtsmProblem(dims, {})
    problem._sblocks = None
    problem._factor = (tuple(views), float(sign))
    return problem


def _with_pairs(dims, pairs):
    """The problem that stores the dict ``pairs``, ``(i, j) -> S_ij``, as it is:
    checked, read-only float64 pairs that no caller holds, so that none is
    copied (the view builders' pairs, and the pairs a problem file decodes)."""
    problem = OtsmProblem(dims, {})
    problem._sblocks = MappingProxyType(pairs)
    return problem


def _view_pairs(views, sign):
    """Yield ``((i, j), sign A_i^T A_j)``, ``i < j``, in order: the one place
    that forms a pair from views.  Each pair is formed once, the sign applied
    in place, and made read-only; :func:`_from_views` has checked that none
    overflows."""
    for i, j in itertools.combinations(range(len(views)), 2):
        s = views[i].T @ views[j]
        if sign != 1.0:
            np.multiply(s, sign, out=s)
        s.flags.writeable = False
        yield (i, j), s


def _check_view_pairs(views):
    """Raise ValidationError, as the constructor would, for the first pair
    ``A_i^T A_j`` with a non-finite entry, without storing any pair; the
    one overflow check of a view problem, on either backend.

    By Cauchy-Schwarz ``|(A_i^T A_j)_kl| <= ||A_i||_F ||A_j||_F``, and a
    dot product computed in floating point exceeds that bound by a
    relative ``n eps`` at most; so a pair can overflow only where the
    bound reaches ``2^1023``, and only such a pair is formed, then dropped.
    """
    logs = [math.log2(x) if x > 0.0 else -math.inf for x in map(_norm, views)]
    for i, j in itertools.combinations(range(len(views)), 2):
        if logs[i] + logs[j] >= 1023.0 and not np.all(np.isfinite(views[i].T @ views[j])):
            raise ValidationError(f"coupling ({i},{j}) contains non-finite entries")


def _product(problem, x):
    """``S-tilde x`` for a ``D x c`` matrix ``x``, from the problem's own storage:
    the sum over the stored pairs, or for views ``G_i = s A_i^T W_i``, with
    ``W_i = sum_{j != i} A_j x_j`` a running head plus a suffix sum, which no
    subtraction cancels; each ``A_j x_j`` is formed once, nothing ``D x D``."""
    out = np.zeros(x.shape)
    outs, xs = ([a[rows] for rows in problem.dims.rows] for a in (out, x))
    if problem._factor is None:
        for (i, j), s in problem.sblocks.items():
            outs[i] += s @ xs[j]
            outs[j] += s.T @ xs[i]
        return out
    views, sign = problem._factor
    ps = [a @ b for a, b in zip(views, xs)]
    zero = np.zeros(ps[0].shape)
    heads = itertools.accumulate(ps[:-1], np.add, initial=zero)
    tails = list(itertools.accumulate(ps[:0:-1], np.add, initial=zero))[::-1]
    for a, head, tail, g in zip(views, heads, tails, outs):
        g[...] = a.T @ (head + tail)
    return sign * out


class _Coupling:
    """The batched sweep's block products ``G_i`` with the S-tilde of same-shape problems.

    The problems pick the backend, factored where they keep a ``_factor``.
    Dense holds the ``(B, D, D)`` stack of assembled matrices; factored
    the views ``A`` (B, n, D) and signs ``s``, with ``S-tilde = s (A^T A -
    blockdiag(A_i^T A_i))``, and, for the iterates ``x`` (B, D, r) of a
    sweep, the block products ``P_j = A_j x_j`` (B, m, n, r) and their sum
    ``U`` (B, n, r), which :meth:`update` keeps current.  A block update
    then takes two products with ``A_i``: ``A_i^T W`` with ``W = U - P_i``
    in :meth:`block` and the new ``P_i`` in :meth:`update`.
    """

    def __init__(self, problems):
        factors = [p._factor for p in problems]
        kinds = {None if f is None else f[0][0].shape[0] for f in factors}
        if len(kinds) > 1:
            raise ValidationError(f"a batch needs one coupling backend, got views of rows {kinds}")
        self.rows = problems[0].dims.rows
        self.stilde = self.a = self.sign = self.x = self.p = self.u = self.w = None
        if factors[0] is None:
            self.stilde = _stack_stilde(problems)
        else:
            self.a = np.empty((len(problems), kinds.pop(), problems[0].dims.total_dim))
            for a, f in zip(self.a, factors):
                np.concatenate(f[0], axis=1, out=a)
            self.sign = np.array([f[1] for f in factors])[:, None, None]

    def track(self, x):
        """Make ``x``, which :meth:`update` changes in place, the iterates."""
        self.x = x
        if self.a is not None:
            self.p = np.empty((len(x), len(self.rows), self.a.shape[1], x.shape[2]))
            for j, rows in enumerate(self.rows):
                np.matmul(self.a[:, :, rows], x[:, rows], out=self.p[:, j])
            self.u, self.w = np.empty(self.p[:, 0].shape), np.empty(self.p[:, 0].shape)
            self._resum()

    def _resum(self):
        """``U = sum_j P_j``, added in block order for each item."""
        np.copyto(self.u, self.p[:, 0])
        for j in range(1, len(self.rows)):
            self.u += self.p[:, j]

    def block(self, i):
        """``G_i = sum_{j != i} S_ij x_j`` for every item."""
        rows = self.rows[i]
        if self.a is None:
            return np.matmul(self.stilde[:, rows], self.x)
        a = self.a[:, :, rows]
        np.subtract(self.u, self.p[:, i], out=self.w)
        g = np.matmul(a.transpose(0, 2, 1), self.w)
        return np.multiply(g, self.sign, out=g)

    def update(self, i, new):
        """Set block ``i`` of the iterates to ``new``; return the change.

        On views this follows :meth:`block` of the same ``i``, and ``U``
        becomes ``W + A_i new``, except after the last block, where it is
        summed afresh from the ``P_j``: once per cycle of a sweep, so that
        rounding does not pile up in ``U`` across cycles.
        """
        rows = self.rows[i]
        delta = new - self.x[:, rows]
        self.x[:, rows] = new
        if self.a is not None:
            p = np.matmul(self.a[:, :, rows], new, out=self.p[:, i])
            if i == len(self.rows) - 1:
                self._resum()
            else:
                np.add(self.w, p, out=self.u)
        return delta

    def keep(self, keep):
        """Keep only the items at the ascending indices ``keep``, moved down in
        place (a fancy-indexed copy would briefly hold two stacks)."""
        for name in ("x",) + (("stilde",) if self.a is None else ("a", "sign", "p", "u", "w")):
            arr = getattr(self, name)
            for dst, src in enumerate(keep):
                if dst != src:
                    arr[dst] = arr[src]
            setattr(self, name, arr[: len(keep)])


#: Guards the first store of a problem's pairs and of its start vectors.
_MEMO_LOCK = threading.Lock()

#: From this D on a spectral start may come from :func:`_krylov`, which forms
#: no ``D x D`` eigenvector matrix and needs no LAPACK workspace.  Measured
#: on ``synth_procrustes(10, 100, D/10, 3, 1.0, 0)``, one BLAS thread of a
#: 2-CPU host (best of 15, in ms):
#:
#: ====  ======  ==========  ============
#: D     eigh    eigvalsh    Krylov solve
#: ====  ======  ==========  ============
#: 100   0.74    0.37        1.06
#: 200   3.09    1.42        2.39
#: 300   7.43    3.77        3.97
#: 500   25.1    11.8        11.5
#: 1000  168     83.4        37.2
#: ====  ======  ==========  ============
_KRYLOV_MIN_DIM = 200
#: From this D on the Krylov cap need hold only 3 blocks of ``r + 2``; below
#: it, ``_KRYLOV_SMALL_BLOCKS``.  On ``synth_procrustes(10, 100, D/10, r, 1.0,
#: s)`` at D = 200-800 the solve met its residual test before the cap from
#: about 15 blocks on; at 10 blocks its start lay some 1e-6 (sin theta) from
#: ``eigh``'s top-``r`` subspace, and at under 5 blocks up to 0.97.
_KRYLOV_FULL_DIM = 1000
_KRYLOV_SMALL_BLOCKS = 15
#: Seed of the Krylov solve's private start block (not the global RNG).
_KRYLOV_SEED = 1811_03521
#: The Krylov basis takes at most this share of D and this many blocks.
_KRYLOV_MAX_SHARE = 0.5
_KRYLOV_MAX_BLOCKS = 60


def _krylov_cap(d, r) -> int:
    """The Krylov basis's cap of ``min(D/2, 60 (r + 2))`` columns."""
    return min(int(_KRYLOV_MAX_SHARE * d), _KRYLOV_MAX_BLOCKS * (r + 2))


def _krylov_fits(d, r) -> bool:
    """Whether a spectral start of size ``d`` and rank ``r`` comes from
    :func:`_krylov`: from ``D = _KRYLOV_MIN_DIM`` on, where its cap holds
    ``_KRYLOV_SMALL_BLOCKS`` blocks of ``r + 2``, or 3 from ``_KRYLOV_FULL_DIM``."""
    blocks = 3 if d >= _KRYLOV_FULL_DIM else _KRYLOV_SMALL_BLOCKS
    return d >= _KRYLOV_MIN_DIM and blocks * (r + 2) <= _krylov_cap(d, r)


def _krylov(product, d, r):
    """Top-``r`` eigenvectors of a symmetric ``d x d`` matrix by a block Krylov solve.

    The matrix is seen only through ``product``, which maps a ``d x c``
    matrix ``x`` to the matrix times ``x``.  Returns the ``d x r`` top Ritz
    vectors, orthonormal and largest first, always: blocks of ``r + 2``
    columns, reorthogonalized twice against the whole basis; Rayleigh-Ritz
    every 3 steps, until each of the top ``r + 1`` Ritz pairs has the
    residual ``||S y - theta y|| <= 1e-10 |theta|`` (pair ``r + 1`` too: the
    second copy of a tied ``lambda_r`` can lag far behind and fake a wide
    Ritz gap; where the two nearly tie, no top-``r`` subspace is unique),
    or once more where the next block would pass :func:`_krylov_cap`.  A
    rank-deficient new block is orthogonalized once more and its QR taken:
    its null directions go on as fresh start directions.
    """
    b = r + 2
    cap = _krylov_cap(d, r)
    basis, proj = np.empty((d, cap)), np.empty((cap, cap))
    start = np.random.default_rng(_KRYLOV_SEED).standard_normal((d, b))
    block = np.linalg.qr(start)[0]
    w = product(block)
    tiny = 1e-10 * _norm(w)
    k = 0
    for step in itertools.count(1):
        basis[:, k : k + b] = block
        k += b
        v = basis[:, :k]
        h = v.T @ w
        proj[:k, k - b : k] = h
        proj[k - b : k, :k] = h.T
        last = k + b > cap
        if step % 3 == 0 or last:
            theta, y = np.linalg.eigh(proj[:k, :k])
            lead = theta[: -r - 2 : -1]
            top = v @ y[:, : -r - 2 : -1]
            if last or np.all(np.linalg.norm(product(top) - top * lead, axis=0)
                              <= 1e-10 * np.abs(lead)):
                return top[:, :r]
        w -= v @ h
        w -= v @ (v.T @ w)
        block, tri = np.linalg.qr(w)
        if np.abs(np.diagonal(tri)).min() <= tiny:
            block = np.linalg.qr(block - v @ (v.T @ block))[0]
        w = product(block)


def _spectrum(problem, op=None, k=0):
    """The memoized ``D x r`` top eigenvectors of the assembled coupling matrix.

    Returns them read-only, largest first, by one path that ``D`` and ``r``
    choose: :func:`_krylov` where :func:`_krylov_fits` (from D = 200 on
    where its cap holds 15 blocks of ``r + 2``, from D = 1000 on 3), else
    ``eigh``.  Krylov multiplies by a dense problem's ``stilde`` (item ``k``
    of the caller's :class:`_Coupling` ``op``, or a fresh assembly) and by a
    view problem's :func:`_product`, which forms no ``D x D`` array; unlike
    ``eigh`` it forms no ``D x D`` eigenvector matrix on either backend.  The
    first stored vectors are never replaced.  A failed decomposition raises
    ``numpy.linalg.LinAlgError`` and stores nothing.  No ``D x D`` array is
    kept.
    """
    if problem._spectrum is not None:
        return problem._spectrum
    d, r = problem.dims.total_dim, problem.dims.r
    stilde = None
    if problem._factor is None:
        stilde = assemble_stilde(problem) if op is None else op.stilde[k]
    if not _krylov_fits(d, r):
        vecs = np.linalg.eigh(assemble_stilde(problem) if stilde is None else stilde)[1]
        top = vecs[:, ::-1][:, :r].copy()
    else:
        product = stilde.__matmul__ if stilde is not None else lambda x: _product(problem, x)
        top = _krylov(product, d, r)
    top.flags.writeable = False
    with _MEMO_LOCK:
        if problem._spectrum is None:
            problem._spectrum = top
        return problem._spectrum


def objective(problem, point) -> float:
    """Evaluate the trace-sum objective at a feasible point.

    Parameters
    ----------
    problem : OtsmProblem
    point : BlockOrthogonal

    Returns
    -------
    float
        ``sum_{i<j} tr(O_i^T S_ij O_j) = tr((O/2)^T stilde O)`` for the
        stacked ``O``, from one product with ``stilde``.
    """
    _check_match(problem, point)
    x = point.stack()
    # Halving x first keeps the sum finite wherever the pair sums are.
    return float(np.sum((0.5 * x) * _product(problem, x)))


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
    return _first_order(problem, point)[0]


def stationarity(problem, point) -> StationarityReport:
    """First-order stationarity diagnostics at a feasible point.

    A point is stationary when every block satisfies
    ``O_i L_i = sum_{j != i} S_ij O_j`` with a symmetric multiplier
    ``L_i``; the report carries the per-block residuals of both
    conditions.
    """
    return _first_order(problem, point)[1]
