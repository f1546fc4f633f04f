"""Global-optimality certificates for stationary points.

A stationary point with symmetrized multipliers ``L_i`` and
``tau_i = lambda_min(L_i)`` is globally optimal if the certificate matrix

    L* = blockdiag(O_i L_i O_i^T + tau_i (I - O_i O_i^T)) - stilde

is positive semidefinite (sufficient condition); any ``tau_i < 0`` proves
the point is NOT globally optimal (necessary condition).  Between the two
lies an inconclusive region: the certificate is sufficient, not necessary.
`certify` decides semidefiniteness by one Cholesky factorization of
``L* + tol_psd I`` and gives ``CERTIFIED_GLOBAL`` only at points that are
stationary relative to the scale of ``stilde``, by tolerances that scale
with ``stilde``.  The report lets a caller re-judge by another rule.

At any feasible point, stationary or not, ``L* + t I`` PSD proves the gap
bound ``f* - f <= (m r / 2) t`` by weak duality: ``stilde`` is then below
``Lambda + t I`` for the block diagonal ``Lambda`` above, and by Ky Fan
``tr(P_i^T Lambda_i P_i) <= tr(L_i)`` for every ``d_i x r`` frame ``P_i``,
with ``sum_i tr(L_i) = 2 f``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .core import (
    BlockOrthogonal,
    OtsmProblem,
    StationarityReport,
    _check_match,
    _first_order,
    _norm,
    _spectrum,
    assemble_stilde,
    lagrange_multipliers,
)

__all__ = [
    "Verdict",
    "CertificateReport",
    "certificate_matrix",
    "reduced_certificate",
    "certify",
    "dual_upper_bound",
]

# Verdict tolerances are (base * a bound on ||stilde||_2) + (RESIDUAL_FACTOR *
# measured stationarity error).  Eigenvalues of the multipliers and of L* move
# linearly with the distance to the underlying exact stationary point, and
# at mean-change stopping thresholds the certificate eigenvalue error is a
# double-digit multiple of the gradient residual (measured ratio ~29 on the
# canonical 3-block instance), so the factor needs headroom above that.
_PSD_BASE = 1e-6
_TAU_BASE = 1e-8
_RESIDUAL_FACTOR = 100.0

#: CERTIFIED_GLOBAL needs ``r_stat <= _STATIONARITY_GATE * lo`` (see :func:`_scale`).
#: The tolerances above grow with ``r_stat`` without bound, so far from
#: stationarity they would accept any point.  Solver output at the default
#: ``tol`` on ``synth_procrustes`` measures at most 1e-5 on this relative
#: scale, random feasible points at least 0.2.
_STATIONARITY_GATE = 1e-3

#: Relative tolerance, against ||L*||_F, of the reported check L* Obar = 0.
_NULL_TOL = 1e-6


class Verdict(Enum):
    CERTIFIED_GLOBAL = "certified_global"
    CERTIFIED_NOT_GLOBAL = "certified_not_global"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CertificateReport:
    """Certification outcome at a feasible point.

    ``lambdas`` are the raw (unsymmetrized) multipliers; ``taus`` the
    smallest eigenvalues of their symmetrized versions; ``stationarity``
    the diagnostics measured in the same pass over the couplings.
    ``tol_psd`` and ``tol_tau`` are the tolerances the verdict used, a
    function of the couplings and the point alone.  ``gap_bound`` is a
    bound ``(m r / 2) t`` on ``f* - f``, proven by weak duality at any
    feasible point for a shift ``t`` with ``L* + t I`` PSD (see
    :func:`certify` for how ``t`` is chosen).  A caller re-judges by
    another rule from ``taus``, ``stationarity`` and ``gap_bound``, with
    :attr:`lmin_full` computed on demand from the kept problem and point,
    as is :attr:`dual_bound`.
    """

    lambdas: tuple[np.ndarray, ...]
    taus: tuple[float, ...]
    verdict: Verdict
    stationarity: StationarityReport
    tol_psd: float
    tol_tau: float
    gap_bound: float
    _problem: OtsmProblem = field(repr=False, compare=False)
    _point: BlockOrthogonal = field(repr=False, compare=False)

    @cached_property
    def lmin_full(self) -> float:
        """Smallest eigenvalue of the certificate matrix L*.

        Computed on first read, with one dense ``eigvalsh`` of L* built
        from the report's ``lambdas`` and ``taus``, and kept.  The verdict
        does not read it.
        """
        stilde = assemble_stilde(self._problem)
        full = _certificate_from(stilde, self._point, self.lambdas, self.taus)
        return float(np.linalg.eigvalsh(full)[0])

    @cached_property
    def dual_bound(self) -> float:
        """:func:`dual_upper_bound` of the problem, computed on first read and kept."""
        return dual_upper_bound(self._problem)


def _taus(lams):
    """Smallest eigenvalue of each symmetrized multiplier."""
    return [float(np.linalg.eigvalsh((lam + lam.T) / 2.0)[0]) for lam in lams]


def _multiplier_block(o, lam, tau):
    """``O L O^T + tau (I - O O^T)`` for the symmetrized ``lam``, symmetric."""
    lam_sym = (lam + lam.T) / 2.0
    blk = o @ lam_sym @ o.T + tau * (np.eye(o.shape[0]) - o @ o.T)
    return (blk + blk.T) / 2.0


def _certificate_from(stilde, point, lams, taus):
    """Turn an assembled ``stilde`` into L* in place, symmetrizing ``lams``."""
    off = point.dims.offsets()
    full = np.negative(stilde, out=stilde)
    for i, o in enumerate(point.blocks):
        rows = slice(off[i], off[i + 1])
        full[rows, rows] += _multiplier_block(o, lams[i], taus[i])
    return full


def certificate_matrix(problem, point) -> np.ndarray:
    """The D x D certificate matrix L* at a feasible point.

    Positive semidefiniteness of L* at a stationary point certifies
    global optimality.  The multipliers are symmetrized before use; the
    caller is responsible for checking stationarity (see
    :func:`otsm.core.stationarity`) — far from stationarity L* carries no
    meaning.
    """
    lams = lagrange_multipliers(problem, point)
    return _certificate_from(assemble_stilde(problem), point, lams, _taus(lams))


def reduced_certificate(problem, point) -> np.ndarray:
    """Restriction of L* to the orthogonal complement of the stacked point.

    At stationary points the stacked, scaled matrix
    ``Obar = stack(point) / sqrt(m)`` satisfies ``L* Obar = 0``, so
    semidefiniteness only needs testing on the (D-r)-dimensional
    complement: this returns ``Operp^T L* Operp`` for an orthonormal
    completion ``Operp``, the trailing D - r columns of a complete QR of
    the stacked point.  They span the complement of its column space
    whenever it has full column rank, which the blocks' own
    orthonormality tolerance guarantees, so the stack need not be
    orthonormal to any tighter tolerance.  A warning is emitted when the
    null identity fails, ``||L* Obar||_F > 1e-6 ||L*||_F`` (the point is
    too far from stationary for the reduction to be meaningful).
    """
    _check_match(problem, point)
    obar = point.stack() / np.sqrt(problem.dims.m)
    full = certificate_matrix(problem, point)
    null_residual = float(np.linalg.norm(full @ obar))
    if null_residual > _NULL_TOL * float(np.linalg.norm(full)):
        warnings.warn(
            f"certificate null identity ||L* Obar|| = {null_residual:.3e}; "
            f"the point is not stationary enough for the reduced test",
            stacklevel=2,
        )
    q, _ = np.linalg.qr(obar, mode="complete")
    operp = q[:, problem.dims.r :]
    reduced = operp.T @ full @ operp
    return (reduced + reduced.T) / 2.0


def _psd_within(matrix, tol) -> bool:
    """True when ``matrix + tol I`` has a Cholesky factorization.

    That is when ``lambda_min(matrix) >= -tol`` up to the factorization's
    backward error.  The diagonal of ``matrix`` is shifted in place.
    """
    matrix.flat[:: matrix.shape[0] + 1] += tol
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def _psd_by_schur(views, point, lams, taus, tol) -> bool:
    """Whether ``L* + tol I`` is positive definite for couplings ``A_i^T A_j``.

    With the views ``A_i`` and ``A = [A_1 ... A_m]``, ``L* + tol I = B - A^T A``
    for the block diagonal ``B_i = Lambda_i + A_i^T A_i + tol I``.  With
    ``B_i = C_i C_i^T`` and ``W_i = C_i^{-1} A_i^T``, it is positive definite
    exactly when every ``B_i`` and the Schur complement ``I_n - sum_i W_i^T
    W_i`` are.  A failed ``B_i`` settles it alone: ``B_i`` dominates
    ``Lambda_i + tol I``, a diagonal block of ``L* + tol I``.
    """
    schur = np.eye(views[0].shape[0])
    for a, o, lam, tau in zip(views, point.blocks, lams, taus):
        b = _multiplier_block(o, lam, tau) + a.T @ a
        b.flat[:: b.shape[0] + 1] += tol
        try:
            w = np.linalg.solve(np.linalg.cholesky(b), a.T)
        except np.linalg.LinAlgError:
            return False
        schur -= w.T @ w
    return _psd_within(schur, 0.0)


def _psd(problem, point, lams, taus, tol) -> bool:
    """:func:`_psd_within` for L*, or :func:`_psd_by_schur` where it applies."""
    factor = problem._factor
    if factor is not None and factor[1] > 0:
        return _psd_by_schur(factor[0], point, lams, taus, tol)
    return _psd_within(_certificate_from(assemble_stilde(problem), point, lams, taus), tol)


def _scale(problem, lams):
    """Bounds ``(lo, hi)`` with ``lo <= ||stilde||_2 <= hi``, from data in hand.

    ``lo`` is the largest ``|eigenvalue|`` of ``sym(sum_i L_i) / m`` for the
    raw multipliers ``lams``: these are the Ritz values of ``stilde`` on the
    span of the stacked point ``O``, because ``sum_i O_i^T O_i = m I_r``
    and ``sum_i L_i = O^T stilde O`` (a point off orthonormality by ``e``
    can raise ``lo`` by about ``e`` relative).  ``hi`` is ``||stilde||_F``,
    from the stored blocks without overflow.
    """
    total = sum(lams)
    ritz = np.linalg.eigvalsh((total + total.T) / (2.0 * problem.dims.m))
    lo = max(-float(ritz[0]), float(ritz[-1]))
    hi = math.sqrt(2.0) * math.hypot(*map(_norm, problem.sblocks.values()))
    return lo, hi


def certify(problem, point) -> CertificateReport:
    """Three-valued global-optimality verdict at a feasible point.

    The zero problem (``hi = 0``), where every point attains the optimum
    0, is CERTIFIED_GLOBAL.  Otherwise, if ``min(taus) < -tol_tau`` the
    point cannot be a global maximizer (CERTIFIED_NOT_GLOBAL).  It is
    certified (CERTIFIED_GLOBAL) when it is stationary relative to the
    problem's scale, ``r_stat <= 1e-3 * lo``, and the Cholesky
    factorization of ``L* + tol_psd I`` succeeds, that is when
    ``lambda_min(L*) >= -tol_psd`` up to the factorization's backward
    error.  Every other point is INCONCLUSIVE.

    The tolerances are ``tol_psd = 1e-6 * lo + 100 * r_stat`` and
    ``tol_tau = 1e-8 * hi + 100 * r_stat``, where ``r_stat`` is the larger
    of the gradient residual and multiplier asymmetry maxima and ``lo <=
    ||stilde||_2 <= hi`` come from the couplings and the point (see
    :func:`_scale`), never from what ran before on the problem.  Each
    verdict reads the bound that makes it harder to reach than the exact
    ``||stilde||_2`` would.  Scaling the couplings by ``c > 0`` scales both
    tolerances, and the taus, by ``c`` and keeps the verdict.  Callers who
    want another rule re-judge from ``taus``, ``stationarity`` and
    ``gap_bound``, with ``lmin_full`` on demand.

    ``gap_bound = (m r / 2) t`` bounds ``f* - f`` at the point, stationary
    or not, by weak duality whenever ``L* + t I`` is PSD.  Two shifts are
    proven with no further factorization: ``hi - min(taus)`` (clipped at
    0), because ``lambda_min(L*) >= min(taus) - ||stilde||_2``, and, where
    the verdict's Cholesky factorization succeeded, ``tol_psd``; ``t`` is
    the smaller.  It is 0 for the zero problem, scales with the couplings
    and is at most ``(m r / 2) tol_psd`` at a CERTIFIED_GLOBAL point.

    Cost: one product pass (``n D r`` work through the views, ``D^2 r``
    over the stored pairs) gives the multipliers and ``stationarity``; the
    scale costs one ``r x r`` ``eigvalsh`` and the stored pairs' norms.
    Only when the PSD test runs is ``stilde`` assembled and turned into
    ``L* + tol_psd I`` in place for one dense Cholesky factorization; on
    the factored backend with couplings ``+A_i^T A_j`` it is one Cholesky
    per block and one of an ``n x n`` Schur complement, with no D x D
    array (see :func:`_psd_by_schur`).  ``gap_bound`` costs nothing more.
    ``lmin_full`` (one ``eigvalsh`` of L*) and ``dual_bound`` are computed
    when first read.
    """
    lams, stat = _first_order(problem, point)
    taus = _taus(lams)
    lo, hi = _scale(problem, lams)
    r_stat = max(stat.max_grad_residual, stat.max_asymmetry)
    tol_psd = _PSD_BASE * lo + _RESIDUAL_FACTOR * r_stat
    tol_tau = _TAU_BASE * hi + _RESIDUAL_FACTOR * r_stat

    # lambda_min(L*) >= min(taus) - ||stilde||_2 >= min(taus) - hi.
    shift = max(0.0, hi - min(taus))
    if hi == 0.0:
        verdict = Verdict.CERTIFIED_GLOBAL
    elif min(taus) < -tol_tau:
        verdict = Verdict.CERTIFIED_NOT_GLOBAL
    elif r_stat <= _STATIONARITY_GATE * lo and _psd(problem, point, lams, taus, tol_psd):
        verdict = Verdict.CERTIFIED_GLOBAL
        shift = min(shift, tol_psd)
    else:
        verdict = Verdict.INCONCLUSIVE

    return CertificateReport(
        lambdas=tuple(lams),
        taus=tuple(taus),
        verdict=verdict,
        stationarity=stat,
        tol_psd=tol_psd,
        tol_tau=tol_tau,
        gap_bound=0.5 * problem.dims.m * problem.dims.r * shift,
        _problem=problem,
        _point=point,
    )


def dual_upper_bound(problem) -> float:
    """Upper bound (m/2) * r * lambda_max(stilde) on the optimal value.

    Derived from the closed-form feasible point of the semidefinite dual
    (Z = lambda_max * I, M = 0) via weak duality; no iterative SDP solve
    is involved.  Valid for every feasible point, whether or not the
    problem has been solved.

    ``lambda_max`` comes from the spectrum memoized on the problem (see
    :func:`otsm.core._spectrum`): one ``eigvalsh(stilde)`` where it holds no
    eigenvalues yet, none after a spectral start below D = 1000, whose
    ``eigh`` eigenvalues agree with ``eigvalsh`` only to rounding.
    """
    dims = problem.dims
    return 0.5 * dims.m * dims.r * float(_spectrum(problem)[1][-1])
