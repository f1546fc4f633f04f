"""Global-optimality certificates for stationary points.

A stationary point with symmetrized multipliers ``L_i`` and
``tau_i = lambda_min(L_i)`` is globally optimal if the certificate matrix

    L* = blockdiag(O_i L_i O_i^T + tau_i (I - O_i O_i^T)) - stilde

is positive semidefinite (sufficient condition); any ``tau_i < 0`` proves
the point is NOT globally optimal (necessary condition).  Between the two
lies an inconclusive region: the certificate is sufficient, not necessary.
The `certify` verdict is advisory — raw eigenvalues are always reported so
callers can re-judge with their own tolerances.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    ValidationError,
    _check_match,
    assemble_stilde,
    lagrange_multipliers,
    objective,
    stationarity,
)

__all__ = [
    "Verdict",
    "CertificateReport",
    "certificate_matrix",
    "reduced_certificate",
    "certify",
    "dual_upper_bound",
]

# Verdict tolerances are (base) + (RESIDUAL_FACTOR * measured stationarity
# error).  Eigenvalues of the multipliers and of L* move linearly with the
# distance to the underlying exact stationary point, and at mean-change
# stopping thresholds the certificate eigenvalue error is a double-digit
# multiple of the gradient residual (measured ratio ~29 on the canonical
# 3-block instance), so the factor needs headroom above that.
_PSD_BASE = 1e-6
_TAU_BASE = 1e-8
_RESIDUAL_FACTOR = 100.0

#: Tolerance scale for the reported check of the null identity L* Obar = 0.
_NULL_TOL = 1e-6


class Verdict(Enum):
    CERTIFIED_GLOBAL = "certified_global"
    CERTIFIED_NOT_GLOBAL = "certified_not_global"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CertificateReport:
    """Certification outcome at a feasible point.

    ``lambdas`` are the raw (unsymmetrized) multipliers; ``taus`` the
    smallest eigenvalues of their symmetrized versions; ``lmin_full`` and
    ``lmin_reduced`` the smallest eigenvalues of the certificate matrix
    and of its restriction to the complement of the stacked point;
    ``asymmetry`` the largest multiplier asymmetry norm.  ``tol_psd`` and
    ``tol_tau`` are the effective tolerances the verdict used.
    """

    lambdas: tuple[np.ndarray, ...]
    taus: tuple[float, ...]
    lmin_full: float
    lmin_reduced: float
    dual_bound: float
    verdict: Verdict
    asymmetry: float
    tol_psd: float
    tol_tau: float


def _symmetrized_multipliers(problem, point):
    lams = lagrange_multipliers(problem, point)
    lams_sym = [(lam + lam.T) / 2.0 for lam in lams]
    taus = [float(np.linalg.eigvalsh(ls)[0]) for ls in lams_sym]
    return lams, lams_sym, taus


def _certificate_from(stilde, point, lams_sym, taus):
    """Turn an assembled ``stilde`` into L* in place and return it."""
    dims = point.dims
    off = dims.offsets()
    full = np.negative(stilde, out=stilde)
    for i in range(dims.m):
        o = point.blocks[i]
        blk = o @ lams_sym[i] @ o.T + taus[i] * (np.eye(dims.dims[i]) - o @ o.T)
        full[off[i] : off[i + 1], off[i] : off[i + 1]] += (blk + blk.T) / 2.0
    return full


def _deflate_in_place(full, obar):
    """Overwrite L* with ``P L* P + s Q Q^T``, where ``P = I - Q Q^T``.

    ``Q`` is an orthonormal basis of the stacked point's column space (a
    thin QR of the D x r point, which need only be orthonormal to the
    blocks' validation tolerance) and ``s`` the largest Gershgorin row
    sum of L*.  On the complement of ``Q`` the result acts as the reduced
    matrix ``Operp^T L* Operp``; on ``Q`` it is ``s``, which bounds every
    eigenvalue of L* and hence of the reduced matrix (interlacing), so the
    smallest eigenvalue of the result is that of the reduced matrix.  With
    ``W = L* Q`` and ``C = Q^T W`` the result is ``L* - Q V^T - V Q^T``
    for ``V = W - Q (C + s I) / 2``: two rank-r updates, O(D^2 r).
    """
    shift = float(np.abs(full).sum(axis=1).max())
    q, _ = np.linalg.qr(obar)
    w = full @ q
    v = w - q @ ((q.T @ w + shift * np.eye(q.shape[1])) / 2.0)
    full -= np.hstack([q, v]) @ np.hstack([v, q]).T
    return full


def certificate_matrix(problem, point) -> np.ndarray:
    """The D x D certificate matrix L* at a feasible point.

    Positive semidefiniteness of L* at a stationary point certifies
    global optimality.  The multipliers are symmetrized before use; the
    caller is responsible for checking stationarity (see
    :func:`otsm.core.stationarity`) — far from stationarity L* carries no
    meaning.
    """
    _check_match(problem, point)
    _, lams_sym, taus = _symmetrized_multipliers(problem, point)
    return _certificate_from(assemble_stilde(problem), point, lams_sym, taus)


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
    null identity fails beyond tolerance (the point is too far from
    stationary for the reduction to be meaningful).
    """
    _check_match(problem, point)
    obar = point.stack() / np.sqrt(problem.dims.m)
    full = certificate_matrix(problem, point)
    null_residual = float(np.linalg.norm(full @ obar))
    if null_residual > _NULL_TOL * (1.0 + float(np.linalg.norm(full))):
        warnings.warn(
            f"certificate null identity ||L* Obar|| = {null_residual:.3e}; "
            f"the point is not stationary enough for the reduced test",
            stacklevel=2,
        )
    q, _ = np.linalg.qr(obar, mode="complete")
    operp = q[:, problem.dims.r :]
    reduced = operp.T @ full @ operp
    return (reduced + reduced.T) / 2.0


def certify(problem, point, tol_psd=None, tol_tau=None) -> CertificateReport:
    """Three-valued global-optimality verdict at a feasible point.

    Verdict logic: if ``min(taus) < -tol_tau`` the point cannot be a
    global maximizer (CERTIFIED_NOT_GLOBAL); otherwise if
    ``lambda_min(L*) >= -tol_psd`` it is one (CERTIFIED_GLOBAL); otherwise
    INCONCLUSIVE.  ``lmin_reduced``, the smallest eigenvalue of L*
    restricted to the complement of the stacked point, is reported for
    diagnosis only; the verdict does not read it.

    Default tolerances scale with the measured stationarity error at the
    point: ``tol_psd = 1e-6 * (1 + ||stilde||_2) + 100 * r_stat`` and
    ``tol_tau = 1e-8 + 100 * r_stat`` where ``r_stat`` is the larger of
    the gradient residual and multiplier asymmetry maxima.  At exact
    stationary points this reduces to the bases; at solver output
    converged to mean-change ``tol`` it absorbs the O(tol)-scale
    eigenvalue error of the approximate point.

    Cost: ``stilde`` is assembled once and three dense symmetric
    eigenvalue problems are solved, one each for ``stilde`` (its extreme
    eigenvalues give ``||stilde||_2`` and the dual bound), L* and L*
    deflated on the stacked point (for ``lmin_reduced``).  No SVD or
    complete QR of a D x D matrix is formed.
    """
    _check_match(problem, point)
    lams, lams_sym, taus = _symmetrized_multipliers(problem, point)
    asymmetry = max(float(np.linalg.norm(lam - lam.T)) for lam in lams)
    stilde = assemble_stilde(problem)
    s_eigs = np.linalg.eigvalsh(stilde)
    full = _certificate_from(stilde, point, lams_sym, taus)
    lmin_full = float(np.linalg.eigvalsh(full)[0])

    if tol_psd is None or tol_tau is None:
        stat = stationarity(problem, point)
        r_stat = max(stat.max_grad_residual, stat.max_asymmetry)
        snorm = max(-float(s_eigs[0]), float(s_eigs[-1]))
        if tol_psd is None:
            tol_psd = _PSD_BASE * (1.0 + snorm) + _RESIDUAL_FACTOR * r_stat
        if tol_tau is None:
            tol_tau = _TAU_BASE + _RESIDUAL_FACTOR * r_stat
    if tol_psd < 0 or tol_tau < 0:
        raise ValidationError(
            f"tolerances must be nonnegative, got tol_psd={tol_psd!r}, tol_tau={tol_tau!r}"
        )

    # D - r >= r >= 1, so the reduced matrix is never empty.
    obar = point.stack() / np.sqrt(problem.dims.m)
    lmin_reduced = float(np.linalg.eigvalsh(_deflate_in_place(full, obar))[0])

    if min(taus) < -tol_tau:
        verdict = Verdict.CERTIFIED_NOT_GLOBAL
    elif lmin_full >= -tol_psd:
        verdict = Verdict.CERTIFIED_GLOBAL
    else:
        verdict = Verdict.INCONCLUSIVE

    return CertificateReport(
        lambdas=tuple(lams),
        taus=tuple(taus),
        lmin_full=lmin_full,
        lmin_reduced=lmin_reduced,
        dual_bound=_dual_bound(problem.dims, float(s_eigs[-1])),
        verdict=verdict,
        asymmetry=asymmetry,
        tol_psd=float(tol_psd),
        tol_tau=float(tol_tau),
    )


def _dual_bound(dims, lam_max) -> float:
    return 0.5 * dims.m * dims.r * lam_max


def dual_upper_bound(problem) -> float:
    """Upper bound (m/2) * r * lambda_max(stilde) on the optimal value.

    Derived from the closed-form feasible point of the semidefinite dual
    (Z = lambda_max * I, M = 0) via weak duality; no iterative SDP solve
    is involved.  Valid for every feasible point, whether or not the
    problem has been solved.
    """
    lam_max = float(np.linalg.eigvalsh(assemble_stilde(problem))[-1])
    return _dual_bound(problem.dims, lam_max)
