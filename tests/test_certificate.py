import itertools
import json
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import otsm.certificate
import otsm.cli
import otsm.core
import otsm.formats
import otsm.solver
from conftest import (
    HARD_OPT,
    I32,
    J32,
    fresh_copy,
    make_hard_problem,
    random_point,
    random_problem,
)
from otsm.builders import (
    OlsData,
    ViewData,
    build_maxdiff,
    build_ols,
    hard_example,
    synth_procrustes,
)
from otsm.core import (
    BlockDims,
    BlockOrthogonal,
    OtsmProblem,
    _from_views,
    assemble_stilde,
    lagrange_multipliers,
    objective,
    stationarity,
)
from otsm.certificate import (
    Verdict,
    _frames,
    _psd_by_schur,
    _psd_within,
    _scale,
    certificate_matrix,
    certify,
    dual_upper_bound,
    reduced_certificate,
)
from otsm.solver import SolverConfig, init_spectral, solve


def sign_problem(rng, m, scale=1.0):
    """Random all-scalar instance: blocks are +-1, couplings are reals."""
    sblocks = {
        (i, j): scale * rng.standard_normal((1, 1))
        for i in range(m)
        for j in range(i + 1, m)
    }
    return OtsmProblem(BlockDims((1,) * m, 1), sblocks)


def scaled(prob, c):
    """A new problem with every coupling multiplied by c and nothing memoized."""
    return OtsmProblem(prob.dims, {k: c * s for k, s in prob.sblocks.items()})


def sign_point(bits):
    return BlockOrthogonal([np.array([[float(b)]]) for b in bits])


def enumerate_signs(m):
    for bits in itertools.product((1.0, -1.0), repeat=m):
        yield bits


class TestCertificateMatrix:
    def test_hard_optimum_structure(self, hard_problem):
        full = certificate_matrix(hard_problem, BlockOrthogonal(HARD_OPT))
        v = np.array([[1.0, 1.0, -1.0]])
        assert_allclose(full, np.kron(v.T @ v, np.eye(3)), atol=1e-12)
        eigs = np.sort(np.linalg.eigvalsh(full))
        assert_allclose(eigs[:6], 0.0, atol=1e-12)
        assert_allclose(eigs[6:], 3.0, atol=1e-12)

    def test_cycle_point_not_psd(self, hard_problem):
        full = certificate_matrix(hard_problem, BlockOrthogonal([I32, J32, I32]))
        assert np.linalg.eigvalsh(full)[0] < -0.1

    def test_zero_couplings_give_zero_matrix(self):
        prob = OtsmProblem(BlockDims((3, 3, 3), 2), {})
        full = certificate_matrix(prob, BlockOrthogonal([I32, J32, I32]))
        assert_allclose(full, np.zeros((9, 9)), atol=1e-14)

    def test_symmetric(self, hard_problem):
        rng = np.random.default_rng(41)
        full = certificate_matrix(hard_problem, random_point(rng, hard_problem))
        assert np.array_equal(full, full.T)


class TestReducedCertificate:
    def test_hard_optimum_reduced_psd(self, hard_problem):
        reduced = reduced_certificate(hard_problem, BlockOrthogonal(HARD_OPT))
        assert reduced.shape == (7, 7)
        assert np.linalg.eigvalsh(reduced)[0] >= -1e-10

    def test_cycle_point_reduced_negative(self, hard_problem):
        reduced = reduced_certificate(hard_problem, BlockOrthogonal([I32, J32, I32]))
        assert np.linalg.eigvalsh(reduced)[0] < -0.1

    def test_zero_couplings(self):
        prob = OtsmProblem(BlockDims((3, 3, 3), 2), {})
        reduced = reduced_certificate(prob, BlockOrthogonal([I32, J32, I32]))
        assert_allclose(reduced, np.zeros((7, 7)), atol=1e-14)

    def test_warns_far_from_stationarity(self, hard_problem):
        rng = np.random.default_rng(43)
        with pytest.warns(UserWarning, match="null identity"):
            reduced_certificate(hard_problem, random_point(rng, hard_problem))

    @pytest.mark.parametrize("j", range(-30, 31, 6))
    def test_null_identity_warning_is_scale_free(self, j):
        # The test compares ||L* Obar|| with ||L*||, both of which scale
        # with the couplings: a random point warns at every scale and the
        # optimum of the hard instance at none.
        c = 4.0**j
        prob, _ = synth_procrustes(4, 30, 6, 3, 1.0, 0)
        point = random_point(np.random.default_rng(7), prob)
        with pytest.warns(UserWarning, match="null identity"):
            reduced_certificate(scaled(prob, c), point)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reduced_certificate(scaled(hard_example(3, 2), c), BlockOrthogonal(HARD_OPT))

    def test_reduced_eigenvalue_matches_complement(self, hard_problem):
        # At a stationary point the stacked direction is in the kernel, so
        # the full spectrum is the reduced spectrum plus r near-zeros.
        point = BlockOrthogonal(HARD_OPT)
        full_eigs = np.sort(np.linalg.eigvalsh(certificate_matrix(hard_problem, point)))
        red_eigs = np.sort(np.linalg.eigvalsh(reduced_certificate(hard_problem, point)))
        assert_allclose(full_eigs[2:], red_eigs, atol=1e-10)

    def test_accepts_point_orthonormal_only_to_load_tolerance(self):
        # A solver output perturbed by 1e-6 is loadable (orthonormality
        # error 6.8e-6) and certify accepts it; the reduced test must too.
        # With the stacked direction nearly in the kernel of L*, its
        # spectrum is the full one without the r near-zeros.
        prob, _ = synth_procrustes(6, 50, 10, 3, 1.0, 1)
        solution = solve(prob, SolverConfig(init="spectral")).solution
        rng = np.random.default_rng(0)
        point = BlockOrthogonal(
            [b + 1e-6 * rng.standard_normal(b.shape) for b in solution.blocks],
            orth_tol=1e-4,
        )
        assert point.orthonormality_error() > 1e-6
        assert certify(prob, point).verdict is Verdict.CERTIFIED_GLOBAL
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="certificate null identity")
            reduced = reduced_certificate(prob, point)
        full = certificate_matrix(prob, point)
        scale = 1e-9 * (1.0 + np.linalg.norm(full))
        assert_allclose(
            np.linalg.eigvalsh(reduced),
            np.linalg.eigvalsh(full)[prob.dims.r :],
            rtol=0.0,
            atol=scale,
        )


class TestCertify:
    def test_hard_optimum_certified(self, hard_problem):
        report = certify(hard_problem, BlockOrthogonal(HARD_OPT))
        assert report.verdict is Verdict.CERTIFIED_GLOBAL
        assert_allclose(report.taus, (1.0, 1.0, 1.0), atol=1e-12)
        assert report.lmin_full >= -1e-10
        assert report.stationarity.max_asymmetry <= 1e-12

    def test_cycle_point_inconclusive(self, hard_problem):
        report = certify(hard_problem, BlockOrthogonal([I32, J32, I32]))
        assert report.verdict is Verdict.INCONCLUSIVE
        assert_allclose(report.taus, (0.0, 0.0, 0.0), atol=1e-12)
        assert report.lmin_full < -0.1

    def test_identity_trap_inconclusive(self, hard_problem):
        report = certify(hard_problem, BlockOrthogonal([I32, I32, I32]))
        assert report.verdict is Verdict.INCONCLUSIVE
        assert min(report.taus) >= -1e-12

    def test_identity_trap_inconclusive_at_small_scale(self):
        # lmin(L*) = -c at scale c; an absolute tolerance floor certified it.
        c = 4.0**-15
        report = certify(scaled(hard_example(3, 2), c), BlockOrthogonal([I32, I32, I32]))
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.lmin_full == pytest.approx(-c, rel=1e-9)

    def test_negative_tau_is_not_global(self):
        prob = OtsmProblem(BlockDims((2, 2), 2), {(0, 1): -np.eye(2)})
        report = certify(prob, BlockOrthogonal([np.eye(2), np.eye(2)]))
        assert report.verdict is Verdict.CERTIFIED_NOT_GLOBAL
        assert report.taus[0] == pytest.approx(-1.0, abs=1e-12)

    def test_solver_output_certifies(self, hard_problem):
        report = solve(hard_problem, SolverConfig(init="spectral"))
        cert = certify(hard_problem, report.solution)
        assert cert.verdict is Verdict.CERTIFIED_GLOBAL

    def test_zero_couplings_certified(self):
        # Every point attains the optimum 0; certified before any factorization.
        prob = OtsmProblem(BlockDims((3, 3, 3), 2), {})
        report = certify(prob, BlockOrthogonal([I32, J32, I32]))
        assert report.verdict is Verdict.CERTIFIED_GLOBAL


@st.composite
def small_instances(draw):
    """A random problem with D <= 60 and a point: random or solver output."""
    m = draw(st.integers(2, 5))
    dims = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
    r = draw(st.integers(1, min(dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prob = random_problem(rng, dims, r, density=draw(st.sampled_from((0.5, 1.0))))
    if draw(st.booleans()):
        point = solve(prob, SolverConfig(init="spectral", max_iter=200)).solution
    else:
        point = random_point(rng, prob)
    return prob, point


@st.composite
def extreme_scalings(draw):
    """``(problem, scaled, point, c)``: a dense problem or a view problem
    with couplings ``+-A_i^T A_j``, D <= 60, a point, and the same
    problem with couplings times ``c = 2^k``, ``|k|`` in 990..1000 (views
    times ``2^(k/2)``), every coupling or view entry kept normal.  A solved
    point's residuals are some 1e-8 of the couplings, subnormal at
    ``2^-1000``, so solved points come only at the upper end."""
    m = draw(st.integers(2, 5))
    dims = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
    r = draw(st.integers(1, min(dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(495, 500)) * draw(st.sampled_from((-2, 2)))
    if draw(st.booleans()):
        prob = random_problem(rng, dims, r)
        big = scaled(prob, 2.0**k)
        entries = np.concatenate([np.abs(s).ravel() for s in big.sblocks.values()])
        assume(np.all((entries == 0.0) | (entries >= np.finfo(float).tiny)))
    else:
        n = draw(st.integers(1, max(1, sum(dims) // 3)))
        views = [rng.standard_normal((n, d)) for d in dims]
        sign = draw(st.sampled_from((1.0, -1.0)))
        prob = _from_views(BlockDims(tuple(dims), r), views, sign)
        big = _from_views(prob.dims, [np.ldexp(a, k // 2) for a in views], sign)
    if k > 0 and draw(st.booleans()):
        point = solve(prob, SolverConfig(init="spectral", max_iter=200)).solution
    else:
        point = random_point(rng, prob)
    return prob, big, point, 2.0**k


class TestScaleCovariance:
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(small_instances(), st.integers(-20, 20))
    def test_certify_scales_with_the_couplings(self, instance, j):
        # Multiplying by a power of 4 scales every float operation exactly,
        # square roots included, so the scaled report is exactly c times.
        prob, point = instance
        c = 4.0**j
        base = certify(scaled(prob, 1.0), point)
        report = certify(scaled(prob, c), point)
        assert report.verdict is base.verdict
        assert report.taus == tuple(c * t for t in base.taus)
        assert report.tol_psd == c * base.tol_psd
        assert report.tol_tau == c * base.tol_tau

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(extreme_scalings())
    def test_certify_scales_exactly_near_the_ends_of_the_range(self, case):
        prob, big, point, c = case
        base, report = certify(prob, point), certify(big, point)
        assert report.verdict is base.verdict
        assert report.taus == tuple(c * t for t in base.taus)
        assert (report.tol_psd, report.tol_tau, report.gap_bound) == (
            c * base.tol_psd, c * base.tol_tau, c * base.gap_bound
        )

    def test_tiny_couplings_get_the_verdict_of_unit_ones(self):
        # Unscaled, the residuals' squares vanish below about 1e-162: at
        # 1e-200 every point would look stationary, with hi = 0, and be
        # certified.
        hard = hard_example(3, 2)
        point = random_point(np.random.default_rng(0), hard)
        base = certify(hard, point)
        assert base.verdict is Verdict.INCONCLUSIVE
        for c in (1e-100, 1e-160, 1e-200):
            report = certify(scaled(hard, c), point)
            assert report.verdict is base.verdict
            assert report.gap_bound == pytest.approx(c * base.gap_bound, rel=1e-12)


def dense_scale(prob, point):
    """Reference ``(lo, hi)``: the largest |Ritz value| of S-tilde on the
    stacked point's span and ||S-tilde||_F, from the assembled matrix."""
    stilde, stack = assemble_stilde(prob), point.stack()
    ritz = np.linalg.eigvalsh(stack.T @ stilde @ stack / prob.dims.m)
    return float(np.max(np.abs(ritz))), float(np.linalg.norm(stilde))


class TestScaleBounds:
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(small_instances(), st.integers(-20, 20))
    def test_bracket_the_spectral_norm(self, instance, j):
        prob, point = instance
        c = 4.0**j
        lo, hi = _scale(prob, lagrange_multipliers(prob, point))
        snorm = np.linalg.norm(assemble_stilde(prob), 2)
        assert lo <= snorm * (1.0 + 1e-12)
        assert snorm <= hi * (1.0 + 1e-12)
        big = scaled(prob, c)
        assert _scale(big, lagrange_multipliers(big, point)) == (c * lo, c * hi)


class TestCertifyAgainstReference:
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(small_instances())
    def test_matches_dense_reference(self, instance):
        prob, point = instance
        report = certify(prob, point)
        full = certificate_matrix(prob, point)
        assert report.lmin_full == np.linalg.eigvalsh(full)[0]
        verdict_first = certify(prob, point)
        assert verdict_first.verdict is report.verdict
        assert verdict_first.lmin_full == report.lmin_full
        stat = stationarity(prob, point)
        r_stat = max(stat.max_grad_residual, stat.max_asymmetry)
        lo, hi = dense_scale(prob, point)
        # lo rounds differently through S-tilde than through the multipliers.
        assert report.tol_psd == pytest.approx(
            1e-6 * lo + 100.0 * r_stat, rel=1e-12, abs=1e-20 * hi
        )
        assert report.tol_tau == pytest.approx(1e-8 * hi + 100.0 * r_stat, rel=1e-12)


def dense_rule(prob, point, report):
    """certify's verdict decided from eigenvalues, with the report's tolerances."""
    stat = stationarity(prob, point)
    r_stat = max(stat.max_grad_residual, stat.max_asymmetry)
    stationary = r_stat <= 1e-3 * dense_scale(prob, point)[0]
    lmin = np.linalg.eigvalsh(certificate_matrix(prob, point))[0]
    if min(report.taus) < -report.tol_tau:
        return Verdict.CERTIFIED_NOT_GLOBAL
    if stationary and lmin >= -report.tol_psd:
        return Verdict.CERTIFIED_GLOBAL
    return Verdict.INCONCLUSIVE


class TestCholeskyVerdict:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(small_instances())
    def test_matches_dense_rule(self, instance):
        # Cholesky decides lmin(L*) >= -tol_psd up to its backward error, so
        # the verdicts agree away from a thin band around the edge.
        prob, point = instance
        full = certificate_matrix(prob, point)
        lmin = np.linalg.eigvalsh(full)[0]
        band = 1e-10 * (1.0 + np.linalg.norm(full))
        report = certify(prob, point)
        if abs(lmin + report.tol_psd) > band:
            assert report.verdict is dense_rule(prob, point, report)
        if lmin < 0.0 and 1e-3 * -lmin > band:
            # The shift-and-factorize step on both sides of the edge.
            assert _psd_within(certificate_matrix(prob, point), -lmin * (1.0 + 1e-3))
            assert not _psd_within(certificate_matrix(prob, point), -lmin * (1.0 - 1e-3))

    def test_edge_at_cycle_point(self, hard_problem):
        point = BlockOrthogonal([I32, J32, I32])
        lmin = np.linalg.eigvalsh(certificate_matrix(hard_problem, point))[0]
        assert _psd_within(certificate_matrix(hard_problem, point), -lmin * (1.0 + 1e-3))
        assert not _psd_within(certificate_matrix(hard_problem, point), -lmin * (1.0 - 1e-3))


def cholesky_succeeds(matrix, tol) -> bool:
    """Whether one np.linalg.cholesky of ``matrix + tol I`` succeeds."""
    shifted = matrix + tol * np.eye(len(matrix))
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


class TestPanelFactorization:
    """_psd_within factorizes a matrix wider than one panel in place, panel
    by panel, and decides as one np.linalg.cholesky does."""

    @pytest.mark.parametrize("side", [300, 600])
    def test_decides_as_one_cholesky(self, side):
        # L* at a random point: lambda_min stands well below 0.
        rng = np.random.default_rng(side)
        prob = random_problem(rng, [side // 4] * 4, 3)
        point = random_point(rng, prob)
        full = certificate_matrix(prob, point)
        lmin = np.linalg.eigvalsh(full)[0]
        assert lmin < 0.0 and side > 2 * otsm.certificate._PANEL
        for factor, want in ((1.0 + 1e-3, True), (1.0 - 1e-3, False)):
            assert cholesky_succeeds(full, -lmin * factor) is want
            assert _psd_within(full.copy(), -lmin * factor) is want

    def test_leaves_the_cholesky_factor(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((300, 300))
        a = a @ a.T
        work = a.copy()
        assert _psd_within(work, 1.0)
        want = np.linalg.cholesky(a + np.eye(300))
        assert_allclose(np.tril(work), want, rtol=0.0, atol=1e-10 * np.abs(want).max())

    def test_holds_a_fraction_of_the_matrix(self):
        side = 600
        a = np.random.default_rng(5).standard_normal((side, side))
        a = a @ a.T
        tracemalloc.start()
        try:
            assert _psd_within(a, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * side * side

    def test_schur_route_tests_each_shift_on_its_own_complement(self, monkeypatch):
        # n = 300 views: the n x n Schur complement spans three panels.  At
        # the shift where L* + t I is not PSD both of the route's tests run,
        # so the second must not read what the first consumed.
        rng = np.random.default_rng(3)
        views = [rng.standard_normal((300, 60)) for _ in range(4)]
        prob = build_maxdiff(ViewData(views), 3)
        point = random_point(rng, prob)
        frames = _frames(point, lagrange_multipliers(prob, point))
        full = certificate_matrix(prob, point)
        lmin = np.linalg.eigvalsh(full)[0]
        tested, real = [], otsm.certificate._psd_within
        monkeypatch.setattr(otsm.certificate, "_psd_within",
                            lambda a, tol: tested.append(a.copy()) or real(a, tol))
        for factor, want in ((1.0 + 1e-3, True), (1.0 - 1e-3, False)):
            tested.clear()
            assert cholesky_succeeds(full, -lmin * factor) is want
            assert _psd_by_schur(views, frames, -lmin * factor) is want
            assert [a.shape for a in tested] == [(300, 300)] * (1 if want else 2)
        assert np.array_equal(tested[0], tested[1])


def count_dense_work(monkeypatch, prob, dense_only=True):
    """Count dense numpy.linalg calls on prob's D x D matrices and S-tilde assemblies.

    An assembly is a call of the one builder of S-tilde stacks, whether
    through assemble_stilde or the solver's batch; it counts as
    ``assemble_stilde``.  A PSD test of a D x D matrix wider than one panel
    counts as ``_psd_within``: it factorizes in panels, so none of its
    numpy.linalg calls is D x D.  With ``dense_only=False`` every
    numpy.linalg call counts, whatever its size.
    """
    side = prob.dims.total_dim - prob.dims.r
    work = Counter()

    def counted(name, fn, dense_only=True):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            outs = out if isinstance(out, tuple) else (out,)
            arrays = [a for a in args + outs if isinstance(a, np.ndarray) and a.ndim >= 2]
            if not dense_only or any(min(a.shape[-2:]) >= side for a in arrays):
                work[name] += 1
            return out

        return wrapper

    for name in ("eigh", "eigvalsh", "cholesky", "svd", "qr", "norm", "solve"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name), dense_only))
    build = counted("assemble_stilde", otsm.core._stack_stilde, dense_only=False)
    monkeypatch.setattr(otsm.core, "_stack_stilde", build)
    if prob.dims.total_dim > otsm.certificate._PANEL:
        panels = counted("_psd_within", otsm.certificate._psd_within)
        monkeypatch.setattr(otsm.certificate, "_psd_within", panels)
    return work


def test_certify_dense_linalg_calls(monkeypatch):
    """On a fresh problem certify decomposes nothing of S-tilde: one Cholesky."""
    solved, _ = synth_procrustes(4, 30, 12, 3, 1.0, 0)
    point = solve(solved, SolverConfig(init="spectral")).solution
    prob = fresh_copy(solved)
    work = count_dense_work(monkeypatch, prob)
    certify(prob, point)
    assert work == Counter(cholesky=1, assemble_stilde=1)
    assert prob._spectrum is None


def test_certify_at_a_non_stationary_point_assembles_nothing(monkeypatch):
    """The stationarity gate fails before S-tilde is needed."""
    prob, _ = synth_procrustes(4, 30, 12, 3, 1.0, 0)
    point = random_point(np.random.default_rng(3), prob)
    work = count_dense_work(monkeypatch, prob)
    report = certify(prob, point)
    assert report.verdict is not Verdict.CERTIFIED_GLOBAL
    assert work == Counter()


def test_certify_dense_linalg_calls_after_spectral_solve(monkeypatch):
    """After a spectral solve certify also runs only its Cholesky."""
    prob, _ = synth_procrustes(4, 30, 12, 3, 1.0, 0)
    point = solve(prob, SolverConfig(init="spectral")).solution
    work = count_dense_work(monkeypatch, prob)
    certify(prob, point)
    assert work == Counter(cholesky=1, assemble_stilde=1)


def test_reading_lmin_full_costs_one_eigvalsh(monkeypatch):
    """lmin_full is computed on first read, with one eigvalsh of a new L*, then kept."""
    prob, _ = synth_procrustes(4, 30, 12, 3, 1.0, 0)
    point = solve(prob, SolverConfig(init="spectral")).solution
    work = count_dense_work(monkeypatch, prob)
    report = certify(prob, point)
    before = Counter(work)
    lmin = report.lmin_full
    assert work - before == Counter(eigvalsh=1, assemble_stilde=1)
    assert report.lmin_full == lmin
    assert work - before == Counter(eigvalsh=1, assemble_stilde=1)


@pytest.mark.parametrize("shape", [(4, 30, 12), (4, 10, 40), (12, 40, 10)])
def test_certify_factorizes_each_multiplier_once(monkeypatch, shape):
    """One eigh per r x r multiplier and _scale's one eigvalsh: on the dense
    backend, and on views with blocks wider and narrower than n + r."""
    m, n, d = shape
    prob, _ = synth_procrustes(m, n, d, 3, 1.0, 0)
    point = solve(prob, SolverConfig(init="spectral")).solution
    work = count_dense_work(monkeypatch, prob, dense_only=False)
    assert certify(prob, point).verdict is Verdict.CERTIFIED_GLOBAL
    assert (work["eigh"], work["eigvalsh"]) == (m, 1)


@st.composite
def frame_instances(draw):
    """A random dense or view problem with D <= 60, views of order ``10^k``,
    ``|k| <= 3``, and a random point."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 5))
    dims = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
    r = draw(st.integers(1, min(dims)))
    if draw(st.booleans()):
        prob = random_problem(rng, dims, r)
    else:
        n = draw(st.integers(1, max(1, sum(dims) // 3)))
        scale = 10.0 ** draw(st.integers(-3, 3))
        prob = build_maxdiff(ViewData(tuple(scale * rng.standard_normal((n, d)) for d in dims)), r)
    return prob, random_point(rng, prob)


class TestFrames:
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(frame_instances())
    def test_blocks_are_the_multiplier_formula(self, instance):
        # tau_i I + G_i G_i^T is O_i sym(L_i) O_i^T + tau_i (I - O_i O_i^T).
        prob, point = instance
        lams = lagrange_multipliers(prob, point)
        for o, lam, (tau, g) in zip(point.blocks, lams, _frames(point, lams), strict=True):
            sym, eye = (lam + lam.T) / 2.0, np.eye(len(o))
            want = o @ sym @ o.T + tau * (eye - o @ o.T)
            bound = 1e-12 * (1.0 + np.linalg.norm(lam))
            assert abs(tau - np.linalg.eigvalsh(sym)[0]) <= bound
            assert np.max(np.abs(tau * eye + g @ g.T - want)) <= bound
        full = certificate_matrix(prob, point)
        assert np.array_equal(full, full.T)


def count_coupling_passes(monkeypatch):
    """Count the passes over the couplings that compute G_i = sum_j S_ij O_j."""
    passes = Counter()
    product = otsm.core._product

    def counted(*args, **kwargs):
        passes["_product"] += 1
        return product(*args, **kwargs)

    monkeypatch.setattr(otsm.core, "_product", counted)
    return passes


def test_certify_makes_one_pass_over_the_couplings(monkeypatch):
    """certify computes the coupling sums once; lmin_full reuses its multipliers."""
    prob, _ = synth_procrustes(4, 30, 12, 3, 1.0, 0)
    point = solve(prob, SolverConfig(init="spectral")).solution
    passes = count_coupling_passes(monkeypatch)
    report = certify(prob, point)
    assert passes["_product"] == 1
    lmin = report.lmin_full
    assert passes["_product"] == 1
    assert report.stationarity == stationarity(prob, point)
    assert lmin == np.linalg.eigvalsh(certificate_matrix(prob, point))[0]


def test_cli_makes_minimal_passes_over_the_couplings(monkeypatch, tmp_path, capsys):
    """otsm certify makes one pass; otsm solve --certify two: the start's
    objective and the solve's final first-order pass, whose multipliers the
    certificate reuses."""
    prob, _ = synth_procrustes(4, 30, 12, 3, 1.0, 0)
    problem_path = str(tmp_path / "problem.json")
    report_path = str(tmp_path / "run.json")
    otsm.formats.save_problem(prob, problem_path)
    passes = count_coupling_passes(monkeypatch)
    code = otsm.cli.main(["solve", "--input", problem_path, "--init", "spectral",
                          "--certify", "--out", report_path])
    assert (code, passes["_product"]) == (0, 2)
    passes.clear()
    code = otsm.cli.main(["certify", "--input", problem_path,
                          "--solution", str(tmp_path / "run.solution.json"),
                          "--out", str(tmp_path / "check.json")])
    assert (code, passes["_product"]) == (0, 1)
    capsys.readouterr()


@pytest.mark.parametrize("sigma", [1.0, 10.0])
@pytest.mark.parametrize("n", [30, 10])  # D = 48: dense below 3 n, views from it on
def test_solve_report_hands_its_multipliers_to_the_certificate(n, sigma):
    """The certificate from a solve report's own first-order pass is the one
    certify computes afresh at the report's solution, field for field."""
    prob, _ = synth_procrustes(4, n, 12, 3, sigma, 0)
    assert (prob._factor is None) == (n == 30)
    for init in ("identity", "spectral"):
        report = solve(prob, SolverConfig(init=init))
        got = otsm.certificate._certify(prob, report.solution, report._lambdas,
                                        report.stationarity)
        want = certify(prob, report.solution)
        assert len(got.lambdas) == len(want.lambdas)
        for a, b in zip(got.lambdas, want.lambdas):
            assert np.array_equal(a, b)
        for field in ("taus", "verdict", "tol_psd", "tol_tau", "gap_bound", "stationarity"):
            assert getattr(got, field) == getattr(want, field), field


def test_cli_reports_decompose_nothing_beyond_the_verdict(monkeypatch, tmp_path, capsys):
    """otsm solve --init spectral --certify runs the start's eigh and the
    verdict's Cholesky, otsm certify only the Cholesky: no report field
    needs an eigenvalue of L* or S-tilde."""
    prob, _ = synth_procrustes(4, 30, 12, 3, 1.0, 0)
    problem_path = str(tmp_path / "problem.json")
    otsm.formats.save_problem(prob, problem_path)
    work = count_dense_work(monkeypatch, prob)
    code = otsm.cli.main(["solve", "--input", problem_path, "--init", "spectral",
                          "--certify", "--out", str(tmp_path / "run.json")])
    assert code == 0
    assert work.pop("assemble_stilde") <= 2
    assert work == Counter(eigh=1, cholesky=1)
    work.clear()
    code = otsm.cli.main(["certify", "--input", problem_path,
                          "--solution", str(tmp_path / "run.solution.json"),
                          "--out", str(tmp_path / "check.json")])
    assert code == 0
    assert work == Counter(cholesky=1, assemble_stilde=1)
    assert "gap bound:" in capsys.readouterr().out


def test_cli_certify_of_a_views_file_forms_no_dense_matrix(monkeypatch, tmp_path, capsys):
    rng = np.random.default_rng(0)
    problem_path = tmp_path / "views.json"
    problem_path.write_text(json.dumps(
        {"r": 3, "views": [rng.standard_normal((30, 40)).tolist() for _ in range(5)]}
    ))
    prob = otsm.formats.load_problem(problem_path)
    assert prob._factor is not None
    otsm.formats.save_solution(init_spectral(prob), tmp_path / "start.json")
    work = count_dense_work(monkeypatch, prob)
    otsm.cli.main(["certify", "--input", str(problem_path),
                   "--solution", str(tmp_path / "start.json"),
                   "--out", str(tmp_path / "check.json")])
    assert work == Counter()
    assert "gap_bound" in json.loads((tmp_path / "check.json").read_text())["certificate"]
    capsys.readouterr()


def test_spectral_pipeline_dense_work(monkeypatch):
    """A spectral solve runs one eigh, certify one Cholesky and the dual
    bound one eigvalsh, each on its own assembly."""
    prob, _ = synth_procrustes(4, 30, 12, 3, 1.0, 0)
    work = count_dense_work(monkeypatch, prob)
    certify(prob, solve(prob, SolverConfig(init="spectral")).solution)
    dual_upper_bound(prob)
    assert work == Counter(eigh=1, eigvalsh=1, cholesky=1, assemble_stilde=3)


class TestKrylovPipeline:
    """From D = 200 on a spectral start comes from the block Krylov solve."""

    @pytest.fixture(params=range(4))
    def problem(self, request):
        # Without its views: these tests pin the dense backend's work.
        prob = fresh_copy(synth_procrustes(5, 30, 200, 3, 1.0, request.param)[0])
        assert prob.dims.total_dim >= otsm.core._KRYLOV_MIN_DIM
        return prob

    def test_no_dense_decomposition(self, monkeypatch, problem):
        work = count_dense_work(monkeypatch, problem)
        certify(problem, solve(problem, SolverConfig(init="spectral")).solution)
        assert work == Counter(_psd_within=1, assemble_stilde=2)
        assert problem._spectrum.shape == (1000, 3)  # no D x D array is kept
        dual_upper_bound(problem)
        assert work == Counter(eigvalsh=1, _psd_within=1, assemble_stilde=3)

    def test_fresh_certify_runs_one_eigvalsh(self, monkeypatch):
        prob = fresh_copy(synth_procrustes(5, 30, 200, 3, 1.0, 0)[0])
        point = solve(fresh_copy(prob), SolverConfig(init="spectral")).solution
        monkeypatch.setattr(otsm.core, "_krylov", None)  # never called
        work = count_dense_work(monkeypatch, prob)
        certify(prob, point)
        assert work == Counter(_psd_within=1, assemble_stilde=1)
        dual_upper_bound(prob)
        assert work == Counter(eigvalsh=1, _psd_within=1, assemble_stilde=2)

    def test_dense_start_at_d_500_runs_krylov(self, monkeypatch):
        # The cli_roundtrip size: explicit couplings at D = 500.
        prob = fresh_copy(synth_procrustes(10, 100, 50, 3, 1.0, 0)[0])
        runs, krylov = [], otsm.core._krylov
        monkeypatch.setattr(otsm.core, "_krylov", lambda *a: runs.append(a[1:]) or krylov(*a))
        work = count_dense_work(monkeypatch, prob)
        init_spectral(prob)
        assert runs == [(500, 3)]
        assert work == Counter(assemble_stilde=1)

    def test_block_wider_than_the_basis_cap(self, monkeypatch):
        # r + 2 = 501 columns against a cap of D/2 = 500: the start uses
        # eigh as below D = 200.
        rng = np.random.default_rng(2)
        prob = OtsmProblem(BlockDims([500, 500], 499), {(0, 1): rng.standard_normal((500, 500))})
        work = count_dense_work(monkeypatch, prob)
        report = certify(prob, solve(prob, SolverConfig(init="spectral")).solution)
        assert (work["eigh"], prob._spectrum.shape) == (1, (1000, 499))
        assert report.verdict is Verdict.CERTIFIED_GLOBAL

    def test_agrees_with_the_dense_path(self, monkeypatch, problem):
        dense = fresh_copy(problem)
        monkeypatch.setattr(otsm.core, "_KRYLOV_MIN_DIM", 10**9)
        want = solve(dense, SolverConfig(init="spectral"))
        want_cert = certify(dense, want.solution)
        monkeypatch.undo()
        got = solve(problem, SolverConfig(init="spectral"))
        got_cert = certify(problem, got.solution)
        assert (got.iterations, got.stop_reason) == (want.iterations, want.stop_reason)
        assert got_cert.verdict is want_cert.verdict
        assert got.objective == pytest.approx(want.objective, rel=1e-12)
        # tol_psd = 1e-6 lo + 100 r_stat, and r_stat is a residual some 1e-5
        # of ||S-tilde||_2 at the solver's tol, so its rounding differs by
        # about 1e-11 relative between two starts that span the same
        # subspace.
        assert got_cert.tol_psd == pytest.approx(want_cert.tol_psd, rel=1e-9)

    def test_certificate_ignores_the_memo(self, problem):
        point = solve(fresh_copy(problem), SolverConfig(init="spectral")).solution
        fresh, started = fresh_copy(problem), fresh_copy(problem)
        init_spectral(started)
        assert started._spectrum.shape == (1000, 3)
        cold, warm = certify(fresh, point), certify(started, point)
        assert (warm.verdict, warm.tol_psd, warm.tol_tau) == (
            cold.verdict, cold.tol_psd, cold.tol_tau
        )


class TestFactoredPipeline:
    """TestKrylovPipeline's problems with their views: S-tilde is never formed."""

    @pytest.fixture(params=range(4))
    def problem(self, request):
        prob, _ = synth_procrustes(5, 30, 200, 3, 1.0, request.param)
        assert prob._factor is not None
        return prob

    def test_no_dense_decomposition(self, monkeypatch, problem):
        work = count_dense_work(monkeypatch, problem)
        report = certify(problem, solve(problem, SolverConfig(init="spectral")).solution)
        assert report.verdict is Verdict.CERTIFIED_GLOBAL
        assert work == Counter()
        dual_upper_bound(problem)
        assert work == Counter(eigvalsh=1, assemble_stilde=1)

    def test_fresh_certify_forms_nothing(self, monkeypatch):
        prob, _ = synth_procrustes(5, 30, 200, 3, 1.0, 0)
        point = solve(fresh_copy(prob), SolverConfig(init="spectral")).solution
        work = count_dense_work(monkeypatch, prob)
        assert certify(prob, point).verdict is Verdict.CERTIFIED_GLOBAL
        assert work == Counter()

    def test_start_without_a_ritz_gap_forms_nothing(self, monkeypatch):
        # build_ols with 249 regressors, then the target, 60 x 4 each, from
        # default_rng(0) (D = 1000, couplings -A_i^T A_j): the Krylov
        # residuals reach 1e-10 |theta| at 5e-9, above 1e-8 of the Ritz gap
        # theta_4 - theta_5, and that start is as good as any.
        rng = np.random.default_rng(0)
        regressors = [rng.standard_normal((60, 4)) for _ in range(249)]
        prob = build_ols(OlsData(rng.standard_normal((60, 4)), regressors))[0]
        side = prob.dims.total_dim
        work = count_dense_work(monkeypatch, prob)
        tracemalloc.start()
        try:
            init_spectral(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert work == Counter()
        assert peak < 8 * side * side

    def test_pipeline_holds_no_dense_matrix(self, problem):
        side = problem.dims.total_dim
        tracemalloc.start()
        try:
            certify(problem, solve(problem, SolverConfig(init="spectral")).solution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * side * side

    def test_agrees_with_the_dense_backend(self, problem):
        want = solve(fresh_copy(problem), SolverConfig(init="spectral"))
        want_cert = certify(fresh_copy(problem), want.solution)
        got = solve(problem, SolverConfig(init="spectral"))
        got_cert = certify(problem, got.solution)
        assert (got.iterations, got.stop_reason) == (want.iterations, want.stop_reason)
        assert got_cert.verdict is want_cert.verdict
        assert got.objective == pytest.approx(want.objective, rel=1e-12)


class TestSpectrumMemo:
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(small_instances())
    def test_warm_problem_certifies_as_fresh(self, instance):
        prob, point = instance
        fresh, bound_first, warm = (fresh_copy(prob) for _ in range(3))
        cold = certify(fresh, point)
        bound = dual_upper_bound(bound_first)

        start = init_spectral(warm)
        hot = certify(warm, point)
        # Neither the certificate nor the bound reads the memo: equal in
        # every call order.
        for report in (certify(bound_first, point), hot):
            assert report.verdict is cold.verdict
            assert (report.tol_psd, report.tol_tau) == (cold.tol_psd, cold.tol_tau)
        assert hot.taus == cold.taus
        assert hot.lmin_full == cold.lmin_full
        assert dual_upper_bound(warm) == dual_upper_bound(fresh) == bound
        again = init_spectral(warm)
        for a, b in zip(start.blocks, again.blocks):
            assert np.array_equal(a, b)

    def test_failed_eigh_stores_nothing(self, monkeypatch):
        prob, _ = synth_procrustes(4, 30, 12, 3, 1.0, 0)
        expected = init_spectral(fresh_copy(prob))
        eigh = np.linalg.eigh

        def fail_once(*args, **kwargs):
            monkeypatch.setattr(np.linalg, "eigh", eigh)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail_once)
        with pytest.raises(np.linalg.LinAlgError):
            init_spectral(prob)
        assert prob._spectrum is None
        retry = init_spectral(prob)
        for a, b in zip(retry.blocks, expected.blocks):
            assert np.array_equal(a, b)


class TestDualBound:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("d", [12, 40, 100])
    def test_same_bound_after_a_spectral_start(self, d, seed):
        """One eigvalsh of S-tilde per call, whatever ran on the problem
        before: a spectral start's eigh does not leak into the bound."""
        prob, _ = synth_procrustes(5, 30, d, 3, 1.0, seed)
        fresh = fresh_copy(prob)
        init_spectral(prob)
        want = 0.5 * prob.dims.m * prob.dims.r * np.linalg.eigvalsh(assemble_stilde(prob))[-1]
        assert dual_upper_bound(fresh) == dual_upper_bound(prob) == want
        assert fresh._spectrum is None

    def test_hard_example_bound_tight(self, hard_problem):
        assert dual_upper_bound(hard_problem) == pytest.approx(3.0, abs=1e-10)

    def test_zero_couplings(self):
        prob = OtsmProblem(BlockDims((3, 3, 3), 2), {})
        assert dual_upper_bound(prob) == pytest.approx(0.0, abs=1e-14)

    def test_two_block_bound_dominates_svd_sum(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            d1, d2 = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            r = int(rng.integers(1, min(d1, d2) + 1))
            s = rng.standard_normal((d1, d2))
            prob = OtsmProblem(BlockDims((d1, d2), r), {(0, 1): s})
            sigmas = np.linalg.svd(s, compute_uv=False)
            assert dual_upper_bound(prob) == pytest.approx(r * sigmas[0], rel=1e-10)
            assert dual_upper_bound(prob) >= float(np.sum(sigmas[:r])) - 1e-10

    def test_bound_dominates_feasible_points(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            dims = [int(rng.integers(1, 5)) for _ in range(m)]
            r = int(rng.integers(1, min(dims) + 1))
            prob = random_problem(rng, dims, r, density=0.8)
            point = random_point(rng, prob)
            assert dual_upper_bound(prob) >= objective(prob, point) - 1e-8


@st.composite
def random_feasible_points(draw):
    """A random feasible point of a random dense problem, D <= 60.

    At least three blocks of size two or more: with two blocks, or a
    scalar block, the stationary set can have codimension one, and a
    random point then passes the stationarity gate with probability of
    order 1e-3.
    """
    m = draw(st.integers(3, 5))
    dims = draw(st.lists(st.integers(2, 12), min_size=m, max_size=m))
    r = draw(st.integers(1, min(dims)))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prob = random_problem(rng, dims, r, scale=scale)
    return prob, random_point(rng, prob)


class TestSoundness:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(random_feasible_points())
    def test_random_points_never_certified(self, instance):
        prob, point = instance
        assert certify(prob, point).verdict is not Verdict.CERTIFIED_GLOBAL

    def test_brute_force_sign_problems(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            m = int(rng.integers(3, 6))
            prob = sign_problem(rng, m, scale=float(rng.uniform(0.5, 3.0)))
            values = {}
            for bits in enumerate_signs(m):
                values[bits] = objective(prob, sign_point(bits))
            best = max(values.values())
            for bits, value in values.items():
                report = certify(prob, sign_point(bits))
                if report.verdict is Verdict.CERTIFIED_GLOBAL:
                    assert value >= best - 1e-9 * (1.0 + abs(best))
                if report.verdict is Verdict.CERTIFIED_NOT_GLOBAL:
                    assert best > value
                if value >= best - 1e-12:
                    # A true maximizer never trips the necessary condition.
                    assert min(report.taus) >= -1e-12

    def test_null_vector_identity_at_stationary_points(self, hard_problem):
        snorm = float(np.linalg.norm(assemble_stilde(hard_problem)))
        for blocks in (HARD_OPT, (I32, J32, I32), (I32, I32, I32)):
            point = BlockOrthogonal(blocks)
            assert stationarity(hard_problem, point).max_grad_residual <= 1e-8
            full = certificate_matrix(hard_problem, point)
            obar = point.stack() / np.sqrt(3.0)
            assert np.linalg.norm(full @ obar) <= 1e-6 * (1.0 + snorm)

    def test_null_vector_identity_at_solver_outputs(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            prob = random_problem(rng, [4, 3, 5], 2)
            report = solve(prob, SolverConfig(init="spectral", tol=1e-9))
            if report.stationarity.max_grad_residual > 1e-8:
                continue
            full = certificate_matrix(prob, report.solution)
            obar = report.solution.stack() / np.sqrt(3.0)
            snorm = float(np.linalg.norm(assemble_stilde(prob)))
            assert np.linalg.norm(full @ obar) <= 1e-6 * (1.0 + snorm)

    def test_tau_shift_is_loewner_monotone(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            dims = [int(rng.integers(2, 5)) for _ in range(m)]
            r = int(rng.integers(1, min(dims) + 1))
            prob = random_problem(rng, dims, r)
            point = random_point(rng, prob)
            full = certificate_matrix(prob, point)
            lmin = np.linalg.eigvalsh(full)[0]
            # Shrinking any tau_i subtracts a PSD block projector scaled by
            # the shift, which can only pull eigenvalues down.
            off = prob.dims.offsets()
            shifted = full.copy()
            for i in range(m):
                delta = float(rng.uniform(0.0, 2.0))
                o = point.blocks[i]
                proj = np.eye(prob.dims.dims[i]) - o @ o.T
                shifted[off[i] : off[i + 1], off[i] : off[i + 1]] -= delta * proj
            assert np.linalg.eigvalsh(shifted)[0] <= lmin + 1e-12


def half_mr(prob):
    return 0.5 * prob.dims.m * prob.dims.r


class TestGapBound:
    """gap_bound = (m r / 2) t bounds f* - f for a shift t with L* + t I PSD."""

    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(st.integers(3, 6), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
    def test_covers_the_brute_force_optimum(self, m, seed, exponent):
        prob = sign_problem(np.random.default_rng(seed), m, scale=10.0**exponent)
        points = [sign_point(bits) for bits in enumerate_signs(m)]
        values = [objective(prob, point) for point in points]
        best = max(values)
        for point, f in zip(points, values):
            assert certify(prob, point).gap_bound >= best - f - 1e-8 * (1.0 + abs(f))

    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_covers_the_two_block_optimum(self, d1, d2, data):
        # The optimum is the sum of the r largest singular values of S_12.
        r = data.draw(st.integers(1, min(d1, d2)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        s = rng.standard_normal((d1, d2))
        prob = OtsmProblem(BlockDims((d1, d2), r), {(0, 1): s})
        best = float(np.sum(np.linalg.svd(s, compute_uv=False)[:r]))
        points = [
            random_point(rng, prob),
            solve(prob, SolverConfig(init="identity", max_iter=1)).solution,
            solve(prob, SolverConfig(init="spectral")).solution,
        ]
        for point in points:
            f = objective(prob, point)
            assert certify(prob, point).gap_bound >= best - f - 1e-8 * (1.0 + abs(f))

    def test_hard_example_points(self, hard_problem):
        for blocks in (HARD_OPT, (I32, J32, I32), (I32, I32, I32)):
            point = BlockOrthogonal(blocks)
            f = objective(hard_problem, point)
            assert certify(hard_problem, point).gap_bound >= 3.0 - f - 1e-12

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(small_instances(), st.integers(-40, 40))
    def test_scales_exactly(self, instance, k):
        prob, point = instance
        c = 2.0**k
        base = certify(scaled(prob, 1.0), point)
        assert certify(scaled(prob, c), point).gap_bound == c * base.gap_bound

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(st.one_of(small_instances(), random_feasible_points()))
    def test_finite_and_proven_at_every_verdict(self, instance):
        prob, point = instance
        report = certify(prob, point)
        assert math.isfinite(report.gap_bound)
        assert report.gap_bound >= 0.0
        # The shift behind the bound makes L* + t I PSD, up to the backward
        # error of the Cholesky factorization that may have proven it.
        t = report.gap_bound / half_mr(prob)
        band = 1e-10 * float(np.linalg.norm(certificate_matrix(prob, point)))
        assert report.lmin_full >= -t - band

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(small_instances())
    def test_shift_rule(self, instance):
        # t = max(0, hi - min(taus)), or tol_psd where the verdict's Cholesky
        # factorization proved that shift and it is smaller: at most tol_psd
        # at a CERTIFIED_GLOBAL point.
        prob, point = instance
        report = certify(prob, point)
        t = max(0.0, _scale(prob, report.lambdas)[1] - min(report.taus))
        if report.verdict is Verdict.CERTIFIED_GLOBAL:
            assert report.gap_bound <= half_mr(prob) * report.tol_psd
            t = min(t, report.tol_psd)
        assert report.gap_bound == half_mr(prob) * t

    def test_zero_problem(self):
        prob = OtsmProblem(BlockDims((3, 3, 3), 2), {})
        for point in (BlockOrthogonal([I32, J32, I32]),
                      random_point(np.random.default_rng(5), prob)):
            assert certify(prob, point).gap_bound == 0.0

    def test_covers_a_better_start_at_an_unconverged_certified_point(self):
        # Both starts stop at the cycle cap.  The identity start's point is
        # certified because tol_psd = 1e-6 lo + 100 r_stat is large there,
        # yet the spectral start ends higher; the gap bound says how far
        # the certified point may be from optimal, and covers the difference.
        rng = np.random.default_rng(11)
        regressors = [rng.standard_normal((30, 4)) for _ in range(20)]
        prob, _ = build_ols(OlsData(rng.standard_normal((30, 4)), regressors))
        assert (prob.dims.total_dim, prob.dims.r) == (84, 4)
        found = solve(prob, SolverConfig(alpha=1000.0, init="identity"))
        better = solve(prob, SolverConfig(alpha=1000.0, init="spectral"))
        report = certify(prob, found.solution)
        assert report.verdict is Verdict.CERTIFIED_GLOBAL
        assert found.objective == pytest.approx(1268.692870, abs=1e-6)
        assert better.objective == pytest.approx(1268.713033, abs=1e-6)
        assert report.gap_bound >= better.objective - found.objective
