import itertools
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import HARD_OPT, I32, J32, make_hard_problem, random_point, random_problem
from otsm.builders import synth_procrustes
from otsm.core import (
    BlockDims,
    BlockOrthogonal,
    OtsmProblem,
    ValidationError,
    assemble_stilde,
    objective,
    stationarity,
)
from otsm.certificate import (
    Verdict,
    certificate_matrix,
    certify,
    dual_upper_bound,
    reduced_certificate,
)
from otsm.solver import SolverConfig, solve


def sign_problem(rng, m, scale=1.0):
    """Random all-scalar instance: blocks are +-1, couplings are reals."""
    sblocks = {
        (i, j): scale * rng.standard_normal((1, 1))
        for i in range(m)
        for j in range(i + 1, m)
    }
    return OtsmProblem(BlockDims((1,) * m, 1), sblocks)


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
        prob, _ = synth_procrustes(6, 50, 10, 3, 1.0, 1)
        solution = solve(prob, SolverConfig(init="spectral")).solution
        rng = np.random.default_rng(0)
        point = BlockOrthogonal(
            [b + 1e-6 * rng.standard_normal(b.shape) for b in solution.blocks],
            orth_tol=1e-4,
        )
        assert point.orthonormality_error() > 1e-6
        report = certify(prob, point)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="certificate null identity")
            reduced = reduced_certificate(prob, point)
        scale = 1e-9 * (1.0 + np.linalg.norm(certificate_matrix(prob, point)))
        assert abs(np.linalg.eigvalsh(reduced)[0] - report.lmin_reduced) <= scale


class TestCertify:
    def test_hard_optimum_certified(self, hard_problem):
        report = certify(hard_problem, BlockOrthogonal(HARD_OPT))
        assert report.verdict is Verdict.CERTIFIED_GLOBAL
        assert_allclose(report.taus, (1.0, 1.0, 1.0), atol=1e-12)
        assert report.lmin_full >= -1e-10
        assert report.lmin_reduced >= -1e-10
        assert report.asymmetry <= 1e-12

    def test_cycle_point_inconclusive(self, hard_problem):
        report = certify(hard_problem, BlockOrthogonal([I32, J32, I32]))
        assert report.verdict is Verdict.INCONCLUSIVE
        assert_allclose(report.taus, (0.0, 0.0, 0.0), atol=1e-12)
        assert report.lmin_full < -0.1

    def test_identity_trap_inconclusive(self, hard_problem):
        report = certify(hard_problem, BlockOrthogonal([I32, I32, I32]))
        assert report.verdict is Verdict.INCONCLUSIVE
        assert min(report.taus) >= -1e-12

    def test_negative_tau_is_not_global(self):
        prob = OtsmProblem(BlockDims((2, 2), 2), {(0, 1): -np.eye(2)})
        report = certify(prob, BlockOrthogonal([np.eye(2), np.eye(2)]))
        assert report.verdict is Verdict.CERTIFIED_NOT_GLOBAL
        assert report.taus[0] == pytest.approx(-1.0, abs=1e-12)

    def test_explicit_tolerances_respected(self, hard_problem):
        point = BlockOrthogonal([I32, J32, I32])
        report = certify(hard_problem, point, tol_psd=5.0, tol_tau=1e-8)
        assert report.verdict is Verdict.CERTIFIED_GLOBAL
        assert report.tol_psd == 5.0
        with pytest.raises(ValidationError):
            certify(hard_problem, point, tol_psd=-1.0, tol_tau=1e-8)

    def test_solver_output_certifies(self, hard_problem):
        report = solve(hard_problem, SolverConfig(init="spectral"))
        cert = certify(hard_problem, report.solution)
        assert cert.verdict is Verdict.CERTIFIED_GLOBAL


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
        assert report.dual_bound == dual_upper_bound(prob)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="certificate null identity")
            reduced = reduced_certificate(prob, point)
        scale = 1e-10 * (1.0 + np.linalg.norm(full))
        assert abs(report.lmin_reduced - np.linalg.eigvalsh(reduced)[0]) <= scale
        stat = stationarity(prob, point)
        r_stat = max(stat.max_grad_residual, stat.max_asymmetry)
        snorm = np.linalg.norm(assemble_stilde(prob), 2)
        expected_tol = 1e-6 * (1.0 + snorm) + 100.0 * r_stat
        assert report.tol_psd == pytest.approx(expected_tol, rel=1e-12)


def test_certify_dense_linalg_calls(monkeypatch):
    """certify runs three dense eigvalsh calls and no dense SVD, QR or norm."""
    prob, _ = synth_procrustes(4, 30, 12, 3, 1.0, 0)
    point = solve(prob, SolverConfig(init="spectral")).solution
    side = prob.dims.total_dim - prob.dims.r
    dense = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            outs = out if isinstance(out, tuple) else (out,)
            arrays = [a for a in args + outs if isinstance(a, np.ndarray) and a.ndim >= 2]
            if any(min(a.shape[-2:]) >= side for a in arrays):
                dense[name] += 1
            return out

        return wrapper

    for name in ("eigh", "eigvalsh", "svd", "qr", "norm"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    certify(prob, point)
    assert dense == Counter(eigvalsh=3)


class TestDualBound:
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


class TestSoundness:
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
