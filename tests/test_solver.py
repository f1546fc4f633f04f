import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import I32, J32, make_hard_problem, random_point, random_problem
from otsm.core import (
    BlockDims,
    BlockOrthogonal,
    OtsmProblem,
    ValidationError,
    objective,
)
from otsm.solver import (
    SolverConfig,
    StopReason,
    init_identity,
    init_spectral,
    oscillation_demo,
    solve,
    step_block,
)


class TestConfig:
    def test_defaults(self):
        config = SolverConfig()
        assert config.alpha == 1000.0
        assert config.tol == 1e-5
        assert config.max_iter == 2000
        assert config.init == "identity"

    def test_infinite_alpha_allowed(self):
        assert math.isinf(SolverConfig(alpha=math.inf).alpha)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            SolverConfig(alpha=0.0)
        with pytest.raises(ValidationError):
            SolverConfig(alpha=-3.0)
        with pytest.raises(ValidationError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValidationError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValidationError):
            SolverConfig(init="random")


class TestInit:
    def test_identity_blocks(self):
        point = init_identity(BlockDims((3, 3, 3), 2))
        for block in point.blocks:
            assert_allclose(block, I32)
        point = init_identity(BlockDims((4, 3), 3))
        assert_allclose(point.blocks[0], np.eye(4, 3))
        assert_allclose(point.blocks[1], np.eye(3))

    def test_identity_full_rank(self):
        point = init_identity(BlockDims((2, 2), 2))
        for block in point.blocks:
            assert_allclose(block, np.eye(2))

    def test_spectral_on_zero_couplings(self):
        prob = OtsmProblem(BlockDims((3, 4, 2), 2), {})
        point = init_spectral(prob)
        assert point.orthonormality_error() <= 1e-10

    def test_spectral_rank_one_two_blocks(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(4)
        v = rng.standard_normal(6)
        prob = OtsmProblem(BlockDims((4, 6), 1), {(0, 1): np.outer(u, v)})
        report = solve(prob, SolverConfig(init="spectral"))
        sigma1 = np.linalg.norm(u) * np.linalg.norm(v)
        assert report.iterations <= 3
        assert report.objective == pytest.approx(sigma1, abs=1e-8)


class TestStepBlock:
    def test_proximal_step_from_cycle_point(self, hard_problem):
        point = BlockOrthogonal([I32, J32, I32])
        new = step_block(hard_problem, point, 0, alpha=1000.0)
        # B = (I - J) + I/1000 has a positive definite top 2x2 block, so
        # the maximizer is unique and equals the current block.
        assert_allclose(new, I32, atol=1e-12)

    def test_classical_step_attains_nuclear_norm(self, hard_problem):
        point = BlockOrthogonal([I32, J32, I32])
        new = step_block(hard_problem, point, 0, alpha=math.inf)
        b = I32 - J32
        assert float(np.sum(new * b)) == pytest.approx(2.0, abs=1e-10)

    def test_zero_couplings_fixed_point(self):
        prob = OtsmProblem(BlockDims((3, 3), 2), {})
        point = BlockOrthogonal([I32, J32])
        assert_allclose(step_block(prob, point, 1, alpha=50.0), J32, atol=1e-14)

    def test_bad_index_rejected(self, hard_problem):
        point = BlockOrthogonal([I32, J32, I32])
        with pytest.raises(ValidationError):
            step_block(hard_problem, point, 3)


class TestSolve:
    def test_identity_init_stops_at_stationary_trap(self, hard_problem):
        report = solve(hard_problem, SolverConfig(init="identity"))
        assert report.stop_reason is StopReason.CONVERGED
        assert report.iterations == 1
        assert report.objective == pytest.approx(2.0, abs=1e-12)
        assert report.stationarity.max_grad_residual <= 1e-8

    def test_spectral_init_reaches_global_value(self, hard_problem):
        report = solve(hard_problem, SolverConfig(init="spectral"))
        assert report.stop_reason is StopReason.CONVERGED
        assert report.iterations <= 2000
        assert report.objective == pytest.approx(3.0, abs=1e-4)

    def test_two_blocks_match_svd_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            s = rng.standard_normal((5, 4))
            prob = OtsmProblem(BlockDims((5, 4), 2), {(0, 1): s})
            oracle = float(np.sum(np.linalg.svd(s, compute_uv=False)[:2]))
            for init in ("identity", "spectral"):
                report = solve(prob, SolverConfig(init=init))
                assert report.objective == pytest.approx(oracle, abs=1e-6)

    def test_custom_init(self, hard_problem):
        start = BlockOrthogonal([I32, J32, I32])
        report = solve(hard_problem, SolverConfig(init=start))
        # (I, J, I) is a proximal fixed point: the solver stays put.
        assert report.iterations == 1
        assert report.objective == pytest.approx(2.0, abs=1e-12)
        for got, want in zip(report.solution.blocks, start.blocks):
            assert_allclose(got, want, atol=1e-12)

    def test_custom_init_dims_mismatch(self, hard_problem):
        start = BlockOrthogonal([np.eye(2), np.eye(2)])
        with pytest.raises(ValidationError):
            solve(hard_problem, SolverConfig(init=start))

    def test_infinite_alpha_from_cycle_point_never_descends(self, hard_problem):
        # The classical ascent from (I, J, I) has a set-valued argmax; the
        # scripted 4-cycle is one selection (validated in oscillation_demo)
        # but the SVD routine's own completion may take another.  Whatever
        # path it takes, each block update is an exact argmax, so the
        # objective can never drop below the cycle value 2.
        start = BlockOrthogonal([I32, J32, I32])
        report = solve(hard_problem, SolverConfig(alpha=math.inf, init=start))
        trace = report.objective_trace
        assert trace[0] == pytest.approx(2.0, abs=1e-12)
        for k in range(len(trace) - 1):
            assert trace[k + 1] >= trace[k] - 1e-12 * (1.0 + abs(trace[k]))

    def test_stagnation_guard_fires_on_unreachable_tol(self):
        # With no couplings every point is optimal and the objective is
        # frozen at zero, but each proximal cycle re-factors the blocks and
        # the reconstruction jitter (~1e-16) never reaches an impossibly
        # small tol; the guard stops the loop after ten flat cycles instead
        # of burning max_iter.
        from conftest import random_stiefel

        rng = np.random.default_rng(91)
        problem = OtsmProblem(BlockDims((4, 4, 4), 2), {})
        start = BlockOrthogonal([random_stiefel(rng, 4, 2) for _ in range(3)])
        report = solve(problem, SolverConfig(init=start, tol=1e-300, max_iter=100))
        assert report.stop_reason is StopReason.STAGNATED
        assert report.iterations == 10
        assert report.objective == 0.0
        assert all(c > 0.0 for c in report.mean_change_trace)

    def test_infinite_alpha_converges_when_unobstructed(self):
        rng = np.random.default_rng(23)
        s = rng.standard_normal((5, 4))
        prob = OtsmProblem(BlockDims((5, 4), 2), {(0, 1): s})
        report = solve(prob, SolverConfig(alpha=math.inf))
        oracle = float(np.sum(np.linalg.svd(s, compute_uv=False)[:2]))
        assert report.stop_reason is StopReason.CONVERGED
        assert report.objective == pytest.approx(oracle, abs=1e-6)

    def test_max_iter_reported(self, hard_problem):
        report = solve(hard_problem, SolverConfig(init="spectral", max_iter=5))
        assert report.stop_reason is StopReason.MAX_ITER
        assert report.iterations == 5


@st.composite
def sparse_instances(draw):
    """Random problem (some pairs absent, D <= 60) and a random start."""
    m = draw(st.integers(2, 6))
    dims = draw(st.lists(st.integers(1, 10), min_size=m, max_size=m))
    r = draw(st.integers(1, min(dims)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    density = draw(st.sampled_from((0.3, 0.6, 0.9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prob = random_problem(rng, dims, r, scale=scale, density=density)
    return prob, random_point(rng, prob)


_PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestSweepAgainstPerPair:
    @_PROPERTY
    @given(sparse_instances(), st.sampled_from((1.0, 1000.0)))
    def test_one_cycle_matches_successive_step_block(self, instance, alpha):
        # The solver's sweep reads G_i from the assembled matrix; step_block
        # sums only the stored pairs.  One cycle is m successive block steps.
        prob, start = instance
        report = solve(prob, SolverConfig(alpha=alpha, init=start, max_iter=1))
        blocks = list(start.blocks)
        for i in range(prob.dims.m):
            blocks[i] = step_block(prob, BlockOrthogonal(blocks), i, alpha=alpha)
        for got, want in zip(report.solution.blocks, blocks):
            assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @_PROPERTY
    @given(sparse_instances(), st.sampled_from(("identity", "spectral", "random")))
    def test_accumulated_objective_matches_recomputation(self, instance, init):
        prob, start = instance
        config = SolverConfig(init=start if init == "random" else init, max_iter=300)
        report = solve(prob, config)
        f = objective(prob, report.solution)
        assert abs(report.objective_trace[-1] - f) <= 1e-12 * (1.0 + abs(f))

    def test_objective_evaluated_once_per_solve(self, hard_problem, monkeypatch):
        import otsm.solver

        calls = []

        def counted(problem, point):
            calls.append(point)
            return objective(problem, point)

        monkeypatch.setattr(otsm.solver, "objective", counted)
        report = solve(hard_problem, SolverConfig(init="spectral"))
        assert report.iterations > 1
        assert len(calls) == 1
        assert report.objective_trace[0] == objective(hard_problem, calls[0])


class TestSolveAudits:
    def test_monotone_and_descent_on_hard_instance(self, hard_problem):
        report = solve(hard_problem, SolverConfig(init="spectral"))
        trace = report.objective_trace
        for k in range(len(trace) - 1):
            assert trace[k + 1] >= trace[k] - 1e-12 * (1.0 + abs(trace[k]))
            lhs = report.change_sq_trace[k] / (2.0 * 1000.0)
            assert lhs <= (trace[k + 1] - trace[k]) + 1e-10

    def test_square_summable_bound(self, hard_problem):
        report = solve(hard_problem, SolverConfig(init="spectral"))
        total = sum(c * c for c in report.mean_change_trace)
        bound = 2.0 * 1000.0 * 3 * (report.objective_trace[-1] - report.objective_trace[0])
        assert total <= bound + 1e-8

    def test_audits_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            m = int(rng.integers(2, 5))
            dims = [int(rng.integers(2, 6)) for _ in range(m)]
            r = int(rng.integers(1, min(dims) + 1))
            prob = random_problem(rng, dims, r)
            report = solve(prob, SolverConfig(init="spectral"))
            assert report.solution.orthonormality_error() <= 1e-10
            trace = report.objective_trace
            for k in range(len(trace) - 1):
                assert trace[k + 1] >= trace[k] - 1e-12 * (1.0 + abs(trace[k]))
                lhs = report.change_sq_trace[k] / 2000.0
                assert lhs <= (trace[k + 1] - trace[k]) + 1e-10

    def test_stationarity_within_tolerance_scale(self, hard_problem):
        for init in ("identity", "spectral"):
            report = solve(hard_problem, SolverConfig(init=init))
            assert report.stationarity.max_grad_residual <= 10 * 1e-5
        rng = np.random.default_rng(33)
        s = rng.standard_normal((5, 4))
        prob = OtsmProblem(BlockDims((5, 4), 2), {(0, 1): s})
        report = solve(prob)
        assert report.stationarity.max_grad_residual <= 10 * 1e-5

    def test_deterministic(self, hard_problem):
        first = solve(hard_problem, SolverConfig(init="spectral"))
        second = solve(hard_problem, SolverConfig(init="spectral"))
        assert first.objective_trace == second.objective_trace
        assert first.iterations == second.iterations
        for a, b in zip(first.solution.blocks, second.solution.blocks):
            assert np.array_equal(a, b)


class TestOscillationDemo:
    def test_cycle_structure(self):
        trace = oscillation_demo()
        assert len(trace.iterates) == 4
        assert trace.objectives == (2.0, 2.0, 2.0, 2.0)
        assert len(trace.argmax_residuals) == 12
        assert max(trace.argmax_residuals) <= 1e-10
        assert trace.fixed_point_mean_change <= 1e-12

    def test_iterates_distinct(self):
        trace = oscillation_demo()
        stacked = [it.stack() for it in trace.iterates]
        for a in range(4):
            for b in range(a + 1, 4):
                assert np.linalg.norm(stacked[a] - stacked[b]) > 0.5

    def test_cycle_is_suboptimal(self, hard_problem):
        trace = oscillation_demo()
        report = solve(hard_problem, SolverConfig(init="spectral"))
        assert report.objective > max(trace.objectives) + 0.5
