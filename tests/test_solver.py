import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    I32,
    J32,
    assert_same_report,
    fresh_copy,
    make_hard_problem,
    random_point,
    random_problem,
)
from otsm.builders import hard_example, synth_procrustes
from otsm.core import (
    BlockDims,
    BlockOrthogonal,
    InternalError,
    OtsmProblem,
    ValidationError,
    _product,
    objective,
    polar_project,
)
from otsm.solver import (
    SolverConfig,
    StopReason,
    init_identity,
    init_spectral,
    _solve_batch,
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

    def test_step_block_reads_the_default_alpha(self):
        default = inspect.signature(step_block).parameters["alpha"].default
        assert default == SolverConfig().alpha

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

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_iter": "5"},
            {"max_iter": 2.7},
            {"max_iter": 5.0},
            {"max_iter": True},
            {"alpha": True},
            {"tol": True},
        ],
    )
    def test_wrongly_typed_values_rejected(self, bad):
        with pytest.raises(ValidationError):
            SolverConfig(**bad)

    def test_numpy_integer_max_iter_accepted(self):
        assert SolverConfig(max_iter=np.int64(7)).max_iter == 7

    def test_numpy_reals_accepted_as_float(self):
        for value in (np.int64(10), np.float32(10)):
            config = SolverConfig(alpha=value, tol=value)
            assert (config.alpha, config.tol) == (10.0, 10.0)
            assert type(config.alpha) is float and type(config.tol) is float
        for name in ("alpha", "tol"):
            with pytest.raises(ValidationError):
                SolverConfig(**{name: np.True_})


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

    @pytest.mark.parametrize(
        "bad",
        [{"i": 1.0}, {"i": True}, {"i": "1"}, {"i": -1}, {"alpha": True}, {"alpha": "1"}],
    )
    def test_wrongly_typed_arguments_rejected(self, hard_problem, bad):
        point = BlockOrthogonal([I32, J32, I32])
        args = {"i": 1, "alpha": 1000.0, **bad}
        with pytest.raises(ValidationError):
            step_block(hard_problem, point, args["i"], alpha=args["alpha"])

    def test_numpy_real_alpha_accepted(self, hard_problem):
        point = BlockOrthogonal([I32, J32, I32])
        assert np.array_equal(
            step_block(hard_problem, point, 1, alpha=np.float32(10)),
            step_block(hard_problem, point, 1, alpha=10.0),
        )
        with pytest.raises(ValidationError):
            step_block(hard_problem, point, 1, alpha=np.True_)

    def test_numpy_integer_index_accepted(self, hard_problem):
        point = BlockOrthogonal([I32, J32, I32])
        assert np.array_equal(
            step_block(hard_problem, point, np.int64(1)), step_block(hard_problem, point, 1)
        )


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
        # One cycle is m successive block steps.  The sweep and step_block
        # read G_i from the assembled matrix; the reference, _product on
        # these dense problems, sums only the stored pairs.
        prob, start = instance
        report = solve(prob, SolverConfig(alpha=alpha, init=start, max_iter=1))
        blocks = list(start.blocks)
        off = prob.dims.offsets()
        for i in range(prob.dims.m):
            g = _product(prob, np.vstack(blocks))[off[i] : off[i + 1]]
            want = polar_project(g + blocks[i] / alpha)
            blocks[i] = step_block(prob, BlockOrthogonal(blocks), i, alpha=alpha)
            assert_allclose(blocks[i], want, rtol=0.0, atol=1e-12)
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


@st.composite
def batches(draw):
    """2-6 problems of one shape (D <= 60), each solved with its own settings.

    Starts mix identity, spectral and custom points; alpha is 1, 1000 or
    inf; tol and max_iter vary, so that some items stop by MAX_ITER while
    others converge.  An item may reuse the previous item's problem, as
    the grid's two starts of one rep do.
    """
    m = draw(st.integers(2, 6))
    dims = draw(st.lists(st.integers(1, 10), min_size=m, max_size=m))
    r = draw(st.integers(1, min(dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problems, configs = [], []
    for _ in range(draw(st.integers(2, 6))):
        if problems and draw(st.booleans()):
            prob = problems[-1]
        else:
            prob = random_problem(rng, dims, r, density=draw(st.sampled_from((0.6, 1.0))))
        init = draw(st.sampled_from(("identity", "spectral", "custom")))
        configs.append(
            SolverConfig(
                alpha=draw(st.sampled_from((1.0, 1000.0, math.inf))),
                tol=draw(st.sampled_from((1e-2, 1e-5, 1e-9))),
                max_iter=draw(st.integers(1, 60)),
                init=random_point(rng, prob) if init == "custom" else init,
            )
        )
        problems.append(prob)
    return problems, configs


class TestSolveBatch:
    @_PROPERTY
    @given(batches())
    def test_batch_equals_lone_solves(self, batch):
        problems, configs = batch
        reports = _solve_batch(problems, configs)
        for prob, config, report in zip(problems, configs, reports):
            # A fresh copy: the lone solve computes its own spectral start.
            alone = solve(OtsmProblem(prob.dims, prob.sblocks), config)
            assert_same_report(report, alone)

    def test_items_stop_by_their_own_rules(self, hard_problem):
        configs = [
            SolverConfig(init="spectral"),
            SolverConfig(init="spectral", max_iter=3),
            SolverConfig(init="identity", alpha=math.inf),
        ]
        reports = _solve_batch([hard_problem] * 3, configs)
        assert [r.stop_reason for r in reports] == [
            StopReason.CONVERGED,
            StopReason.MAX_ITER,
            StopReason.CONVERGED,
        ]
        assert reports[1].iterations == 3
        for config, report in zip(configs, reports):
            assert_same_report(report, solve(hard_problem, config))

    def test_one_stacked_svd_per_block_step(self, monkeypatch):
        # Identity starts and no certificate: every SVD is a block step's.
        rng = np.random.default_rng(5)
        problems = [random_problem(rng, (4, 5, 3), 2) for _ in range(3)]
        configs = [SolverConfig(max_iter=n) for n in (4, 9, 2000)]
        calls = []
        real_svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        reports = _solve_batch(problems, configs)
        cycles = [r.iterations for r in reports]
        assert cycles[:2] == [4, 9] and cycles[2] > 9
        assert len(calls) == 3 * max(cycles) < 3 * sum(cycles)
        assert calls[0][0] == 3  # the first step stacks all three problems

    def test_mismatched_shapes_rejected(self, hard_problem):
        other = make_hard_problem(d=4)
        with pytest.raises(ValidationError, match="one shape"):
            _solve_batch([hard_problem, other], [None, None])

    def test_empty_batch(self):
        assert _solve_batch([], []) == []

    @pytest.mark.parametrize("configs", [[None], [None] * 3])
    def test_config_per_problem(self, hard_problem, configs):
        with pytest.raises(ValueError):
            _solve_batch([hard_problem] * 2, configs)
        with pytest.raises(ValueError):
            _solve_batch([], configs)

    def test_solve_holds_one_coupling_matrix(self):
        # From a given start, the only D x D array is the batch's S-tilde
        # (a problem without its views takes the dense backend).
        problem = fresh_copy(synth_procrustes(4, 50, 100, 3, 1.0, 0)[0])
        config = SolverConfig(init=init_spectral(problem))
        side = problem.dims.total_dim
        tracemalloc.start()
        try:
            solve(problem, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 8 * side * side

    def test_factored_solve_holds_no_dense_matrix(self):
        # With its views (D = 400 >= 3 n) the batch holds the 50 x 400 views
        # (an eighth of one D x D array) and arrays of n x r or D x r.
        problem, _ = synth_procrustes(4, 50, 100, 3, 1.0, 0)
        config = SolverConfig(init=init_spectral(fresh_copy(problem)))
        side = problem.dims.total_dim
        tracemalloc.start()
        try:
            solve(problem, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * 50 * side


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

    @pytest.mark.parametrize("j", range(-30, 31, 5))
    def test_broken_block_update_is_caught_at_every_scale(self, monkeypatch, j):
        # Negating the first column of u in the sixth SVD spoils one block
        # update of the second cycle; the audits must see it however small
        # or large the couplings are.
        c = 4.0**j
        prob = _scaled(synth_procrustes(4, 30, 6, 3, 1.0, 0)[0], c)
        real = np.linalg.svd
        calls = []

        def broken(a, *args, **kwargs):
            u, s, vt = real(a, *args, **kwargs)
            calls.append(a)
            if len(calls) == 6:
                u = u.copy()
                u[..., 0] *= -1.0
            return u, s, vt

        monkeypatch.setattr(np.linalg, "svd", broken)
        with pytest.raises(InternalError, match="cycle 2"):
            solve(prob, SolverConfig(alpha=1000.0 / c))

    @pytest.mark.parametrize("alpha", [1000.0, math.inf])
    @pytest.mark.parametrize("r, where", [(2, "at the start"), (1, "gain of cycle 1")])
    def test_overflow_is_a_validation_error(self, r, where, alpha):
        # With r = 2 the start's objective sums two entries of 1.7e308 and
        # overflows; with r = 1 it is one entry, and the first cycle's SVD
        # overflows instead.
        prob = OtsmProblem(BlockDims((3, 3), r), {(0, 1): np.full((3, 3), 1.7e308)})
        with np.errstate(all="ignore"), pytest.raises(ValidationError, match=where):
            solve(prob, SolverConfig(alpha=alpha))

    def test_deterministic(self, hard_problem):
        first = solve(hard_problem, SolverConfig(init="spectral"))
        second = solve(hard_problem, SolverConfig(init="spectral"))
        assert first.objective_trace == second.objective_trace
        assert first.iterations == second.iterations
        for a, b in zip(first.solution.blocks, second.solution.blocks):
            assert np.array_equal(a, b)


def _scaled(prob, c):
    """A new problem with every coupling multiplied by c and nothing memoized."""
    return OtsmProblem(prob.dims, {k: c * s for k, s in prob.sblocks.items()})


_RETRACE_PROBLEMS = {
    "hard": hard_example(3, 2),
    "procrustes": synth_procrustes(4, 30, 6, 3, 1.0, 0)[0],
    "sparse": random_problem(np.random.default_rng(5), [3, 5, 2, 4], 2, density=0.6),
}


class TestScaleRetrace:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.sampled_from(sorted(_RETRACE_PROBLEMS)),
        st.integers(-30, 30),
        st.sampled_from(("identity", "spectral")),
        st.sampled_from((1.0, 1000.0)),
    )
    @example("procrustes", -16, "identity", 1000.0)
    @example("hard", -30, "spectral", 1000.0)
    def test_scaled_solve_retraces(self, name, j, init, alpha):
        # Scaling S by a power of 4 and alpha by its inverse scales every
        # float operation of a solve exactly, so every stopping rule must
        # give the same verdict: same iterates, cycles and stop reason, and
        # exactly c times the objective trace.
        prob = _RETRACE_PROBLEMS[name]
        c = 4.0**j
        base = solve(_scaled(prob, 1.0), SolverConfig(alpha=alpha, init=init))
        report = solve(_scaled(prob, c), SolverConfig(alpha=alpha / c, init=init))
        assert all(
            np.array_equal(a, b)
            for a, b in zip(report.solution.blocks, base.solution.blocks)
        )
        assert report.iterations == base.iterations
        assert report.stop_reason is base.stop_reason
        assert tuple(f / c for f in report.objective_trace) == base.objective_trace


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
