import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import HARD_OPT, make_hard_problem, random_stiefel
from otsm.builders import (
    OlsData,
    ViewData,
    build_maxdiff,
    build_ols,
    build_procrustes,
    hard_example,
    ols_residual,
    pairwise_discrepancy,
    synth_procrustes,
)
from otsm.core import (
    BlockOrthogonal,
    ValidationError,
    assemble_stilde,
    objective,
    polar_project,
)
from otsm.solver import SolverConfig, solve


def random_views(rng, n, widths):
    return ViewData(tuple(rng.standard_normal((n, d)) for d in widths))


class TestViewData:
    def test_properties(self):
        rng = np.random.default_rng(0)
        data = random_views(rng, 7, (4, 3, 5))
        assert data.m == 3
        assert data.n == 7
        assert data.dims == (4, 3, 5)

    def test_row_mismatch_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValidationError):
            ViewData((rng.standard_normal((4, 2)), rng.standard_normal((5, 2))))

    def test_single_view_rejected(self):
        with pytest.raises(ValidationError):
            ViewData((np.eye(3),))

    def test_non_matrix_rejected(self):
        with pytest.raises(ValidationError):
            ViewData((np.ones(3), np.ones(3)))

    def test_zero_rows_rejected(self):
        with pytest.raises(ValidationError, match="need at least one sample"):
            ViewData((np.zeros((0, 3)),) * 2)

    def test_views_are_read_only(self):
        data = ViewData((np.eye(3), np.eye(3)))
        with pytest.raises(ValueError):
            data.views[0][0, 0] = 5.0


class TestOlsData:
    def test_properties(self):
        rng = np.random.default_rng(2)
        data = OlsData(
            rng.standard_normal((6, 3)),
            (rng.standard_normal((6, 3)), rng.standard_normal((6, 3))),
        )
        assert data.k == 2
        assert data.n == 6
        assert data.d == 3

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValidationError):
            OlsData(rng.standard_normal((6, 3)), (rng.standard_normal((6, 2)),))
        with pytest.raises(ValidationError):
            OlsData(rng.standard_normal((6, 3)), (rng.standard_normal((5, 3)),))

    def test_empty_regressors_rejected(self):
        with pytest.raises(ValidationError):
            OlsData(np.eye(3), ())

    def test_zero_rows_rejected(self):
        with pytest.raises(ValidationError, match="need at least one sample"):
            OlsData(np.zeros((0, 3)), (np.zeros((0, 3)),))


class TestBuildMaxdiff:
    def test_identical_identity_views(self):
        # Two copies of I_2: the coupling is I_2 and the best rank-1
        # agreement is its top singular value, 1.
        data = ViewData((np.eye(2), np.eye(2)))
        problem = build_maxdiff(data, 1)
        assert_allclose(problem.sblocks[(0, 1)], np.eye(2))
        report = solve(problem, SolverConfig(init="spectral"))
        assert report.objective == pytest.approx(1.0, abs=1e-10)

    def test_couplings_are_cross_grams(self):
        rng = np.random.default_rng(4)
        data = random_views(rng, 9, (4, 3, 5))
        problem = build_maxdiff(data, 2)
        for i in range(3):
            for j in range(i + 1, 3):
                assert_allclose(
                    problem.coupling(i, j), data.views[i].T @ data.views[j]
                )

    def test_assembled_matrix_is_gram_minus_diagonal(self):
        # Stacking the views column-wise, the assembled coupling matrix is
        # the full Gram matrix with its diagonal blocks zeroed.
        rng = np.random.default_rng(5)
        data = random_views(rng, 8, (3, 4, 2))
        problem = build_maxdiff(data, 2)
        stacked = np.hstack(data.views)
        gram = stacked.T @ stacked
        off = problem.dims.offsets()
        for i in range(3):
            gram[off[i] : off[i + 1], off[i] : off[i + 1]] = 0.0
        assert_allclose(assemble_stilde(problem), gram, atol=1e-12)

    def test_scalar_views(self):
        data = ViewData((np.ones((4, 1)), 2 * np.ones((4, 1)), -np.ones((4, 1))))
        problem = build_maxdiff(data, 1)
        assert problem.coupling(0, 1)[0, 0] == pytest.approx(8.0)
        assert problem.coupling(0, 2)[0, 0] == pytest.approx(-4.0)

    def test_rank_above_width_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValidationError):
            build_maxdiff(random_views(rng, 5, (3, 2)), 3)


class TestBuildProcrustes:
    def test_exact_alignment_objective(self):
        # A_2 = A_1 Q is perfectly alignable: the optimum agreement equals
        # ||A_1||_F^2 and the pairwise discrepancy vanishes.
        rng = np.random.default_rng(5)
        a1 = rng.standard_normal((6, 3))
        q = polar_project(rng.standard_normal((3, 3)))
        data = ViewData((a1, a1 @ q))
        problem, offset = build_procrustes(data)
        assert problem.dims.r == 3
        assert offset == pytest.approx(2 * float(np.sum(a1 * a1)))
        report = solve(problem, SolverConfig(init="spectral"))
        assert report.objective == pytest.approx(float(np.sum(a1 * a1)), rel=1e-9)
        assert pairwise_discrepancy(data, report.solution) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_identical_views_identity_optimal(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 3))
        data = ViewData((a, a, a))
        problem, offset = build_procrustes(data)
        ident = BlockOrthogonal([np.eye(3)] * 3)
        assert pairwise_discrepancy(data, ident) == 0.0
        # Identity blocks attain the analytic optimum m(m-1)/2 * ||A||^2.
        assert objective(problem, ident) == pytest.approx(
            3 * float(np.sum(a * a)), rel=1e-12
        )

    def test_discrepancy_identity_square_blocks(self):
        # Direct evaluation matches (m-1)*offset - 2*objective when the
        # blocks are square (per-view energy is rotation invariant).
        rng = np.random.default_rng(11)
        data = random_views(rng, 5, (3, 3, 3))
        problem, offset = build_procrustes(data)
        point = BlockOrthogonal([polar_project(rng.standard_normal((3, 3))) for _ in range(3)])
        direct = pairwise_discrepancy(data, point)
        via_offset = 2 * offset - 2 * objective(problem, point)
        assert direct == pytest.approx(via_offset, rel=1e-12)

    def test_partial_rank_discrepancy_is_direct_only(self):
        # With r < d the offset shortcut is wrong; the direct sum is the
        # ground truth the helper must match.
        rng = np.random.default_rng(12)
        data = random_views(rng, 6, (4, 4, 4))
        problem, offset = build_procrustes(data, r=2)
        point = BlockOrthogonal([random_stiefel(rng, 4, 2) for _ in range(3)])
        direct = pairwise_discrepancy(data, point)
        rotated = [a @ o for a, o in zip(data.views, point.blocks)]
        brute = sum(
            float(np.sum((rotated[i] - rotated[j]) ** 2))
            for i in range(3)
            for j in range(i + 1, 3)
        )
        assert direct == pytest.approx(brute, rel=1e-12)
        assert direct != pytest.approx(2 * offset - 2 * objective(problem, point))

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValidationError):
            build_procrustes(random_views(rng, 5, (3, 4)))

    def test_discrepancy_dim_mismatch_rejected(self):
        rng = np.random.default_rng(14)
        data = random_views(rng, 5, (3, 3))
        point = BlockOrthogonal([np.eye(4, 2), np.eye(4, 2)])
        with pytest.raises(ValidationError):
            pairwise_discrepancy(data, point)


class TestBuildOls:
    def test_single_regressor_exact(self):
        # K=1 with Y = A_1 Q: the augmented solve recovers Q exactly and
        # the fit residual vanishes (closed form: polar of A_1^T Y).
        rng = np.random.default_rng(17)
        a1 = rng.standard_normal((8, 4))
        q = polar_project(rng.standard_normal((4, 4)))
        data = OlsData(a1 @ q, (a1,))
        problem, recover = build_ols(data)
        assert problem.dims.dims == (4, 4)
        assert problem.dims.r == 4
        assert_allclose(problem.sblocks[(0, 1)], -a1.T @ (a1 @ q))
        report = solve(problem, SolverConfig(init="spectral"))
        recovered = recover(report.solution)
        assert len(recovered) == 1
        assert_allclose(recovered[0], q, atol=1e-8)
        assert ols_residual(data, recovered) == pytest.approx(0.0, abs=1e-10)

    def test_noiseless_two_regressors(self):
        # Y = A_1 Q_1 + A_2 Q_2 exactly: recovered rotations fit Y to
        # within solver precision.
        rng = np.random.default_rng(18)
        a = [rng.standard_normal((10, 3)) for _ in range(2)]
        qs = [polar_project(rng.standard_normal((3, 3))) for _ in range(2)]
        target = a[0] @ qs[0] + a[1] @ qs[1]
        data = OlsData(target, tuple(a))
        problem, recover = build_ols(data)
        report = solve(problem, SolverConfig(init="spectral", tol=1e-10))
        recovered = recover(report.solution)
        assert ols_residual(data, recovered) <= 1e-8

    def test_zero_target_constant_criterion(self):
        # Y = 0: the fit is orthogonally invariant, so the criterion is
        # ||A_1||_F^2 / 2 at every rotation.
        rng = np.random.default_rng(19)
        a1 = rng.standard_normal((6, 3))
        data = OlsData(np.zeros((6, 3)), (a1,))
        half = 0.5 * float(np.sum(a1 * a1))
        for trial in range(5):
            q = polar_project(rng.standard_normal((3, 3)))
            assert ols_residual(data, [q]) == pytest.approx(half, rel=1e-12)

    def test_recover_validates_point(self):
        data = OlsData(np.eye(3), (np.eye(3),))
        _, recover = build_ols(data)
        with pytest.raises(ValidationError):
            recover(BlockOrthogonal([np.eye(2), np.eye(2)]))

    def test_residual_validates_rotations(self):
        data = OlsData(np.eye(3), (np.eye(3),))
        with pytest.raises(ValidationError):
            ols_residual(data, [])
        with pytest.raises(ValidationError):
            ols_residual(data, [np.eye(2)])


class TestHardExample:
    def test_blocks_match_construction(self):
        problem = hard_example(3, 2)
        reference = make_hard_problem()
        assert problem.dims == reference.dims
        for key in ((0, 1), (0, 2), (1, 2)):
            assert_allclose(problem.sblocks[key], reference.sblocks[key])

    def test_known_optimum_value(self):
        problem = hard_example(3, 2)
        assert objective(problem, BlockOrthogonal(HARD_OPT)) == pytest.approx(3.0)

    def test_blocks_full_even_when_rank_truncated(self):
        problem = hard_example(5, 2)
        assert problem.sblocks[(0, 1)].shape == (5, 5)
        assert_allclose(problem.sblocks[(0, 1)], -np.eye(5))

    def test_scalar_instance_brute_force(self):
        # d=r=1: enumerate all sign triples; the best value is 1.
        problem = hard_example(1, 1)
        best = -np.inf
        for signs in itertools.product((1.0, -1.0), repeat=3):
            point = BlockOrthogonal([np.array([[s]]) for s in signs])
            best = max(best, objective(problem, point))
        assert best == pytest.approx(1.0)
        report = solve(problem, SolverConfig(init="spectral"))
        assert report.objective == pytest.approx(1.0, abs=1e-8)

    def test_rank_above_dim_rejected(self):
        with pytest.raises(ValidationError):
            hard_example(2, 3)


class TestSynthProcrustes:
    def test_shapes_and_determinism(self):
        problem, truth = synth_procrustes(m=4, n=20, d=5, r=2, sigma=0.3, seed=42)
        assert problem.dims.dims == (5, 5, 5, 5)
        assert problem.dims.r == 2
        assert len(truth) == 4
        for rot in truth:
            assert rot.shape == (5, 5)
            assert_allclose(rot.T @ rot, np.eye(5), atol=1e-12)
        again, truth2 = synth_procrustes(m=4, n=20, d=5, r=2, sigma=0.3, seed=42)
        for key in problem.sblocks:
            assert np.array_equal(problem.sblocks[key], again.sblocks[key])
        for a, b in zip(truth, truth2):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        p1, _ = synth_procrustes(m=3, n=10, d=4, r=2, sigma=0.1, seed=1)
        p2, _ = synth_procrustes(m=3, n=10, d=4, r=2, sigma=0.1, seed=2)
        assert not np.allclose(p1.sblocks[(0, 1)], p2.sblocks[(0, 1)])

    def test_noiseless_instance_aligns_exactly(self):
        # sigma=0: views are pure rotations of one landmark set, so the
        # solve aligns them to zero discrepancy and certifies.
        problem, truth = synth_procrustes(m=5, n=40, d=4, r=4, sigma=0.0, seed=7)
        report = solve(problem, SolverConfig(init="spectral"))
        # Rebuild the views from the generator's fixed draw order to
        # evaluate the discrepancy of the solved alignment.
        rng = np.random.default_rng(7)
        landmarks = rng.standard_normal((40, 4))
        rebuilt = []
        for _ in range(5):
            rot = polar_project(rng.standard_normal((4, 4)))
            rng.standard_normal((40, 4))
            rebuilt.append(landmarks @ rot.T)
        data = ViewData(tuple(rebuilt))
        assert pairwise_discrepancy(data, report.solution) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_truth_recovered_up_to_common_factor(self):
        # At sigma=0 and r=d the aligned views L R_i^T O_i coincide, so
        # R_i^T O_i is one shared orthogonal W; pin it via block 0.
        problem, truth = synth_procrustes(m=4, n=30, d=3, r=3, sigma=0.0, seed=11)
        report = solve(problem, SolverConfig(init="spectral", tol=1e-9))
        blocks = report.solution.blocks
        common = truth[0].T @ blocks[0]
        for rot, block in zip(truth, blocks):
            assert_allclose(rot.T @ block, common, atol=1e-6)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            synth_procrustes(m=1, n=10, d=3, r=2, sigma=0.1, seed=0)
        with pytest.raises(ValidationError):
            synth_procrustes(m=3, n=0, d=3, r=2, sigma=0.1, seed=0)
        with pytest.raises(ValidationError):
            synth_procrustes(m=3, n=10, d=3, r=4, sigma=0.1, seed=0)
        with pytest.raises(ValidationError):
            synth_procrustes(m=3, n=10, d=3, r=2, sigma=-0.5, seed=0)

    def test_non_integer_sizes_rejected(self):
        with pytest.raises(ValidationError, match="m must be an integer"):
            synth_procrustes(3.9, 20, 4.5, 2.7, 0.1, 0)
        for field in ("n", "d", "r", "seed"):
            args = dict(m=3, n=20, d=4, r=2, sigma=0.1, seed=0)
            args[field] += 0.5
            with pytest.raises(ValidationError, match=f"{field} must be an integer"):
                synth_procrustes(**args)
        with pytest.raises(ValidationError, match="m must be an integer"):
            synth_procrustes(True, 20, 4, 2, 0.1, 0)
        problem, _ = synth_procrustes(np.int64(3), 20, np.int64(4), 2, 0.1, np.int64(0))
        assert problem.dims == synth_procrustes(3, 20, 4, 2, 0.1, 0)[0].dims

    def test_numpy_real_noise_accepted(self):
        problem, _ = synth_procrustes(3, 20, 4, 2, np.float32(0.1), 0)
        reference, _ = synth_procrustes(3, 20, 4, 2, float(np.float32(0.1)), 0)
        for key, block in reference.sblocks.items():
            assert np.array_equal(problem.sblocks[key], block)
        with pytest.raises(ValidationError, match="noise level must be finite"):
            synth_procrustes(3, 20, 4, 2, np.True_, 0)

    def test_non_finite_noise_and_negative_seed_rejected(self):
        for sigma in (float("nan"), float("inf"), "0.1"):
            with pytest.raises(ValidationError, match="noise level must be finite"):
                synth_procrustes(3, 20, 4, 2, sigma, 0)
        with pytest.raises(ValidationError, match="seed must be nonnegative"):
            synth_procrustes(3, 20, 4, 2, 0.1, -1)
