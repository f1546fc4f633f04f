import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    HARD_OPT,
    I32,
    J32,
    fresh_copy,
    make_hard_problem,
    random_point,
    random_problem,
    random_stiefel,
)
import otsm.core
from otsm.builders import OlsData, ViewData, ols_residual, synth_procrustes
from otsm.core import (
    BlockDims,
    BlockOrthogonal,
    OtsmProblem,
    ValidationError,
    _krylov,
    assemble_stilde,
    lagrange_multipliers,
    objective,
    polar_project,
    stationarity,
)


class TestBlockDims:
    def test_basic(self):
        dims = BlockDims((3, 4, 5), 2)
        assert dims.m == 3
        assert dims.total_dim == 12
        assert dims.offsets() == (0, 3, 7, 12)

    def test_single_block_rejected(self):
        with pytest.raises(ValidationError):
            BlockDims((3,), 1)

    def test_rank_above_min_dim_rejected(self):
        with pytest.raises(ValidationError):
            BlockDims((3, 2), 3)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            BlockDims((3, 0), 1)
        with pytest.raises(ValidationError):
            BlockDims((3, 3), 0)

    def test_non_integers_rejected(self):
        # int() would have truncated these to dims=(2, 3), r=1.
        with pytest.raises(ValidationError):
            BlockDims((2.9, 3), True)
        with pytest.raises(ValidationError):
            BlockDims((2.9, 3), 1)
        with pytest.raises(ValidationError):
            BlockDims((2, 3), 1.0)

    def test_numpy_integers_accepted(self):
        dims = BlockDims((np.int64(3), np.int32(4)), np.int64(2))
        assert dims == BlockDims((3, 4), 2)
        assert all(type(d) is int for d in dims.dims) and type(dims.r) is int

    @pytest.mark.parametrize("dims", [(1, 1), (3, 4, 5), (2,) * 7, (10, 1, 6)])
    def test_rows_are_the_consecutive_offsets(self, dims):
        bd = BlockDims(dims, 1)
        off = bd.offsets()
        assert bd.rows == tuple(slice(a, b) for a, b in zip(off, off[1:]))
        covered = np.concatenate([np.arange(bd.total_dim)[rows] for rows in bd.rows])
        assert covered.tolist() == list(range(bd.total_dim))

    def test_rows_leave_equality_hash_repr_and_replace_alone(self):
        read, fresh = BlockDims((3, 4, 5), 2), BlockDims((3, 4, 5), 2)
        before = repr(read)
        assert read.rows[1] == slice(3, 7)
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh) == before
        narrower = dataclasses.replace(read, r=1)
        assert narrower == BlockDims((3, 4, 5), 1)
        assert narrower.rows == read.rows


class TestOtsmProblem:
    def test_coupling_transpose_and_zero(self):
        rng = np.random.default_rng(0)
        s01 = rng.standard_normal((3, 4))
        prob = OtsmProblem(BlockDims((3, 4, 2), 2), {(0, 1): s01})
        assert_allclose(prob.coupling(1, 0), s01.T)
        assert_allclose(prob.coupling(0, 2), np.zeros((3, 2)))
        with pytest.raises(ValidationError):
            prob.coupling(1, 1)

    def test_pair_normalizing_onto_another_rejected(self):
        # A mapping whose keys are distinct but name the same pair: one of
        # the two couplings would otherwise be dropped without a word.
        class Pairs(dict):
            def items(self):
                return [((0, 1), np.eye(3)), ((np.int64(0), np.int64(1)), -np.eye(3))]

        with pytest.raises(ValidationError, match="twice"):
            OtsmProblem(BlockDims((3, 3), 2), Pairs())
        # Python keeps one entry for these two equal keys; the float key
        # it keeps is rejected instead of being truncated onto (0, 1).
        with pytest.raises(ValidationError):
            OtsmProblem(BlockDims((3, 3), 2), {(0.0, 1.0): np.eye(3), (0, 1): -np.eye(3)})

    @pytest.mark.parametrize("key", [(0.9, 1.9), "01", (0, 1, 7), (0,), 1, (False, True)])
    def test_malformed_key_rejected(self, key):
        with pytest.raises(ValidationError):
            OtsmProblem(BlockDims((3, 3), 2), {key: np.eye(3)})

    def test_numpy_integer_key_accepted(self):
        prob = OtsmProblem(BlockDims((3, 3), 2), {(np.int64(0), np.int32(1)): np.eye(3)})
        assert list(prob.sblocks) == [(0, 1)]
        assert all(type(i) is int for i in next(iter(prob.sblocks)))

    def test_coupling_index_out_of_range_rejected(self, hard_problem):
        # (0, 2) is stored as I; a negative index must not read a zero block.
        with pytest.raises(ValidationError):
            hard_problem.coupling(-1, 0)
        with pytest.raises(ValidationError):
            hard_problem.coupling(0, 3)
        for bad in (0.0, True, "0"):
            with pytest.raises(ValidationError):
                hard_problem.coupling(bad, 1)
        assert_allclose(hard_problem.coupling(np.int64(2), 0), np.eye(3))

    def test_bad_key_rejected(self):
        dims = BlockDims((3, 3), 2)
        with pytest.raises(ValidationError):
            OtsmProblem(dims, {(1, 0): np.eye(3)})
        with pytest.raises(ValidationError):
            OtsmProblem(dims, {(0, 2): np.eye(3)})
        # Pairs that do not come as a mapping have no keys to check.
        for sblocks in ([((0, 1), np.eye(3))], None, "01"):
            with pytest.raises(ValidationError, match="mapping"):
                OtsmProblem(dims, sblocks)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValidationError):
            OtsmProblem(BlockDims((3, 4), 2), {(0, 1): np.eye(3)})

    def test_nonfinite_rejected(self):
        s = np.eye(3)
        s[0, 0] = np.nan
        with pytest.raises(ValidationError):
            OtsmProblem(BlockDims((3, 3), 2), {(0, 1): s})

    def test_later_writes_to_the_input_change_nothing(self):
        s = np.eye(3)
        prob = OtsmProblem(BlockDims((3, 3), 2), {(0, 1): s})
        s[0, 0] = 5.0
        assert prob.sblocks[(0, 1)][0, 0] == 1.0

    def test_frozen_then_unfrozen_input_changes_nothing(self):
        # numpy lets the owner of its data be made writeable again, so a
        # read-only input is copied like any other.
        s = np.eye(3)
        s.flags.writeable = False
        view = np.eye(3)[:, :]  # read-only below, but not the owner of its data
        view.flags.writeable = False
        prob = OtsmProblem(BlockDims((3, 3, 3), 2), {(0, 1): s, (0, 2): view})
        s.flags.writeable = True
        s[0, 0] = 5.0
        assert prob.sblocks[(0, 1)][0, 0] == 1.0
        assert prob.sblocks[(0, 1)] is not s and prob.sblocks[(0, 2)] is not view

    def test_stored_blocks_are_readonly(self):
        prob = make_hard_problem()
        with pytest.raises(ValueError):
            prob.sblocks[(0, 1)][0, 0] = 5.0


class TestBlockOrthogonal:
    def test_valid_point(self):
        point = BlockOrthogonal([I32, J32, I32])
        assert point.dims == BlockDims((3, 3, 3), 2)
        assert point.orthonormality_error() <= 1e-15
        assert point.stack().shape == (9, 2)

    def test_frozen_then_unfrozen_input_changes_nothing(self):
        block = I32.copy()
        block.flags.writeable = False
        point = BlockOrthogonal([block, I32])
        block.flags.writeable = True
        block[0, 0] = 5.0
        assert point.blocks[0][0, 0] == 1.0

    def test_non_orthonormal_rejected(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            BlockOrthogonal([I32, bad])

    def test_loose_tolerance_admits_approximate_point(self):
        perturbed = I32 + 1e-6 * np.ones((3, 2))
        with pytest.raises(ValidationError):
            BlockOrthogonal([I32, perturbed])
        point = BlockOrthogonal([I32, perturbed], orth_tol=1e-4)
        assert point.orthonormality_error() > 1e-10

    def test_dims_crosscheck(self):
        with pytest.raises(ValidationError):
            BlockOrthogonal([I32, I32], dims=BlockDims((3, 3, 3), 2))

    def test_mismatched_column_counts_rejected(self):
        with pytest.raises(ValidationError):
            BlockOrthogonal([I32, np.eye(3)])


class TestAssemble:
    def test_hard_example_is_kron(self, hard_problem):
        m = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert_allclose(assemble_stilde(hard_problem), np.kron(m, np.eye(3)))

    def test_empty_couplings_give_zero(self):
        prob = OtsmProblem(BlockDims((2, 3), 1), {})
        assert_allclose(assemble_stilde(prob), np.zeros((5, 5)))

    def test_two_blocks(self):
        rng = np.random.default_rng(1)
        s01 = rng.standard_normal((2, 3))
        prob = OtsmProblem(BlockDims((2, 3), 1), {(0, 1): s01})
        full = assemble_stilde(prob)
        assert_allclose(full[:2, 2:], s01)
        assert_allclose(full[2:, :2], s01.T)
        assert_allclose(full[:2, :2], 0.0)
        assert_allclose(full[2:, 2:], 0.0)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            prob = random_problem(rng, [3, 5, 2, 4], 2, density=0.7)
            full = assemble_stilde(prob)
            assert np.array_equal(full, full.T)


class TestObjective:
    def test_hard_optimum_value(self, hard_problem):
        assert objective(hard_problem, BlockOrthogonal(HARD_OPT)) == pytest.approx(3.0, abs=1e-12)

    def test_iji_value(self, hard_problem):
        assert objective(hard_problem, BlockOrthogonal([I32, J32, I32])) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_zero_couplings(self):
        prob = OtsmProblem(BlockDims((3, 3, 3), 2), {})
        assert objective(prob, BlockOrthogonal([I32, J32, I32])) == 0.0

    def test_matches_half_quadratic_form(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            dims = [int(rng.integers(2, 6)) for _ in range(m)]
            r = int(rng.integers(1, min(dims) + 1))
            prob = random_problem(rng, dims, r, density=0.8)
            point = random_point(rng, prob)
            f = objective(prob, point)
            stacked = point.stack()
            quad = 0.5 * float(np.trace(stacked.T @ assemble_stilde(prob) @ stacked))
            assert abs(f - quad) <= 1e-10 * (1.0 + abs(f))

    def test_dims_mismatch_rejected(self, hard_problem):
        point = BlockOrthogonal([np.eye(2), np.eye(2), np.eye(2)])
        with pytest.raises(ValidationError):
            objective(hard_problem, point)


class TestPolarProject:
    def test_identity_fixed(self):
        assert_allclose(polar_project(I32), I32, atol=1e-14)

    def test_positive_scaling_invariant(self):
        assert_allclose(polar_project(2.0 * I32), I32, atol=1e-14)

    def test_rank_deficient_attains_nuclear_norm(self):
        # I - J has singular values {2, 0}; any valid polar factor attains
        # trace inner product 2, and -J is one such maximizer.
        b = I32 - J32
        out = polar_project(b)
        assert np.sum(out * b) == pytest.approx(2.0, abs=1e-10)
        assert np.sum(-J32 * b) == pytest.approx(2.0, abs=1e-12)
        assert_allclose(out.T @ out, np.eye(2), atol=1e-12)

    def test_wide_input_rejected(self):
        with pytest.raises(ValidationError):
            polar_project(np.ones((2, 3)))

    def test_von_neumann_fan_optimality(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            d = int(rng.integers(2, 7))
            r = int(rng.integers(1, d + 1))
            b = rng.standard_normal((d, r))
            best = float(np.sum(polar_project(b) * b))
            nuclear = float(np.sum(np.linalg.svd(b, compute_uv=False)))
            assert best == pytest.approx(nuclear, rel=1e-10)
            for _ in range(200):
                q = random_stiefel(rng, d, r)
                assert float(np.sum(q * b)) <= best + 1e-10

    def test_idempotent_on_orthonormal_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(2, 8))
            r = int(rng.integers(1, d + 1))
            q = random_stiefel(rng, d, r)
            assert np.linalg.norm(polar_project(q) - q) <= 1e-12


class TestLagrangeMultipliers:
    def test_hard_optimum_all_identity(self, hard_problem):
        lams = lagrange_multipliers(hard_problem, BlockOrthogonal(HARD_OPT))
        for lam in lams:
            assert_allclose(lam, np.eye(2), atol=1e-12)

    def test_iji_values(self, hard_problem):
        lams = lagrange_multipliers(hard_problem, BlockOrthogonal([I32, J32, I32]))
        assert_allclose(lams[0], np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-12)
        assert_allclose(lams[1], np.zeros((2, 2)), atol=1e-12)
        assert_allclose(lams[2], np.array([[1.0, 1.0], [1.0, 1.0]]), atol=1e-12)

    def test_zero_couplings(self):
        prob = OtsmProblem(BlockDims((3, 3, 3), 2), {})
        for lam in lagrange_multipliers(prob, BlockOrthogonal([I32, J32, I32])):
            assert_allclose(lam, np.zeros((2, 2)))


class TestStationarity:
    def test_hard_optimum_is_stationary(self, hard_problem):
        report = stationarity(hard_problem, BlockOrthogonal(HARD_OPT))
        assert report.max_grad_residual <= 1e-10
        assert report.max_asymmetry <= 1e-10

    def test_iji_is_stationary(self, hard_problem):
        report = stationarity(hard_problem, BlockOrthogonal([I32, J32, I32]))
        assert report.max_grad_residual <= 1e-10
        assert report.max_asymmetry <= 1e-10

    def test_all_identity_is_stationary(self, hard_problem):
        # The all-identity triple is the known trap for identity-style
        # initialization: it is exactly stationary at objective 2.
        point = BlockOrthogonal([I32, I32, I32])
        report = stationarity(hard_problem, point)
        assert report.max_grad_residual <= 1e-12
        assert objective(hard_problem, point) == pytest.approx(2.0)

    def test_random_point_is_not_stationary(self, hard_problem):
        rng = np.random.default_rng(7)
        report = stationarity(hard_problem, random_point(rng, hard_problem))
        assert report.max_grad_residual > 0.1

    def test_entries_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            prob = random_problem(rng, [3, 4, 5], 2)
            report = stationarity(prob, random_point(rng, prob))
            assert all(v >= 0.0 for v in report.grad_residuals)
            assert all(v >= 0.0 for v in report.asymmetries)

    @pytest.mark.parametrize("k", [-1000, -300, 0, 300, 600, 990, 1000])
    def test_scales_exactly_with_the_couplings(self, k):
        # Couplings from about 1e-301 (k = -1000) to 1e301: the residuals'
        # squares would under- or overflow unscaled, but the report stays
        # 2^k times the unscaled one, bit for bit.
        rng = np.random.default_rng(9)
        prob = random_problem(rng, [3, 4, 5], 2)
        point = random_point(rng, prob)
        scaled = OtsmProblem(
            prob.dims, {key: np.ldexp(s, k) for key, s in prob.sblocks.items()}
        )
        want = stationarity(prob, point)
        got = stationarity(scaled, point)
        assert got.grad_residuals == tuple(math.ldexp(v, k) for v in want.grad_residuals)
        assert got.asymmetries == tuple(math.ldexp(v, k) for v in want.asymmetries)


_BAD_MATRICES = {
    "ragged": [[1.0, 2.0], [3.0]],
    "non-numeric": [["a", "b"], ["c", "d"]],
    "nan": [[1.0, 0.0], [0.0, float("nan")]],
}

_INTAKES = {
    "OtsmProblem": lambda bad: OtsmProblem(BlockDims((2, 2), 1), {(0, 1): bad}),
    "BlockOrthogonal": lambda bad: BlockOrthogonal([bad, np.eye(2)]),
    "ViewData": lambda bad: ViewData((bad, np.eye(2))),
    "OlsData": lambda bad: OlsData(bad, (np.eye(2),)),
    "ols_residual": lambda bad: ols_residual(OlsData(np.eye(2), (np.eye(2),)), [bad]),
}


@pytest.mark.parametrize("intake", sorted(_INTAKES))
@pytest.mark.parametrize("kind", sorted(_BAD_MATRICES))
def test_bad_matrix_is_a_validation_error(intake, kind):
    with pytest.raises(ValidationError):
        _INTAKES[intake](_BAD_MATRICES[kind])


def planted(rng, eigenvalues):
    """A symmetric matrix with the given spectrum and random eigenvectors."""
    q = random_stiefel(rng, len(eigenvalues), len(eigenvalues))
    a = (q * eigenvalues) @ q.T
    return (a + a.T) / 2.0


@st.composite
def planted_spectra(draw):
    """(matrix, r) with D <= 80 and a spectrum of any scale, whose largest
    magnitude may be at either end."""
    d = draw(st.integers(12, 80))
    r = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    vals = np.sort(rng.uniform(-1.0, 1.0, d))[::-1].copy()
    vals[: r + 1] += draw(st.floats(0.0, 2.0))  # how far the top stands out
    vals[-3:] -= draw(st.floats(0.0, 4.0))  # and the bottom, which may dominate
    return planted(rng, scale * vals), r


def krylov(a, r, max_blocks=None):
    """core._krylov with its basis cap lifted to the whole space, or set to
    ``max_blocks`` blocks of r + 2 columns."""
    with mock.patch.multiple(
        otsm.core,
        _KRYLOV_MAX_SHARE=1.0,
        _KRYLOV_MAX_BLOCKS=a.shape[0] if max_blocks is None else max_blocks,
    ):
        return _krylov(a.__matmul__, a.shape[0], r)


def ritz_pairs(a, top, r):
    """The Ritz values of ``top``, after checking that it holds ``r``
    orthonormal columns, largest first, below ``eigh``'s top ``r`` (Cauchy
    interlacing); with ``eigh``'s eigenvalues, descending, and their size."""
    lam = np.linalg.eigvalsh(a)[::-1]
    size = float(np.max(np.abs(lam)))
    assert top.shape == (a.shape[0], r)
    assert np.linalg.norm(top.T @ top - np.eye(r)) <= 1e-12
    theta = np.sum(top * (a @ top), axis=0)
    assert np.all(np.diff(theta) <= 1e-12 * size)  # largest first
    assert np.all(theta <= lam[:r] + 1e-12 * size)
    return theta, lam, size


def sin_theta(a, top):
    """Sine of the largest angle between ``top`` and ``eigh``'s top subspace."""
    ref = np.linalg.eigh(a)[1][:, ::-1][:, : top.shape[1]]
    return np.linalg.norm(top - ref @ (ref.T @ top), 2)


class TestKrylov:
    """core._krylov, the block Krylov solve behind the spectral start from
    D = 200 on.  It always answers: with converged Ritz pairs, or with
    the top Ritz pairs of its basis at the cap."""

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(planted_spectra())
    def test_agrees_with_eigh_once_converged(self, case):
        # A cap at the whole space is often reached first at small D; then
        # only ritz_pairs' bounds hold.
        a, r = case
        top = krylov(a, r)
        theta, lam, size = ritz_pairs(a, top, r)
        residuals = np.linalg.norm(a @ top - top * theta, axis=0)
        if np.all(residuals <= 1e-10 * np.abs(theta) + 1e-14 * size):
            assert np.all(np.abs(theta - lam[:r]) <= 1e-10 * size)
            # Davis-Kahan: sin <= ||R||_F / (theta_r - lambda_{r+1}).
            if np.linalg.norm(residuals) <= 1e-8 * (theta[-1] - lam[r]):
                assert sin_theta(a, top) <= 1e-8

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_a_tie_returns_the_top_ritz_pairs(self, r):
        # lambda_r = lambda_{r+1}: no top-r subspace is unique, yet the
        # converged Ritz values are the top r eigenvalues.
        vals = np.concatenate([2.0 + 0.25 * np.arange(r)[::-1], [2.0], np.linspace(1.0, -4.0, 59 - r)])
        a = planted(np.random.default_rng(r), vals)
        theta, lam, size = ritz_pairs(a, krylov(a, r), r)
        assert np.all(np.abs(theta - lam[:r]) <= 1e-10 * size)

    def test_the_cap_returns_the_ritz_pairs_of_the_basis(self):
        # Uncapped, this iteration converges at 15 blocks.  Each smaller cap
        # returns the top Ritz pairs of a basis that the next cap extends,
        # so the Ritz values only rise, toward eigh's.
        a = planted(np.random.default_rng(5), np.linspace(1.0, -1.0, 60) ** 3)
        before = -np.inf
        for blocks in range(1, 15):
            top = krylov(a, 2, max_blocks=blocks)
            theta, lam, size = ritz_pairs(a, top, 2)
            assert np.all(theta >= before - 1e-12 * size)
            before = theta
            if blocks in (11, 12):  # the cap comes before the residual rule
                residuals = np.linalg.norm(a @ top - top * theta, axis=0)
                assert np.any(residuals > 1e-10 * np.abs(theta))
            if blocks >= 11:
                assert np.all(np.abs(theta - lam[:2]) <= 1e-10 * size)
            if blocks >= 13:
                assert sin_theta(a, top) <= 1e-8

    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_breakdown_goes_on_from_fresh_directions(self, rank):
        # Rank below the block size r + 2 = 4 (rank 0 is the zero matrix):
        # the Krylov space stops growing after the first product, and each
        # rank-deficient block is made whole from new directions.
        rng = np.random.default_rng(7)
        vals = np.zeros(40)
        vals[:rank] = [3.0, -2.0, 1.0][:rank]
        a = planted(rng, vals)
        top = krylov(a, 2)
        theta, lam, size = ritz_pairs(a, top, 2)
        assert np.all(np.abs(theta - lam[:2]) <= 1e-10 * size)
        assert np.linalg.norm(a @ top - top * theta) <= 1e-14 * max(size, 1.0)
        if rank == 3:  # lambda_2 = 1 stands clear of lambda_3 = 0
            assert sin_theta(a, top) <= 1e-8

    @pytest.mark.parametrize(("dims", "r", "full_dim", "path"), [
        pytest.param((19, 20), 1, 40, "eigh", id="below-the-krylov-size"),
        pytest.param((20, 20), 4, 40, "krylov", id="three-blocks-fit"),  # 18 of D/2 = 20 columns
        pytest.param((20, 20), 5, 40, "eigh", id="a-block-exceeds-the-cap"),  # 21 columns
        pytest.param((100, 100), 4, 1000, "krylov", id="fifteen-blocks-fit"),  # 90 of 100
        pytest.param((100, 100), 5, 1000, "eigh", id="fifteen-blocks-exceed-the-cap"),  # 105
    ])
    def test_size_alone_picks_the_path(self, monkeypatch, dims, r, full_dim, path):
        prob = random_problem(np.random.default_rng(1), dims, r)
        runs, eigh, solve = [], np.linalg.eigh, otsm.core._krylov

        def dense_eigh(a):  # the Krylov solve's own eigh are of its basis
            runs.extend(["eigh"] * (a.shape == (sum(dims),) * 2))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", dense_eigh)
        monkeypatch.setattr(otsm.core, "_krylov", lambda *a: runs.append("krylov") or solve(*a))
        monkeypatch.setattr(otsm.core, "_KRYLOV_MIN_DIM", 40)
        monkeypatch.setattr(otsm.core, "_KRYLOV_FULL_DIM", full_dim)
        assert otsm.core._spectrum(prob).shape == (sum(dims), r)
        assert runs == [path]

    @pytest.mark.parametrize(("r", "path"), [(14, "krylov"), (50, "eigh")])
    def test_dense_start_at_d_500_spans_eighs_subspace(self, monkeypatch, r, path):
        # A cap of D/2 = 250 columns holds 15 blocks of r + 2 = 16 but under
        # 5 of 52: there an unconverged Krylov start lay 0.1 to 0.97 (sin
        # theta) away from eigh's.
        prob = fresh_copy(synth_procrustes(10, 100, 50, r, 1.0, 1)[0])
        runs, solve = [], otsm.core._krylov
        monkeypatch.setattr(otsm.core, "_krylov", lambda *a: runs.append("krylov") or solve(*a))
        top = otsm.core._spectrum(prob)
        assert runs == ["krylov"] * (path == "krylov")
        assert sin_theta(assemble_stilde(prob), top) <= 1e-9
