import numpy as np
import pytest

from otsm.core import BlockDims, OtsmProblem

# The 3-block identity-coupling instance (d=3, r=2) used throughout:
# S_12 = -I, S_13 = I, S_23 = I.  Its assembled coupling matrix is
# kron(M, I_3) with M = [[0,-1,1],[-1,0,1],[1,1,0]], whose spectrum is
# {1, 1, -2}; the global optimum value at rank 2 is 3.

I32 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
J32 = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])

HALF = 0.5
RT3H = np.sqrt(3.0) / 2.0

# A known global maximizer: O3 = O1 + O2, with every multiplier equal to I_2.
HARD_OPT = (
    np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
    np.array([[-HALF, RT3H], [-RT3H, -HALF], [0.0, 0.0]]),
    np.array([[HALF, RT3H], [-RT3H, HALF], [0.0, 0.0]]),
)


def make_hard_problem(d=3, r=2):
    eye = np.eye(d)
    return OtsmProblem(
        BlockDims((d, d, d), r),
        {(0, 1): -eye, (0, 2): eye, (1, 2): eye},
    )


def fresh_copy(prob):
    """A new problem object with the same couplings, nothing memoized and no
    views, so that it takes the dense coupling backend."""
    return OtsmProblem(prob.dims, prob.sblocks)


@pytest.fixture
def hard_problem():
    return make_hard_problem()


def random_stiefel(rng, d, r):
    """Orthonormal factor of a Gaussian matrix (d x r)."""
    p, _, qt = np.linalg.svd(rng.standard_normal((d, r)), full_matrices=False)
    return p @ qt


def random_problem(rng, dims, r, scale=1.0, density=1.0):
    """Random dense couplings over the given block dims."""
    m = len(dims)
    sblocks = {}
    for i in range(m):
        for j in range(i + 1, m):
            if rng.uniform() <= density:
                sblocks[(i, j)] = scale * rng.standard_normal((dims[i], dims[j]))
    return OtsmProblem(BlockDims(tuple(dims), r), sblocks)


def random_point(rng, problem):
    from otsm.core import BlockOrthogonal

    dims = problem.dims
    return BlockOrthogonal([random_stiefel(rng, d, dims.r) for d in dims.dims])


def assert_same_report(got, want):
    """Two solve reports are equal bit for bit."""
    for a, b in zip(got.solution.blocks, want.solution.blocks, strict=True):
        assert np.array_equal(a, b)
    assert got.objective_trace == want.objective_trace
    assert got.mean_change_trace == want.mean_change_trace
    assert got.change_sq_trace == want.change_sq_trace
    assert got.iterations == want.iterations
    assert got.stop_reason is want.stop_reason
    assert got.stationarity == want.stationarity
