"""The factored coupling backend of view problems against the dense one.

A problem built from views ``A_i`` (n x d_i) with ``D >= 3 n`` keeps them
and never forms S-tilde: the sweep reads ``G_i = s A_i^T (U - A_i O_i)``
and, for ``s = +1``, the certificate tests an n x n Schur complement.  Its
dense twin is the same couplings without the views (``fresh_copy``).
"""

from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import otsm.core
import otsm.solver
from conftest import fresh_copy, random_point, random_problem
from otsm.builders import OlsData, ViewData, build_maxdiff, build_ols, synth_procrustes
from otsm.certificate import (
    _certificate_from,
    _psd_by_schur,
    _psd_within,
    _scale,
    certify,
)
from otsm.core import (
    OtsmProblem,
    ValidationError,
    _product,
    assemble_stilde,
    lagrange_multipliers,
    objective,
    stationarity,
)
from otsm.solver import SolverConfig, _runs_per_batch, _solve_batch, solve, step_block

_PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def views_problem(kind, views, r):
    """``build_maxdiff`` on the views, or ``build_ols`` with the last as target."""
    if kind == "maxdiff":
        return build_maxdiff(ViewData(tuple(views)), r)
    return build_ols(OlsData(views[-1], tuple(views[:-1])))[0]


@st.composite
def view_instances(draw, kinds=("maxdiff", "ols")):
    """``(kind, views, r)`` with D <= 60 and n <= D / 3: a factored problem."""
    kind = draw(st.sampled_from(kinds))
    m = draw(st.integers(2, 6))
    if kind == "maxdiff":
        widths = draw(st.lists(st.integers(1, 10), min_size=m, max_size=m))
        r = draw(st.integers(1, min(widths)))
    else:
        widths = [draw(st.integers(1, 10))] * m
        r = widths[0]
    assume(sum(widths) >= 3)
    n = draw(st.integers(1, sum(widths) // 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    views = [scale * rng.standard_normal((n, w)) for w in widths]
    return kind, views, r


class TestAgainstDense:
    @_PROPERTY
    @given(view_instances(), st.sampled_from(("identity", "spectral", "random")),
           st.sampled_from((1.0, 1000.0)), st.integers(0, 2**32 - 1))
    def test_solve_retraces_the_dense_solve(self, instance, init, alpha, seed):
        # Finite alpha only: at alpha = inf a rank-deficient G_i (n < r)
        # leaves the polar factor to rounding on either backend.
        prob = views_problem(*instance)
        assert prob._factor is not None
        if init == "random":
            init = random_point(np.random.default_rng(seed), prob)
        config = SolverConfig(alpha=alpha, max_iter=300, init=init)
        got = solve(prob, config)
        want = solve(fresh_copy(prob), config)
        assert (got.iterations, got.stop_reason) == (want.iterations, want.stop_reason)
        a, b = np.array(got.objective_trace), np.array(want.objective_trace)
        assert np.all(np.abs(a - b) <= 1e-12 * (1.0 + np.abs(b)))

    @_PROPERTY
    @given(view_instances(kinds=("maxdiff",)), st.booleans(), st.floats(-0.5, 0.5),
           st.integers(0, 2**32 - 1))
    def test_schur_verdict_is_the_dense_verdict(self, instance, solved, shift, seed):
        prob = views_problem(*instance)
        if solved:
            point = solve(prob, SolverConfig(init="spectral", max_iter=200)).solution
        else:
            point = random_point(np.random.default_rng(seed), prob)
        report = certify(prob, point)
        lams, taus = report.lambdas, report.taus
        hi = _scale(prob, lams)[1]
        # Tolerances on both sides of -lambda_min(L*), and certify's own.
        for tol in (report.tol_psd, -report.lmin_full + shift * hi):
            if abs(report.lmin_full + tol) <= 1e-8 * hi:
                continue
            full = _certificate_from(assemble_stilde(prob), point, list(lams), taus)
            views = prob._factor[0]
            assert _psd_by_schur(views, point, lams, taus, tol) == _psd_within(full, tol)
        dense = certify(fresh_copy(prob), point)
        if abs(report.lmin_full + report.tol_psd) > 1e-8 * hi:
            assert report.verdict is dense.verdict

    @_PROPERTY
    @given(view_instances(), st.integers(0, 2**32 - 1), st.sampled_from((1.0, 1000.0)))
    def test_step_block_is_the_sweeps_first_update(self, instance, seed, alpha):
        prob = views_problem(*instance)
        start = random_point(np.random.default_rng(seed), prob)
        report = solve(prob, SolverConfig(alpha=alpha, init=start, max_iter=1))
        assert np.array_equal(
            step_block(prob, start, 0, alpha=alpha), report.solution.blocks[0]
        )


@st.composite
def coupled_problems(draw, scale=True):
    """A dense problem (random couplings, some pairs absent) or a factored
    ``build_maxdiff`` or ``build_ols`` problem, D <= 60; entries of order 1
    unless ``scale``.  Returns ``(kind, problem, views)``, ``views`` None
    when dense."""
    kind = draw(st.sampled_from(("dense", "maxdiff", "ols")))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "dense":
        widths = draw(st.lists(st.integers(1, 10), min_size=2, max_size=6))
        size = 10.0 ** draw(st.integers(-3, 3)) if scale else 1.0
        density = draw(st.sampled_from((0.3, 1.0)))
        rng = np.random.default_rng(seed)
        return kind, random_problem(rng, widths, 1, scale=size, density=density), None
    _, views, r = draw(view_instances(kinds=(kind,)))
    if not scale:
        big = max(float(np.max(np.abs(a))) for a in views)
        views = [a / big for a in views]
    prob = views_problem(kind, views, r)
    assert prob._factor is not None
    return kind, prob, views


class TestProduct:
    @_PROPERTY
    @given(coupled_problems(), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_product_is_the_assembled_product(self, instance, columns, seed):
        _, prob, _ = instance
        x = np.random.default_rng(seed).standard_normal((prob.dims.total_dim, columns))
        stilde = assemble_stilde(prob)
        err = np.linalg.norm(_product(prob, x) - stilde @ x)
        assert err <= 1e-12 * np.linalg.norm(stilde) * np.linalg.norm(x)

    @_PROPERTY
    @given(coupled_problems(scale=False), st.integers(-990, 990), st.integers(0, 2**32 - 1))
    def test_objective_scales_exactly(self, instance, k, seed):
        # Couplings times c = 2^k: dense ones directly, views by 2^(k/2)
        # for even k.  Every float operation of the product scales by c.
        kind, prob, views = instance
        if kind == "dense":
            big = OtsmProblem(prob.dims, {key: 2.0**k * s for key, s in prob.sblocks.items()})
        else:
            k -= k % 2
            big = views_problem(kind, [2.0 ** (k // 2) * a for a in views], prob.dims.r)
        point = random_point(np.random.default_rng(seed), prob)
        assert objective(big, point) == 2.0**k * objective(prob, point)


class _NoPairs(Mapping):
    """Stands in for ``sblocks``; any read of a stored pair fails."""

    def __getitem__(self, key):
        raise AssertionError(f"read the stored pair {key!r}")

    def __iter__(self):
        raise AssertionError("iterated over the stored pairs")

    def __len__(self):
        raise AssertionError("counted the stored pairs")


def test_view_problem_reads_no_stored_pair():
    # certify still reads the pairs for its scale bound ||S-tilde||_F.
    prob, _ = synth_procrustes(4, 10, 30, 3, 1.0, 0)
    dense = fresh_copy(prob)
    point = random_point(np.random.default_rng(0), prob)
    prob.sblocks = _NoPairs()
    assert objective(prob, point) == pytest.approx(objective(dense, point), rel=1e-12)
    got, want = stationarity(prob, point), stationarity(dense, point)
    assert got.grad_residuals == pytest.approx(want.grad_residuals, rel=1e-12)
    assert got.asymmetries == pytest.approx(want.asymmetries, rel=1e-12)
    lams = lagrange_multipliers(prob, point)
    for got, want in zip(lams, lagrange_multipliers(dense, point), strict=True):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    report = solve(prob, SolverConfig(init="identity"))
    assert report.iterations == solve(dense, SolverConfig(init="identity")).iterations


class TestScaleRetrace:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(view_instances(), st.integers(-30, 30),
           st.sampled_from(("identity", "spectral")), st.sampled_from((1.0, 1000.0)))
    def test_scaled_views_retrace(self, instance, j, init, alpha):
        # Views times 2^j scale the couplings by c = 4^j exactly, and with
        # alpha / c every float operation of the factored sweep too.
        kind, views, r = instance
        c = 4.0**j
        base = solve(views_problem(kind, views, r), SolverConfig(alpha=alpha, init=init))
        big = views_problem(kind, [2.0**j * a for a in views], r)
        report = solve(big, SolverConfig(alpha=alpha / c, init=init))
        assert all(
            np.array_equal(a, b)
            for a, b in zip(report.solution.blocks, base.solution.blocks)
        )
        assert (report.iterations, report.stop_reason) == (base.iterations, base.stop_reason)
        assert tuple(f / c for f in report.objective_trace) == base.objective_trace


class TestBatches:
    def test_mixed_backends_rejected(self):
        prob, _ = synth_procrustes(4, 5, 10, 2, 1.0, 0)
        assert prob._factor is not None
        with pytest.raises(ValidationError, match="one coupling backend"):
            _solve_batch([prob, fresh_copy(prob)], [None, None])
        other, _ = synth_procrustes(4, 6, 10, 2, 1.0, 1)  # same dims, n = 6
        with pytest.raises(ValidationError, match="one coupling backend"):
            _solve_batch([prob, other], [None, None])

    def test_batch_changes_no_result(self):
        problems = [synth_procrustes(4, 5, 10, 2, 1.0, s)[0] for s in range(3)]
        configs = [SolverConfig(init=init) for init in ("identity", "spectral", "identity")]
        alone = [solve(p, c) for p, c in zip(problems, configs)]
        for got, want in zip(_solve_batch(problems, configs), alone):
            assert got.objective_trace == want.objective_trace
            for a, b in zip(got.solution.blocks, want.solution.blocks):
                assert np.array_equal(a, b)

    def test_budget_counts_the_views(self):
        # 8 n D bytes per factored run against 8 D^2 per dense one.
        budget = otsm.solver._BATCH_STILDE_BYTES
        assert _runs_per_batch(40, 10) == budget // (8 * 10 * 40)
        assert _runs_per_batch(40) == _runs_per_batch(40, 14) == budget // (8 * 40 * 40)

    def test_saved_problem_runs_dense(self, tmp_path):
        from otsm.formats import load_problem, save_problem

        prob, _ = synth_procrustes(4, 5, 10, 2, 1.0, 0)
        save_problem(prob, tmp_path / "p.json")
        assert load_problem(tmp_path / "p.json")._factor is None

    def test_views_kept_only_for_the_factored_backend(self):
        assert synth_procrustes(4, 14, 10, 2, 1.0, 0)[0]._factor is None  # 3 n > D
        kept, sign = synth_procrustes(4, 13, 10, 2, 1.0, 0)[0]._factor
        assert (len(kept), kept[0].shape, sign) == (4, (13, 10), 1.0)

    def test_views_file_keeps_the_factor(self, tmp_path):
        import json

        from otsm.formats import load_problem

        views = [np.random.default_rng(k).standard_normal((5, 10)) for k in range(4)]
        path = tmp_path / "views.json"
        path.write_text(json.dumps({"r": 2, "views": [v.tolist() for v in views]}))
        prob = load_problem(path)
        kept, sign = prob._factor
        assert sign == 1.0
        assert all(np.array_equal(a, b) for a, b in zip(kept, views, strict=True))
