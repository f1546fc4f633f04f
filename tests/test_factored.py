"""The factored coupling backend of view problems against the dense one.

A problem built from views ``A_i`` (n x d_i) with ``D >= 3 n`` keeps them
and never forms S-tilde: the sweep reads ``G_i = s A_i^T (U - A_i O_i)``
and, for ``s = +1``, the certificate tests an n x n Schur complement.  Its
dense twin is the same couplings without the views (``fresh_copy``).
"""

import math
import sys
import threading
import tracemalloc

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
def view_instances(draw, kinds=("maxdiff", "ols"), scaled=True):
    """``(kind, views, r)`` with D <= 60 and n <= D / 3: a factored problem;
    views of order ``10^k``, ``|k| <= 3``, or of order 1 unless ``scaled``."""
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
    scale = 10.0 ** draw(st.integers(-3, 3)) if scaled else 1.0
    views = [scale * rng.standard_normal((n, w)) for w in widths]
    return kind, views, r


class TestAgainstDense:
    @_PROPERTY
    @given(view_instances(scaled=False), st.sampled_from(("identity", "spectral", "random")),
           st.sampled_from((1.0, 1000.0)), st.integers(0, 2**32 - 1))
    def test_solve_retraces_the_dense_solve(self, instance, init, alpha, seed):
        # Finite alpha only: at alpha = inf a rank-deficient G_i (n < r)
        # leaves the polar factor to rounding on either backend.  Views of
        # order 1 only, since alpha and the trace tolerance are absolute:
        # with views of 1e3, 1/alpha is 1e-9 of the couplings, and stops
        # moved a cycle apart.  TestScaleRetrace covers other scales.
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


def test_view_problem_reads_no_stored_pair():
    # The spectral start's eigh assembles S-tilde from the views (D = 120 <
    # 1000); nothing in a solve plus certify forms the pairs for the problem.
    prob, _ = synth_procrustes(4, 10, 30, 3, 1.0, 0)
    dense = fresh_copy(synth_procrustes(4, 10, 30, 3, 1.0, 0)[0])
    point = random_point(np.random.default_rng(0), prob)
    assert objective(prob, point) == pytest.approx(objective(dense, point), rel=1e-12)
    got, want = stationarity(prob, point), stationarity(dense, point)
    assert got.grad_residuals == pytest.approx(want.grad_residuals, rel=1e-12)
    assert got.asymmetries == pytest.approx(want.asymmetries, rel=1e-12)
    lams = lagrange_multipliers(prob, point)
    for got, want in zip(lams, lagrange_multipliers(dense, point), strict=True):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    report = solve(prob, SolverConfig(init="identity"))
    assert report.iterations == solve(dense, SolverConfig(init="identity")).iterations
    config = SolverConfig(init="spectral")
    got, want = solve(prob, config), solve(dense, config)
    got_cert, want_cert = certify(prob, got.solution), certify(dense, want.solution)
    assert prob._sblocks is None
    assert (got.iterations, got.stop_reason) == (want.iterations, want.stop_reason)
    assert got.objective == pytest.approx(want.objective, rel=1e-12)
    assert got_cert.verdict is want_cert.verdict
    for what in ("tol_psd", "tol_tau", "gap_bound"):
        assert getattr(got_cert, what) == pytest.approx(getattr(want_cert, what), rel=1e-10)


def test_view_problem_solve_and_certify_hold_less_than_its_pairs():
    # The 45 pairs of 200 x 200 take 14.4 MB; the views take 1.6 MB (the
    # true rotations, 3.2 MB, are dropped).
    tracemalloc.start()
    try:
        prob = synth_procrustes(10, 100, 200, 3, 1.0, 0)[0]
        certify(prob, solve(prob, SolverConfig(init="spectral")).solution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 45 * 8 * 200 * 200
    assert prob._sblocks is None


def test_pairs_formed_on_first_read_match_eager_ones(tmp_path):
    from otsm.formats import save_problem

    views = [np.random.default_rng(k).standard_normal((5, 6)) for k in range(4)]
    for sign, prob in ((1.0, build_maxdiff(ViewData(tuple(views)), 2)),
                       (-1.0, build_ols(OlsData(views[-1], tuple(views[:-1])))[0])):
        assert prob._factor is not None and prob._sblocks is None
        stilde = assemble_stilde(prob)
        assert prob._sblocks is None
        pairs = prob.sblocks
        assert pairs is prob.sblocks
        assert list(pairs) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for (i, j), s in pairs.items():
            assert np.array_equal(s, sign * (views[i].T @ views[j]))
            assert not s.flags.writeable
            assert np.array_equal(prob.coupling(j, i), s.T)
        assert np.array_equal(assemble_stilde(prob), stilde)
        save_problem(prob, tmp_path / "lazy.json")
        save_problem(OtsmProblem(prob.dims, pairs), tmp_path / "eager.json")
        assert (tmp_path / "lazy.json").read_bytes() == (tmp_path / "eager.json").read_bytes()


def test_racing_first_reads_publish_one_mapping():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(20):
            prob, _ = synth_procrustes(4, 5, 10, 2, 1.0, seed)
            barrier = threading.Barrier(8, timeout=10)
            seen = []

            def read(prob=prob, barrier=barrier, seen=seen):
                barrier.wait()
                seen.append(prob.sblocks)

            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads) and len(seen) == 8
            assert all(pairs is prob.sblocks for pairs in seen)
    finally:
        sys.setswitchinterval(interval)


class TestOverflowAtBuild:
    # D = 6: views of n = 1 row take the factored backend, of n = 3 the dense one.
    # At 1.5e308 the views' own norms are beyond the largest float.
    @pytest.mark.parametrize("entry", (1e160, 1.5e308))
    @pytest.mark.parametrize("n", (1, 3))
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_pair_is_rejected_on_both_backends(self, n, entry):
        with pytest.raises(ValidationError, match=r"coupling \(0,1\) contains non-finite"):
            build_maxdiff(ViewData((np.full((n, 3), entry),) * 2), 1)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_names_the_first_overflowing_pair(self):
        views = (np.full((1, 3), 1e-160), np.full((1, 3), 1e160), np.full((1, 3), 1e160))
        with pytest.raises(ValidationError, match=r"coupling \(1,2\) contains non-finite"):
            build_maxdiff(ViewData(views), 1)
        with pytest.raises(ValidationError, match=r"coupling \(1,2\) contains non-finite"):
            build_ols(OlsData(views[-1], views[:-1]))

    def test_pairs_near_the_bound_build(self):
        # Entries 1e154 * 1e154 = 1e308: the bound, above 2^1023, cannot
        # rule the pair out, and it is finite.  Views of 2^+-600 never come
        # near the bound.
        for views in ((np.full((1, 3), 1e154),) * 2,
                      (np.full((1, 3), 2.0**600), np.full((1, 3), 2.0**-600))):
            prob = build_maxdiff(ViewData(views), 1)
            assert prob._factor is not None and prob._sblocks is None
            assert np.all(np.isfinite(prob.sblocks[(0, 1)]))

    def test_only_pairs_near_overflow_are_formed(self, monkeypatch):
        # Views of norm sqrt(30) 5e153 bound the pair (1, 2) by 7.5e308,
        # above 2^1023; every other bound is far below it.
        formed = []

        class Tracked(np.ndarray):
            def __matmul__(self, other):
                formed.append(self.shape)
                return np.asarray(self) @ np.asarray(other)

        views = [np.random.default_rng(k).standard_normal((5, 6)) for k in range(4)]
        views[1] = views[2] = np.full((5, 6), 5e153)
        check = otsm.core._check_view_pairs
        monkeypatch.setattr(
            otsm.core, "_check_view_pairs", lambda vs: check([a.view(Tracked) for a in vs])
        )
        prob = build_maxdiff(ViewData(tuple(views)), 2)
        assert formed == [(6, 5)]
        assert np.all(np.isfinite(prob.sblocks[(1, 2)]))


class TestScaleFromViews:
    @_PROPERTY
    @given(view_instances(), st.integers(0, 2**32 - 1))
    def test_hi_is_the_frobenius_norm(self, instance, seed):
        prob = views_problem(*instance)
        lams = lagrange_multipliers(prob, random_point(np.random.default_rng(seed), prob))
        hi = _scale(prob, lams)[1]
        assert hi == pytest.approx(np.linalg.norm(assemble_stilde(prob)), rel=1e-13)

    @_PROPERTY
    @given(view_instances(scaled=False), st.integers(-500, 500), st.integers(0, 2**32 - 1))
    def test_hi_scales_exactly(self, instance, half, seed):
        # Views times 2^half, up to 2^500, where <K_i, K_j> of unscaled
        # Grams would reach 2^2000, scale hi by exactly 2^(2 half).
        kind, views, r = instance
        prob = views_problem(kind, views, r)
        big = views_problem(kind, [2.0**half * a for a in views], r)
        lams = lagrange_multipliers(prob, random_point(np.random.default_rng(seed), prob))
        assert _scale(big, lams)[1] == 2.0 ** (2 * half) * _scale(prob, lams)[1]

    def test_hi_of_views_at_extreme_scales(self):
        views = [np.random.default_rng(k).standard_normal((3, 5)) for k in range(3)]
        prob, big = (views_problem("maxdiff", [c * a for a in views], 2) for c in (1.0, 2.0**500))
        lams = lagrange_multipliers(prob, random_point(np.random.default_rng(0), prob))
        hi = _scale(big, lams)[1]
        assert math.isfinite(hi) and hi == 2.0**1000 * _scale(prob, lams)[1]
        # Views of 2^500 and 2^-500 have couplings of order 1: each view is
        # scaled by its own power of two, or the small one's Gram underflows.
        apart = views_problem("maxdiff", [2.0**500 * views[0], 2.0**-500 * views[1]], 2)
        assert apart._factor is not None and big._factor is not None
        hi = _scale(apart, lams[:2])[1]
        assert hi == pytest.approx(np.linalg.norm(assemble_stilde(apart)), rel=1e-13)

    @pytest.mark.parametrize("angle", (math.pi / 4, 0.3, 1.1, None))
    @pytest.mark.parametrize("tilt", (1e-10, 1e-8, 1e-6))
    def test_nearly_orthogonal_views_match_the_dense_twin(self, angle, tilt):
        # The views' column spaces in R^n are orthogonal up to tilt, so
        # ||A_0^T A_1||_F is of order tilt while <K_0, K_1> rounds at 1e-16
        # of ||K_0||_F ||K_1||_F: hi from that Gram alone came out 0 or
        # off by up to 1e7 relative.  The rotation q gives the Grams
        # entries of both signs; a random 4 x 4 one where angle is None.
        if angle is None:
            rng = np.random.default_rng(0)
            q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            base = [np.vstack([rng.standard_normal((2, 6)), np.zeros((2, 6))]),
                    np.vstack([tilt * rng.standard_normal((2, 6)), rng.standard_normal((2, 6))])]
        else:
            q = np.array([[math.cos(angle), -math.sin(angle)],
                          [math.sin(angle), math.cos(angle)]])
            base = [np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]),
                    np.array([[tilt, -tilt, 2 * tilt], [1.0, 1.0, 1.0]])]
        views = [q @ b for b in base]
        prob = views_problem("maxdiff", views, 1)
        dense = fresh_copy(views_problem("maxdiff", views, 1))
        assert prob._factor is not None
        want_hi = np.linalg.norm(assemble_stilde(dense))
        for point in (random_point(np.random.default_rng(0), prob),
                      solve(dense, SolverConfig(init="spectral")).solution):
            lams = lagrange_multipliers(prob, point)
            assert _scale(prob, lams)[1] == pytest.approx(want_hi, rel=1e-13)
            got, want = certify(prob, point), certify(dense, point)
            assert got.verdict is want.verdict
            assert got.tol_tau == pytest.approx(want.tol_tau, rel=1e-12)

    @_PROPERTY
    @given(view_instances(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_certify_agrees_with_the_dense_twin(self, instance, solved, seed):
        prob = views_problem(*instance)
        dense = fresh_copy(views_problem(*instance))
        if solved:
            point = solve(prob, SolverConfig(init="spectral", max_iter=200)).solution
        else:
            point = random_point(np.random.default_rng(seed), prob)
        got, want = certify(prob, point), certify(dense, point)
        lo, hi = _scale(dense, want.lambdas)
        assert abs(got.tol_tau - want.tol_tau) <= 1e-12 * hi
        # Verdicts may differ only within 1e-8 hi of one of their thresholds.
        r_stat = max(want.stationarity.max_grad_residual, want.stationarity.max_asymmetry)
        edges = (min(want.taus) + want.tol_tau, want.lmin_full + want.tol_psd,
                 r_stat - 1e-3 * lo)
        if all(abs(edge) > 1e-8 * hi for edge in edges):
            assert got.verdict is want.verdict


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
