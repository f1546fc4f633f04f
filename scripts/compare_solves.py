"""Compare `solve` and `certify` between two source trees of otsm, run for run.

Usage::

    python3 scripts/compare_solves.py --baseline-src OTHER/src [--src src]

Each tree is imported in its own subprocess (``PYTHONPATH=<tree>``), which
solves a fixed corpus and writes every result to an ``.npz`` file; the two
files are then compared.  Every solution is certified on the problem object
it was solved on, as the benchmark and the grid do.  The corpus is the
benchmark's solve inputs plus the solves of the acceptance tests:

* align_dense input 0: ``synth_procrustes(10, 100, 200, 3, 1.0, 0)`` from
  ``init_spectral``;
* cli_roundtrip inputs 0-3: ``synth_procrustes(10, 100, 50, 3, 1.0, seed)``
  written with ``save_problem``, read back with ``load_problem`` and solved
  from the spectral start, as ``otsm solve --init spectral`` does, which at
  D = 500 comes from the Krylov solve (against a tree that takes it from
  ``eigh`` there, these four runs move by rounding); the
  sha256 of each file is saved too (field ``file_sha256``), so the bytes
  ``save_problem`` writes must match as well, and so is the sha256 of its
  decoded payload re-dumped with sorted keys (``file_payload_sha256``),
  which tells a change of layout from a change of content;
* the acceptance grid (``d = 5, 10, 20``, ``sigma = 0.1, 10``, 20 reps,
  base seed 0, both starts), whose first six reps are grid_small's problems;
* the acceptance corpus: ``hard_example(3, 2)`` from both starts, 100
  two-block and 200 scalar sign problems, and the oscillation demo's
  finite-alpha solve from ``(I, J, I)``;
* the classical ascent (``alpha = inf``) on ``hard_example(3, 2)`` from
  both starts and on the 100 two-block problems;
* ``ols_dense/0``: an orthogonal least-squares problem from ``build_ols``
  (249 regressors and a target, 60 x 4 each, seed 11; D = 1000, r = 4)
  from the spectral start, which comes from the Krylov solve.  Its
  couplings carry the sign -1, so ``lambda_min`` sets ``||S-tilde||_2``;
* ``ols_gap/0``: ``build_ols`` with 249 regressors, then the target, 60 x 4
  each, from ``default_rng(0)`` (D = 1000, r = 4) from the spectral start,
  whose Krylov residuals meet ``1e-10 |theta|`` while still above ``1e-8``
  of the Ritz gap ``theta_4 - theta_5`` (a tree that then runs ``eigh``
  moves this run by rounding);
* ``tiny/hard``: ``hard_example(3, 2)`` with its couplings times ``2^-700``
  from the spectral start, with ``alpha`` times ``2^700``, so that it runs
  the unit problem's 1142 cycles (a tree whose norms square unscaled
  entries reads its residuals and ``||S-tilde||_F`` as 0 there, and its
  ``gap_bound`` as 0).

A run matches when its solution blocks are ``numpy.array_equal``, its
``iterations`` and ``stop_reason`` are equal, its objective trace has the
same length and agrees elementwise within ``1e-12 * (1 + |f|)``, its
``mean_change_trace`` (whose last entry decides ``CONVERGED``) and
``change_sq_trace`` (which feeds the descent audit) are equal, the
``grad_residuals`` and ``asymmetries`` of ``stationarity`` at its solution
are equal, and its certificate has equal ``verdict``, ``lambdas``, ``taus``,
``lmin_full``, ``tol_psd``, ``tol_tau`` and ``gap_bound``.  Each run also
saves ``dual_upper_bound(problem)``, read after ``certify``, as
``dual_bound``, which must be equal too.  A certificate field that only
one tree reports is listed as removed or added, not counted as a mismatch.  Where solution
blocks differ, the line also gives their Frobenius distance after the best
common orthogonal alignment ``min_Q ||X Q - Y||_F`` of the stacked blocks,
which is near rounding when the two solves followed the same path up to a
global rotation; the run still counts as a mismatch.

A second pass runs the acceptance grid through ``run_grid`` in each tree
and requires every field of every ``CellResult`` to be equal (floats
exactly, NaN equal to NaN).  It runs twice: with the tree's default batch
budget (cells labelled ``run_grid/…``) and with
``otsm.solver._BATCH_STILDE_BYTES`` set to ``SPLIT_BUDGET``
(``run_grid_split/…``), which cuts the ``d = 20`` cells into several
batches, so splitting a cell into batches must change no result either.
It then runs ``ZERO_GRID`` (``d = 3, 3``, ``sigma = 0.0, -0.0``, 4 reps,
base seed 0) with the default budget (``run_grid_zero/<position>/…``):
``0.0`` and ``-0.0`` are two cells with their own seeds but equal as keys,
so a tree that merges the runs of a ``d`` keyed by ``sigma`` gives both
cells one cell's results and mismatches here.
A third pass runs in the tree under test alone.  It solves and certifies
each corpus problem that takes the factored coupling backend (a view
problem with ``D >= 3 n``: ``align_dense/0``, ``ols_dense/0`` and
``ols_gap/0``), ``narrow_views/0`` and ``far_views/0``, twice,
as built and as its dense twin ``OtsmProblem(p.dims, p.sblocks)``, which
has no views, and requires equal ``iterations``, ``stop_reason`` and
``verdict``, objective traces within ``TRACE_REL``, and ``objective`` of
the two twins at the factored run's solution within ``TRACE_REL`` of each
other, which checks the views' product ``S-tilde X`` against the stored
pairs.  It also requires the certificates' ``tol_tau`` and ``gap_bound``
to agree within ``TRACE_REL`` of their scales, ``hi = ||S-tilde||_F`` and
``(m r / 2) hi``, which checks ``hi`` from the views' Grams against the
stored pairs; both also read ``100 r_stat``, which each twin measures at
its own solution, so they agree to that scale, not to their own size
(lines ``backends/…``).  For couplings ``+A_i^T A_j`` it runs the PSD test
of ``certify`` through the views (``_psd_by_schur``) at the factored run's
solution, at ``tol_psd`` and at ``-lmin_full -+ 1e-6 hi``, and requires the
answers of a Cholesky factorization of the assembled ``L*`` (field
``psd``); an answer left open by the views' route counts as a mismatch.
``narrow_views/0`` is ``synth_procrustes(12, 40, 10, 3, 1.0, 0)``, 12
views of 40 x 10 with r = 3 (D = 120 = 3 n), a certified solve whose
blocks are all at most ``n + r`` wide, so it checks
the Schur test's ``d_i <= n + r`` form, which no corpus problem reaches; it
stays out of the corpus, so that both trees run the same corpus.
``far_views/0`` is ``build_maxdiff`` with r = 1 on two 1-row views, ``[[1e-6]]``
and a 1 x 5 row from ``default_rng(0)``, from the spectral start: one
view product dwarfs the other, so a product ``S-tilde X`` read as ``U -
A_i X_i`` cancels there.  Each ``backends`` run also prints the relative
difference of the twins' ``max_grad_residual`` (not a mismatch: each twin
measures it at its own solution); on ``far_views/0`` it is 0 when the
views' product sums the other blocks without subtracting.  Its PSD test is
printed but not counted: the Schur route leaves it open at every
tolerance, and ``certify`` then decides on the assembled ``L*``.

The same pass solves and certifies ``panels/0``, the dense twin of
``synth_procrustes(10, 100, 100, 3, 1.0, 0)`` (D = 1000, so its ``L*``
spans eight of ``_psd_within``'s panels), and prints the PSD test's
answers at ``tol_psd`` and at ``-lmin_full -+ 1e-6 hi`` by the panel route
and by one ``np.linalg.cholesky`` of ``L*``; answers that differ are a
mismatch (field ``panels``).

Which runs move against another tree depends on how it forms
``S-tilde X``.  Against a tree whose Krylov start on views multiplies by
them another way, whose factored sweep forms or sums ``U = sum_j A_j O_j``
another way, or that has no factored backend, the factored runs
(``align_dense/0``, ``ols_dense/0`` and ``ols_gap/0``) move by rounding: their lines
give the blocks' aligned distance, and their traces, multipliers and
tolerances differ in the last digits.  Against a
tree whose ``objective`` sums over the stored pairs, not ``sum (X/2) *
(S-tilde X)``, every trace moves in the last digits, within ``TRACE_REL``,
and so do the grid cells' ``mean_final_objective`` and
``objective_gap_records``, which count as mismatches.  Against a tree
whose view problems store their pairs and take ``hi`` from them, only
``tol_tau``, and ``gap_bound`` where it comes from ``hi`` (not from
``tol_psd``), of the factored runs can move, by rounding.

The script prints the largest trace and certificate differences and exits
1 on any mismatch.  For each float certificate field (``taus``,
``lmin_full``, ``gap_bound``, ``tol_psd``, ``tol_tau``) it prints how many
runs moved and the largest move relative to the run's largest ``|lambdas|``
entry, which tells a rounding move from a real change; a move still counts
as a mismatch.  Its output ends with one line per mismatched field and
the number of runs or cells it differs in (for example ``tol_psd: 548``),
so a field that a change moves on purpose shows as one line and any other
field stands out.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

TRACE_REL = 1e-12
#: Certificate fields saved when the tree's report has them.
CERT_FIELDS = ("verdict", "taus", "lmin_full", "tol_psd", "tol_tau", "gap_bound")
#: The float certificate fields whose moves ``compare`` sizes against the
#: run's largest ``|lambdas|`` entry, to tell rounding from a real change.
FLOAT_CERT_FIELDS = ("taus", "lmin_full", "gap_bound", "tol_psd", "tol_tau")
#: The acceptance grid: d 5/10/20 x sigma 0.1/10 x 20 reps, both starts.
GRID = dict(d_values=(5, 10, 20), sigma_values=(0.1, 10.0), reps=20, base_seed=0)
#: A grid of signed zeros: sigma 0.0 and -0.0 are two cells with their own
#: seeds, yet equal as keys, and d = 3 repeats them.
ZERO_GRID = dict(d_values=(3, 3), sigma_values=(0.0, -0.0), reps=4, base_seed=0)
#: A batch budget of three D = 100 coupling matrices, which splits the
#: d = 20 cells into several batches.
SPLIT_BUDGET = 3 * 8 * 100 * 100


def _corpus(digests=None):
    """Yield (label, problem, config) for every solve in the corpus; store the
    two digests of each problem file it writes in ``digests``, by label, if
    given."""
    from otsm import load_problem, save_problem
    from otsm.builders import OlsData, build_ols, hard_example, synth_procrustes
    from otsm.core import BlockDims, BlockOrthogonal, OtsmProblem
    from otsm.experiment import _derived_seed
    from otsm.solver import SolverConfig, init_spectral

    problem, _ = synth_procrustes(10, 100, 200, 3, 1.0, 0)
    yield "align_dense/0", problem, SolverConfig(init=init_spectral(problem))

    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(4):
            problem, _ = synth_procrustes(10, 100, 50, 3, 1.0, seed)
            path = os.path.join(tmp, f"problem-{seed}.json")
            save_problem(problem, path)
            if digests is not None:
                with open(path, "rb") as f:
                    text = f.read()
                payload = json.dumps(json.loads(text), sort_keys=True).encode()
                digests[f"cli_roundtrip/{seed}"] = {
                    "file_sha256": hashlib.sha256(text).hexdigest(),
                    "file_payload_sha256": hashlib.sha256(payload).hexdigest(),
                }
            yield f"cli_roundtrip/{seed}", load_problem(path), SolverConfig(init="spectral")

    for d in (5, 10, 20):
        for sigma in (0.1, 10.0):
            for rep in range(20):
                seed = _derived_seed(0, d, sigma, rep)
                problem, _ = synth_procrustes(5, 100, d, 3, sigma, seed)
                for init in ("identity", "spectral"):
                    yield (
                        f"grid/{d}/{sigma}/{rep}/{init}",
                        problem,
                        SolverConfig(init=init),
                    )

    hard = hard_example(3, 2)
    for init in ("spectral", "identity"):
        yield f"hard/{init}", hard, SolverConfig(init=init)
        yield f"hard/{init}/inf", hard, SolverConfig(alpha=math.inf, init=init)
    # The oscillation demo's finite-alpha solve from (I, J, I).
    i32 = np.eye(3, 2)
    start = BlockOrthogonal([i32, i32[:, ::-1], i32])
    yield "oscillation", hard, SolverConfig(init=start, max_iter=5)

    rng = np.random.default_rng(2024)
    for k in range(100):
        r = int(rng.integers(1, 5))
        d1 = int(rng.integers(r, 13))
        d2 = int(rng.integers(r, 13))
        s12 = rng.standard_normal((d1, d2))
        problem = OtsmProblem(BlockDims((d1, d2), r), {(0, 1): s12})
        yield f"pair/{k}", problem, SolverConfig(init="spectral")
        yield f"pair/{k}/inf", problem, SolverConfig(alpha=math.inf, init="spectral")

    rng = np.random.default_rng(777)
    for k in range(200):
        m = int(rng.integers(3, 6))
        couplings = {
            (i, j): np.array([[rng.standard_normal()]])
            for i in range(m)
            for j in range(i + 1, m)
        }
        problem = OtsmProblem(BlockDims((1,) * m, 1), couplings)
        yield f"sign/{k}", problem, SolverConfig(init="spectral")

    for label, seed in (("ols_dense/0", 11), ("ols_gap/0", 0)):
        rng = np.random.default_rng(seed)
        regressors = [rng.standard_normal((60, 4)) for _ in range(249)]
        problem, _ = build_ols(OlsData(rng.standard_normal((60, 4)), regressors))
        yield label, problem, SolverConfig(init="spectral")

    tiny = OtsmProblem(hard.dims, {key: np.ldexp(s, -700) for key, s in hard.sblocks.items()})
    yield "tiny/hard", tiny, SolverConfig(alpha=math.ldexp(1000.0, 700), init="spectral")


def _grid_cells():
    """Yield (label, fields) for every CellResult of the acceptance grid, run
    with the default batch budget and with SPLIT_BUDGET, and of ZERO_GRID,
    whose cells are labelled by their position."""
    import dataclasses

    from otsm import solver
    from otsm.experiment import ExperimentGrid, run_grid

    default = solver._BATCH_STILDE_BYTES
    for name, budget in (("run_grid", default), ("run_grid_split", SPLIT_BUDGET)):
        solver._BATCH_STILDE_BYTES = budget
        try:
            cells = run_grid(ExperimentGrid(**GRID))
        finally:
            solver._BATCH_STILDE_BYTES = default
        for cell in cells:
            yield f"{name}/{cell.d}/{cell.sigma}/{cell.init}", dataclasses.asdict(cell)
    for k, cell in enumerate(run_grid(ExperimentGrid(**ZERO_GRID))):
        yield f"run_grid_zero/{k}/{cell.d}/{cell.sigma}/{cell.init}", dataclasses.asdict(cell)


def dump(path):
    """Solve and certify the corpus and run the acceptance grid with the otsm on
    sys.path, and save every result."""
    from otsm.certificate import certify, dual_upper_bound
    from otsm.core import stationarity
    from otsm.solver import solve

    arrays = {}
    digests = {}
    for label, problem, config in _corpus(digests):
        report = solve(problem, config)
        arrays[f"{label}|blocks"] = report.solution.stack()
        arrays[f"{label}|trace"] = np.array(report.objective_trace)
        arrays[f"{label}|mean_change_trace"] = np.array(report.mean_change_trace)
        arrays[f"{label}|change_sq_trace"] = np.array(report.change_sq_trace)
        arrays[f"{label}|iterations"] = np.array(report.iterations)
        arrays[f"{label}|stop"] = np.array(report.stop_reason.value)
        stat = stationarity(problem, report.solution)
        arrays[f"{label}|grad_residuals"] = np.array(stat.grad_residuals)
        arrays[f"{label}|asymmetries"] = np.array(stat.asymmetries)
        cert = certify(problem, report.solution)
        arrays[f"{label}|lambdas"] = np.array(cert.lambdas)
        for field in CERT_FIELDS:
            if not hasattr(cert, field):
                continue
            value = getattr(cert, field)
            arrays[f"{label}|{field}"] = np.array(getattr(value, "value", value))
        arrays[f"{label}|dual_bound"] = np.array(dual_upper_bound(problem))
    for label, fields in digests.items():
        for field, digest in fields.items():
            arrays[f"{label}|{field}"] = np.array(digest)
    for label, fields in _grid_cells():
        for field, value in fields.items():
            arrays[f"{label}|{field}"] = np.array(value)
    np.savez(path, **arrays)


def backends() -> list[tuple[str, str]]:
    """Solve and certify every corpus problem on the factored backend and
    as its dense twin; one ``(field, line)`` pair per disagreement."""
    from otsm.certificate import _scale, certify
    from otsm.core import OtsmProblem, objective
    from otsm.solver import solve

    found = []
    for label, problem, config in itertools.chain(_corpus(), _backend_problems()):
        if problem._factor is None:
            continue
        dense = OtsmProblem(problem.dims, problem.sblocks)
        runs = []
        for p in (problem, dense):
            report = solve(p, config)
            runs.append((report, certify(p, report.solution)))
        (got, got_cert), (want, want_cert) = runs
        for what in ("iterations", "stop_reason"):
            if getattr(got, what) != getattr(want, what):
                found.append((what, f"backends/{label}: {what} differs"))
        if got_cert.verdict is not want_cert.verdict:
            found.append(("verdict", f"backends/{label}: verdict differs"))
        residuals = [c.stationarity.max_grad_residual for c in (got_cert, want_cert)]
        print(f"backends/{label}: max_grad_residual difference "
              f"{abs(residuals[0] - residuals[1]) / max(residuals[1], 1e-300):.3e} relative")
        hi = _scale(dense, want_cert.lambdas)[1]
        for what, scale in (("tol_tau", hi), ("gap_bound", 0.5 * dense.dims.m * dense.dims.r * hi)):
            rel = abs(getattr(got_cert, what) - getattr(want_cert, what)) / scale
            print(f"backends/{label}: {what} difference {rel:.3e} relative to its scale")
            if rel > TRACE_REL:
                found.append((what, f"backends/{label}: {what} differs by {rel:.3e} (rel)"))
        if problem._factor[1] > 0:
            psd = _psd_check(label, problem, got.solution, got_cert)
            # far_views/0's 1e-6 view leaves the Schur route open, and certify
            # then factors L*; it is here for the product, not the PSD test.
            found += psd if label != "far_views/0" else []
        a, b = np.array(got.objective_trace), np.array(want.objective_trace)
        rel = float(np.max(np.abs(a - b) / (1.0 + np.abs(b)))) if a.shape == b.shape else np.inf
        f, g = (objective(p, got.solution) for p in (problem, dense))
        obj_rel = abs(f - g) / (1.0 + abs(g))
        print(f"backends/{label}: {got.iterations} cycles, trace difference {rel:.3e} "
              f"relative, {_aligned_distance(got.solution.stack(), want.solution.stack()):.3e} "
              f"aligned distance, objective difference {obj_rel:.3e} relative")
        if rel > TRACE_REL:
            found.append(("trace", f"backends/{label}: trace differs by {rel:.3e} (rel)"))
        if obj_rel > TRACE_REL:
            found.append(("objective",
                          f"backends/{label}: objective differs by {obj_rel:.3e} (rel)"))
    return found + _panel_check()


def _cholesky_succeeds(matrix, tol) -> bool:
    """Whether one ``np.linalg.cholesky`` of ``matrix + tol I`` succeeds."""
    try:
        np.linalg.cholesky(matrix + tol * np.eye(len(matrix)))
    except np.linalg.LinAlgError:
        return False
    return True


def _panel_check() -> list[tuple[str, str]]:
    """Compare ``_psd_within``'s panel route with one ``np.linalg.cholesky`` on
    the ``L*`` of ``panels/0`` at ``tol_psd`` and at ``-lmin_full -+ 1e-6 hi``."""
    from otsm.builders import synth_procrustes
    from otsm.certificate import _PANEL, _certificate_from, _frames, _psd_within, _scale, certify
    from otsm.core import OtsmProblem
    from otsm.solver import SolverConfig, solve

    twin = synth_procrustes(10, 100, 100, 3, 1.0, 0)[0]
    problem = OtsmProblem(twin.dims, twin.sblocks)
    point = solve(problem, SolverConfig(init="spectral")).solution
    cert = certify(problem, point)
    frames = _frames(point, cert.lambdas)
    hi = _scale(problem, list(cert.lambdas))[1]
    full = _certificate_from(problem, frames)
    tols = (cert.tol_psd, -cert.lmin_full - 1e-6 * hi, -cert.lmin_full + 1e-6 * hi)
    got = [_psd_within(full.copy(), t) for t in tols]
    want = [_cholesky_succeeds(full, t) for t in tols]
    print(f"panels/0: {cert.verdict.value}, L* of {-(-len(full) // _PANEL)} panels; PSD test at "
          f"tol_psd and -lmin_full -+ 1e-6 hi: panel route {got}, np.linalg.cholesky {want}")
    if got != want:
        return [("panels", f"panels/0: panel route {got} != np.linalg.cholesky {want}")]
    return []


def _backend_problems():
    """Yield the ``backends`` pass's own problems, kept out of the corpus:
    ``synth_procrustes(12, 40, 10, 3, 1.0, 0)``, whose blocks are all at
    most ``n + r`` wide, so its PSD test runs the ``d_i <= n + r`` Schur
    form, and two 1-row views, one a 1 x 1 of ``1e-6``, whose ``S-tilde X``
    cancels wherever it is read as ``U - A_i X_i``."""
    from otsm.builders import ViewData, build_maxdiff, synth_procrustes
    from otsm.solver import SolverConfig

    problem, _ = synth_procrustes(12, 40, 10, 3, 1.0, 0)
    yield "narrow_views/0", problem, SolverConfig(init="spectral")
    views = (np.array([[1e-6]]), np.random.default_rng(0).standard_normal((1, 5)))
    yield "far_views/0", build_maxdiff(ViewData(views), 1), SolverConfig(init="spectral")


def _psd_check(label, problem, point, cert) -> list[tuple[str, str]]:
    """Compare the Schur route of ``certify``'s PSD test with a Cholesky of the
    assembled L* at ``tol_psd`` and at ``-lmin_full -+ 1e-6 hi``; an answer
    that differs, or none from the route, is a mismatch."""
    from otsm.certificate import _certificate_from, _frames, _psd_by_schur, _psd_within, _scale

    frames = _frames(point, cert.lambdas)
    hi = _scale(problem, list(cert.lambdas))[1]
    tols = (cert.tol_psd, -cert.lmin_full - 1e-6 * hi, -cert.lmin_full + 1e-6 * hi)
    got = [_psd_by_schur(problem._factor[0], frames, t) for t in tols]
    want = [_psd_within(_certificate_from(problem, frames), t) for t in tols]
    print(f"backends/{label}: PSD test at tol_psd and -lmin_full -+ 1e-6 hi: "
          f"Schur route {got}, Cholesky of L* {want}")
    if got != want:
        return [("psd", f"backends/{label}: Schur route {got} != Cholesky of L* {want}")]
    return []


def _run(src, *args):
    """Run this script with ``args`` on the tree ``src``; return its output."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, os.path.abspath(__file__), *args], env=env,
                          check=True, capture_output=True, text=True).stdout


def _aligned_distance(x, y) -> float:
    """``min ||x Q - y||_F`` over orthogonal ``Q``, attained at the polar
    factor of ``x^T y``."""
    p, _, qt = np.linalg.svd(x.T @ y)
    return float(np.linalg.norm(x @ (p @ qt) - y))


def compare(base, new) -> list[tuple[str, str]]:
    """Mismatches between two dumps, one ``(field, line)`` pair each."""
    found = []
    one_sided = set(base.files) ^ set(new.files)
    runs_differ = sorted(k for k in one_sided if k.rsplit("|", 1)[1] not in CERT_FIELDS)
    if runs_differ:
        return [("runs", f"different runs: {runs_differ}")]
    for side, keys in (("removed", set(base.files) - set(new.files)),
                       ("added", set(new.files) - set(base.files))):
        fields = sorted({key.rsplit("|", 1)[1] for key in keys})
        if fields:
            print(f"certificate fields {side}: {', '.join(fields)}")
    worst = 0.0
    moves = {what: [0, 0.0] for what in FLOAT_CERT_FIELDS}
    for key in sorted(set(base.files) & set(new.files)):
        label, what = key.rsplit("|", 1)
        a, b = base[key], new[key]
        if what in moves and a.shape == b.shape and not np.array_equal(a, b):
            scale = float(np.max(np.abs(base[f"{label}|lambdas"]), initial=0.0))
            move = moves[what]
            move[0] += 1
            move[1] = max(move[1], float(np.max(np.abs(a - b))) / scale if scale else np.inf)
        if what == "trace":
            if a.shape != b.shape:
                found.append((what, f"{label}: trace lengths {a.size} != {b.size}"))
                continue
            rel = np.abs(a - b) / (1.0 + np.abs(a))
            worst = max(worst, float(rel.max()))
            if rel.max() > TRACE_REL:
                found.append((what, f"{label}: trace differs by {rel.max():.3e} (rel)"))
        elif what == "blocks" and a.shape == b.shape and not np.array_equal(a, b):
            found.append((what, f"{label}: blocks differ; {_aligned_distance(a, b):.3e} "
                                f"after the best global orthogonal alignment"))
        elif not np.array_equal(a, b, equal_nan=a.dtype.kind == b.dtype.kind == "f"):
            found.append((what, f"{label}: {what} differs"))
    runs = sum(1 for key in base.files if key.endswith("|trace"))
    cells = sum(1 for key in base.files if key.endswith("|init"))
    print(f"{runs} runs compared; largest objective trace difference "
          f"{worst:.3e} relative to 1 + |f|; {cells} run_grid cells compared")
    for what, (count, rel) in moves.items():
        print(f"{what}: {count} runs moved, by at most {rel:.3e} of the run's max |lambdas|")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-src", help="src directory of the tree to compare against")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                        help="src directory of the tree under test (default: this tree)")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    parser.add_argument("--backends", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        dump(args.dump)
        return 0
    if args.backends:
        found = backends()
        for field, line in found:
            print(f"{field}\t{line}")
        return 0
    if not args.baseline_src:
        parser.error("--baseline-src is required")
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "base.npz"), os.path.join(tmp, "new.npz")]
        _run(args.baseline_src, "--dump", paths[0])
        _run(args.src, "--dump", paths[1])
        with np.load(paths[0]) as base, np.load(paths[1]) as new:
            found = compare(base, new)
    for line in _run(args.src, "--backends").splitlines():
        if "\t" in line:
            found.append(tuple(line.split("\t", 1)))
        else:
            print(line)
    for _, line in found:
        print(line)
    print("match" if not found else f"{len(found)} mismatches")
    for field, count in sorted(collections.Counter(f for f, _ in found).items()):
        print(f"{field}: {count}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
