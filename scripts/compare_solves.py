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
  from the spectral start, as ``otsm solve --init spectral`` does;
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
  couplings carry the sign -1, so ``lambda_min`` sets ``||S-tilde||_2``.

A run matches when its solution blocks are ``numpy.array_equal``, its
``iterations`` and ``stop_reason`` are equal, its objective trace has the
same length and agrees elementwise within ``1e-12 * (1 + |f|)``, the
``grad_residuals`` and ``asymmetries`` of ``stationarity`` at its solution
are equal, and its certificate has equal ``verdict``, ``lambdas``, ``taus``,
``lmin_full``, ``tol_psd``, ``tol_tau`` and ``gap_bound`` and a
``dual_bound`` within ``1e-13`` relative.  That one reads the largest eigenvalue of the coupling
matrix, which may come from ``eigh`` in one tree and ``eigvalsh`` in the
other and then agree only to rounding.  A certificate field that only one
tree reports is listed as removed or added, not counted as a mismatch.  Where solution
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
A third pass runs in the tree under test alone.  It solves and certifies
each corpus problem that takes the factored coupling backend (a view
problem with ``D >= 3 n``: ``align_dense/0`` and ``ols_dense/0``) twice,
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
(lines ``backends/…``).

Which runs move against another tree depends on how it forms
``S-tilde X``.  Against a tree whose Krylov start on views multiplies by
them another way, or that has no factored backend, the two factored runs
move by rounding: their lines give the blocks' aligned distance, and their
traces, multipliers and tolerances differ in the last digits.  Against a
tree whose ``objective`` sums over the stored pairs, not ``sum (X/2) *
(S-tilde X)``, every trace moves in the last digits, within ``TRACE_REL``,
and so do the grid cells' ``mean_final_objective`` and
``objective_gap_records``, which count as mismatches.  Against a tree
whose view problems store their pairs and take ``hi`` from them, only
``tol_tau``, and ``gap_bound`` where it comes from ``hi`` (not from
``tol_psd``), of the two factored runs can move, by rounding.

The script prints the largest trace and certificate differences and exits
1 on any mismatch.  Its output ends with one line per mismatched field and
the number of runs or cells it differs in (for example ``tol_psd: 548``),
so a field that a change moves on purpose shows as one line and any other
field stands out.
"""

from __future__ import annotations

import argparse
import collections
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

TRACE_REL = 1e-12
SPECTRAL_REL = 1e-13
#: Certificate fields compared within SPECTRAL_REL; the others must be equal.
SPECTRAL_FIELDS = ("dual_bound",)
#: Certificate fields saved when the tree's report has them.
CERT_FIELDS = (
    "verdict", "taus", "lmin_full", "tol_psd", "tol_tau", "gap_bound"
) + SPECTRAL_FIELDS
#: The acceptance grid: d 5/10/20 x sigma 0.1/10 x 20 reps, both starts.
GRID = dict(d_values=(5, 10, 20), sigma_values=(0.1, 10.0), reps=20, base_seed=0)
#: A batch budget of three D = 100 coupling matrices, which splits the
#: d = 20 cells into several batches.
SPLIT_BUDGET = 3 * 8 * 100 * 100


def _corpus():
    """Yield (label, problem, config) for every solve in the corpus."""
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

    rng = np.random.default_rng(11)
    regressors = [rng.standard_normal((60, 4)) for _ in range(249)]
    problem, _ = build_ols(OlsData(rng.standard_normal((60, 4)), regressors))
    yield "ols_dense/0", problem, SolverConfig(init="spectral")


def _grid_cells():
    """Yield (label, fields) for every CellResult of the acceptance grid, run
    with the default batch budget and with SPLIT_BUDGET."""
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


def dump(path):
    """Solve and certify the corpus and run the acceptance grid with the otsm on
    sys.path, and save every result."""
    from otsm.certificate import certify
    from otsm.core import stationarity
    from otsm.solver import solve

    arrays = {}
    for label, problem, config in _corpus():
        report = solve(problem, config)
        arrays[f"{label}|blocks"] = report.solution.stack()
        arrays[f"{label}|trace"] = np.array(report.objective_trace)
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
    for label, problem, config in _corpus():
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
        hi = _scale(dense, want_cert.lambdas)[1]
        for what, scale in (("tol_tau", hi), ("gap_bound", 0.5 * dense.dims.m * dense.dims.r * hi)):
            rel = abs(getattr(got_cert, what) - getattr(want_cert, what)) / scale
            print(f"backends/{label}: {what} difference {rel:.3e} relative to its scale")
            if rel > TRACE_REL:
                found.append((what, f"backends/{label}: {what} differs by {rel:.3e} (rel)"))
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
    return found


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
    worst_spectral = 0.0
    for key in sorted(set(base.files) & set(new.files)):
        label, what = key.rsplit("|", 1)
        a, b = base[key], new[key]
        if what == "trace":
            if a.shape != b.shape:
                found.append((what, f"{label}: trace lengths {a.size} != {b.size}"))
                continue
            rel = np.abs(a - b) / (1.0 + np.abs(a))
            worst = max(worst, float(rel.max()))
            if rel.max() > TRACE_REL:
                found.append((what, f"{label}: trace differs by {rel.max():.3e} (rel)"))
        elif what in SPECTRAL_FIELDS:
            rel = float(abs(a - b) / max(abs(a), abs(b))) if a != b else 0.0
            worst_spectral = max(worst_spectral, rel)
            if rel > SPECTRAL_REL:
                found.append((what, f"{label}: {what} differs by {rel:.3e} (rel)"))
        elif what == "blocks" and a.shape == b.shape and not np.array_equal(a, b):
            found.append((what, f"{label}: blocks differ; {_aligned_distance(a, b):.3e} "
                                f"after the best global orthogonal alignment"))
        elif not np.array_equal(a, b, equal_nan=a.dtype.kind == b.dtype.kind == "f"):
            found.append((what, f"{label}: {what} differs"))
    runs = sum(1 for key in base.files if key.endswith("|trace"))
    cells = sum(1 for key in base.files if key.endswith("|init"))
    print(f"{runs} runs compared; largest objective trace difference "
          f"{worst:.3e} relative to 1 + |f|; largest dual_bound "
          f"difference {worst_spectral:.3e} relative; {cells} run_grid cells compared")
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
