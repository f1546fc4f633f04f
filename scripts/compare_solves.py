"""Compare `solve` between two source trees of otsm, run for run.

Usage::

    python3 scripts/compare_solves.py --baseline-src OTHER/src [--src src]

Each tree is imported in its own subprocess (``PYTHONPATH=<tree>``), which
solves a fixed corpus and writes every result to an ``.npz`` file; the two
files are then compared.  The corpus is the benchmark's solve inputs plus
the solves of the acceptance tests:

* align_dense input 0: ``synth_procrustes(10, 100, 200, 3, 1.0, 0)`` from
  ``init_spectral``;
* cli_roundtrip inputs 0-3: ``synth_procrustes(10, 100, 50, 3, 1.0, seed)``
  written with ``save_problem``, read back with ``load_problem`` and solved
  from the spectral start, as ``otsm solve --init spectral`` does;
* the acceptance grid (``d = 5, 10, 20``, ``sigma = 0.1, 10``, 20 reps,
  base seed 0, both starts), whose first six reps are grid_small's problems;
* the acceptance corpus: ``hard_example(3, 2)`` from both starts, 100
  two-block and 200 scalar sign problems, and the oscillation demo's
  finite-alpha solve from ``(I, J, I)``.

A run matches when its solution blocks are ``numpy.array_equal``, its
``iterations`` and ``stop_reason`` are equal, and its objective trace has
the same length and agrees elementwise within ``1e-12 * (1 + |f|)``.  The
script prints the largest trace difference and exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

import numpy as np

TRACE_REL = 1e-12


def _corpus():
    """Yield (label, problem, config) for every solve in the corpus."""
    from otsm.builders import hard_example, synth_procrustes
    from otsm.cli import load_problem, save_problem
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


def dump(path):
    """Solve the corpus with the otsm on sys.path and save every result."""
    from otsm.solver import solve

    arrays = {}
    for label, problem, config in _corpus():
        report = solve(problem, config)
        arrays[f"{label}|blocks"] = report.solution.stack()
        arrays[f"{label}|trace"] = np.array(report.objective_trace)
        arrays[f"{label}|iterations"] = np.array(report.iterations)
        arrays[f"{label}|stop"] = np.array(report.stop_reason.value)
    np.savez(path, **arrays)


def _run_dump(src, path):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", path],
                   env=env, check=True)


def compare(base, new) -> list[str]:
    """Mismatches between two dumps, one line each."""
    found = []
    if set(base.files) != set(new.files):
        return [f"different runs: {sorted(set(base.files) ^ set(new.files))}"]
    worst = 0.0
    for key in sorted(base.files):
        label, what = key.rsplit("|", 1)
        a, b = base[key], new[key]
        if what == "trace":
            if a.shape != b.shape:
                found.append(f"{label}: trace lengths {a.size} != {b.size}")
                continue
            rel = np.abs(a - b) / (1.0 + np.abs(a))
            worst = max(worst, float(rel.max()))
            if rel.max() > TRACE_REL:
                found.append(f"{label}: trace differs by {rel.max():.3e} (rel)")
        elif not np.array_equal(a, b):
            found.append(f"{label}: {what} differs")
    runs = len(base.files) // 4
    print(f"{runs} runs compared; largest objective trace difference "
          f"{worst:.3e} relative to 1 + |f|")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-src", help="src directory of the tree to compare against")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                        help="src directory of the tree under test (default: this tree)")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        dump(args.dump)
        return 0
    if not args.baseline_src:
        parser.error("--baseline-src is required")
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "base.npz"), os.path.join(tmp, "new.npz")]
        _run_dump(args.baseline_src, paths[0])
        _run_dump(args.src, paths[1])
        with np.load(paths[0]) as base, np.load(paths[1]) as new:
            found = compare(base, new)
    for line in found:
        print(line)
    print("match" if not found else f"{len(found)} mismatches")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
