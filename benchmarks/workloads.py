"""The benchmark's workloads: why each exists, what one instance runs, and its checks.

Every workload runs a pinned set of inputs, built with fixed problem seeds
``0 .. inputs-1``, because each input needs a stored reference
(``references.json``) and because instance cost varies several-fold between
problem seeds (from 23 to 228 cycles for ``synth_procrustes`` with
m = 100, d = 10), which would swamp any regression bound if a run drew
fresh problems.  The run's ``--seed`` sets the order in which the inputs
are visited.  Workloads whose instances take seconds have one input, so
that a run repeats it often enough for its median time to be steady.

A workload supplies four steps, each a call into public ``otsm`` functions:

* ``build`` makes one input (set-up, not timed as an instance);
* ``run`` is one timed instance;
* ``outcome`` turns the instance's result into the values compared with
  the stored reference (not timed);
* ``probe`` is called only in the traced run, after the instance: it
  times single public calls at the instance's result and returns the
  counters the per-layer metrics need.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import asdict, dataclass

#: Relative tolerance of a float outcome against its reference.
REL_TOL = 1e-9

SIZES = ("full", "tiny")


def _largest(value) -> float:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return max((_largest(v) for v in value), default=0.0)
    return abs(value) if isinstance(value, float) else 0.0


def mismatches(got, want, scale=None, path="") -> list[str]:
    """Differences between an outcome and its stored reference.

    Only keys present in the reference are compared.  Floats match within
    ``REL_TOL * max(|want|, scale)``, where ``scale`` defaults to the largest
    float in the reference, so that differences of objectives (the grid's
    gap records) are judged on the objectives' scale; everything else must
    be equal.
    """
    if scale is None:
        scale = _largest(want)
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path or 'outcome'}: expected a mapping, got {got!r}"]
        out = []
        for key, value in want.items():
            if key not in got:
                out.append(f"{path}{key}: missing")
            else:
                out.extend(mismatches(got[key], value, scale, f"{path}{key}."))
        return out
    if isinstance(want, list):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            return [f"{path.rstrip('.')}: {got!r} != reference {want!r}"]
        out = []
        for k, (g, w) in enumerate(zip(got, want)):
            out.extend(mismatches(g, w, scale, f"{path}{k}."))
        return out
    if isinstance(want, float):
        if isinstance(got, (int, float)) and abs(got - want) <= REL_TOL * max(
            abs(want), scale
        ):
            return []
    elif got == want:
        return []
    return [f"{path.rstrip('.')}: {got!r} != reference {want!r}"]


def probe_point(otsm, problem, point, tr):
    """Time one call of each per-point public function at ``point``."""
    calls = (
        ("core.objective", otsm.core.objective),
        ("core.stationarity", otsm.core.stationarity),
        ("core.assemble_stilde", lambda p, _: otsm.core.assemble_stilde(p)),
        ("core.lagrange_multipliers", otsm.core.lagrange_multipliers),
        ("certificate.certificate_matrix", otsm.certificate.certificate_matrix),
        ("certificate.reduced_certificate", otsm.certificate.reduced_certificate),
        ("certificate.dual_upper_bound", lambda p, _: otsm.certificate.dual_upper_bound(p)),
    )
    for name, fn in calls:
        with tr.span(name):
            fn(problem, point)


@dataclass(frozen=True)
class Workload:
    """Common description; subclasses supply the steps."""

    name: str
    why: str
    stresses: str
    bypasses: str
    inputs: int
    sizes: dict
    #: BLAS threads for this workload; None means one per CPU.
    blas_threads: int | None = None

    def dense_min(self, params) -> int:
        """Smallest side of a dense linalg operand: D - r of the problem."""
        return params["m"] * params["d"] - params["r"]

    def build_problem(self, otsm, params, seed, tr):
        with tr.span("builders.build"):
            problem, _ = otsm.builders.synth_procrustes(
                params["m"], params["n"], params["d"], params["r"], params["sigma"], seed
            )
        return problem

    def pipelines(self, outcome) -> int:
        """Solve-and-certify pipelines one instance completed."""
        return 1


@dataclass(frozen=True)
class Pipeline(Workload):
    """One problem solved from the spectral start, then certified, through the API."""

    def build(self, otsm, params, seed, workdir, tr):
        return self.build_problem(otsm, params, seed, tr)

    def run(self, otsm, params, problem, tr):
        with tr.span("solver.init"):
            start = otsm.solver.init_spectral(problem)
        with tr.span("solver.solve"):
            report = otsm.solver.solve(problem, otsm.solver.SolverConfig(init=start))
        with tr.span("certificate.certify"):
            cert = otsm.certificate.certify(problem, report.solution)
        return report, cert

    def outcome(self, params, problem, result):
        report, cert = result
        return {
            "objective": report.objective,
            "cycles": report.iterations,
            "stop_reason": report.stop_reason.value,
            "verdict": cert.verdict.value,
        }

    def probe(self, otsm, params, problem, result, tr):
        report, cert = result
        probe_point(otsm, problem, report.solution, tr)
        return {
            "solver.solves": 1,
            "solver.cycles": report.iterations,
            "solver.converged": int(report.stop_reason.value == "converged"),
            "certificate.certifies": 1,
            "certificate.certified": int(cert.verdict.value == "certified_global"),
        }


@dataclass(frozen=True)
class CliInput:
    problem: str
    workdir: str


@dataclass(frozen=True)
class CliRoundtrip(Workload):
    """Problem file -> ``otsm solve --certify`` -> ``otsm certify``, in process."""

    def build(self, otsm, params, seed, workdir, tr):
        problem = self.build_problem(otsm, params, seed, tr)
        path = os.path.join(workdir, f"problem-{seed}.json")
        with tr.span("cli.save_problem"):
            otsm.cli.save_problem(problem, path)
        return CliInput(path, workdir)

    @staticmethod
    def _paths(inp):
        report = os.path.join(inp.workdir, "solve.json")
        # The CLI writes the solution beside the report: X.json -> X.solution.json.
        solution = os.path.join(inp.workdir, "solve.solution.json")
        checked = os.path.join(inp.workdir, "certify.json")
        return report, solution, checked

    def run(self, otsm, params, inp, tr):
        report, solution, checked = self._paths(inp)
        with contextlib.redirect_stdout(io.StringIO()):
            with tr.span("cli.main"):
                solve_exit = otsm.cli.main(
                    ["solve", "--input", inp.problem, "--init", "spectral",
                     "--certify", "--out", report]
                )
            with tr.span("cli.main"):
                certify_exit = otsm.cli.main(
                    ["certify", "--input", inp.problem, "--solution", solution,
                     "--out", checked]
                )
        return solve_exit, certify_exit

    def outcome(self, params, inp, result):
        solve_exit, certify_exit = result
        report_path, _, checked_path = self._paths(inp)
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        with open(checked_path, encoding="utf-8") as fh:
            checked = json.load(fh)
        return {
            "solve_exit": solve_exit,
            "certify_exit": certify_exit,
            "objective": report["objective"],
            "cycles": report["iterations"],
            "stop_reason": report["stop_reason"],
            "verdict": report["certificate"]["verdict"],
            "certify_objective": checked["objective"],
            "certify_verdict": checked["certificate"]["verdict"],
        }

    def probe(self, otsm, params, inp, result, tr):
        report, solution, checked = self._paths(inp)
        with tr.span("cli.load_problem"):
            problem = otsm.cli.load_problem(inp.problem)
        with tr.span("cli.load_solution"):
            point = otsm.cli.load_solution(solution, dims=problem.dims)
        probe_point(otsm, problem, point, tr)
        size = os.path.getsize
        return {
            # solve reads the problem; certify reads the problem and the solution.
            "cli.bytes_read": 2 * size(inp.problem) + size(solution),
            "cli.bytes_written": size(report) + size(solution) + size(checked),
        }


@dataclass(frozen=True)
class GridInput:
    grid: object
    csv_path: str


@dataclass(frozen=True)
class GridSmall(Workload):
    """One seeded ``run_grid`` over many tiny problems, then ``export_results``."""

    def dense_min(self, params) -> int:
        # The grid mixes sizes; the smallest D - r marks a call dense in all of them.
        return params["m"] * min(params["d_values"]) - params["r"]

    def build(self, otsm, params, seed, workdir, tr):
        grid = otsm.experiment.ExperimentGrid(
            d_values=params["d_values"],
            sigma_values=params["sigma_values"],
            m=params["m"],
            n=params["n"],
            r=params["r"],
            reps=params["reps"],
            base_seed=seed,
            init_strategies=("identity", "spectral"),
        )
        return GridInput(grid, os.path.join(workdir, f"grid-{seed}.csv"))

    def run(self, otsm, params, inp, tr):
        with tr.span("experiment.run_grid"):
            cells = otsm.experiment.run_grid(inp.grid)
        with tr.span("experiment.export_results"):
            otsm.experiment.export_results(cells, inp.csv_path)
        return cells

    def outcome(self, params, inp, cells):
        # Counts come from the CellResult objects: the CSV drops some of them.
        out_cells = []
        for cell in cells:
            row = asdict(cell)
            row["objective_gap_records"] = list(row["objective_gap_records"])
            out_cells.append(row)
        with open(inp.csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        keys = [(str(c.d), repr(c.sigma), c.init) for c in cells]
        read_back = [(r.get("d"), r.get("sigma"), r.get("init")) for r in rows]
        return {"cells": out_cells, "csv_rows_match_cells": read_back == keys}

    def pipelines(self, outcome) -> int:
        return sum(
            c["certified_count"] + c["inconclusive_count"] + c["not_global_count"]
            for c in outcome["cells"]
        )

    def probe(self, otsm, params, inp, cells, tr):
        return {
            "experiment.solves": sum(c.total_reps for c in cells),
            "experiment.failures": sum(c.failure_count for c in cells),
            "experiment.nonconverged": sum(c.nonconverged_count for c in cells),
            "experiment.certified": sum(c.certified_count for c in cells),
        }


WORKLOADS = {
    wl.name: wl
    for wl in (
        Pipeline(
            name="align_dense",
            why=(
                "Dense decompositions are about 80% of an instance: the spectral "
                "start's eigh and certify's eigvalsh/QR/SVD at D = 2000; the sweep "
                "is about 6%.  One factorization per certificate shows here."
            ),
            stresses="linalg dense decompositions (solver.init, certificate)",
            bypasses="per-block Python work of the sweep (few, cheap cycles)",
            inputs=1,
            # One BLAS thread per CPU: on a shared 2-CPU Xeon host its
            # fastest instance spread 6% (quartile distance over median)
            # across runs with 2 threads and 10% with 1, at 1.6 times the speed.
            sizes={
                "full": dict(m=10, n=100, d=200, r=3, sigma=1.0),
                "tiny": dict(m=4, n=30, d=12, r=3, sigma=1.0),
            },
        ),
        GridSmall(
            name="grid_small",
            why=(
                "Many tiny problems (D = 25..100), so per-call fixed costs dominate; "
                "work moved into per-problem set-up pays here first.  sigma = 10 cells "
                "end INCONCLUSIVE, so the non-certified branch runs too."
            ),
            stresses="experiment, per-call fixed costs of solve and certify",
            bypasses="cli and JSON formats; large dense matrices",
            inputs=1,
            # Its matrices are at most 100 x 100, where a second BLAS thread
            # only spins: one thread ran a grid 1.2 times as fast, at half
            # the CPU time, on a 2-CPU Xeon host.
            blas_threads=1,
            sizes={
                "full": dict(
                    d_values=(5, 10, 20), sigma_values=(0.1, 10.0), m=5, n=100, r=3, reps=6
                ),
                "tiny": dict(
                    d_values=(3, 4), sigma_values=(0.1, 10.0), m=3, n=20, r=2, reps=1
                ),
            },
        ),
        CliRoundtrip(
            name="cli_roundtrip",
            why=(
                "The only workload that touches cli and the JSON formats: problem "
                "loads and file writes.  Couplings are explicit, not views, so a "
                "views-only fast path is bypassed: predicted no change."
            ),
            stresses="cli file reads and writes (load_problem, save_problem, reports)",
            bypasses="any fast path that needs problems built from views",
            inputs=4,
            # A second BLAS thread did not speed up D = 500 on a 2-CPU host.
            blas_threads=1,
            sizes={
                "full": dict(m=10, n=100, d=50, r=3, sigma=1.0),
                "tiny": dict(m=4, n=20, d=6, r=2, sigma=1.0),
            },
        ),
    )
}
