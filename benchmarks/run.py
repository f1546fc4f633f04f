"""Seeded benchmark for otsm: solve -> certify -> report, end to end and by layer.

Run from the repository root::

    python3 benchmarks/run.py --workload align_dense --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``align_dense``, ``grid_small``, ``cli_roundtrip``
(see ``workloads.py`` for why each exists), or ``all`` to run the three
one after another in this process.

One run of a workload is a closed loop with one client (each instance
starts when the previous one ends) and at most ``nproc`` BLAS threads, as
the workload sets:

1. An untimed BLAS warm-up, since the first dense call of a process pays
   for thread start-up.
2. Whole passes over the inputs, in an order drawn from ``--seed``, until
   ``--seconds`` have passed.  Set-ups come between passes: before the
   first, and then as often as needed to keep at least ``SETUP_REPEATS``
   of them spread over the run and to spend ``SETUP_SHARE`` of the run on
   them.  A set-up is a fresh import of ``otsm`` from ``src/`` (numpy
   already loaded) plus building the workload's inputs.  No instance time
   includes a set-up, nor the garbage collection before each instance.
   Before each instance the run also times a fixed piece of reference work
   that calls no ``otsm`` code (``make_reference_work``), repeated to take
   ``REFERENCE_SHARE`` of the instance's time; the untraced result reports
   instance times relative to it.
3. Every instance's outcome is compared with its stored reference in
   ``references.json``, and ``hard_example(3, 2)`` solved from the
   spectral start must reach its optimum 3 with ``certified_global``.

With ``--trace 0`` the result reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, and the result reports
the per-layer metrics from spans recorded around every call into
``otsm`` plus counters on ``numpy.linalg``.  Per-layer times are means per
call, counts are means per instance.  A layer a workload does not call
from outside reports 0.  The spans are written to
``.bench_work/spans-<workload>-seed<seed>.json``.

With ``all``, each workload after the first resets the process's peak
resident memory before it starts (Linux); where that is not possible, its
``peak_rss_mb`` is left out rather than reported with an earlier
workload's peak.  The reset peak still counts memory the process keeps
from earlier workloads, such as BLAS buffers, so it reads higher than a
run of that workload alone.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every outcome matched its reference, 1 when one did not, and 2 when
the run could not start (for example, no ``src/otsm`` beside this
directory); exit 2 prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path


def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


NPROC = _nproc()
# Start BLAS with as many threads as CPUs, whatever the environment says;
# BLAS reads this when numpy loads, so it must precede the imports below.
# Each workload then sets its own count (``Workload.blas_threads``).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402
from tracing import INSTANCE, Tracer  # noqa: E402
from workloads import WORKLOADS, mismatches  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = HERE / "references.json"

#: A run repeats its set-up at least this many times, spread over the run,
#: and beyond that until set-ups have taken ``SETUP_SHARE`` of the run.
SETUP_REPEATS = 8
SETUP_SHARE = 0.1
#: Before each instance the reference work repeats until it has taken this
#: share of the previous instance's time (at least once), so that even a
#: run of a few long instances times it often.
REFERENCE_SHARE = 0.05
NAMES = tuple(WORKLOADS)

#: End-to-end metrics of the result.  ``setup_s`` is the median of the
#: run's set-ups.  ``instance_rel.p50`` is an instance's time as a multiple
#: of the reference work's time: for each input, its median instance time
#: over the median time of the reference work in the same run, then the
#: median over inputs.  On a shared host the speed of the same code swings
#: by up to 1.8x for minutes at a time with the neighbours' load; the
#: reference work, timed beside every instance, slows with it.  Over two
#: sets of ten runs per workload on a shared 2-CPU Xeon host, the wall-time
#: median of an instance spread 6-17% (quartile distance over median) and
#: the ratio 2-10%.  The wall-time median (``instance_s.p50``, with its
#: sample count), the reference time and the throughput are printed beside
#: them.
END_TO_END = {
    "setup_s": "s",
    "instance_rel.p50": "x_ref",
    "peak_rss_mb": "MB",
}

#: Spans whose mean duration per call is reported, by metric name.
SPAN_TIMES = {
    "solver.init_s": "solver.init",
    "solver.solve_s": "solver.solve",
    "core.objective_s": "core.objective",
    "core.stationarity_s": "core.stationarity",
    "core.assemble_stilde_s": "core.assemble_stilde",
    "core.lagrange_multipliers_s": "core.lagrange_multipliers",
    "certificate.certify_s": "certificate.certify",
    "certificate.certificate_matrix_s": "certificate.certificate_matrix",
    "certificate.reduced_certificate_s": "certificate.reduced_certificate",
    "certificate.dual_upper_bound_s": "certificate.dual_upper_bound",
    "cli.load_problem_s": "cli.load_problem",
    "cli.load_solution_s": "cli.load_solution",
    "cli.save_problem_s": "cli.save_problem",
    "cli.main_s": "cli.main",
    "experiment.run_grid_s": "experiment.run_grid",
    "experiment.export_s": "experiment.export_results",
    "builders.build_s": "builders.build",
}

#: Spans whose mean self time per call (duration minus numpy.linalg time
#: and child spans) is reported, by metric name.
SPAN_SELF = {
    "solver.self_s": "solver.solve",
    "certificate.self_s": "certificate.certify",
    "cli.self_s": "cli.main",
    "experiment.self_s": "experiment.run_grid",
}

PER_LAYER = {
    "linalg.dense_calls": "count",
    "linalg.dense_s": "s",
    "linalg.dense_bytes": "bytes",
    "linalg.small_svd_calls": "count",
    "linalg.small_s": "s",
    "linalg.self_s": "s",
    **{name: "s" for name in SPAN_TIMES},
    **{name: "s" for name in SPAN_SELF},
    "solver.cycles": "count",
    "solver.cycle_ms": "ms",
    "solver.converged_frac": "ratio",
    "certificate.certified_frac": "ratio",
    "cli.bytes_read": "bytes",
    "cli.bytes_written": "bytes",
    "experiment.solves": "count",
    "experiment.failures": "count",
    "experiment.nonconverged": "count",
    "experiment.certified_frac": "ratio",
    "trace.overhead_s": "s",
}


def _openblas():
    """``(library, symbol prefix, symbol suffix)`` of numpy's OpenBLAS, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            if hasattr(lib, f"{prefix}_set_num_threads{suffix}"):
                return lib, prefix, suffix
    return None


OPENBLAS = _openblas()


def set_blas_threads(threads: int) -> None:
    """Use ``threads`` OpenBLAS threads from now on (no-op for another BLAS)."""
    if OPENBLAS is not None:
        lib, prefix, suffix = OPENBLAS
        getattr(lib, f"{prefix}_set_num_threads{suffix}")(ctypes.c_int(threads))


def _blas_runtime():
    """(thread count, kernel name) reported by the loaded OpenBLAS, if any."""
    if OPENBLAS is None:
        return os.environ.get("OPENBLAS_NUM_THREADS"), "unknown"
    lib, prefix, suffix = OPENBLAS
    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
    core = getattr(lib, f"{prefix}_get_corename{suffix}")
    threads.restype = ctypes.c_int
    core.restype = ctypes.c_char_p
    return threads(), core().decode()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed) -> dict:
    """What a result depends on besides the code: compare only equal blocks."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    threads, core = _blas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_core": core,
        "blas_threads": threads,
        "nproc": NPROC,
        "cpu": _cpu_model(),
        "seed": seed,
    }


def fresh_import():
    """Import ``otsm`` anew from ``src/``, as a warm interpreter would."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for mod in [m for m in sys.modules if m == "otsm" or m.startswith("otsm.")]:
        del sys.modules[mod]
    otsm = importlib.import_module("otsm")
    if not Path(otsm.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"otsm was imported from {otsm.__file__}, not from {SRC}")
    return otsm


def warm_up():
    """Start BLAS threads and page in LAPACK before anything is timed."""
    a = np.random.default_rng(0).standard_normal((256, 256))
    a = a + a.T
    np.linalg.eigh(a)
    np.linalg.qr(a)
    np.linalg.svd(a)
    a @ a


def make_reference_work():
    """Fixed numpy work that calls no ``otsm`` code: dense products of one
    400 x 400 matrix from a fixed seed, on the workload's BLAS threads.

    It takes about 0.05 s on one thread of a 2-CPU Xeon host and writes into
    one preallocated buffer, so that it does not raise a workload's peak
    memory.  Of the references tried on that host, this one followed every
    workload best: over five runs per workload, run medians of the instance
    over the reference spread 2-7%, against 6-14% for a Python loop of
    10 x 10 SVDs and 9-14% for the instance alone.
    """
    dense = np.random.default_rng(20181108).standard_normal((400, 400))
    out = np.empty_like(dense)

    def reference_work():
        for _ in range(20):
            np.matmul(dense, dense, out=out)

    return reference_work


def _malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


MALLOC_TRIM = _malloc_trim()


def release_memory() -> None:
    """Start the next instance from the same heap, whatever came before it.

    Garbage of earlier instances and set-ups would otherwise be collected,
    or still be held, at points that vary from run to run, and glibc keeps
    freed 32 MB matrices in its heap or not depending on its history:
    align_dense runs of the same code peaked at 237 MB or 251 MB.  So
    collect garbage and hand free heap memory back to the system (glibc
    only).
    """
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started or since
    :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss() -> bool:
    """Restart :func:`peak_rss_mb` from the current resident memory (Linux).

    Returns False where the peak cannot be reset.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def best_by_input(times) -> dict[int, float]:
    """Fastest time of each input among ``(input, seconds)`` pairs."""
    best: dict[int, float] = {}
    for seed, t in times:
        best[seed] = min(t, best.get(seed, t))
    return best


def check_hard_example(otsm) -> list[str]:
    """The three-block instance reaches its known optimum 3 from the spectral start."""
    problem = otsm.builders.hard_example(3, 2)
    report = otsm.solver.solve(problem, otsm.solver.SolverConfig(init="spectral"))
    cert = otsm.certificate.certify(problem, report.solution)
    errors = []
    # The solver stops at a mean block change of 1e-5, so the optimum is met
    # to the tolerance of acceptance criterion 1, not to rounding.
    if abs(report.objective - 3.0) > 1e-4:
        errors.append(f"objective {report.objective!r} != 3")
    if cert.verdict.value != "certified_global":
        errors.append(f"verdict {cert.verdict.value} != certified_global")
    return errors


class Run:
    """One workload's run: set-up, timed passes, checks and metrics."""

    def __init__(self, wl, args, refs, tracer, workdir):
        self.wl = wl
        self.args = args
        self.params = wl.sizes[args.size]
        self.refs = refs.get(args.size, {}).get(wl.name, {})
        self.tr = tracer
        self.tr.dense_min = wl.dense_min(self.params)
        self.workdir = workdir
        self.order = random.Random(f"{wl.name}:{args.seed}")
        self.attempted = 0
        self.failures: list[str] = []
        self.pipelines = 0
        self.extras: dict[str, float] = {}
        #: Sample counts of reported metrics, and metrics only printed.
        self.counts: dict[str, int] = {}
        self.printed: dict[str, tuple] = {}
        #: Reference work timed before each instance (end-to-end run only:
        #: in a traced run its numpy.linalg calls would count as kernels).
        self.reference_work = None
        self.reference_times: list[float] = []
        self.last_seconds = 0.0

    def setup(self) -> float:
        """Import ``otsm`` afresh and build every input; returns the seconds taken."""
        t0 = time.perf_counter()
        with self.tr.span("setup"):
            otsm = fresh_import()
            inputs = [
                self.wl.build(otsm, self.params, seed, self.workdir, self.tr)
                for seed in range(self.wl.inputs)
            ]
        self.otsm, self.inputs = otsm, inputs
        return time.perf_counter() - t0

    def instance(self, seed, probe) -> float | None:
        """Run, time and check one instance; None when it failed."""
        wl, otsm, inp = self.wl, self.otsm, self.inputs[seed]
        self.attempted += 1
        self.tr.instance = self.attempted
        release_memory()
        spent = 0.0
        while self.reference_work is not None:
            t0 = time.perf_counter()
            self.reference_work()
            self.reference_times.append(time.perf_counter() - t0)
            spent += self.reference_times[-1]
            if spent >= REFERENCE_SHARE * self.last_seconds:
                break
        try:
            t0 = time.perf_counter()
            with self.tr.span(INSTANCE):
                result = wl.run(otsm, self.params, inp, self.tr)
            seconds = self.last_seconds = time.perf_counter() - t0
            outcome = wl.outcome(self.params, inp, result)
            extras = wl.probe(otsm, self.params, inp, result, self.tr) if probe else {}
        except Exception as exc:  # an instance that raises is a failed instance
            self.failures.append(f"input {seed}: {type(exc).__name__}: {exc}")
            return None
        ref = self.refs.get(str(seed))
        bad = ["no stored reference"] if ref is None else mismatches(outcome, ref)
        if bad:
            self.failures.append(f"input {seed}: " + "; ".join(bad))
            return None
        self.pipelines += wl.pipelines(outcome)
        for key, value in extras.items():
            self.extras[key] = self.extras.get(key, 0) + value
        return seconds

    def passes(self, seconds, probe=False, setups=None) -> list[tuple[int, float]]:
        """Whole passes over the inputs until ``seconds`` have passed (at least one).

        Returns ``(input, seconds)`` for every instance that passed its
        checks.  Given a ``setups`` list holding the time of the set-up made
        just before, it sets up again before a pass while the list holds
        fewer than ``SETUP_REPEATS`` times pro rata of the time spent in
        passes, or while set-ups have taken less than ``SETUP_SHARE`` of
        the run.
        """
        times = []
        start = time.perf_counter()
        while True:
            while setups is not None:
                elapsed = time.perf_counter() - start
                in_setups = sum(setups[1:])
                if len(setups) >= SETUP_REPEATS * (elapsed - in_setups) / seconds and (
                    in_setups >= SETUP_SHARE * elapsed
                ):
                    break
                setups.append(self.setup())
            for seed in self.order.sample(range(self.wl.inputs), self.wl.inputs):
                t = self.instance(seed, probe)
                if t is not None:
                    times.append((seed, t))
            if time.perf_counter() - start >= seconds:
                return times

    def finish_checks(self):
        self.attempted += 1
        try:
            bad = check_hard_example(self.otsm)
        except Exception as exc:  # a check that raises is a failed check
            bad = [f"{type(exc).__name__}: {exc}"]
        if bad:
            self.failures.append("hard_example(3, 2): " + "; ".join(bad))

    def end_to_end(self) -> dict:
        warm_up()
        self.reference_work = make_reference_work()
        self.reference_work()  # untimed: first calls page in code
        setups = [self.setup()]
        times = self.passes(self.args.seconds, setups=setups)
        self.finish_checks()
        by_input: dict[int, list[float]] = {}
        for seed, t in times:
            by_input.setdefault(seed, []).append(t)
        ref = statistics.median(self.reference_times)
        relative = [statistics.median(ts) / ref for ts in by_input.values()]
        total = sum(t for _, t in times)
        p50 = statistics.median(t for _, t in times) if times else 0.0
        self.counts = {"setup_s": len(setups), "instance_rel.p50": len(times)}
        # Printed for reading, not part of the result: on a shared host they
        # follow the neighbours' load (see END_TO_END).
        self.printed = {
            "instance_s.p50": (p50, "s", f"n={len(times)}"),
            "reference_s.p50": (ref, "s", f"n={len(self.reference_times)}"),
            "solves_per_s": (self.pipelines / total if total else 0.0, "1/s", ""),
        }
        return {
            "setup_s": statistics.median(setups),
            "instance_rel.p50": statistics.median(relative) if relative else 0.0,
            "peak_rss_mb": peak_rss_mb(),
        }

    def per_layer(self) -> dict:
        tr = self.tr
        warm_up()
        tr.active = True
        self.setup()
        tr.active = False
        # Untraced and traced passes alternate, so that the tracing overhead
        # compares best times taken over the same stretch of the run.
        untraced, traced_times = [], []
        start = time.perf_counter()
        while True:
            untraced.extend(self.passes(0.0))
            tr.active = True
            traced_times.extend(self.passes(0.0, probe=True))
            tr.active = False
            if time.perf_counter() - start >= self.args.seconds:
                break
        self.finish_checks()
        best_untraced = best_by_input(untraced)
        best_traced = best_by_input(traced_times)
        overheads = [t - best_untraced[seed] for seed, t in best_traced.items()
                     if seed in best_untraced]

        by_name: dict[str, list] = {}
        for span in tr.spans:
            by_name.setdefault(span.name, []).append(span)
        traced = [s.duration for s in by_name.get(INSTANCE, [])]
        n = max(len(traced), 1)
        self.printed = {"trace.instances": (len(traced), "count", "")}

        def mean(values):
            values = list(values)
            return sum(values) / len(values) if values else 0.0

        def ratio(num, den):
            den = self.extras.get(den, 0)
            return self.extras.get(num, 0) / den if den else 0.0

        k = tr.kernels
        solve_s = sum(s.duration for s in by_name.get("solver.solve", []))
        cycles = self.extras.get("solver.cycles", 0)
        out = {
            "linalg.dense_calls": k["dense_calls"] / n,
            "linalg.dense_s": k["dense_s"] / n,
            "linalg.dense_bytes": k["dense_bytes"] / n,
            "linalg.small_svd_calls": k["small_svd_calls"] / n,
            "linalg.small_s": k["small_s"] / n,
            "linalg.self_s": k["s"] / n,
        }
        for metric, name in SPAN_TIMES.items():
            out[metric] = mean(s.duration for s in by_name.get(name, []))
        for metric, name in SPAN_SELF.items():
            out[metric] = mean(s.self_s for s in by_name.get(name, []))
        out.update(
            {
                "solver.cycles": ratio("solver.cycles", "solver.solves"),
                "solver.cycle_ms": 1000.0 * solve_s / cycles if cycles else 0.0,
                "solver.converged_frac": ratio("solver.converged", "solver.solves"),
                "certificate.certified_frac": ratio(
                    "certificate.certified", "certificate.certifies"
                ),
                "cli.bytes_read": self.extras.get("cli.bytes_read", 0) / n,
                "cli.bytes_written": self.extras.get("cli.bytes_written", 0) / n,
                "experiment.solves": self.extras.get("experiment.solves", 0) / n,
                "experiment.failures": self.extras.get("experiment.failures", 0) / n,
                "experiment.nonconverged": self.extras.get("experiment.nonconverged", 0) / n,
                "experiment.certified_frac": ratio(
                    "experiment.certified", "experiment.solves"
                ),
                "trace.overhead_s": statistics.median(overheads) if overheads else 0.0,
            }
        )
        return out


def write_spans(tracer, path, env):
    payload = {
        "environment": env,
        "spans": [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "instance": s.instance,
                "self_s": s.self_s,
            }
            for s in tracer.spans
        ],
    }
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def show(workload, metric, value, unit, note=""):
    note = f"  ({note})" if note else ""
    print(f"{workload:14s} {metric:34s} {value:14.6g} {unit}{note}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="problem sizes; 'tiny' is for the smoke test",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "otsm" / "__init__.py").is_file():
        print(f"error: no otsm package at {SRC / 'otsm'}", file=sys.stderr)
        return 2
    try:
        with open(REFERENCES, encoding="utf-8") as fh:
            refs = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read references {REFERENCES}: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = NAMES if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    metrics, attempted, failures = {}, 0, []
    for index, name in enumerate(names):
        set_blas_threads(WORKLOADS[name].blas_threads or NPROC)
        env = environment(args.seed)
        print(f"{name} environment " + json.dumps(env, sort_keys=True))
        peak_measured = True
        if index:
            # Restart the process's peak from what it holds after the
            # earlier workloads, their garbage released.
            release_memory()
            peak_measured = reset_peak_rss()
        tracer = Tracer()
        if args.trace:
            tracer.install()
        workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
        try:
            run = Run(WORKLOADS[name], args, refs, tracer, workdir)
            values = run.per_layer() if args.trace else run.end_to_end()
            if not peak_measured:
                values.pop("peak_rss_mb", None)
                print(f"{name} peak_rss_mb not measured: cannot reset the process peak")
        except ImportError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            tracer.uninstall()
            shutil.rmtree(workdir, ignore_errors=True)
        if args.trace:
            spans = WORK / f"spans-{name}-seed{args.seed}.json"
            write_spans(tracer, spans, env)
            print(f"{name} spans written to {spans}")
        attempted += run.attempted
        failures.extend(f"{name}: {f}" for f in run.failures)
        for metric, value in values.items():
            note = f"n={run.counts[metric]}" if metric in run.counts else ""
            show(name, metric, value, units[metric], note)
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = {
                "value": value,
                "unit": units[metric],
            }
        for metric, (value, unit, note) in run.printed.items():
            show(name, metric, value, unit, note)
        show(
            name, "fail_frac", len(run.failures) / run.attempted, "ratio",
            f"{len(run.failures)} of {run.attempted}",
        )
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
