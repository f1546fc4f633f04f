"""Smoke test of the benchmark itself, at tiny sizes; takes about a minute.

Run from the repository root::

    python3 benchmarks/smoke.py

It checks that every workload, traced and untraced, prints each metric
named in ``BENCHMARK.json`` with its unit and ends with a well-formed
result; that a deliberately wrong reference makes the command report a
failure and exit non-zero; and that without ``src/otsm`` the command exits
non-zero without a result.  It is a script, not a pytest module, so that
the library's test suite never imports the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "benchmarks/run.py", "--seed", "7", "--seconds", "1", *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_metrics(spec, errors):
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for wl in spec["workloads"]:
        for trace, units in wanted.items():
            label = f"{wl['name']} --trace {trace}"
            proc = bench("--workload", wl["name"], "--trace", str(trace), "--size", "tiny")
            res = last_json(proc)
            if proc.returncode != 0 or res is None:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(res)}")
            if not (res["correct"] and res["attempted"] >= 1 and res["failed"] == 0):
                errors.append(f"{label}: not correct: {res}")
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != units:
                errors.append(f"{label}: metrics {got} != BENCHMARK.json {units}")
            lines = proc.stdout.splitlines()
            for name, unit in units.items():
                if not any(ln.split()[1:2] == [name] and f" {unit}" in ln for ln in lines):
                    errors.append(f"{label}: no printed line for {name} [{unit}]")


def copy_tree(with_program):
    """A scratch checkout holding BENCHMARK.json, benchmarks/ and, if asked, src/."""
    tree = Path(tempfile.mkdtemp(prefix="tree-", dir=WORK))
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    shutil.copytree(HERE, tree / "benchmarks", ignore=ignore)
    if with_program:
        shutil.copytree(ROOT / "src", tree / "src", ignore=ignore)
    return tree


def check_wrong_reference(errors):
    tree = copy_tree(with_program=True)
    try:
        path = tree / "benchmarks" / "references.json"
        refs = json.loads(path.read_text(encoding="utf-8"))
        refs["tiny"]["align_dense"]["0"]["objective"] *= 1.001
        path.write_text(json.dumps(refs), encoding="utf-8")
        proc = bench("--workload", "align_dense", "--size", "tiny", cwd=tree)
    finally:
        shutil.rmtree(tree)
    res = last_json(proc)
    if proc.returncode == 0 or res is None or res["correct"] or res["failed"] < 1:
        errors.append(f"wrong reference not reported: exit {proc.returncode}, {res}")


def check_without_program(errors):
    tree = copy_tree(with_program=False)
    try:
        proc = bench("--workload", "align_dense", "--trace", "0", cwd=tree)
    finally:
        shutil.rmtree(tree)
    if proc.returncode == 0 or last_json(proc) is not None:
        errors.append(f"run without src/otsm: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    WORK.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors: list[str] = []
    check_metrics(spec, errors)
    check_wrong_reference(errors)
    check_without_program(errors)
    for err in errors:
        print(f"FAIL {err}")
    print("smoke test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
