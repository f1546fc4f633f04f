"""Regenerate ``references.json``: the stored outcome of every pinned input.

Run from the repository root, only for a change that is meant to alter
results, and say in that change why the references moved::

    python3 benchmarks/make_references.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run  # sets BLAS threads before numpy loads
from tracing import Tracer
from workloads import REL_TOL, SIZES, WORKLOADS


def main() -> int:
    otsm = run.fresh_import()
    tracer = Tracer()  # never started: spans are no-ops here
    refs = {"rel_tol": REL_TOL, "environment": run.environment(None)}
    run.WORK.mkdir(exist_ok=True)
    for size in SIZES:
        refs[size] = {}
        for name, wl in WORKLOADS.items():
            run.set_blas_threads(wl.blas_threads or run.NPROC)
            refs.setdefault("blas_threads", {})[name] = run.environment(None)["blas_threads"]
            params = wl.sizes[size]
            workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=run.WORK)
            try:
                outcomes = {}
                for seed in range(wl.inputs):
                    inp = wl.build(otsm, params, seed, workdir, tracer)
                    result = wl.run(otsm, params, inp, tracer)
                    outcomes[str(seed)] = wl.outcome(params, inp, result)
                    print(size, name, seed, flush=True)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            refs[size][name] = outcomes
    text = json.dumps(refs, indent=1, sort_keys=True) + "\n"
    run.REFERENCES.write_text(text, encoding="utf-8")
    print(f"wrote {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
