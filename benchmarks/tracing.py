"""Spans and numpy.linalg kernel counters for the traced benchmark run.

The benchmark records spans from its own files only: one span around each
call it makes into a public function of ``otsm``.  Kernel work inside the
library is seen through wrappers that this module installs on
``numpy.linalg``; ``otsm`` looks those functions up at call time, so the
wrappers see every decomposition the library performs.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass

import numpy as np

#: numpy.linalg functions wrapped in a traced run: every decomposition,
#: solver and norm a later version of the library might call, not only the
#: ones it calls today, so that a new dense kernel cannot go uncounted.
WRAPPED = (
    "cholesky",
    "det",
    "eig",
    "eigh",
    "eigvals",
    "eigvalsh",
    "inv",
    "lstsq",
    "matrix_norm",
    "matrix_rank",
    "norm",
    "pinv",
    "qr",
    "slogdet",
    "solve",
    "svd",
    "svdvals",
)

#: Name of the root span that encloses one timed instance.
INSTANCE = "instance"


@dataclass
class Span:
    """One call across a layer boundary.

    ``parent`` indexes the enclosing span in :attr:`Tracer.spans` (None for
    a root); ``child_s`` is the time covered by direct children, both child
    spans and kernel calls, so ``self_s`` is the time spent in the layer
    itself.
    """

    name: str
    start: float
    parent: int | None
    instance: int
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _arrays(value):
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [v for v in value if isinstance(v, np.ndarray)]
    return []


class Tracer:
    """Span recorder plus per-instance numpy.linalg counters.

    Inactive until ``active`` is set; while inactive, spans are no-ops and
    the kernel wrappers call straight through.  Kernel counters accumulate only
    inside an :data:`INSTANCE` root span, so probe calls made after an
    instance do not inflate the per-instance counts.
    """

    def __init__(self):
        self.active = False
        self.spans: list[Span] = []
        self.instance = -1
        #: A linalg call is dense when an input or output has both trailing
        #: sides at least this large (D - r of the current problem).
        self.dense_min = None
        self.kernels = {
            "dense_calls": 0,
            "dense_s": 0.0,
            "dense_bytes": 0,
            "small_svd_calls": 0,
            "small_s": 0.0,
            "calls": 0,
            "s": 0.0,
        }
        self._stack: list[int] = []
        self._originals: dict = {}

    @contextlib.contextmanager
    def span(self, name):
        if not self.active:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), parent, self.instance)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += rec.duration

    def _in_instance(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[0]].name == INSTANCE

    def _kernel(self, name, args, out, seconds):
        if self._stack:
            self.spans[self._stack[-1]].child_s += seconds
        if not self._in_instance():
            return
        inputs = [a for a in args if isinstance(a, np.ndarray)]
        mats = [a for a in inputs + _arrays(out) if a.ndim >= 2]
        dense = self.dense_min is not None and any(
            min(a.shape[-2:]) >= self.dense_min for a in mats
        )
        k = self.kernels
        k["calls"] += 1
        k["s"] += seconds
        if dense:
            k["dense_calls"] += 1
            k["dense_s"] += seconds
            k["dense_bytes"] += sum(8 * a.size for a in inputs)
        elif name in ("svd", "svdvals"):
            k["small_svd_calls"] += 1
            k["small_s"] += seconds

    def install(self):
        """Wrap the :data:`WRAPPED` functions of ``numpy.linalg``.

        Call before ``otsm`` is imported, so that even a ``from numpy.linalg
        import ...`` in the library binds the wrapper.
        """
        self._originals = {
            name: getattr(np.linalg, name) for name in WRAPPED if hasattr(np.linalg, name)
        }
        for name, fn in self._originals.items():
            setattr(np.linalg, name, self._wrap(name, fn))

    def uninstall(self):
        """Put back the functions :meth:`install` replaced."""
        for name, fn in self._originals.items():
            setattr(np.linalg, name, fn)
        self._originals = {}

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self._kernel(name, args, out, time.perf_counter() - t0)
            return out

        return wrapper
