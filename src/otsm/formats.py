"""The file formats: problem, solution and report files, all JSON.

Every file is written atomically via a temporary sibling.  Writers indent
objects two spaces a level and put each matrix row (any list of numbers)
on one line, with numbers in shortest round-trip form; they stream the
text, one coupling pair or block at a time, through the C JSON encoder.

* problem file — either explicit couplings::

      {"dims": [d1, ..., dm], "r": r,
       "S": [{"i": 1, "j": 2, "data": [[...], ...]}, ...]}

  with 1-based block indices ``i < j`` and ``data`` of shape ``d_i x d_j``
  (absent pairs are zero couplings), or raw data views::

      {"r": r, "views": [[[...], ...], ...]}

  which builds the cross-Gram agreement problem from the m views
  (``dims`` is optional here and cross-checked when present).  Exactly
  one of ``"S"`` and ``"views"`` must be present.

* solution file — ``{"blocks": [...]}`` with one ``d_i x r`` matrix per
  block, written as nested row lists; a flat row-major list per block is
  also accepted on input when the problem fixes the shapes.  Blocks are
  checked for orthonormality on load: deviations above 1e-8 warn, above
  1e-4 error out.

* report file — objective, iterations, stop_reason, stationarity maxima,
  optional certificate summary (``taus``, ``verdict`` and ``gap_bound``)
  and objective trace.  A solve report ``X.json`` has its solution written
  beside it as ``X.solution.json``.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from collections.abc import Iterator

import numpy as np

from .builders import ViewData, build_maxdiff
from .core import (
    BlockDims,
    BlockOrthogonal,
    OtsmProblem,
    ValidationError,
    _as_matrix,
    _is_int,
    _pairs,
    _with_pairs,
)

__all__ = [
    "load_problem",
    "save_problem",
    "load_solution",
    "save_solution",
]

#: Orthonormality deviation that draws a warning when loading a solution.
SOLUTION_WARN_TOL = 1e-8
#: Orthonormality deviation that rejects a loaded solution outright.
SOLUTION_ERROR_TOL = 1e-4


def atomic_write_text(path, chunks) -> None:
    """Write the strings ``chunks`` to ``path`` via a temporary sibling and an
    atomic rename.

    The file is opened with ``newline=""``, so the bytes written are exactly
    the UTF-8 encoding of the chunks on every platform.  On failure (an
    ``OSError``, or an error raised while ``chunks`` is iterated) the error
    propagates, the temporary file is removed and the destination keeps its
    old content (or stays absent).
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix="." + os.path.basename(path) + "-", suffix=".tmp"
        )
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp_path, path)
        tmp_path = None
    finally:
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass


# --------------------------------------------------------------------------
# JSON plumbing


#: ``json.dumps`` with ``indent`` runs the pure-Python encoder; this one,
#: without, runs the C encoder on every scalar and every list of numbers.
_ENCODER = json.JSONEncoder(allow_nan=False)


def _json_chunks(path, value, indent="\n"):
    """Yield the text of a JSON file holding ``value`` in pieces; a NaN or
    infinity (float64 overflow) raises ValidationError when it is reached.

    Objects, and lists (or iterators) of lists, objects or matrices, take
    one line per item, indented two spaces a level; a list of numbers, such
    as a matrix row, takes one line.  A matrix (a 2-D ndarray) is converted
    one row at a time.  ``indent`` is the line break before ``value``'s
    closing bracket; the outermost value ends the file with a newline.
    """
    if isinstance(value, np.ndarray):
        value = map(np.ndarray.tolist, value)
    if isinstance(value, dict):
        items = ((_ENCODER.encode(k) + ": ", v) for k, v in value.items())
        opener, closer = "{}"
    elif isinstance(value, Iterator) or (
        isinstance(value, list) and value and isinstance(value[0], (dict, list, np.ndarray))
    ):
        items = (("", v) for v in value)
        opener, closer = "[]"
    else:
        try:
            text = _ENCODER.encode(value)
        except ValueError as exc:
            raise ValidationError(f"cannot write {path}: {exc} (float64 overflow)") from exc
        yield text
        return
    separator = opener
    for key, item in items:
        yield separator + indent + "  " + key
        yield from _json_chunks(path, item, indent + "  ")
        separator = ","
    yield opener + closer if separator == opener else indent + closer
    if indent == "\n":
        yield "\n"


def _write_json(path, payload) -> None:
    atomic_write_text(path, _json_chunks(path, payload))


def _read_json(path, kind, object_hook=None):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_hook=object_hook)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{kind} file {path}: not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past the interpreter's digit limit, or
        # nesting deeper than the recursion limit.
        raise ValidationError(f"{kind} file {path}: malformed JSON: {exc}") from exc


def _bad_field(path, kind, field, msg):
    return ValidationError(f"{kind} file {path}: field '{field}': {msg}")


# --------------------------------------------------------------------------
# Problem files


def _dims_field(raw, path):
    """The problem file's ``dims``: a non-empty list of integers."""
    dims = raw["dims"]
    if not (isinstance(dims, list) and dims and all(map(_is_int, dims))):
        msg = f"expected a non-empty list of integers, got {dims!r}"
        raise _bad_field(path, "problem", "dims", msg)
    return tuple(dims)


def _decode_coupling(entry):
    """``json.load``'s object hook for problem files: an object with exactly the
    fields ``i``, ``j`` and ``data`` of a coupling entry gets its ``data`` as
    the read-only float64 matrix :func:`otsm.core._as_matrix` makes of it, as
    soon as the object is decoded, so that no coupling's nested lists outlive
    their own entry.  Data that does not convert is left as it is, for
    :func:`load_problem` to name the defect."""
    if entry.keys() == {"i", "j", "data"}:
        try:
            entry["data"] = _as_matrix(entry["data"], "data")
        except ValidationError:
            pass
    return entry


def load_problem(path) -> OtsmProblem:
    """Load and validate a problem file; raises ValidationError on defects.

    An explicit-couplings file is checked in one pass: ``dims`` and ``r``
    first, then each coupling in file order, named by its ``S[k].data``.
    Each coupling's ``data`` is converted to a read-only float64 matrix as
    it is decoded (see :func:`_decode_coupling`), and the problem keeps
    those matrices, with no further copy: the load holds the file's text
    and the couplings' arrays, and one coupling's nested lists at a time.
    """
    raw = _read_json(path, "problem", _decode_coupling)
    if not isinstance(raw, dict):
        raise ValidationError(f"problem file {path}: top level must be an object")
    unknown = set(raw) - {"dims", "r", "S", "views"}
    if unknown:
        field = sorted(unknown)[0]
        raise _bad_field(path, "problem", field, "unknown field")
    if "r" not in raw:
        raise _bad_field(path, "problem", "r", "required field is missing")
    r = raw["r"]
    if not _is_int(r):
        raise _bad_field(path, "problem", "r", f"expected an integer, got {r!r}")
    has_s = "S" in raw
    has_views = "views" in raw
    if has_s == has_views:
        raise ValidationError(
            f"problem file {path}: exactly one of fields 'S' and 'views' "
            f"must be present"
        )

    if has_views:
        views_raw = raw["views"]
        if not isinstance(views_raw, list) or len(views_raw) < 2:
            raise _bad_field(
                path, "problem", "views", "expected a list of at least 2 views"
            )
        dims_given = _dims_field(raw, path) if "dims" in raw else None
        try:
            views = ViewData(views_raw)
        except ValidationError as exc:
            raise _bad_field(path, "problem", "views", exc) from exc
        widths = tuple(v.shape[1] for v in views.views)
        if dims_given not in (None, widths):
            msg = f"{dims_given} does not match view widths {widths}"
            raise _bad_field(path, "problem", "dims", msg)
        try:
            return build_maxdiff(views, r)
        except ValidationError as exc:
            raise ValidationError(f"problem file {path}: {exc}") from exc

    if "dims" not in raw:
        raise _bad_field(path, "problem", "dims", "required field is missing")
    dims_list = _dims_field(raw, path)
    if 8 * sum(dims_list) ** 2 > np.iinfo(np.intp).max:
        raise _bad_field(path, "problem", "dims", "a D x D float64 matrix is past numpy's limit")
    try:
        dims = BlockDims(dims_list, r)
    except ValidationError as exc:
        raise ValidationError(f"problem file {path}: {exc}") from exc
    entries = raw["S"]
    if not isinstance(entries, list):
        raise _bad_field(path, "problem", "S", "expected a list of coupling entries")
    sblocks = {}
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise _bad_field(path, "problem", f"S[{k}]", "expected an object")
        extra = set(entry) - {"i", "j", "data"}
        if extra:
            raise _bad_field(
                path, "problem", f"S[{k}].{sorted(extra)[0]}", "unknown field"
            )
        for need in ("i", "j", "data"):
            if need not in entry:
                raise _bad_field(
                    path, "problem", f"S[{k}].{need}", "required field is missing"
                )
        i, j = entry["i"], entry["j"]
        if not (_is_int(i) and _is_int(j) and 1 <= i < j <= dims.m):
            msg = f"indices (i={i!r}, j={j!r}) must satisfy 1 <= i < j <= m={dims.m} (1-based)"
            raise _bad_field(path, "problem", f"S[{k}]", msg)
        if (i - 1, j - 1) in sblocks:
            raise _bad_field(path, "problem", f"S[{k}]", f"duplicate pair (i={i}, j={j})")
        data = entry["data"]
        if not isinstance(data, np.ndarray):  # left by _decode_coupling: raises
            data = _as_matrix(data, f"problem file {path}: field 'S[{k}].data'")
        expected = (dims.dims[i - 1], dims.dims[j - 1])
        if data.shape != expected:
            msg = f"shape {data.shape} does not match (d_{i}, d_{j}) = {expected}"
            raise _bad_field(path, "problem", f"S[{k}].data", msg)
        sblocks[(i - 1, j - 1)] = data
    return _with_pairs(dims, sblocks)


def save_problem(problem: OtsmProblem, path) -> None:
    """Write a problem to a file in the explicit-couplings layout; a problem
    that keeps its views keeps no pair (see :func:`otsm.core._pairs`)."""
    _write_json(path, {
        "dims": list(problem.dims.dims),
        "r": problem.dims.r,
        "S": ({"i": i + 1, "j": j + 1, "data": s} for (i, j), s in _pairs(problem)),
    })


# --------------------------------------------------------------------------
# Solution files


def load_solution(path, dims: BlockDims | None = None) -> BlockOrthogonal:
    """Load a solution file, checking orthonormality (warn/error) and shape.

    Flat row-major block entries are reshaped using ``dims`` when given;
    nested entries stand alone.  Orthonormality deviations above
    ``SOLUTION_WARN_TOL`` warn, above ``SOLUTION_ERROR_TOL`` raise.
    """
    raw = _read_json(path, "solution")
    if not isinstance(raw, dict):
        raise ValidationError(f"solution file {path}: top level must be an object")
    if "blocks" not in raw:
        raise _bad_field(path, "solution", "blocks", "required field is missing")
    entries = raw["blocks"]
    if not isinstance(entries, list):
        raise _bad_field(path, "solution", "blocks", "expected a list of blocks")
    if dims is not None and len(entries) != dims.m:
        msg = f"got {len(entries)} blocks, expected m={dims.m}"
        raise _bad_field(path, "solution", "blocks", msg)
    blocks = []
    for k, entry in enumerate(entries):
        field = f"blocks[{k}]"
        if isinstance(entry, list) and entry and not isinstance(entry[0], list):
            # A flat row-major block: only the problem fixes its shape.
            if dims is None:
                msg = "flat block needs a problem to fix its shape; use nested rows"
                raise _bad_field(path, "solution", field, msg)
            d, r = dims.dims[k], dims.r
            if len(entry) != d * r:
                raise _bad_field(
                    path, "solution", field, f"has {len(entry)} entries, expected {d}x{r}"
                )
            entry = [entry[row * r : (row + 1) * r] for row in range(d)]
        blocks.append(_as_matrix(entry, f"solution file {path}: field '{field}'"))
    try:
        point = BlockOrthogonal(blocks, dims=dims, orth_tol=SOLUTION_ERROR_TOL)
    except ValidationError as exc:
        raise ValidationError(f"solution file {path}: {exc}") from exc
    deviation = point.orthonormality_error()
    if deviation > SOLUTION_WARN_TOL:
        warnings.warn(
            f"solution file {path}: blocks deviate from orthonormality "
            f"by {deviation:.3e}",
            stacklevel=2,
        )
    return point


def save_solution(point: BlockOrthogonal, path) -> None:
    """Write a solution file with nested row lists per block."""
    _write_json(path, {"blocks": list(point.blocks)})


# --------------------------------------------------------------------------
# Report files


def _solution_sibling(report_path) -> str:
    """Solution path written alongside a report: X.json -> X.solution.json."""
    report_path = os.fspath(report_path)
    base, ext = os.path.splitext(report_path)
    if ext.lower() == ".json":
        return base + ".solution.json"
    return report_path + ".solution.json"


def _certificate_payload(cert) -> dict:
    return {
        "taus": list(cert.taus),
        "verdict": cert.verdict.value,
        "gap_bound": cert.gap_bound,
    }


def _stationarity_payload(report) -> dict:
    return {
        "max_grad_residual": report.max_grad_residual,
        "max_asymmetry": report.max_asymmetry,
    }


def _save_solve_report(path, report, cert, trace) -> str:
    """Write a solve report to ``path`` and its solution beside it.

    ``cert`` (a CertificateReport or None) and, when ``trace`` is true, the
    objective trace are embedded.  Returns the solution's path.
    """
    payload = {
        "objective": report.objective,
        "iterations": report.iterations,
        "stop_reason": report.stop_reason.value,
        "stationarity": _stationarity_payload(report.stationarity),
    }
    if cert is not None:
        payload["certificate"] = _certificate_payload(cert)
    if trace:
        payload["objective_trace"] = list(report.objective_trace)
    chunks = list(_json_chunks(path, payload))  # checked before either file is written
    solution_path = _solution_sibling(path)
    save_solution(report.solution, solution_path)
    atomic_write_text(path, chunks)
    return solution_path


def _save_certify_report(path, objective, cert) -> None:
    """Write the report of a certificate at a point of the given objective."""
    _write_json(path, {
        "objective": objective,
        "stationarity": _stationarity_payload(cert.stationarity),
        "certificate": _certificate_payload(cert),
    })
