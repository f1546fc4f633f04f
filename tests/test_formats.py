"""The JSON writer: layout, round trips, errors mid-stream and memory."""

import json
import tracemalloc
from types import MappingProxyType

import numpy as np
import pytest

from conftest import make_hard_problem
from otsm.builders import ViewData, build_maxdiff, synth_procrustes
from otsm.cli import main
from otsm.core import BlockDims, OtsmProblem, ValidationError
from otsm.formats import _json_chunks, load_problem, save_problem


def _ragged_problem():
    rng = np.random.default_rng(5)
    dims = (2, 3, 4)
    sblocks = {(i, j): rng.standard_normal((dims[i], dims[j]))
               for (i, j) in ((1, 2), (0, 2))}
    return OtsmProblem(BlockDims(dims, 2), sblocks)


def _view_problem():
    rng = np.random.default_rng(6)
    return build_maxdiff(ViewData([rng.standard_normal((2, d)) for d in (2, 3, 4)]), 2)


PROBLEMS = {
    "ragged": _ragged_problem,
    "no_couplings": lambda: OtsmProblem(BlockDims((3, 2), 1), {}),
    "views": _view_problem,
}


def _old_payload(problem):
    """The problem file's payload as plain lists, in ascending pair order."""
    return {
        "dims": list(problem.dims.dims),
        "r": problem.dims.r,
        "S": [{"i": i + 1, "j": j + 1, "data": s.tolist()}
              for (i, j), s in sorted(problem.sblocks.items())],
    }


def _rows(value):
    """Every list of numbers in a decoded JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    elif not isinstance(value, list):
        return []
    elif not any(isinstance(v, (list, dict)) for v in value):
        return [value]
    return [row for item in value for row in _rows(item)]


def _assert_one_row_per_line(path):
    text = path.read_text(encoding="utf-8")
    lines = {line.strip().rstrip(",") for line in text.splitlines()}
    rows = _rows(json.loads(text))
    assert rows
    for row in rows:
        encoded = json.dumps(row)
        assert encoded in lines or any(line.endswith(": " + encoded) for line in lines)
    assert text.endswith("}\n")


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_save_load_is_bit_exact(tmp_path, kind):
    problem = PROBLEMS[kind]()
    path = tmp_path / "p.json"
    save_problem(problem, path)
    loaded = load_problem(path)
    assert loaded.dims == problem.dims
    assert loaded.sblocks.keys() == problem.sblocks.keys()
    for key, block in problem.sblocks.items():
        assert np.array_equal(loaded.sblocks[key], block)
    assert json.loads(path.read_text(encoding="utf-8")) == _old_payload(problem)


def test_text_decodes_as_the_indented_dump():
    payload = {
        "dims": [2, 3], "r": 1, "empty": [], "none": {}, "flag": True, "name": "x",
        "S": [{"i": 1, "j": 2, "data": [[0.1, 1e-300, -2.5], [1 / 3, 7.0, 1e300]]}],
        "nested": {"taus": [1.0, 2.0], "deep": [[[1.0]]]},
    }
    text = "".join(_json_chunks("x.json", payload))
    assert json.loads(text) == json.loads(json.dumps(payload, indent=2))
    assert "\n        [0.1, 1e-300, -2.5],\n" in text
    arrays = dict(payload, S=iter([{"i": 1, "j": 2, "data": np.array(payload["S"][0]["data"])}]))
    assert "".join(_json_chunks("x.json", arrays)) == text


def test_each_matrix_row_is_one_line(tmp_path, capsys):
    problem = tmp_path / "p.json"
    save_problem(_ragged_problem(), problem)
    _assert_one_row_per_line(problem)
    report, cert = tmp_path / "r.json", tmp_path / "c.json"
    assert main(["solve", "--input", str(problem), "--init", "spectral", "--certify",
                 "--trace", "--out", str(report)]) in (0, 2)
    solution = tmp_path / "r.solution.json"
    main(["certify", "--input", str(problem), "--solution", str(solution),
          "--out", str(cert)])
    for path in (report, solution, cert):
        _assert_one_row_per_line(path)


def test_nan_in_last_pair_keeps_old_file(tmp_path):
    problem = make_hard_problem()
    pairs = dict(problem.sblocks)
    pairs[(1, 2)] = np.full((3, 3), np.nan)
    problem._sblocks = MappingProxyType(pairs)
    path = tmp_path / "p.json"
    path.write_bytes(b"old bytes")
    with pytest.raises(ValidationError, match="cannot write .*p.json"):
        save_problem(problem, path)
    assert path.read_bytes() == b"old bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["p.json"]


def test_save_problem_peak_below_file_size(tmp_path):
    problem, _ = synth_procrustes(10, 100, 50, 3, 1.0, 0)
    path = tmp_path / "p.json"
    save_problem(problem, path)
    tracemalloc.start()
    try:
        save_problem(problem, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_loaded_couplings_are_the_readers_arrays(tmp_path, monkeypatch):
    """load_problem converts each coupling once; the problem keeps that array."""
    import otsm.formats

    path = tmp_path / "p.json"
    save_problem(_ragged_problem(), path)
    made = []
    real = otsm.formats._as_matrix

    def recorded(value, what):
        made.append(real(value, what))
        return made[-1]

    monkeypatch.setattr(otsm.formats, "_as_matrix", recorded)
    loaded = load_problem(path)
    assert len(made) == 2
    assert all(any(s is a for a in made) for s in loaded.sblocks.values())


def test_load_problem_peak_below_2_4_times_the_file(tmp_path):
    # Each coupling becomes an array as it is decoded: the load holds the
    # file's text and the arrays, not every coupling's nested lists at once.
    problem, _ = synth_procrustes(10, 100, 50, 3, 1.0, 0)
    path = tmp_path / "p.json"
    save_problem(problem, path)
    load_problem(path)
    tracemalloc.start()
    try:
        load_problem(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.4 * path.stat().st_size


@pytest.mark.parametrize(("data", "message"), [
    pytest.param("[[1.0, 2.0], [3.0]]", "is not a numeric matrix: ", id="ragged"),
    pytest.param("[1.0, 2.0]", "must be a matrix, got ndim=1", id="one-dimensional"),
    pytest.param('"abc"', "is not a numeric matrix: ", id="string"),
    pytest.param("[[1" + "0" * 400 + ", 0.0], [0.0, 0.0]]", "contains non-finite entries",
                 id="integer-beyond-float-range"),
    pytest.param("[[1e400, 0.0], [0.0, 0.0]]", "contains non-finite entries", id="1e400"),
])
def test_malformed_coupling_data_is_named(tmp_path, data, message):
    # S[0] decodes to an array; S[1] is left as it is and named on its own.
    path = tmp_path / "p.json"
    path.write_text('{"dims": [2, 2, 2], "r": 1, "S": [{"i": 1, "j": 2, "data": '
                    '[[1.0, 0.0], [0.0, 1.0]]}, {"i": 1, "j": 3, "data": %s}]}' % data)
    with pytest.raises(ValidationError) as info:
        load_problem(path)
    text = str(info.value)
    assert text.startswith(f"problem file {path}: field 'S[1].data' {message}")
    assert message.endswith(": ") or text.endswith(message)
