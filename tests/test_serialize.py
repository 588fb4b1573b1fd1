"""JSON round trips and re-verification on load."""

import json

import numpy as np
import pytest

import rmlab
from rmlab import (
    dump_solution,
    load_solution,
    solution_from_dict,
    solution_to_dict,
)
from rmlab.errors import ParseError, VerificationError


def test_round_trip_is_exact(tmp_path):
    r = rmlab.builtin("r3special")
    path = tmp_path / "sol.json"
    dump_solution(str(path), r)
    back = load_solution(str(path))
    assert back.d == r.d
    assert np.array_equal(back.matrix, r.matrix)
    assert back.label == r.label


def test_dict_round_trip_preserves_label():
    r = rmlab.make_flip(3)
    back = solution_from_dict(solution_to_dict(r))
    assert back.label == r.label
    assert np.array_equal(back.matrix, r.matrix)


def test_document_shape():
    doc = solution_to_dict(rmlab.make_flip(2))
    assert doc["d"] == 2
    assert len(doc["entries"]) == 16
    assert all(len(pair) == 2 for pair in doc["entries"])
    assert doc["meta"]["label"] == "flip(d=2)"
    json.dumps(doc)


def test_meta_is_optional():
    doc = solution_to_dict(rmlab.make_flip(2))
    del doc["meta"]
    back = solution_from_dict(doc)
    assert back.label == ""


def test_missing_keys_raise_parse_error():
    with pytest.raises(ParseError):
        solution_from_dict({"d": 2})
    with pytest.raises(ParseError):
        solution_from_dict({"entries": []})
    with pytest.raises(ParseError):
        solution_from_dict([1, 2, 3])


def test_wrong_entry_count_raises_parse_error():
    doc = solution_to_dict(rmlab.make_flip(2))
    doc["entries"] = doc["entries"][:-1]
    with pytest.raises(ParseError):
        solution_from_dict(doc)


def test_malformed_entries_raise_parse_error():
    doc = solution_to_dict(rmlab.make_flip(2))
    doc["entries"][3] = ["x", 0.0]
    with pytest.raises(ParseError):
        solution_from_dict(doc)


def test_bad_json_file_raises_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_solution(str(path))


def test_load_reverifies(tmp_path):
    r = rmlab.builtin("r2")
    doc = solution_to_dict(r)
    doc["entries"][0][0] += 1e-3   # break unitarity slightly
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(VerificationError):
        load_solution(str(path))


def test_loose_tolerance_can_accept_perturbation(tmp_path):
    r = rmlab.builtin("r2")
    doc = solution_to_dict(r)
    doc["entries"][0][0] += 1e-12
    path = tmp_path / "nudged.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(VerificationError):
        load_solution(str(path), tol=1e-14)
    back = load_solution(str(path), tol=1e-10)
    assert back.d == 2


def _flip2_doc(d):
    doc = solution_to_dict(rmlab.make_flip(2))
    doc["d"] = d
    return doc


@pytest.mark.parametrize("doc", [
    {"d": -1, "entries": [[1, 0]]},
    {"d": 0, "entries": []},
    {"d": True, "entries": [[1, 0]]},
    _flip2_doc(2.5),
    _flip2_doc(2.0),
    _flip2_doc("2"),
    _flip2_doc(None),
])
def test_dimension_must_be_a_json_integer_at_least_one(doc):
    with pytest.raises(ParseError, match="'d' must be an integer >= 1"):
        solution_from_dict(doc)
