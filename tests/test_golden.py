"""The golden corpus: command outputs compared structurally; probe seeds.

``tests/golden/cases.json`` lists the command lines; each case reruns
here as ``tests/golden/regenerate.py`` ran it, through
``rmlab.cli.main``, and must match its stored outputs.
Integers, booleans, strings (profiles and family labels among them) and
exit codes match exactly.  Floats, in JSON and in text lines, match
within ``RTOL`` relative with an ``ATOL`` absolute floor, so rounding-
level fields (a residual of 2.5e-15) may move with the BLAS thread
count.  Regenerate the corpus with that script.

The random probes of the algebra layer all draw from the constant
``rmlab.commutant.PROBE_SEED``; no output may depend on its value.
"""

import functools
import json
import os
import re

import numpy as np
import pytest

import rmlab
from golden.regenerate import run_case

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
RTOL, ATOL = 1e-9, 1e-12

# A decimal number, signed, with optional fraction and exponent.
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _cases() -> list:
    with open(os.path.join(GOLDEN, "cases.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _read(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def _close(a, b) -> bool:
    return abs(a - b) <= max(RTOL * max(abs(a), abs(b)), ATOL)


def json_diffs(want, got, where="$") -> list:
    """Where two parsed JSON values differ under the corpus rule."""
    numbers = [isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (want, got)]
    if all(numbers):
        same = (want == got if all(isinstance(v, int) for v in (want, got))
                else _close(want, got))
        return [] if same else [f"{where}: {want!r} != {got!r}"]
    if type(want) is not type(got):
        return [f"{where}: {want!r} != {got!r}"]
    if isinstance(want, dict):
        if set(want) != set(got):
            return [f"{where}: keys {sorted(want)} != {sorted(got)}"]
        return [d for k in sorted(want)
                for d in json_diffs(want[k], got[k], f"{where}.{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} != {len(got)}"]
        return [d for i, (a, b) in enumerate(zip(want, got))
                for d in json_diffs(a, b, f"{where}[{i}]")]
    return [] if want == got else [f"{where}: {want!r} != {got!r}"]


def _line_same(want: str, got: str) -> bool:
    """Equal text between the numbers; integers equal, floats close."""
    if _NUMBER.split(want) != _NUMBER.split(got):
        return False
    return all(a == b if not re.search("[.eE]", a + b)
               else _close(float(a), float(b))
               for a, b in zip(_NUMBER.findall(want), _NUMBER.findall(got)))


def text_diffs(want: str, got: str) -> list:
    """The lines of two outputs that differ under the corpus rule."""
    a, b = want.splitlines(), got.splitlines()
    if len(a) != len(b):
        return [f"{len(a)} lines != {len(b)} lines"]
    return [f"line {i + 1}: {x!r} != {y!r}"
            for i, (x, y) in enumerate(zip(a, b)) if not _line_same(x, y)]


def output_diffs(name: str, want: str, got: str) -> list:
    """Compare by file kind: JSON, JSON lines, or text."""
    if name.endswith(".json"):
        return json_diffs(json.loads(want), json.loads(got))
    if name.endswith(".jsonl"):
        return json_diffs([json.loads(x) for x in want.splitlines()],
                          [json.loads(x) for x in got.splitlines()])
    return text_diffs(want, got)


@pytest.mark.parametrize("case", _cases(), ids=lambda c: c["name"])
def test_command_output_matches_the_golden_corpus(case, monkeypatch,
                                                   tmp_path):
    monkeypatch.delenv("RMLAB_SEED", raising=False)
    out_path = tmp_path / "out.jsonl"
    code, stdout = run_case(case["argv"], out_path)
    assert code == case["exit"]
    diffs = output_diffs(case["stdout"], _read(case["stdout"]), stdout)
    if case["file"]:
        diffs += output_diffs(case["file"], _read(case["file"]),
                              out_path.read_text(encoding="utf-8"))
    assert diffs == []


@pytest.mark.parametrize("want,got,same", [
    ("residual 2.461e-15", "residual 2.612e-15", True),
    ("q=0.955336489126+0.29552j", "q=0.955336489127+0.29552j", True),
    ("q=0.955336489126+0.29552j", "q=0.955336489126-0.29552j", False),
    ("| 4 | 20 | match | 20/20 |", "| 4 | 20 | match | 19/20 |", False),
    ("M: C^2 (+) M_2", "M: C^2 (+) M_3", False),
    ("family 2", "family 3", False),
    ("u: 1 0", "u: 1 1e-17", True),
    ("u: 1 0", "u: 1 0 0", False),
])
def test_text_lines_compare_numbers_by_kind(want, got, same):
    assert (text_diffs(want, got) == []) == same


@pytest.mark.parametrize("want,got,same", [
    ({"x": 1.0, "y": [2.5e-15]}, {"x": 1.0 + 1e-12, "y": [3e-15]}, True),
    ({"x": 1.0}, {"x": 1.0 + 1e-6}, False),
    ({"dimension": 4}, {"dimension": 5}, False),
    ({"profile": [1, 1]}, {"profile": [2]}, False),
    ({"converged": True}, {"converged": 1}, False),
    ({"family": None}, {"family": 4}, False),
    ({"a": 1}, {"a": 1, "seed": 0}, False),
])
def test_json_values_compare_by_kind(want, got, same):
    assert (json_diffs(want, got) == []) == same


# analyze is byte-identical across probe seeds on these builtins.
_PROBE_BUILTINS = [name for name in rmlab.builtin_names()
                   if rmlab.builtin(name).d == 2] + ["flip3"]


def _probe_outputs() -> tuple:
    """At the current probe seed: the ``analyze`` JSON text of each of
    ``_PROBE_BUILTINS``, and the parsed JSON of six random conjugates,
    two each of families 2, 3 and 4."""
    texts = [run_case(["analyze", "--builtin", name, "--format", "json"],
                      None) for name in _PROBE_BUILTINS]
    rng = np.random.default_rng(5)
    draws = [rmlab.random_conjugate(family(rng)[0], rng) for _ in range(2)
             for family in (rmlab.random_family2, rmlab.random_family3,
                            rmlab.random_family4)]
    return texts, [json.loads(json.dumps(rmlab.analyze(r).to_dict()))
                   for r in draws]


@functools.cache
def _probe_seed_zero_outputs() -> tuple:
    assert rmlab.commutant.PROBE_SEED == 0
    return _probe_outputs()


@pytest.mark.parametrize("probe_seed", [1, 2, 12345])
def test_probe_seeds_change_no_output(monkeypatch, probe_seed):
    want_texts, want_draws = _probe_seed_zero_outputs()
    monkeypatch.setattr(rmlab.commutant, "PROBE_SEED", probe_seed)
    texts, draws = _probe_outputs()
    assert texts == want_texts
    # Family 4's dim2 q, conjugator and residual move at rounding level.
    assert [json_diffs(a, b) for a, b in zip(want_draws, draws)] == [
        []] * len(draws)
