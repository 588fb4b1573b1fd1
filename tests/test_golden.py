"""The golden corpus: command outputs compared structurally; probe seeds.

``tests/golden/cases.json`` lists the command lines; each case reruns
here as ``tests/golden/regenerate.py`` ran it, through
``rmlab.cli.main``, and must match its stored outputs.
Integers, booleans, strings (profiles and family labels among them) and
exit codes match exactly.  Floats, in JSON and in text lines, match
within that script's ``RTOL`` relative with an ``ATOL`` absolute floor,
so rounding-level fields (a residual of 2.5e-15) may move with the BLAS
thread count.  Regenerate the corpus with that script.

The random probes of the algebra layer all draw from the constant
``rmlab.commutant.PROBE_SEED``; no output may depend on its value.
"""

import functools
import json
import os

import numpy as np
import pytest

import rmlab
from golden.regenerate import json_diffs, output_diffs, run_case, text_diffs

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _cases() -> list:
    with open(os.path.join(GOLDEN, "cases.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _read(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


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
