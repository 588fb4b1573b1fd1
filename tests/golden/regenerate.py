"""Regenerate the golden corpus: what each listed command line prints.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/golden/regenerate.py \
        [PREFIX ...]

Every case runs one ``rmlab`` command line through ``rmlab.cli.main``
in this process.  Its stdout goes to ``<case>.json`` (``analyze
--format json``) or ``<case>.txt``, and what a ``search`` appends to
``--out`` goes to ``<case>.jsonl``.  ``cases.json`` lists each case
with its command line (``{out}`` stands for the ``--out`` file), its
exit code and its files.  ``tests/test_golden.py`` reruns the cases and
compares them structurally, by :func:`output_diffs`, so regenerate only
for an intended output change, and review the diff.  A stored file that
the new output matches under that rule is kept byte for byte, so digits
that move at rounding level alone show no diff.

Given case-name prefixes (``search- classify2-r2``), only the cases
whose names start with one of them are rerun; the files of every other
case, and their entries in ``cases.json``, stay byte-identical.  With
none, every case is rerun.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile

from rmlab import builtin, builtin_names
from rmlab.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))

#: The corpus rule for floats: relative, with an absolute floor.
RTOL, ATOL = 1e-9, 1e-12

# A decimal number, signed, with optional fraction and exponent.
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


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


def cases() -> list:
    """(name, argv, stdout suffix, writes --out) of every case."""
    out = []
    for name in builtin_names():
        out.append((f"analyze-{name}",
                    ["analyze", "--builtin", name, "--format", "json"],
                    ".json", False))
    for name in builtin_names():
        if builtin(name).d == 2:
            out.append((f"classify2-{name}", ["classify2", "--builtin", name],
                        ".txt", False))
    for seed in range(6):
        out.append((f"table9-seed{seed}",
                    ["table9", "--samples", "20", "--seed", str(seed)],
                    ".txt", False))
    for d, seed in [(2, s) for s in range(8)] + [(3, s) for s in range(4)]:
        out.append((f"search-d{d}-s{seed}",
                    ["search", "--d", str(d), "--restarts", "16",
                     "--seed", str(seed), "--out", "{out}"],
                    ".txt", True))
    for pair, budget in [(("r3special", "flip2"), []),
                         (("flip3", "simple3"), []), (("r2", "r3"), []),
                         (("r4", "r4"), []),
                         (("simple3", "flip3"),
                          ["--strands", "3", "--length", "4"])]:
        name = "-".join(("equivalent",) + pair + tuple(budget[1::2]))
        out.append((name, ["equivalent", *pair, *budget], ".txt", False))
    return out


def run_case(argv: list, out_path: str | None) -> tuple:
    """(exit code, stdout) of ``rmlab ARGV`` with ``{out}`` filled in."""
    argv = [str(out_path) if a == "{out}" else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _store(name: str, text: str) -> None:
    """Write ``text`` to the corpus file ``name``, unless the stored file
    already matches it under the corpus rule (:func:`output_diffs`): a
    rerun that moves only rounding digits leaves the file as it was."""
    path = os.path.join(HERE, name)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            if not output_diffs(name, fh.read(), text):
                return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main_regenerate(prefixes: list) -> None:
    # search and table9 read their default seed from RMLAB_SEED.
    os.environ.pop("RMLAB_SEED", None)
    with open(os.path.join(HERE, "cases.json"), encoding="utf-8") as fh:
        kept = {entry["name"]: entry for entry in json.load(fh)}
    manifest = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, suffix, writes in cases():
            if prefixes and not name.startswith(tuple(prefixes)):
                manifest.append(kept[name])
                continue
            out_path = os.path.join(tmp, name + ".jsonl") if writes else None
            code, stdout = run_case(argv, out_path)
            entry = {"name": name, "argv": argv, "exit": code,
                     "stdout": name + suffix, "file": None}
            _store(entry["stdout"], stdout)
            if writes:
                entry["file"] = name + ".jsonl"
                with open(out_path, encoding="utf-8") as fh:
                    _store(entry["file"], fh.read())
            manifest.append(entry)
            print(f"{name}: exit {code}", file=sys.stderr)
    with open(os.path.join(HERE, "cases.json"), "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(map(json.dumps, manifest)) + "\n]\n")


if __name__ == "__main__":
    main_regenerate(sys.argv[1:])
