"""Regenerate the golden corpus: what each listed command line prints.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/golden/regenerate.py \
        [PREFIX ...]

Every case runs one ``rmlab`` command line through ``rmlab.cli.main``
in this process.  Its stdout goes to ``<case>.json`` (``analyze
--format json``) or ``<case>.txt``, and what a ``search`` appends to
``--out`` goes to ``<case>.jsonl``.  ``cases.json`` lists each case
with its command line (``{out}`` stands for the ``--out`` file), its
exit code and its files.  ``tests/test_golden.py`` reruns the cases and
compares them structurally, so regenerate only for an intended output
change, and review the diff.

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
import sys
import tempfile

from rmlab import builtin, builtin_names
from rmlab.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))


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
            with open(os.path.join(HERE, entry["stdout"]), "w",
                      encoding="utf-8") as fh:
                fh.write(stdout)
            if writes:
                entry["file"] = name + ".jsonl"
                with open(out_path, encoding="utf-8") as src, open(
                        os.path.join(HERE, entry["file"]), "w",
                        encoding="utf-8") as dst:
                    dst.write(src.read())
            manifest.append(entry)
            print(f"{name}: exit {code}", file=sys.stderr)
    with open(os.path.join(HERE, "cases.json"), "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(map(json.dumps, manifest)) + "\n]\n")


if __name__ == "__main__":
    main_regenerate(sys.argv[1:])
