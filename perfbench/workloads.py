"""Operation lists, input builders and output checks of the workloads.

Every operation is one ``rmlab`` subcommand, given as the argument list
that ``rmlab.cli.main`` receives.  A workload builds and verifies its
inputs in ``setup`` (this counts towards ``setup_s``), lists its
operations in ``ops``, and checks each operation's output in ``check``.

The checks compare against plain numpy computations written here, or
against properties the paper proves; none compares against a stored
copy of an earlier output.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-9


@dataclass
class Op:
    """One operation: the argument list plus what its check needs."""

    name: str
    argv: list
    ok_codes: tuple = (0,)
    out_path: str | None = None
    data: dict = field(default_factory=dict)


# --- plain numpy references, independent of rmlab ---------------------

def matrix_from_entries(d: int, entries) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    return flat.reshape(d * d, d * d)


def load_matrix(path: str) -> tuple[int, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return int(doc["d"]), matrix_from_entries(int(doc["d"]), doc["entries"])


def partial_trace_left(r: np.ndarray, d: int) -> np.ndarray:
    """Normalized trace over the first tensor slot of a d^2 x d^2 matrix."""
    return np.einsum("asat->st", r.reshape(d, d, d, d)) / d


def partial_trace_right(r: np.ndarray, d: int) -> np.ndarray:
    return np.einsum("sbtb->st", r.reshape(d, d, d, d)) / d


def generator(r: np.ndarray, d: int, letter: int, strands: int) -> np.ndarray:
    """The braid letter +-g on ``strands`` strands: 1 (x) R^(+-1) (x) 1."""
    g = abs(letter)
    m = r if letter > 0 else r.conj().T
    left = np.eye(d ** (g - 1), dtype=complex)
    right = np.eye(d ** (strands - g - 1), dtype=complex)
    return np.kron(np.kron(left, m), right)


def character(r: np.ndarray, d: int, word) -> complex:
    """Normalized trace of the represented word, by Kronecker products."""
    strands = max(abs(v) for v in word) + 1
    prod = np.eye(d ** strands, dtype=complex)
    for letter in word:
        prod = prod @ generator(r, d, letter, strands)
    return complex(np.trace(prod)) / d ** strands


def random_words(rng: np.random.Generator, count: int, strands: int,
                 max_len: int) -> list:
    """Freely reduced words with generators below ``strands``."""
    letters = [s * g for g in range(1, strands) for s in (1, -1)]
    words = []
    for _ in range(count):
        length = int(rng.integers(1, max_len + 1))
        word: list = []
        while len(word) < length:
            letter = letters[int(rng.integers(len(letters)))]
            if word and word[-1] == -letter:
                continue
            word.append(letter)
        words.append(tuple(word))
    return words


def reduced_word_count(strands: int, max_len: int) -> int:
    """Number of nonempty freely reduced words of length <= max_len."""
    k = 2 * (strands - 1)
    return sum(k * (k - 1) ** (n - 1) for n in range(1, max_len + 1))


def ybe_residual(r: np.ndarray, d: int) -> float:
    eye = np.eye(d, dtype=complex)
    r12, r23 = np.kron(r, eye), np.kron(eye, r)
    return float(np.linalg.norm(r12 @ r23 @ r12 - r23 @ r12 @ r23))


def unitarity_residual(r: np.ndarray) -> float:
    return float(np.linalg.norm(r.conj().T @ r - np.eye(r.shape[0])))


def multiset_distance(a, b) -> float:
    """Largest distance in a greedy nearest matching of two value lists."""
    a, b = list(a), list(b)
    if len(a) != len(b):
        return float("inf")
    worst = 0.0
    for z in a:
        k = min(range(len(b)), key=lambda i: abs(b[i] - z))
        worst = max(worst, abs(b.pop(k) - z))
    return worst


def _pairs_to_complex(pairs) -> list:
    return [complex(re, im) for re, im in pairs]


# --- workloads ---------------------------------------------------------

class Workload:
    """A fixed list of operations over inputs made from ``seed``."""

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.ops: list[Op] = []

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def check(self, op: Op, code: int, stdout: str) -> list[str]:
        """Problems with one operation's output; empty when correct."""
        raise NotImplementedError

    def output(self, op: Op, stdout: str) -> str:
        """Everything the operation produced, for identity comparisons."""
        text = stdout
        if op.out_path:
            with open(op.out_path, encoding="utf-8") as fh:
                text += "\n--- " + op.name + "\n" + fh.read()
        return text

    def prepare(self, op: Op) -> None:
        """Reset the operation's output file before it runs."""
        if op.out_path and os.path.exists(op.out_path):
            os.remove(op.out_path)

    def _shuffled(self, items: list) -> list:
        order = np.random.default_rng([self.seed, 0]).permutation(len(items))
        return [items[i] for i in order]


class Analyze(Workload):
    """``rmlab analyze --builtin NAME --format json -o FILE``.

    ``trivial2`` sets the peak resident set, so it always runs first,
    on a fresh heap; the workload seed orders the others.
    """

    FIRST = "trivial2"
    BUILTINS = (FIRST, "box21", "r4", "flip2")

    def setup(self) -> None:
        from rmlab import builtin

        self.matrices = {}
        for name in self.BUILTINS:
            r = builtin(name)
            self.matrices[name] = (r.d, np.array(r.matrix))
        self.ops = [
            Op(name, ["analyze", "--builtin", name, "--format", "json",
                      "-o", self.path(f"analyze-{name}.json")],
               out_path=self.path(f"analyze-{name}.json"))
            for name in [self.FIRST] + self._shuffled(list(self.BUILTINS[1:]))
        ]

    def check(self, op: Op, code: int, stdout: str) -> list[str]:
        with open(op.out_path, encoding="utf-8") as fh:
            rep = json.load(fh)
        d, r = self.matrices[op.name]
        bad = []
        if rep["errors"]:
            bad.append(f"section errors {rep['errors']}")
        levels = rep["commutants"]
        if sorted(levels) != [str(n) for n in range(1, rep["n_cap"] + 1)]:
            bad.append(f"commutant levels {sorted(levels)}")
        for n, by_name in levels.items():
            for name, b in by_name.items():
                prof = b["profile"]
                if prof is None or sum(k * k for k in prof) != b["dimension"]:
                    bad.append(f"level {n} {name}: profile {prof} does not "
                               f"square-sum to {b['dimension']}")
            dims = [by_name[k]["dimension"] for k in ("L", "M", "N")]
            if not dims[0] <= dims[1] <= dims[2]:
                bad.append(f"level {n}: dims L, M, N = {dims} not nested")
        pt = rep["partial_trace"]
        got = np.array(_pairs_to_complex(pt["matrix"])).reshape(d, d)
        want = partial_trace_left(r, d)
        if np.linalg.norm(got - want) > 1e-10:
            bad.append("partial trace differs from numpy")
        if np.linalg.norm(want - partial_trace_right(r, d)) > 1e-10:
            bad.append("numpy left and right partial traces differ")
        if pt["left_right_residual"] > 1e-10 or pt["normality_defect"] > 1e-10:
            bad.append("partial trace residuals above 1e-10")
        spectrum = [complex(*s["value"]) for s in rep["spectrum"]
                    for _ in range(s["multiplicity"])]
        if multiset_distance(spectrum, np.linalg.eigvals(r)) > 1e-8:
            bad.append("spectrum differs from numpy eigvals")
        lo, hi = rep["index_bounds"]["lower"], rep["index_bounds"]["upper"]
        if lo > hi:
            bad.append(f"index bounds {lo} > {hi}")
        if "exact_index" in rep and not (
                lo - 1e-9 <= rep["exact_index"]["value"] <= hi + 1e-9):
            bad.append("exact index outside the bounds")
        scalar = np.linalg.norm(r - np.trace(r) / (d * d) * np.eye(d * d))
        if rep["trivial"] != bool(scalar <= 1e-10):
            bad.append("'trivial' disagrees with numpy")
        if rep["concentration"]["concluded_trivial"] != rep["trivial"]:
            bad.append("concentration verdict disagrees with 'trivial'")
        fixed = rep["fixed_dims"]
        base = {"trivial2": 4, "r4": 2}.get(op.name)
        if base and fixed != [base ** n for n in range(1, len(fixed) + 1)]:
            bad.append(f"fixed dims {fixed} are not powers of {base}")
        if op.name.startswith("flip"):
            m1 = levels["1"]["M"]
            if m1["dimension"] != d * d or m1["profile"] != [d]:
                bad.append(f"flip: M_1 is {m1['profile']}, not M_{d}")
        if rep["ergodic"]["ergodic"] and (
                any(v != 1 for v in fixed) or rep["necessary_gap"] > 1e-12):
            bad.append("ergodic but fixed dims or necessary gap nonzero")
        return bad


class Equivalence(Workload):
    """``rmlab equivalent A B`` at 4 strands and length 6."""

    STRANDS, LENGTH = 4, 6
    RANDOM_WORDS = 40

    def setup(self) -> None:
        from rmlab import builtin, dump_solution, load_solution
        from rmlab.corpus import random_conjugate

        rng = np.random.default_rng([self.seed, 1])

        def write(name, r):
            path = self.path(name + ".json")
            dump_solution(path, r)
            load_solution(path)  # what the operation will read back
            return path

        r4 = write("r4", builtin("r4"))
        r4c = write("r4-conj", random_conjugate(builtin("r4"), rng))
        r3c = write("r3-conj", random_conjugate(builtin("r3"), rng))
        s3 = write("simple3", builtin("simple3"))
        s3c = write("simple3-conj", random_conjugate(builtin("simple3"), rng))
        # (first, second, pair made by quasi-free conjugation)
        pairs = [
            (r4, r4c, True),
            ("r3special", "flip2", False),
            ("r2", r3c, False),
            (s3, s3c, True),
            ("flip3", s3c, False),
        ]
        self.ops = []
        for k, (a, b, conj) in enumerate(pairs):
            self.ops.append(Op(
                f"{_stem(a)}~{_stem(b)}", ["equivalent", a, b],
                ok_codes=(0, 1),
                data={"a": self._matrix(a), "b": self._matrix(b),
                      "conjugate": conj, "index": k},
            ))

    def _matrix(self, name_or_path: str):
        if os.path.exists(name_or_path):
            return load_matrix(name_or_path)
        from rmlab import builtin

        r = builtin(name_or_path)
        return r.d, np.array(r.matrix)

    def check(self, op: Op, code: int, stdout: str) -> list[str]:
        (da, ra), (db, rb) = op.data["a"], op.data["b"]
        bad = []
        equal = code == 0 and stdout.startswith("equal")
        if op.data["conjugate"] and not equal:
            bad.append("conjugate pair not reported equal")
        if not equal and not stdout.startswith("distinct: witness word "):
            return bad + [f"unexpected output {stdout.strip()!r}"]
        first_dev = abs(character(ra, da, (1,)) - character(rb, db, (1,)))
        if equal:
            words = reduced_word_count(self.STRANDS, self.LENGTH)
            if f", {words} words," not in stdout:
                bad.append(f"equal verdict does not report {words} words")
            rng = np.random.default_rng([self.seed, 2, op.data["index"]])
            for w in random_words(rng, self.RANDOM_WORDS, self.STRANDS,
                                  self.LENGTH):
                dev = abs(character(ra, da, w) - character(rb, db, w))
                if dev > 1e-8:
                    bad.append(f"equal, but word {w} differs by {dev:.2e}")
                    break
            spec_a = np.linalg.eigvals(partial_trace_left(ra, da))
            spec_b = np.linalg.eigvals(partial_trace_left(rb, db))
            if multiset_distance(spec_a, spec_b) > 1e-8:
                bad.append("equal, but partial-trace spectra differ")
            if first_dev > TOL:
                bad.append("equal, but the word 1 differs")
        else:
            text = stdout.split("witness word ", 1)[1]
            word = tuple(int(v) for v in
                         text.split(", deviation")[0].split(","))
            dev = abs(character(ra, da, word) - character(rb, db, word))
            if dev <= TOL:
                bad.append(f"witness {word} differs by only {dev:.2e}")
            if first_dev > TOL and word != (1,):
                bad.append(f"witness {word} is not shortlex-minimal (1)")
        return bad


class Search(Workload):
    """``rmlab search --d D --restarts 16 --seed S --out FILE``.

    The search seeds are fixed, because the cost of a descent depends
    on its seed (30 to 900 steps); the workload seed sets their order.
    """

    RUNS = [(2, s) for s in range(8)] + [(3, s) for s in range(4)]

    def setup(self) -> None:
        self.ops = []
        for d, s in self._shuffled(list(self.RUNS)):
            out = self.path(f"search-d{d}-s{s}.jsonl")
            self.ops.append(Op(
                f"d{d}-s{s}",
                ["search", "--d", str(d), "--restarts", "16",
                 "--seed", str(s), "--out", out],
                out_path=out, data={"d": d, "seed": s},
            ))

    def check(self, op: Op, code: int, stdout: str) -> list[str]:
        with open(op.out_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        bad = []
        if len(records) != 1:
            return [f"{len(records)} records, expected 1"]
        rec = records[0]
        d = op.data["d"]
        if rec["d"] != d or rec["config"]["seed"] != op.data["seed"]:
            bad.append("record d or seed differs from the request")
        r = matrix_from_entries(d, rec["entries"])
        if unitarity_residual(r) > 1e-9:
            bad.append("record is not unitary")
        if ybe_residual(r, d) > 1e-9:
            bad.append("record fails R12 R23 R12 = R23 R12 R23")
        spectrum = _pairs_to_complex(rec["fingerprint"]["spectrum_r"])
        if multiset_distance(spectrum, np.linalg.eigvals(r)) > 1e-8:
            bad.append("fingerprint spectrum differs from numpy eigvals")
        if not stdout.startswith("success:"):
            bad.append(f"unexpected output {stdout.strip()!r}")
        if d == 2 and "unclassified" in stdout:
            bad.append("d = 2 result is unclassified")
        return bad


class Table9(Workload):
    """``rmlab table9 --samples 20 --seed S`` over seeds made from the
    workload seed."""

    SAMPLES = 20
    TABLES = 2

    def setup(self) -> None:
        self.ops = []
        for k in range(self.TABLES):
            s = self.TABLES * self.seed + k
            self.ops.append(Op(
                f"seed{s}",
                ["table9", "--samples", str(self.SAMPLES), "--seed", str(s)],
            ))

    def check(self, op: Op, code: int, stdout: str) -> list[str]:
        rows = [line for line in stdout.splitlines()
                if line.startswith("| ") and line[2].isdigit()]
        bad = []
        if [row[2] for row in rows] != ["1", "2", "3", "4"]:
            return [f"rows {rows}"]
        want = f"{self.SAMPLES}/{self.SAMPLES}"
        for row in rows:
            cells = [c.strip() for c in row.strip("|").split("|")]
            if cells[1] != str(self.SAMPLES) or cells[3] != "match":
                bad.append(f"row {cells[0]}: {cells[3]}")
            if cells[4] != want:
                bad.append(f"row {cells[0]} classified {cells[4]}")
        return bad


def _stem(name_or_path: str) -> str:
    return os.path.splitext(os.path.basename(name_or_path))[0]


WORKLOADS = {
    "analyze": Analyze,
    "equivalence": Equivalence,
    "search": Search,
    "table9": Table9,
}
