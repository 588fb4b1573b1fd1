"""Per-layer spans for the traced run, recorded from outside ``src/``.

``Tracer.install`` replaces each traced public function with a timing
wrapper at every ``rmlab`` module attribute that holds it, which is
where rmlab's own callers look it up; ``uninstall`` puts the originals
back.  Spans nest: a span's self time is its duration minus the
durations of the traced spans it directly contains, and a layer's busy
time counts only its outermost spans, so recursion is not counted twice.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (layer, module, function) for every traced public function.
TARGETS = [
    ("commutant.L", "rmlab.commutant", "relative_commutant_L"),
    ("commutant.M", "rmlab.commutant", "relative_commutant_M"),
    ("commutant.N", "rmlab.commutant", "relative_commutant_N"),
    ("commutant.fixed", "rmlab.commutant", "fixed_subalgebra"),
    ("commutant.nullspace", "rmlab.commutant", "nullspace"),
    ("commutant.wedderburn", "rmlab.commutant", "wedderburn_decompose"),
    ("braid.characters_equal", "rmlab.braid", "characters_equal"),
    ("braid.character", "rmlab.braid", "character"),
    ("rmatrix.verify", "rmlab.rmatrix", "verify"),
    ("analysis.classify_dim2", "rmlab.analysis", "classify_dim2"),
    ("analysis.is_ergodic", "rmlab.analysis", "is_ergodic"),
    ("analysis.analyze", "rmlab.analysis", "analyze"),
    ("search.run", "rmlab.search", "search_unitary_solution"),
    ("search.gradient", "rmlab.search", "ybe_euclidean_gradient"),
    ("search.fingerprint", "rmlab.search", "fingerprint"),
    ("serialize", "rmlab.serialize", "solution_to_dict"),
    ("serialize", "rmlab.serialize", "load_solution"),
    ("cli.main", "rmlab.cli", "main"),
    ("corpus.build", "rmlab.corpus", "builtin"),
] + [
    ("corpus.build", "rmlab.corpus", name)
    for name in ("random_phases", "random_projection_partition",
                 "random_simple_spec", "random_normal_form_spec",
                 "random_diagonal", "random_conjugate", "random_unimodular",
                 "random_family2", "random_family3", "random_family4")
]

# Counts read from a layer's return value.
RESULT_COUNTS = {
    "braid.characters_equal": ("braid.words_checked",
                               lambda res: res.words_checked),
    "search.run": ("search.steps", lambda res: res.steps),
}

class Tracer:
    def __init__(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._depth = defaultdict(int)
        self._stack: list = []  # [layer, start, time in traced children]
        self._patched: list = []  # (owner, attribute, original)

    def _wrap(self, layer, fn):
        result_count = RESULT_COUNTS.get(layer)

        def traced(*args, **kwargs):
            frame = [layer, time.perf_counter(), 0.0]
            self._stack.append(frame)
            self._depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[1]
                self._stack.pop()
                self._depth[layer] -= 1
                self.calls[layer] += 1
                self.self_time[layer] += duration - frame[2]
                if self._depth[layer] == 0:
                    self.busy[layer] += duration
                if self._stack:
                    self._stack[-1][2] += duration
            if result_count is not None:
                self.counts[result_count[0]] += result_count[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        originals = []
        for layer, module, name in TARGETS:
            fn = getattr(importlib.import_module(module), name)
            originals.append((fn, self._wrap(layer, fn)))
        modules = [m for key, m in list(sys.modules.items())
                   if key == "rmlab" or key.startswith("rmlab.")]
        for fn, wrapper in originals:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

        from rmlab.tensor import AlgebraElement

        post_init = AlgebraElement.__post_init__

        def counted(element):
            self.counts["tensor.algebra_elements"] += 1
            post_init(element)

        self._patched.append((AlgebraElement, "__post_init__", post_init))
        AlgebraElement.__post_init__ = counted

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def metrics(self, rounds: int, overhead_s: float) -> dict:
        """Per-layer metrics, per traced round of the operation list.

        ``overhead_s`` is the traced minus the untraced time of one round.
        """
        busy, calls = self.busy, self.calls
        values = {
            "commutant.L_s": busy["commutant.L"],
            "commutant.M_s": busy["commutant.M"],
            "commutant.N_s": busy["commutant.N"],
            "commutant.fixed_s": busy["commutant.fixed"],
            "commutant.operator_s": sum(
                self.self_time[k] for k in
                ("commutant.M", "commutant.N", "commutant.fixed")),
            "commutant.nullspace_s": busy["commutant.nullspace"],
            "commutant.nullspace_calls": calls["commutant.nullspace"],
            "commutant.wedderburn_s": busy["commutant.wedderburn"],
            "commutant.wedderburn_calls": calls["commutant.wedderburn"],
            "braid.characters_equal_s": busy["braid.characters_equal"],
            "braid.words_checked": self.counts["braid.words_checked"],
            "braid.character_s": busy["braid.character"],
            "braid.character_calls": calls["braid.character"],
            "tensor.algebra_elements":
                self.counts["tensor.algebra_elements"],
            "rmatrix.verify_s": busy["rmatrix.verify"],
            "rmatrix.verify_calls": calls["rmatrix.verify"],
            "analysis.classify_dim2_s": busy["analysis.classify_dim2"],
            "analysis.classify_dim2_calls": calls["analysis.classify_dim2"],
            "analysis.is_ergodic_s": busy["analysis.is_ergodic"],
            "analysis.analyze_self_s": self.self_time["analysis.analyze"],
            "search.run_s": busy["search.run"],
            "search.restarts": calls["search.run"],
            "search.steps": self.counts["search.steps"],
            "search.gradient_s": busy["search.gradient"],
            "search.gradient_calls": calls["search.gradient"],
            "search.fingerprint_s": busy["search.fingerprint"],
            "serialize.s": busy["serialize"],
            "cli.self_s": self.self_time["cli.main"],
            "corpus.build_s": busy["corpus.build"],
        }
        out = {name: {"value": value / rounds, "unit": _unit(name)}
               for name, value in values.items()}
        out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
        return out


def _unit(metric: str) -> str:
    """A ``_s`` (or ``serialize.s``) metric is busy time in seconds; any
    other is a count."""
    return "s" if metric.endswith(("_s", ".s")) else "count"
