"""Command-line front end.

Subcommands: ``verify``, ``analyze``, ``classify2``, ``character``,
``equivalent``, ``search``, ``table9``.  Inputs are JSON solution
files or named builtins (``--builtin``); the parametric builtins
accept unit-modulus values as ``re,im``, ``arg:theta``, or literals
like ``i``/``-1``, and block lists as ``dim:sign`` comma lists.

Exit codes: 0 success, 1 domain or verdict failure, 2 input error.
All commands are deterministic; ``search`` and ``table9`` draw data from
``--seed`` (default from the RMLAB_SEED environment variable, else 0).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

import numpy as np

from .analysis import analyze, classify_dim2, is_ergodic
from .braid import BraidWord, character, characters_equal
from .commutant import fixed_subalgebra, relative_commutant_M
from .corpus import (
    builtin,
    builtin_names,
    family_r2,
    family_r3,
    family_r4,
    random_conjugate,
    random_family2,
    random_family3,
    random_family4,
    random_unimodular,
)
from .errors import (
    DomainError,
    LevelError,
    ParseError,
    RmlabError,
    ShapeError,
    VerificationError,
)
from .rmatrix import (
    DEFAULT_TOL,
    NormalFormSpec,
    RMatrix,
    make_flip,
    make_normal_form,
    make_trivial,
    is_trivial,
    memo,
    verify,
)
from .search import find_solution, fingerprint, ordered_map
from .serialize import load_solution, solution_to_dict

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2


def _int_at_least(low: int, name: str, text: str) -> int:
    """``text`` as an integer >= ``low``; anything else is an input error."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise ParseError(f"{name} must be an integer >= {low}, got {text!r}")
    return value


def parse_phase(text: str) -> complex:
    """Unit-modulus complex from 're,im', 'arg:theta', or a literal."""
    text = text.strip()
    try:
        if text.startswith("arg:"):
            return complex(np.exp(1j * float(text[4:])))
        if "," in text:
            re_s, im_s = text.split(",", 1)
            return complex(float(re_s), float(im_s))
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise ParseError(f"cannot parse complex value {text!r}") from exc


def parse_blocks(text: str) -> NormalFormSpec:
    """Block list like '2:+,1:-' into a normal form spec."""
    blocks = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            dim_s, sign_s = chunk.split(":")
            sign = {"+": 1, "-": -1, "+1": 1, "-1": -1}[sign_s.strip()]
            blocks.append((int(dim_s), sign))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"cannot parse block {chunk!r}") from exc
    if not blocks:
        raise ParseError(f"no blocks in {text!r}")
    return NormalFormSpec(tuple(blocks))


def parse_word(text: str) -> BraidWord:
    try:
        letters = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ParseError(f"cannot parse braid word {text!r}") from exc
    if not letters:
        raise ParseError("empty braid word")
    return BraidWord.from_ints(letters)


def _build_builtin(args) -> RMatrix:
    name = args.builtin
    d = 2 if args.d is None else args.d

    def phase(text, default):
        return parse_phase(text) if text else np.exp(default)

    if name == "trivial":
        return make_trivial(d, phase(args.q, 0j))
    if name == "flip":
        return make_flip(d)
    if name == "r2":
        return family_r2(phase(args.p, 0.3j), phase(args.q, 1.1j),
                         phase(args.r, -0.7j), phase(args.s, 2.2j))
    if name == "r3":
        return family_r3(phase(args.p, 0.4j), phase(args.q, -0.9j),
                         phase(args.r, 1.7j))
    if name == "r4":
        return family_r4(phase(args.q, 0.3j))
    if name == "normal":
        return make_normal_form(parse_blocks(args.blocks or "2:+,1:+"))
    return builtin(name)


def _reverified(r: RMatrix, tol: float) -> RMatrix:
    """A builtin checked again at the requested tolerance."""
    return verify(r.matrix, r.d, tol=tol, label=r.label)


def _resolve_input(args) -> RMatrix:
    if args.input and args.builtin:
        raise ParseError("two inputs: give a JSON file or --builtin NAME")
    if args.input:
        return load_solution(args.input, tol=args.tol)
    if args.builtin:
        return _reverified(_build_builtin(args), args.tol)
    raise ParseError("no input: give a JSON file or --builtin NAME")


def _resolve_name_or_path(text: str, tol: float) -> RMatrix:
    if os.path.exists(text):
        return load_solution(text, tol=tol)
    return _reverified(builtin(text), tol)


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _format_complex(z: complex) -> str:
    real = z.real + 0.0  # -0.0 + 0.0 is 0.0: no "-0"
    if abs(z.imag) <= 1e-14:
        return f"{real:.12g}"
    return f"{real:.12g}{z.imag:+.12g}j"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_verify(args) -> int:
    try:
        res, verdict, code = _resolve_input(args), "OK", EXIT_OK
    except VerificationError as exc:
        res, verdict, code = exc, "FAIL", EXIT_VERDICT
    print(f"{verdict} ybe_residual={res.ybe_residual:.6e} "
          f"unitarity_residual={res.unitarity_residual:.6e}")
    return code


def cmd_analyze(args) -> int:
    r = _resolve_input(args)
    report = analyze(r, n_cap=args.n_cap, fixed_cap=args.fixed_cap)
    if args.format == "json":
        _emit(_canonical_json(report.to_dict()), args.out)
    else:
        _emit(report.to_markdown(), args.out)
    return EXIT_OK


def cmd_classify2(args) -> int:
    r = _resolve_input(args)
    result = classify_dim2(r)
    if result.family is None:
        print(f"unclassified (best residual {result.residual:.3e})")
        return EXIT_VERDICT
    params = " ".join(
        f"{k}={_format_complex(v)}"
        for k, v in sorted(result.parameters.items())
    )
    print(f"family {result.family} {params}".rstrip())
    print(f"residual {result.residual:.3e}")
    for row in result.conjugator:
        print("u: " + " ".join(_format_complex(v) for v in row))
    return EXIT_OK


def cmd_character(args) -> int:
    r = _resolve_input(args)
    word = parse_word(args.word)
    print(_format_complex(complex(character(r, word))))
    return EXIT_OK


def cmd_equivalent(args) -> int:
    a = _resolve_name_or_path(args.first, args.tol)
    b = _resolve_name_or_path(args.second, args.tol)
    cmp = characters_equal(a, b, max_strands=args.strands, max_len=args.length)
    if cmp.equal:
        print(
            "equal up to truncation "
            f"(strands <= {cmp.max_strands}, length <= {cmp.max_len}, "
            f"{cmp.words_checked} words, max deviation {cmp.deviation:.3e})"
        )
        return EXIT_OK
    word = ",".join(str(v) for v in cmp.witness)
    print(f"distinct: witness word {word}, deviation {cmp.deviation:.3e}")
    return EXIT_VERDICT


def _fingerprint_dict(fp) -> dict:
    return {name: [[float(z.real), float(z.imag)] for z in values]
            for name, values in vars(fp).items()}


def cmd_search(args) -> int:
    if args.restarts < 1:
        print("failure: no restarts requested")
        return EXIT_VERDICT
    result = find_solution(
        args.d, restarts=args.restarts, seed=args.seed,
        max_iterations=args.max_iterations,
        target_residual=args.target, jobs=args.jobs,
    )
    if not result.success:
        print(f"failure: {result.restarts_used} restarts, "
              f"best objective {min(result.objectives):.6e}")
        return EXIT_VERDICT
    sol = result.solution
    config = {"d": args.d, "restarts": args.restarts, "seed": args.seed,
              "max_iterations": args.max_iterations,
              "target_residual": args.target}
    record = solution_to_dict(sol)
    record["fingerprint"] = _fingerprint_dict(fingerprint(sol))
    record["config"] = config
    record["config_hash"] = hashlib.sha256(
        _canonical_json(config).encode()
    ).hexdigest()[:16]
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    line = (f"success: restart {result.restarts_used - 1}, "
            f"steps {result.run.steps}, ybe_residual={sol.ybe_residual:.6e}")
    if args.d == 2:  # the only dimension with a classifier
        family = classify_dim2(sol).family
        line += ", unclassified" if family is None else f", family {family}"
    print(line)
    return EXIT_OK


#: Per d = 2 family: row name, expected structure, a draw of the base
#: solution for sample k, M_1's profile for even and odd k, ergodicity.
_TABLE9 = {
    1: ("1 (scalar)", "[1], non-ergodic",
        lambda rng, k: make_trivial(2, random_unimodular(rng)),
        ((1,), (1,)), False),
    # Full block exactly when r = p and s = q.
    2: ("2 (diagonal)", "[2] iff r=p,s=q else [1,1]; ergodic",
        lambda rng, k: random_family2(rng, symmetric=k % 2 == 0)[0],
        ((2,), (1, 1)), True),
    # Split block exactly when q^2 = p r.
    3: ("3 (antidiagonal)", "[1,1] iff q^2=pr else [1]; ergodic",
        lambda rng, k: random_family3(rng, special=k % 2 == 0)[0],
        ((1, 1), (1,)), True),
    # Fixed points double per level.
    4: ("4 (Pauli-type)", "[1]; non-ergodic; fixed 2,4,8,16",
        lambda rng, k: random_family4(rng)[0], ((1,), (1,)), False),
}


def _table9_row(family: int, samples: int, seed: int):
    """One summary-table row; rows draw from independent rng streams."""
    name, expected, draw, profiles, ergodic = _TABLE9[family]
    rng = np.random.default_rng([seed, family])
    ok = True
    hits = 0
    for k in range(samples):
        r = random_conjugate(draw(rng, k), rng)
        m = relative_commutant_M(r, 1)
        ok &= m.block_profile == profiles[k % 2]
        ok &= is_ergodic(r).ergodic == ergodic
        if family == 1:
            ok &= is_trivial(r)
        if family == 4:  # memo keeps level 1 on r for classify_dim2
            tower = [memo(r, fixed_subalgebra, n) for n in (1, 2, 3, 4)]
            ok &= [f.dimension for f in tower] == [2, 4, 8, 16]
        hits += classify_dim2(r).family == family
    return (name, samples, expected, ok, hits)


def cmd_table9(args) -> int:
    tasks = [(family, args.samples, args.seed) for family in (1, 2, 3, 4)]
    rows = list(ordered_map(_table9_row, tasks, args.jobs))
    lines = [
        "| family | draws | expected | structure | classified |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name, draws, expected, ok, hits in rows:
        lines.append(
            f"| {name} | {draws} | {expected} | "
            f"{'match' if ok else 'MISMATCH'} | {hits}/{draws} |"
        )
    _emit("\n".join(lines), args.out)
    return EXIT_OK if all(row[3] for row in rows) else EXIT_VERDICT


def _add_input_options(sub) -> None:
    sub.add_argument("input", nargs="?", help="JSON solution file")
    sub.add_argument(
        "--builtin",
        help="builtin name (parametric: trivial, flip, r2, r3, r4, "
             "normal; catalog: " + ", ".join(builtin_names()) + ")",
    )
    sub.add_argument("--d", type=int, help="dimension for trivial/flip")
    for flag in ("p", "q", "r", "s"):
        sub.add_argument(
            f"--{flag}", help=f"family parameter {flag} (unit modulus)"
        )
    sub.add_argument("--blocks", help="normal form blocks, e.g. 2:+,1:-")
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL,
                     help="verification tolerance")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; ``--seed`` defaults to None."""
    parser = argparse.ArgumentParser(
        prog="rmlab",
        description="Unitary Yang-Baxter solutions: verification, "
                    "structure reports, classification, and search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = functools.partial(_int_at_least, 0, "--seed")

    p = sub.add_parser("verify", help="check a solution and print residuals")
    _add_input_options(p)

    p = sub.add_parser("analyze", help="full structure report")
    _add_input_options(p)
    p.add_argument("--n-cap", default=2, dest="n_cap",
                   type=functools.partial(_int_at_least, 0, "--n-cap"))
    p.add_argument("--fixed-cap", default=4, dest="fixed_cap",
                   type=functools.partial(_int_at_least, 1, "--fixed-cap"))
    p.add_argument("--format", choices=("md", "json"), default="md")
    p.add_argument("-o", "--out", help="write to file instead of stdout")

    p = sub.add_parser("classify2", help="d = 2 family classification")
    _add_input_options(p)

    p = sub.add_parser("character", help="character of a braid word")
    _add_input_options(p)
    p.add_argument("--word", required=True, help="letters, e.g. 1,2,-1")

    p = sub.add_parser("equivalent", help="compare characters of two inputs")
    p.add_argument("first", help="JSON file or builtin name")
    p.add_argument("second", help="JSON file or builtin name")
    p.add_argument("--strands", default=4,
                   type=functools.partial(_int_at_least, 2, "--strands"))
    p.add_argument("--length", default=6,
                   type=functools.partial(_int_at_least, 1, "--length"))
    p.add_argument(
        "--tol", type=float, default=DEFAULT_TOL,
        help="verification tolerance; characters are always compared "
             "at 1e-9",
    )

    p = sub.add_parser("search", help="optimize for new solutions")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--restarts", default=16,
                   type=functools.partial(_int_at_least, 0, "--restarts"))
    p.add_argument("--seed", type=seed)
    p.add_argument("--max-iterations", type=int, default=2000,
                   dest="max_iterations")
    p.add_argument("--target", type=float, default=1e-8,
                   help="target residual")
    p.add_argument("--out", help="JSON-lines file to append solutions to")
    p.add_argument("--jobs", default=1, help="parallel restart workers",
                   type=functools.partial(_int_at_least, 1, "--jobs"))

    p = sub.add_parser("table9", help="reproduce the d = 2 family table")
    p.add_argument("--samples", default=20,
                   type=functools.partial(_int_at_least, 1, "--samples"))
    p.add_argument("--jobs", default=1, help="parallel row workers",
                   type=functools.partial(_int_at_least, 1, "--jobs"))
    p.add_argument("--seed", type=seed)
    p.add_argument("-o", "--out", help="write to file instead of stdout")

    return parser


def main(argv=None) -> int:
    try:
        # An empty or unset RMLAB_SEED means 0; read on every call.
        seed = _int_at_least(0, "RMLAB_SEED",
                             os.environ.get("RMLAB_SEED") or "0")
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help, or argparse's usage error
            return EXIT_INPUT if exc.code else EXIT_OK
        if getattr(args, "seed", 0) is None:
            args.seed = seed
        # By name, so that a patched cmd_* function is the one called.
        return globals()["cmd_" + args.command](args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (ParseError, DomainError, ShapeError, LevelError,
            OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RmlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
