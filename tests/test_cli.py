"""Command-line interface: exit codes, output formats, determinism."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmlab
from rmlab.cli import (
    _format_complex,
    main,
    parse_blocks,
    parse_phase,
    parse_word,
)
from rmlab.errors import ParseError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_phase_forms():
    assert parse_phase("0,1") == 1j
    assert abs(parse_phase("arg:0.5") - np.exp(0.5j)) <= 1e-15
    assert parse_phase("-1") == -1.0
    assert parse_phase("0.6+0.8i") == 0.6 + 0.8j
    with pytest.raises(ParseError):
        parse_phase("zz")


def test_parse_blocks():
    spec = parse_blocks("2:+,1:-")
    assert spec.blocks == ((2, 1), (1, -1))
    with pytest.raises(ParseError):
        parse_blocks("2:x")
    with pytest.raises(ParseError):
        parse_blocks("")


def test_parse_word():
    assert parse_word("1,2,-1").letters == ((1, 1), (2, 1), (1, -1))
    with pytest.raises(ParseError):
        parse_word("a,b")
    with pytest.raises(ParseError):
        parse_word("")


def test_verify_builtin_ok(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "flip", "--d", "2")
    assert code == 0
    assert out.startswith("OK ")
    assert "ybe_residual=" in out


def test_verify_file_round_trip(capsys, tmp_path):
    path = tmp_path / "r.json"
    rmlab.dump_solution(str(path), rmlab.builtin("r3special"))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out.startswith("OK ")


def test_verify_tampered_file_fails(capsys, tmp_path):
    doc = rmlab.solution_to_dict(rmlab.builtin("r2"))
    doc["entries"][5][0] += 0.25
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out.startswith("FAIL ")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("command", ["verify", "analyze", "equivalent"])
def test_tolerance_outside_zero_to_infinity_is_exit_2(capsys, tmp_path,
                                                      command, tol):
    # The all-ones matrix has unitarity residual 15.1; with --tol nan
    # it used to verify, and analyze went on to analyze it.  Builtins
    # used to ignore --tol altogether.
    doc = rmlab.solution_to_dict(rmlab.make_flip(2))
    doc["entries"] = [[1.0, 0.0]] * 16
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    sources = ([str(path)], ["--builtin", "r2"])
    if command == "equivalent":
        sources = ([str(path), "r2"], ["r2", "r2sym"])
    for source in sources:
        code, out, err = run(capsys, command, *source, f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert "input error" in err and "tolerance" in err


@pytest.mark.parametrize("command", ["verify", "analyze", "equivalent"])
def test_builtins_fail_a_tolerance_below_their_residual(capsys, command):
    source = ["r2", "r2sym"] if command == "equivalent" else [
        "--builtin", "r2"]
    code, out, err = run(capsys, command, *source, "--tol=1e-30")
    assert code == 1
    if command == "verify":
        assert out.startswith("FAIL ")
    else:
        assert out == "" and "verification failed" in err


def test_search_target_nan_is_exit_2(capsys):
    code, out, err = run(capsys, "search", "--restarts", "1",
                         "--target=nan")
    assert code == 2
    assert out == ""
    assert "target_residual" in err


def test_verify_unreadable_input_is_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("command", ["verify", "analyze", "classify2",
                                     "character"])
def test_a_file_and_a_builtin_together_are_exit_2(command, capsys,
                                                  tmp_path):
    # Neither input may be dropped in silence.
    path = tmp_path / "r2.json"
    rmlab.dump_solution(str(path), rmlab.builtin("r2"))
    extra = ["--word", "1"] if command == "character" else []
    code, out, err = run(capsys, command, str(path), "--builtin", "r4",
                         *extra)
    assert code == 2 and out == ""
    assert "input error: two inputs" in err


def test_complex_values_print_no_negative_zero():
    assert _format_complex(complex(-0.0, 0.0)) == "0"
    assert _format_complex(complex(-0.0, -1e-15)) == "0"
    assert _format_complex(complex(-0.0, 0.5)) == "0+0.5j"
    assert _format_complex(complex(-0.25, -0.0)) == "-0.25"
    assert _format_complex(complex(-1e-17, 0.0)) == "-1e-17"


def test_verify_no_input_is_exit_2(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "no input" in err


def test_character_flip_transposition(capsys):
    code, out, _ = run(
        capsys, "character", "--builtin", "flip", "--d", "2",
        "--word", "1",
    )
    assert code == 0
    assert out.strip() == "0.5"


def test_character_trivial_squared_generator(capsys):
    code, out, _ = run(
        capsys, "character", "--builtin", "trivial", "--q", "-1",
        "--word", "1,1",
    )
    assert code == 0
    assert out.strip() == "1"


def test_character_normal_form_blocks(capsys):
    code, out, _ = run(
        capsys, "character", "--builtin", "normal", "--blocks", "1:+,1:-",
        "--word", "1",
    )
    assert code == 0
    assert float(out.strip()) == 0.0


def test_classify2_reports_family_and_conjugator(capsys):
    code, out, _ = run(capsys, "classify2", "--builtin", "r2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("family 2")
    assert lines[1].startswith("residual ")
    assert sum(1 for ln in lines if ln.startswith("u: ")) == 2


def test_classify2_special_prefers_family_three(capsys):
    code, out, _ = run(capsys, "classify2", "--builtin", "r3special")
    assert code == 0
    assert out.splitlines()[0].startswith("family 3")


def test_equivalent_builtin_pair(capsys):
    code, out, _ = run(
        capsys, "equivalent", "r3special", "flip2",
        "--strands", "3", "--length", "4",
    )
    assert code == 0
    assert out.startswith("equal up to truncation")


def test_equivalent_distinct_pair(capsys):
    code, out, _ = run(capsys, "equivalent", "flip2", "trivial2")
    assert code == 1
    assert out.startswith("distinct: witness word")


def test_equivalent_unknown_name_is_exit_2(capsys):
    code, _, err = run(capsys, "equivalent", "flip2", "nosuch")
    assert code == 2
    assert "input error" in err


def test_analyze_markdown_and_json(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", "--builtin", "flip", "--d", "2")
    assert code == 0
    assert out.startswith("# Analysis:")

    path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "analyze", "--builtin", "flip", "--d", "2",
        "--format", "json", "-o", str(path),
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["d"] == 2
    assert payload["errors"] == {}


def test_analyze_json_is_deterministic(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys, "analyze", "--builtin", "r3", "--format", "json",
            "-o", str(path),
        )
        assert code == 0
    assert a.read_text() == b.read_text()


def test_search_writes_jsonl_record(capsys, tmp_path):
    path = tmp_path / "found.jsonl"
    code, out, _ = run(
        capsys, "search", "--d", "2", "--restarts", "2", "--seed", "0",
        "--out", str(path),
    )
    assert code == 0
    assert out.startswith("success:") and ", family " in out
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {
        "config", "config_hash", "d", "entries", "fingerprint", "meta",
    }
    assert record["d"] == 2
    assert len(record["entries"]) == 16
    back = rmlab.solution_from_dict(record)
    assert back.ybe_residual <= 1e-8


def test_search_names_a_family_only_at_d2(capsys):
    # No classifier runs at d = 3, so no family text is printed.
    code, out, _ = run(capsys, "search", "--d", "3", "--restarts", "1",
                       "--seed", "1")
    assert code == 0
    assert out.startswith("success: restart 0, steps ")
    assert out.rstrip().split(", ")[-1].startswith("ybe_residual=")


def test_search_zero_restarts_fails(capsys):
    code, out, _ = run(capsys, "search", "--restarts", "0")
    assert code == 1
    assert out.startswith("failure")


def test_search_jobs_give_identical_records(capsys, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    code, _, _ = run(
        capsys, "search", "--restarts", "3", "--seed", "4", "--out", str(a),
    )
    assert code == 0
    code, _, _ = run(
        capsys, "search", "--restarts", "3", "--seed", "4",
        "--jobs", "2", "--out", str(b),
    )
    assert code == 0
    assert a.read_text() == b.read_text()


def test_table9_all_rows_match(capsys):
    code, out, _ = run(capsys, "table9", "--samples", "3", "--seed", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("| family ")
    rows = [ln for ln in lines[2:] if ln.startswith("| ")]
    assert len(rows) == 4
    for row in rows:
        assert "match" in row
        assert "MISMATCH" not in row
        assert "3/3" in row


@pytest.mark.parametrize("family,fixed_solves,r2_spectra", [
    (1, 0, 0), (2, 0, 0), (3, 0, 2), (4, 16, 0)])
def test_table9_rows_run_only_the_solves_their_verdicts_need(
        monkeypatch, family, fixed_solves, r2_spectra):
    # Ergodic draws (families 2 and 3) skip the level-1 fixed points;
    # family 4 solves levels 1-4 once per draw, the classifier reusing
    # level 1.  The R^2 seeds are built only when the map seeds fail:
    # never for family 2, for two of the four family-3 draws here.
    calls = {"fixed": 0, "eig": 0}
    fixed, eig = rmlab.cli.fixed_subalgebra, rmlab.analysis.eig_normal

    def counted_fixed(*args):
        calls["fixed"] += 1
        return fixed(*args)

    def counted_eig(*args):
        calls["eig"] += 1
        return eig(*args)

    for module in (rmlab.cli, rmlab.analysis):
        monkeypatch.setattr(module, "fixed_subalgebra", counted_fixed)
    monkeypatch.setattr(rmlab.analysis, "eig_normal", counted_eig)
    _, samples, _, ok, hits = rmlab.cli._table9_row(family, 4, 0)
    assert ok and hits == samples == 4
    assert calls == {"fixed": fixed_solves, "eig": r2_spectra}


def test_table9_jobs_deterministic(capsys, tmp_path):
    a = tmp_path / "a.md"
    b = tmp_path / "b.md"
    code, _, _ = run(
        capsys, "table9", "--samples", "2", "--seed", "6", "-o", str(a),
    )
    assert code == 0
    code, _, _ = run(
        capsys, "table9", "--samples", "2", "--seed", "6",
        "--jobs", "4", "-o", str(b),
    )
    assert code == 0
    assert a.read_text() == b.read_text()


def test_seed_env_default(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("RMLAB_SEED", "11")
    a = tmp_path / "a.jsonl"
    code, _, _ = run(
        capsys, "search", "--restarts", "1", "--out", str(a),
    )
    assert code == 0
    assert json.loads(a.read_text())["config"]["seed"] == 11


@pytest.mark.parametrize("d,entries", [
    (-1, [[1, 0]]),
    (2.5, rmlab.solution_to_dict(rmlab.make_flip(2))["entries"]),
])
def test_verify_bad_dimension_is_exit_2(capsys, tmp_path, d, entries):
    path = tmp_path / "bad-d.json"
    path.write_text(json.dumps({"d": d, "entries": entries}))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert "input error" in err and "Traceback" not in err


def test_main_builds_the_parser_once_and_calls_commands_by_name(
        capsys, monkeypatch):
    parser = rmlab.cli.build_parser()
    seen = []
    monkeypatch.delenv("RMLAB_SEED", raising=False)
    monkeypatch.setattr(rmlab.cli, "cmd_table9",
                        lambda args: seen.append(args.seed) or 0)
    assert run(capsys, "table9")[0] == 0
    monkeypatch.setenv("RMLAB_SEED", "7")
    assert run(capsys, "table9")[0] == 0
    assert run(capsys, "table9", "--seed", "3")[0] == 0
    assert seen == [0, 7, 3]
    assert rmlab.cli.build_parser() is parser


def test_bad_seed_env_is_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("RMLAB_SEED", "abc")
    code, out, err = run(capsys, "verify", "--builtin", "flip", "--d", "2")
    assert code == 2
    assert out == ""
    assert "RMLAB_SEED" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "classify2"])
def test_probe_commands_take_no_seed(capsys, command):
    # Their random probes draw from a constant; --seed is unknown.
    code, out, err = run(capsys, command, "--builtin", "r4", "--seed", "3")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --seed" in err
    assert "Traceback" not in err


def test_bad_input_from_the_shell_prints_no_traceback(tmp_path,
                                                      run_python):
    path = tmp_path / "neg-d.json"
    path.write_text(json.dumps({"d": -1, "entries": [[1, 0]]}))
    for argv, seed in (([str(path)], "0"), (["--builtin", "flip"], "abc")):
        proc = run_python("-m", "rmlab.cli", "verify", *argv,
                          RMLAB_SEED=seed)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("input error: ")


@pytest.mark.parametrize("argv,seed,named", [
    (["verify", "--builtin", "flip", "--d", "0"], "", "dimension"),
    (["verify", "--builtin", "trivial", "--d", "0"], "", "dimension"),
    (["search", "--seed", "-1", "--restarts", "1",
      "--max-iterations", "1"], "", "--seed"),
    (["search", "--restarts", "1", "--max-iterations", "1"], "-1",
     "RMLAB_SEED"),
    (["table9", "--samples", "-2"], "", "--samples"),
    (["table9", "--samples", "0"], "", "--samples"),
    (["analyze", "--builtin", "r2", "--n-cap", "-1"], "", "--n-cap"),
    (["analyze", "--builtin", "r2", "--fixed-cap", "0"], "", "--fixed-cap"),
    (["search", "--jobs", "0", "--restarts", "1", "--max-iterations", "1"],
     "", "--jobs"),
    (["table9", "--jobs", "0", "--samples", "1"], "", "--jobs"),
    (["search", "--restarts", "-3", "--max-iterations", "1"], "",
     "--restarts"),
    (["equivalent", "r2", "r3", "--strands", "1"], "", "--strands"),
    (["equivalent", "r2", "r3", "--length", "0"], "", "--length"),
], ids=["flip-d0", "trivial-d0", "seed-flag", "seed-env", "samples-neg",
        "samples-zero", "n-cap-neg", "fixed-cap-zero", "search-jobs-zero",
        "table9-jobs-zero", "restarts-neg", "strands-one", "length-zero"])
def test_out_of_range_integers_from_the_shell_are_exit_2(argv, seed, named,
                                                         run_python):
    proc = run_python("-m", "rmlab.cli", *argv, RMLAB_SEED=seed)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"input error: {named} ")


@pytest.mark.parametrize("eps", [1e-8])
def test_analyze_of_near_degenerate_phases_reports_no_section_error(
        eps, run_python):
    # Near-degenerate phases let rounding noise grow a closure of A_4: a
    # residual of size eps, normalized, amplifies rounding by 1 / eps.
    # A_4 is built from the probes' frames instead, so L comes out as M
    # does under one BLAS thread and under two, whose summation orders
    # differ.
    for threads in (1, 2):
        proc = run_python(
            "-m", "rmlab.cli", "analyze", "--builtin", "r2", "--p",
            "arg:0.5", "--q", "arg:-1.3", "--r", f"arg:{0.5 + eps}",
            "--s", "arg:-1.3", threads=threads)
        assert proc.returncode == 0
        assert "[error]" not in proc.stdout
        assert ("* level 1: M: C^2 (dim 2), N: C^2 (dim 2), L: C^2 (dim 2)"
                in proc.stdout)
        assert ("* level 2: M: C^2 (+) M_2 (dim 6), N: C^2 (+) M_2 (dim 6), "
                "L: C^2 (+) M_2 (dim 6)" in proc.stdout)


def test_analyze_caps_at_their_lower_bounds(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "r2", "--format",
                       "json", "--n-cap", "0", "--fixed-cap", "1")
    report = json.loads(out)
    assert code == 0
    assert (report["n_cap"], report["fixed_cap"]) == (0, 1)


def _conjugated_r3_file(tmp_path) -> str:
    rng = np.random.default_rng(3)
    path = str(tmp_path / "r3conj.json")
    rmlab.dump_solution(path, rmlab.random_conjugate(rmlab.builtin("r3"),
                                                     rng))
    return path


def test_the_cli_and_its_scipy_free_commands_load_no_scipy_module(
        tmp_path, run_python):
    # The package runs on numpy alone: with scipy unimportable, every
    # command still works, the classifier's seed polish included.
    path = _conjugated_r3_file(tmp_path)
    # A near-special family-3 draw that no closed-form seed classifies.
    rng = np.random.default_rng(0)
    p, q = rmlab.random_unimodular(rng), rmlab.random_unimodular(rng)
    near = str(tmp_path / "near.json")
    base = rmlab.family_r3(p, q, q * q / p * np.exp(1e-7j))
    rmlab.dump_solution(near, rmlab.random_conjugate(base, rng))
    script = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "import rmlab.analysis, rmlab.cli\n"
        "polish, polished = rmlab.analysis._polish_seed, []\n"
        "def counted(*args):\n"
        "    polished.append(args)\n"
        "    return polish(*args)\n"
        "rmlab.analysis._polish_seed = counted\n"
        "for argv, code in ((['analyze', '--builtin', 'trivial2'], 0),\n"
        "                   (['table9', '--samples', '2'], 0),\n"
        f"                   (['classify2', {path!r}], 0),\n"
        "                   (['verify', '--builtin', 'r3'], 0),\n"
        "                   (['equivalent', 'r2', 'r3'], 1),\n"
        f"                   (['classify2', {near!r}], 0)):\n"
        "    polished.clear()\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert rmlab.cli.main(argv) == code, argv\n"
        "print(len(polished))\n"
        "print(out.getvalue(), end='')\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    calls, family, residual = proc.stdout.splitlines()[:3]
    assert int(calls) > 0
    assert family.startswith("family 3 ")
    assert float(residual.removeprefix("residual ")) <= 1e-8


def test_search_loads_no_scipy_module(tmp_path, run_python):
    # The descent, its exponential and the polish are numpy alone: with
    # scipy unimportable the searches run and no scipy module loads.
    out = str(tmp_path / "found.jsonl")
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import rmlab.cli\n"
        "loaded = []\n"
        "for d in ('2', '3'):\n"
        "    argv = ['search', '--d', d, '--restarts', '1', '--out', "
        f"{out!r}]\n"
        "    assert rmlab.cli.main(argv) == 0, argv\n"
        "    loaded.append(sorted(m for m in sys.modules\n"
        "                         if m.startswith('scipy.')))\n"
        "print(loaded)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[[], []]"
    with open(out, encoding="utf-8") as fh:
        assert [json.loads(line)["d"] for line in fh] == [2, 3]


def test_classify2_reports_an_unclassified_input(monkeypatch, capsys,
                                                 tmp_path):
    # From this one wrong seed the Gauss-Newton polish does not reach
    # either family's support.
    path = _conjugated_r3_file(tmp_path)
    monkeypatch.setattr(rmlab.analysis, "_diag_seed_vectors",
                        lambda r: [np.array([1.0, 1.0]) / np.sqrt(2.0)])
    code, out, _ = run(capsys, "classify2", path)
    assert code == 1
    prefix = "unclassified (best residual "
    assert out.startswith(prefix) and out.endswith(")\n")
    residual = float(out[len(prefix):-2])
    assert 1e-8 < residual < np.inf


def test_oversized_d_exits_1_before_allocating(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the flip was built")

    monkeypatch.setattr(rmlab.rmatrix, "_flip_cached", refuse)
    code, out, err = run(capsys, "verify", "--builtin", "flip", "--d", "30")
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert f"needs {30 ** 6} entries, above the cap" in err


# Tokens that make bad command lines: unknown names, missing files,
# out-of-range or unparsable values, stray flags.  Every input is bad,
# and no count can be large, so no command runs for long.
_FUZZ_COMMANDS = ["verify", "analyze", "classify2", "character",
                  "equivalent", "search", "table9", "nosuch"]
_FUZZ_TOKENS = [
    "--builtin", "nosuch", "flip", "/nonexistent/r.json", ".", "-",
    "--d", "--seed", "--samples", "--restarts", "--jobs", "--n-cap",
    "--fixed-cap", "--strands", "--length", "--word", "--tol", "--format",
    "--target", "--p", "--blocks", "--bogus", "-x", "--help",
    "-1", "0", "x", "2.5", "", "1e3", "nan", "inf", "99", "1,a", "2:x",
]


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(_FUZZ_COMMANDS),
       rest=st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=6))
def test_fuzzed_command_lines_exit_0_1_or_2(command, rest):
    # main returns, and raises nothing, not even argparse's SystemExit.
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([command, *rest])
    assert code in (0, 1, 2)


def test_a_word_past_the_dense_cap_is_an_error_not_a_crash(capsys):
    code, out, err = run(capsys, "character", "--builtin", "r2",
                         "--word", "99")
    assert code == 1
    assert out == ""
    assert err.startswith("error: a 100-strand word needs ")
