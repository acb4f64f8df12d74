import contextlib
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import balance_forge
from balance_forge import cli, pellsolver, quadarith, sequences, verifier
from balance_forge.cli import main
from balance_forge.sequences import SequenceKind, term

ROOT = Path(__file__).resolve().parents[1]

needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this build has no int-to-str digit limit",
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_plain(capsys):
    code, out, _ = run(capsys, "gen", "B", "0", "4")
    assert code == 0
    assert out.splitlines() == ["0", "1", "6", "35", "204"]


def test_gen_interleaved(capsys):
    code, out, _ = run(capsys, "gen", "Bss", "1", "5")
    assert code == 0
    assert out.splitlines() == ["1", "2", "4", "11", "23"]


@needs_digit_limit
def test_gen_prints_values_past_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "gen", "B", "6000", "6000")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert out == f"{term(SequenceKind.B, 6000)}\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_main_runs_without_a_digit_limit(capsys, monkeypatch):
    # CPython before 3.10.7 has no sys.set_int_max_str_digits; main prints the same there
    monkeypatch.delenv("BALANCE_FORGE_FORMAT", raising=False)
    argvs = [("gen", "B", "0", "4"), ("verify", "teo2", "--upto", "5")]
    expected = [run(capsys, *argv) for argv in argvs]
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert [run(capsys, *argv) for argv in argvs] == expected
    assert expected[0] == (0, "0\n1\n6\n35\n204\n", "") and expected[1][0] == 0


def test_gen_empty_range(capsys):
    code, _, err = run(capsys, "gen", "B", "3", "2")
    assert code == 2


def test_gen_unknown_kind(capsys):
    code, _, err = run(capsys, "gen", "Q", "0", "3")
    assert code == 2
    assert "unknown sequence" in err


def test_gen_negative_index(capsys):
    code, _, err = run(capsys, "gen", "B", "-2", "3")
    assert code == 2
    assert "undefined index" in err


def test_gen_jsonl_round_trip(capsys):
    code, out, _ = run(capsys, "gen", "B", "0", "3", "--format", "jsonl")
    assert code == 0
    for line in out.splitlines():
        obj = json.loads(line)
        assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == line
    assert json.loads(out.splitlines()[3]) == {
        "command": "gen", "kind": "B", "n": 3, "value": 35
    }


def test_solve_count(capsys):
    code, out, _ = run(capsys, "solve", "8", "0", "-1", "-9", "--count", "3")
    assert code == 0
    assert out.splitlines() == ["(3,9)", "(18,51)", "(105,297)"]


def test_solve_count_second_form(capsys):
    code, out, _ = run(capsys, "solve", "2", "0", "-1", "9", "--count", "2")
    assert code == 0
    assert out.splitlines() == ["(3,3)", "(15,21)"]


def test_solve_right_hand_side_past_int64(capsys):
    # 4*a*m = 2^64: the residue tables of the scan must not go through int64
    code, out, _ = run(capsys, "solve", "1", "0", "-2", "4611686018427387904", "--count", "2")
    assert code == 0
    assert out.splitlines() == ["(6442450944,4294967296)", "(36507222016,25769803776)"]


SOLVE_277 = ["solve", "1", "0", "-277", "7", "--count", "3"]
SOLVED_277 = [
    "(50,3)",
    "(11148314456383338830,669837296959923453)",
    "(15903859065441664246070,955570280090842778547)",
]


def test_solve_wide_window_without_numpy():
    # x^2 - 277y^2 = 7 searches a window of 1.4*10^9 values of y
    script = (
        "import sys\n"
        "from balance_forge.cli import main\n"
        f"code = main({SOLVE_277!r})\n"
        "assert 'numpy' not in sys.modules\n"
        "sys.exit(code)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(balance_forge.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == SOLVED_277


def run_script(script):
    env = {**os.environ, "PYTHONPATH": str(Path(balance_forge.__file__).parents[1])}
    env.pop("BALANCE_FORGE_FORMAT", None)
    return subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)


def test_import_leaves_heavy_standard_modules_unloaded():
    # dataclasses (with inspect), fractions (with decimal), json and argparse
    # (with gettext and re) each cost more to import than this package's own
    # code; no well-formed run needs them loaded
    proc = run_script("import sys, balance_forge.cli\n"
                      "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal', 'json',"
                      " 'argparse', 'gettext', 're'} & set(sys.modules)))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_well_formed_runs_leave_argparse_unloaded():
    proc = run_script(
        "import sys\n"
        "from balance_forge.cli import main\n"
        "for argv in ('gen B 0 4', 'solve 8 0 -1 -9 --count 3', 'verify teo2 --upto 20'):\n"
        "    assert main(argv.split()) == 0, argv\n"
        "assert 'argparse' not in sys.modules\n"
        "main(['solve', '--help'])\n"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:9] == ["0", "1", "6", "35", "204", "(3,9)", "(18,51)", "(105,297)",
                         "teo2.Bstar [1..20] pass"]
    assert lines[11] == "teo2.Cstarstar [1..20] pass"
    assert lines[12].startswith("usage: balance-forge solve [-h]")


def test_public_annotations_resolve():
    # a documentation or type tool resolves the hints of every public function
    # and method; rep_bound names Fraction only in its docstring, as fractions
    # stays off the import path
    import typing
    checked = []
    for module in (quadarith, sequences, pellsolver, verifier, cli):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if isinstance(obj, type) else [(name, obj)]
            for key, member in members:
                member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                if callable(member) and (not key.startswith("_") or key.endswith("__")):
                    typing.get_type_hints(member)
                    checked.append(member.__qualname__)
    assert {"rep_bound", "QuadInt.__mul__", "OrbitMatrix.power", "QuadInt.half"} <= set(checked)


def test_solve_unfactorable_right_hand_side_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(pellsolver, "_factor", lambda n: None)
    code, out, err = run(capsys, *SOLVE_277)
    assert (code, out) == (2, "")
    assert err == "4*a*m could not be factored; the representative search needs its prime factors\n"


def test_solve_exits_two_when_pollard_brent_gives_up(capsys):
    m = 35184372088891 * 52776558133303  # two primes past Pollard-Brent's step budget
    form = pellsolver.QuadraticForm(1, 0, -99999999)
    matrix = pellsolver.orbit_matrix(form)
    # inside the window the solver searches, so the ceiling refusal does not fire first
    assert pellsolver._search_ceiling(form, m, matrix.m11 + matrix.m22) == 304_690_366_315
    code, out, err = run(capsys, "solve", "1", "0", "-99999999", str(m), "--count", "1")
    assert (code, out) == (2, "")
    assert err == "4*a*m could not be factored; the representative search needs its prime factors\n"


def test_solve_refuses_a_strong_pseudoprime_factor(capsys):
    # 4*a*m has the factor 3317044064679887385961981, a strong pseudoprime to
    # every Miller-Rabin witness; taken for a prime, it cost two square roots
    # of the discriminant and this call printed nothing and exited 0, though
    # (-628557212321269383038151, 1) solves it
    code, out, err = run(
        capsys, "solve", "1", "1413826713668295963084578", "1",
        "-493586808687600319860312700683530124699892236476",
        "--xbound", "628557212321269383038151", "--all")
    assert (code, out) == (2, "")
    assert err == "4*a*m could not be factored; the representative search needs its prime factors\n"



def test_solve_count_stops_on_a_finite_positive_set():
    # a, b and c of one sign leave finitely many solutions with x, y > 0
    env = {**os.environ, "PYTHONPATH": str(Path(balance_forge.__file__).parents[1])}
    for argv, expected in [
        (["1", "5", "3", "-3", "--count", "2"], ""),  # F > 0 there: none
        (["2", "6", "1", "-6", "--count", "4"], ""),
        (["1", "5", "3", "9", "--count", "4"], "(1,1)\n"),
    ]:
        proc = subprocess.run([sys.executable, "-m", "balance_forge", "solve", *argv],
                              capture_output=True, text=True, env=env, timeout=30)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


def test_solve_degenerate_form(capsys):
    code, _, err = run(capsys, "solve", "1", "0", "-4", "5", "--count", "1")
    assert code == 2
    assert "degenerate form" in err


def test_solve_zero_rhs(capsys):
    code, out, err = run(capsys, "solve", "8", "0", "-1", "0", "--count", "1")
    assert code == 2
    assert (out, err) == ("", "degenerate right-hand side\n")


def test_solve_empty_is_success(capsys):
    code, out, _ = run(capsys, "solve", "8", "0", "-1", "1", "--count", "5")
    assert code == 0
    assert out == ""


def test_solve_all_matches_brute_force(capsys):
    code, out, _ = run(capsys, "solve", "8", "0", "-1", "-9", "--xbound", "100", "--all")
    assert code == 0
    from balance_forge.pellsolver import QuadraticForm, brute_force_solutions

    got = {tuple(map(int, line.strip("()").split(","))) for line in out.splitlines()}
    assert got == brute_force_solutions(QuadraticForm(8, 0, -1), -9, 100)


def test_solve_jsonl_carries_orbit_tags(capsys):
    code, out, _ = run(capsys, "solve", "8", "0", "-1", "7", "--count", "2",
                       "--format", "jsonl")
    assert code == 0
    objs = [json.loads(line) for line in out.splitlines()]
    assert [(o["x"], o["y"]) for o in objs] == [(1, 1), (2, 5)]
    assert all({"rep", "exponent", "sign"} <= set(o) for o in objs)


def test_verify_single_group(capsys):
    code, out, _ = run(capsys, "verify", "teo5", "--upto", "50")
    assert code == 0
    assert all(" pass" in line for line in out.splitlines())


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "all", "--upto", "100", "--pell-count", "10")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 66
    assert all(" pass" in line for line in lines)


def test_verify_failure_exits_one(capsys, monkeypatch):
    # the real catalog always passes; force a failing report through
    from balance_forge.verifier import VerificationReport
    import balance_forge.cli as cli

    failing = VerificationReport("pellk.B", 1, 5, "fail", {"n": 3, "lhs": 0, "rhs": 1})
    monkeypatch.setattr(cli, "verify", lambda *a, **k: failing)
    code, out, _ = run(capsys, "verify", "pellk.B", "--upto", "5")
    assert code == 1
    assert "fail" in out and "counterexample" in out
    code, out, _ = run(capsys, "verify", "pellk.B", "--upto", "5", "--format", "jsonl")
    assert code == 1
    assert out == ('{"counterexample":{"lhs":0,"n":3,"rhs":1},'
                   '"id":"pellk.B","range":[1,5],"status":"fail"}\n')


@needs_digit_limit
def test_verify_prints_a_large_counterexample(capsys, monkeypatch):
    from balance_forge.verifier import VerificationReport
    import balance_forge.cli as cli

    big = 10 ** 5000
    failing = VerificationReport("pellk.B", 1, 5, "fail", {"n": 3, "lhs": big, "rhs": 1})
    monkeypatch.setattr(cli, "verify", lambda *a, **k: failing)
    code, out, _ = run(capsys, "verify", "pellk.B", "--upto", "5")
    assert code == 1
    assert '"lhs":1' + "0" * 5000 + "," in out


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "nosuch", "--upto", "5")
    assert code == 2
    assert "no such identity" in err
    # the id is looked up before the range is checked
    for id in ("nosuch", "teo99"):
        code, _, err = run(capsys, "verify", id, "--upto", "0")
        assert (code, err) == (2, "no such identity\n"), id


def test_verify_bad_range(capsys):
    code, _, err = run(capsys, "verify", "all", "--upto", "0")
    assert code == 2
    assert "arguments positive" in err


def test_verify_jsonl(capsys):
    code, out, _ = run(capsys, "verify", "pellk", "--upto", "20", "--format", "jsonl")
    assert code == 0
    for line in out.splitlines():
        obj = json.loads(line)
        assert obj["status"] == "pass"
        assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == line


def test_output_is_deterministic(capsys):
    first = run(capsys, "verify", "teo2", "--upto", "30", "--format", "jsonl")
    second = run(capsys, "verify", "teo2", "--upto", "30", "--format", "jsonl")
    assert first == second


def test_format_env_default(capsys, monkeypatch):
    monkeypatch.setenv("BALANCE_FORGE_FORMAT", "jsonl")
    code, out, _ = run(capsys, "gen", "B", "0", "1")
    assert code == 0
    assert all(json.loads(line) for line in out.splitlines())
    monkeypatch.setenv("BALANCE_FORGE_FORMAT", "bogus")
    code, out, _ = run(capsys, "gen", "B", "0", "1")
    assert code == 0
    assert out.splitlines() == ["0", "1"]


def test_main_reuses_one_parser(capsys, monkeypatch):
    monkeypatch.delenv("BALANCE_FORGE_FORMAT", raising=False)
    built, build = [], cli.build_parser

    def counted():
        built.append(1)
        return build()

    # main reads the parser through cli._parser, a cache of build_parser
    monkeypatch.setattr(cli, "_parser", functools.cache(counted))
    assert run(capsys, "gen", "B", "0", "1") == (0, "0\n1\n", "")
    # the variable is read on every call, not when the parser was built
    monkeypatch.setenv("BALANCE_FORGE_FORMAT", "jsonl")
    code, out, _ = run(capsys, "gen", "B", "0", "1")
    assert code == 0
    assert [json.loads(line)["value"] for line in out.splitlines()] == [0, 1]
    assert built == []  # a well-formed argv never builds the parser
    for argv in (["gen", "--help"], ["gen", "--bogus"]) * 2:
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    assert built == [1]


@pytest.mark.parametrize("command", ["gen", "solve", "verify"])
def test_help_and_usage_errors_survive_parser_reuse(capsys, command):
    def printed(parse):
        with pytest.raises(SystemExit) as exc:
            parse()
        return exc.value.code, *capsys.readouterr()

    fresh = printed(lambda: cli.build_parser().parse_args([command, "--help"]))
    assert fresh[0] == 0 and fresh[1].startswith("usage: balance-forge " + command)
    assert printed(lambda: main([command, "--help"])) == fresh
    usage_error = printed(lambda: main([command, "--bogus"]))
    assert usage_error[:2] == (2, "")
    assert usage_error[2].startswith("usage: balance-forge " + command) and "error:" in usage_error[2]
    assert printed(lambda: main([command, "--help"])) == fresh


# each CI smoke line `out=$(... python -m balance_forge ARGS | sha256sum)` and its pin
_CI_PIN = re.compile(r'out=\$\(PYTHONPATH=src python -m balance_forge ([^|]*?) \| sha256sum\)\n'
                     r'\s*test "\$out" = "([0-9a-f]{64})  -"')


def ci_pins():
    workflow = ROOT / ".github" / "workflows" / "tests.yml"
    return _CI_PIN.findall(workflow.read_text())


def test_ci_smoke_pins_hold_in_process(capsys, monkeypatch):
    # the workflow file stays the one record of these digests
    monkeypatch.delenv("BALANCE_FORGE_FORMAT", raising=False)
    pins = ci_pins()
    assert len(pins) == 30
    for args, digest in pins:
        code, out, _ = run(capsys, *args.split())
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, args


# sha256 of argparse's bytes at 80 columns, the same on CPython 3.10 to 3.13,
# taken before well-formed argv stopped reaching the parser: help on stdout
# with exit 0, usage errors on stderr with exit 2
_PARSER_PINS = {
    "--help": (0, "3a21ccc5f2825fd6e11169eb127964f2b6b54729c0ac64a023e85c831b99f56e"),
    "gen --help": (0, "faf32a8658fb4c7f6666e6c61c0f4c3c2ac938615cc829269f75faca9271a16c"),
    "solve --help": (0, "76cd7618b07f2bb507e6122ae29e8b2dbbf606f52444bd9b4043887b5b101bae"),
    "verify --help": (0, "e48961b11a60a376557404d119d2dbfa3281b63908194b08ee1cdb85a2352d98"),
    "solve 8 0 -1 -9 --count 3 --xbound 5":
        (2, "1b3c57e6414a97681d548af6ccdb5f29441869cc1e1f1eb41d2a6f70780af7e6"),
    "solve 8 0 -1 -9": (2, "cc78500d407fc64444e9ac7459414212577e45f5c282e09b7abeb0bf6d336a35"),
    "verify teo1": (2, "dcbca85d1a32cf4f4911afceff9252e0e9132269e54688e94fe2583f5425c538"),
    "solve 8 0 -1 -9 --count x":
        (2, "d36ebbba86dc7dba72b691743aa19c89d03f75624666330de7957ffd727e852e"),
    "gen B 0 4 --format xml": (2, "5f66d9ed07f398281c3f1d69fcf55d799f105d680d422ad9042dc673d5a7e9a6"),
    "gen B 0 4 --bogus": (2, "e9eea9156cff75225d166ddf22be2287dc86d4521f871acf5912f7e75d66a9ca"),
    "": (2, "c82f99cb40ac88c0c6d174b9d2b2ec13c492f1fcca0d01ad00f0f9788b9957a1"),
    "gen B 0 4 5": (2, "5914ef2eb18102b6dade0e180ae3cb23a7145d76125b93af69e5e4b59df21050"),
}


@pytest.mark.parametrize("args", list(_PARSER_PINS))
def test_help_and_usage_errors_keep_argparse_bytes(capsys, monkeypatch, args):
    monkeypatch.setenv("COLUMNS", "80")
    code, digest = _PARSER_PINS[args]
    with pytest.raises(SystemExit) as exc:
        main(args.split())
    out = capsys.readouterr()
    printed, silent = (out.out, out.err) if code == 0 else (out.err, out.out)
    assert (exc.value.code, silent) == (code, "")
    assert hashlib.sha256(printed.encode()).hexdigest() == digest, printed


# tokens argparse reads in ways a literal reading of the grammar could miss
_TRICKY = ["--cou", "--count=3", "--", "-h", "", "+3", "1_0", " 7", "\u0663", "-\u0663",
           "-5\n", "-1.5"]
_MUTATIONS = ["none", "replace", "insert", "delete", "repeat", "options first"]


@st.composite
def mutated_argvs(draw):
    """A well-formed argv from the grammar, then one mutation: (mutation, argv)."""
    command = draw(st.sampled_from(list(cli._GRAMMAR)))
    _, _, arguments, _ = cli._GRAMMAR[command]
    positionals = [kw for name, kw in arguments if name[0] != "-"]
    options = [(name, kw) for name, kw in arguments if name[0] == "-"]
    ints = st.integers(-99, 99).map(str)
    argv = [command]
    for keywords in positionals:
        argv.append(draw(ints if "type" in keywords else st.sampled_from(["B", "teo1", "all", "-7"])))
    for name, keywords in draw(st.lists(st.sampled_from(options), unique_by=lambda o: o[0])):
        argv.append(name)
        if "choices" in keywords:
            argv.append(draw(st.sampled_from(keywords["choices"])))
        elif "action" not in keywords:
            argv.append(draw(ints))
    mutation = draw(st.sampled_from(_MUTATIONS))
    i, token = draw(st.sampled_from(range(len(argv) + 1))), draw(st.sampled_from(_TRICKY))
    if mutation == "replace":
        argv[i:i + 1] = [token]
    elif mutation == "insert":
        argv.insert(i, token)
    elif mutation == "delete":
        del argv[i:i + 1]
    elif mutation == "repeat":
        argv += argv[i:i + 2]
    elif mutation == "options first":
        argv = argv[:1] + argv[1 + len(positionals):] + argv[1:1 + len(positionals)]
    return mutation, argv


@settings(max_examples=1000, deadline=None)
@given(mutated_argvs())
@example(("replace", ["gen", "-h", "0", "1"]))
@example(("replace", ["verify", "--", "--upto", "3"]))
@example(("repeat", ["solve", "1", "0", "-87", "-38286", "--count", "7", "--count", "7"]))
@example(("delete", ["solve", "1", "0", "-87", "-38286"]))
def test_fast_path_agrees_with_argparse(case):
    mutation, argv = case
    fast = cli._match(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            slow = vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        slow = None
    assert fast is None or vars(fast) == slow
    # every well-formed argv that argparse takes is taken without it
    assert mutation != "none" or (fast is None) == (slow is None)


def test_fast_path_takes_every_ci_and_benchmark_argv(monkeypatch):
    # a well-formed argv that falls through to argparse silently loses the gain
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    argvs = [args.split() for args, _ in ci_pins()]
    argvs += [call for name in workloads.BUILDERS for seed in (1, 2, 3)
              for kind, call, _ in workloads.build(name, seed) if kind == "cli"]
    assert len(argvs) > 400
    assert [argv for argv in argvs if cli._match(argv) is None] == []


def test_tracer_boundaries_are_callable_module_globals():
    # the traced benchmark wraps these names; a dropped import would only
    # show there, as a failed smoke run
    import importlib
    import importlib.util
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.BOUNDARIES) > 10
    for module, name, _ in tracer.BOUNDARIES:
        found = vars(importlib.import_module(f"balance_forge.{module}")).get(name)
        assert callable(found), (module, name)


@pytest.mark.parametrize("argv, lines_read", [
    (["gen", "B", "0", "20000"], 1),
    (["gen", "B", "0", "20000", "--format", "jsonl"], 1),
    (["solve", "1", "0", "-2", "1", "--count", "3000"], 1),
    (["verify", "teo2", "--upto", "50"], 0),  # a few short lines: closed before any is written
    (["verify", "teo2", "--upto", "50", "--format", "jsonl"], 0),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_a_closed_stdout_ends_the_command_quietly(argv, lines_read):
    # stdout buffered as in a shell pipe: unbuffered, one large write into a
    # closed pipe drops the rest without an error
    env = {**os.environ, "PYTHONPATH": str(Path(balance_forge.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    env.pop("BALANCE_FORGE_FORMAT", None)
    proc = subprocess.Popen([sys.executable, "-m", "balance_forge", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        for _ in range(lines_read):
            assert proc.stdout.readline().endswith(b"\n")
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (0, b"")
    finally:
        proc.kill()
        proc.wait()
