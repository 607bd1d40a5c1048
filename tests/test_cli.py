import argparse
import contextlib
import io
import json
import pathlib
import random
import sys
import time
from dataclasses import asdict

from rankcalc import cli
from rankcalc.cli import main
from rankcalc.grassmann import parse_class
from rankcalc.symfunc import MonomialExpansion, SchurExpansion, parse_expansion
from rankcalc.verify import MAX_SCALE, CheckReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stanley_command(capsys):
    code, out, _ = run(capsys, "stanley", "31524")
    assert code == 0
    assert out == "1*s[2,2] + 1*s[3,1]\n"
    code, out, _ = run(capsys, "stanley", "1")
    assert (code, out) == (0, "1*s[-]\n")
    code, out, _ = run(capsys, "stanley", "321")
    assert (code, out) == (0, "1*s[2,1]\n")


def test_stanley_parse_failure(capsys):
    code, _, err = run(capsys, "stanley", "xx")
    assert code == 2
    assert "parse error" in err


def test_affine_stanley_command(capsys):
    code, out, _ = run(capsys, "affine-stanley", "5,2,7,4;n=4")
    assert code == 0
    assert out.strip() == "4*m[1,1,1,1] + 2*m[2,1,1] + 1*m[2,2]"
    code, out, _ = run(capsys, "affine-stanley", "1,2,3;n=3")
    assert out.strip() == "1*m[-]"
    code, _, _ = run(capsys, "affine-stanley", "1,5;n=2")
    assert code == 2


def test_rank_class_command(capsys):
    code, out, _ = run(capsys, "rank-class", "[1,3],[3,6],[4,5];n=6")
    assert code == 0
    assert "w_M = 13265478" in out
    code, out, _ = run(capsys, "rank-class", "[1,1],[3,3];n=4")
    assert "class = 1*o[2,2]@Gr(2,4)" in out
    code, out, _ = run(capsys, "rank-class", "[1,1];n=1")
    assert code == 0
    assert "degree = 1" in out


def test_headline_slow_cases_answer_quickly(capsys):
    # factorization counting with Kostka inversion needs 15.5 s and over
    # 300 s for the first two; transition answers each at a single
    # vexillary leaf.  The LR rule over the whole support box needed 6.8 s
    # for the Gr(6,12) zero.  Clipped to k x (n-k), that product (degree 48
    # past the top degree 36) has no candidate term, and the top-degree
    # Gr(9,18) one has the single candidate 9^9.
    cases = (
        (("stanley", "654321"), "1*s[5,4,3,2,1]\n"),
        (
            ("rank-class", "[1,2],[2,3],[3,4],[4,5],[5,6];n=10"),
            "w_M = 1,6,7,8,9,10,2,3,4,5,11,12,13,14\n"
            "class = 1*o[4,4,4,4,4]@Gr(5,10)\n"
            "degree = 1\n",
        ),
        (
            ("schubert", "mult", "6,6,6,3,3", "6,6,3,3,3,3", "--gr", "6,12"),
            "0@Gr(6,12)\n",
        ),
        (
            ("schubert", "mult", "9,9,6,5,4,3,2,2", "9,9,6,5,4,3,2,2,1", "--gr", "9,18"),
            "0@Gr(9,18)\n",
        ),
    )
    for argv, expected in cases:
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert (code, out) == (0, expected), argv
        assert elapsed < 1.0, (argv, elapsed)


def test_rank_class_domain_and_parse_errors(capsys):
    code, _, err = run(capsys, "rank-class", ";n=3")
    assert code == 3
    assert "error" in err
    code, _, _ = run(capsys, "rank-class", "[1,3]")
    assert code == 2


def test_rank_class_json_round_trip(capsys):
    code, out, _ = run(capsys, "rank-class", "[1,1],[3,3];n=4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["w"] == "1426357"
    cls = parse_class(payload["class"])
    assert cls.terms() == {(2, 2): 1}
    assert payload["degree"] == 1


def test_diagram_specht_command(capsys):
    code, out, _ = run(capsys, "diagram-specht", "(1,1),(2,2),(3,3),(4,4)")
    assert code == 0
    assert out.strip() == "1*s[1,1,1,1] + 3*s[2,1,1] + 2*s[2,2] + 3*s[3,1] + 1*s[4]"
    code, out, _ = run(
        capsys, "diagram-specht", "(1,1),(1,2),(3,2),(3,4)", "--family", "perm:31524"
    )
    assert out.strip() == "1*s[2,2] + 1*s[3,1]"
    code, _, err = run(capsys, "diagram-specht", "(1,1),(1,3),(2,2)")
    assert code == 3
    assert "error" in err
    # an unknown family is a malformed flag, like a malformed perm: value
    for family in ("nonsense", "perm:x"):
        code, out, err = run(capsys, "diagram-specht", "(1,1)", "--family", family)
        assert (code, out) == (2, "") and "parse error" in err


def test_diagram_specht_dual_family(capsys):
    # box dual of the 4-cell diagonal: every off-diagonal cell of the 4x4 box
    dual_cells = ",".join(
        f"({r},{c})" for r in range(1, 5) for c in range(1, 5) if r != c
    )
    code, out, _ = run(
        capsys,
        "diagram-specht",
        dual_cells + ";box=4x4",
        "--family",
        "dual",
    )
    assert code == 0
    expansion = parse_expansion(out.strip(), SchurExpansion)
    assert expansion.coeff((4, 4, 2, 2)) == 2


def test_schubert_commands(capsys):
    code, out, _ = run(capsys, "schubert", "mult", "1", "1", "--gr", "1,2")
    assert (code, out.strip()) == (0, "0@Gr(1,2)")
    code, out, _ = run(capsys, "schubert", "degree", "2,2", "--gr", "4,8")
    assert (code, out.strip()) == (0, "2640")
    code, out, _ = run(
        capsys, "schubert", "degree", "1*o[2,2] + 1*o[3,1]@Gr(4,8)"
    )
    assert (code, out.strip()) == (0, str(2640 + 2970))
    code, _, _ = run(capsys, "schubert", "degree", "2,2")
    assert code == 2  # bare partition without --gr
    code, out, _ = run(capsys, "schubert", "degree", "1*o[1]@Gr(2,4)", "--gr", "2,4")
    assert (code, out.strip()) == (0, "2")  # --gr agrees with the class text
    code, out, _ = run(capsys, "schubert", "degree", "1*o[1]@Gr(2,4)", "--gr", "3,6")
    assert (code, out) == (2, "")  # --gr disagrees with the class text
    code, _, _ = run(capsys, "schubert", "mult", "3", "1", "--gr", "2,4")
    assert code == 2  # partition does not fit the rectangle


def test_rank_class_context_override(capsys):
    # view the class of a small rank set inside a larger Grassmannian
    code, out, _ = run(
        capsys, "rank-class", "[1,1],[3,3];n=4", "--gr", "2,5", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    cls = parse_class(payload["class"])
    assert cls.context() == (2, 5)
    assert cls.coeff((2, 2)) == 1


def test_schubert_mult_json(capsys):
    code, out, _ = run(capsys, "schubert", "mult", "1", "2,1", "--gr", "2,4", "--json")
    payload = json.loads(out)
    cls = parse_class(payload["class"])
    assert cls.terms() == {(2, 2): 1}


def test_verify_paper(capsys):
    code, out, _ = run(capsys, "verify", "paper")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 5
    assert all(line.startswith("PASS") for line in lines)
    # the replay has no scale, so --max-n is rejected, not dropped
    code, out, err = run(capsys, "verify", "paper", "--max-n", "9")
    assert (code, out) == (2, "") and "parse error" in err


def test_verify_suite(capsys):
    for scale in ("0", "-3"):
        code, out, _ = run(capsys, "verify", "suite", "--max-n", scale)
        assert (code, out) == (2, "")  # a scale below 1 would check nothing
    # past the bound, the suites refuse before walking anything
    for scale in (MAX_SCALE + 1, 20):
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "verify", "suite", "--max-n", str(scale), *extra)
            assert (code, out) == (3, "")
            assert err == f"error: scale {scale}; the verify suites stop at {MAX_SCALE}\n"
    code, out, _ = run(capsys, "verify", "suite", "--max-n", "2", "--json")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert reports and all(r["passed"] for r in reports)
    assert all(
        set(r) == {"name", "expected", "actual", "passed"} for r in reports
    )


def test_inputs_too_deep_for_the_recursive_kernels(capsys):
    # w0 in S_50 is vexillary, so transition answers it as a single leaf
    w0 = ",".join(str(i) for i in range(50, 0, -1))
    start = time.perf_counter()
    code, out, _ = run(capsys, "stanley", w0)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (0, "1*s[" + ",".join(map(str, range(49, 0, -1))) + "]\n")
    # a 1000-cell column is the skew shape 1^1000, whose permutation
    # 2, 3, ..., 1001, 1 transition also answers as a single leaf
    column = ",".join(f"({i},1)" for i in range(1, 1001))
    start = time.perf_counter()
    code, out, _ = run(capsys, "diagram-specht", column)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (0, "1*s[" + ",".join(["1"] * 1000) + "]\n")
    # a product with a 999-row class is 999 one-cell strips of the LR walk,
    # which visits only the rows with room and does not recurse
    column = ",".join(["1"] * 999)
    start = time.perf_counter()
    code, out, _ = run(capsys, "schubert", "mult", "1", column, "--gr", "1000,1001")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (0, "1*o[" + ",".join(["1"] * 1000) + "]@Gr(1000,1001)\n")
    # a long affine window recurses once per factor: a domain error, not a
    # crash
    start = time.perf_counter()
    code, out, err = run(capsys, "affine-stanley", "1001,2,3,-996;n=4")
    elapsed = time.perf_counter() - start
    assert (code, out, err) == (3, "", "error: input too large for affine-stanley\n")
    assert elapsed < 2.0, elapsed


def test_unknown_flag_rejected(capsys):
    code = main(["stanley", "31524", "--bogus"])
    capsys.readouterr()
    assert code == 2


def test_one_parser_serves_a_mixed_sequence(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    # argv, exit code, stdout, last line of stderr (None: checked below)
    parse_error = (
        "parse error: bad permutation text 'xx': "
        "invalid literal for int() with base 10: 'x'"
    )
    sequence = (
        (
            ("stanley", "31524", "--bogus"),
            2,
            "",
            "rankcalc: error: unrecognized arguments: --bogus",
        ),
        (
            ("schubert", "mult", "1", "1"),
            2,
            "",
            "rankcalc schubert mult: error: the following arguments are required: --gr",
        ),
        (("verify", "bogus"), 2, "", None),
        (("--help",), 0, None, ""),
        (("stanley", "xx"), 2, "", parse_error),
        (("stanley", "31524"), 0, "1*s[2,2] + 1*s[3,1]\n", ""),
        (
            ("rank-class", "[1,1],[3,3];n=4"),
            0,
            "w_M = 1426357\nclass = 1*o[2,2]@Gr(2,4)\ndegree = 1\n",
            "",
        ),
        (("schubert", "mult", "1", "2,1", "--gr", "2,4"), 0, "1*o[2,2]@Gr(2,4)\n", ""),
    )
    # each call with a parser built for it alone, as before the parser was cached
    fresh = []
    for argv, code, out, last_err in sequence:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
        got_code, got_out, got_err = fresh[-1]
        assert got_code == code, argv
        if out is not None:
            assert got_out == out, argv
        if last_err is not None:
            assert (got_err.splitlines() or [""])[-1] == last_err, argv
    assert fresh[2][2].splitlines()[-1].startswith(
        "rankcalc verify: error: argument scope: invalid choice: 'bogus'"
    )
    assert fresh[3][1].startswith("usage: rankcalc [-h]\n")
    assert "Exact combinatorics of Grassmannian rank varieties." in fresh[3][1]
    # one parser, built by the first call, gives every call the same bytes
    cli._build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "__init__",
        lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs),
    )
    for i, (argv, *_) in enumerate(sequence):
        assert run(capsys, *argv) == fresh[i], argv
        if i == 0:
            first = list(built)
    assert first and built == first


def pinned_help():
    """The --help bytes of the top level, the schubert group and the seven
    commands, recorded at COLUMNS=80 in cli_help.txt: each block follows its
    "$ rankcalc ... --help" line."""
    blocks = {}
    with open(pathlib.Path(__file__).with_name("cli_help.txt"), encoding="utf-8") as pin:
        for line in pin:
            if line.startswith("$ rankcalc "):
                argv = tuple(line.split()[2:])
                blocks[argv] = ""
            else:
                blocks[argv] += line
    return blocks


def test_help_bytes_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    pinned = pinned_help()
    assert len(pinned) == 9
    if sys.version_info >= (3, 13):
        # from 3.13 argparse keeps the "..." of a wrapped usage on its line
        top = pinned[("--help",)]
        pinned[("--help",)] = top.replace("verify}\n                ...\n", "verify} ...\n")
    for argv, text in pinned.items():
        assert run(capsys, *argv) == (0, text, ""), argv


def test_console_script_reads_sys_argv(capsys, monkeypatch):
    # the rankcalc script calls main() with no argv, so main reads sys.argv
    cases = (
        (["stanley", "31524"], 0, "1*s[2,2] + 1*s[3,1]\n", ""),
        (
            ["stanley", "xx"],
            2,
            "",
            "parse error: bad permutation text 'xx': "
            "invalid literal for int() with base 10: 'x'\n",
        ),
    )
    for argv, code, out, err in cases:
        monkeypatch.setattr(sys, "argv", ["rankcalc", *argv])
        assert main() == code
        assert capsys.readouterr() == (out, err)
    monkeypatch.setattr(sys, "argv", ["rankcalc", "stanley", "31524", "--bogus"])
    assert main() == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: rankcalc ")
    assert err.endswith("rankcalc: error: unrecognized arguments: --bogus\n")


# Good argvs of every command, in plain form: flags before, between and after
# the positionals, a lone "-" as a positional and as a value, empty and
# space-led tokens.
PLAIN_ARGVS = (
    ("stanley", "31524"),
    ("stanley", "--json", "321"),
    ("stanley", ""),
    ("affine-stanley", "5,2,7,4;n=4", "--json"),
    ("rank-class", "[1,3],[3,6],[4,5];n=6"),
    ("rank-class", "--gr", "2,5", "[1,1],[3,3];n=4", "--json"),
    ("diagram-specht", "(1,1),(2,2)"),
    ("diagram-specht", "(1,1),(1,2),(3,2),(3,4)", "--family", "perm:31524"),
    ("diagram-specht", "--json", "--family", "-", " 5"),
    ("schubert", "mult", "1", "2,1", "--gr", "2,4"),
    ("schubert", "mult", "-", "1", "--gr", "2,4", "--json"),
    ("schubert", "mult", "1", "--gr", "2,4", "1"),
    ("schubert", "mult", "--json", "--gr", "-", "1", "1"),
    ("schubert", "degree", "2,2", "--gr", "4,8"),
    ("schubert", "degree", "1*o[2,2]@Gr(2,4)", "--json"),
    ("verify", "paper"),
    ("verify", "--json", "suite"),
    ("verify", "suite", "--max-n", "2"),
    ("verify", "suite", "--max-n", " 5", "--json"),
    ("verify", "paper", "--max-n", "+3"),
)

# Tokens the mutations insert or put in place of others: exact flags, flags
# argparse alone reads (help, an abbreviation, an = form, "--"), and values
# on the edge of the plain form.
MUTANT_TOKENS = (
    "--json", "--gr", "--family", "--max-n", "-h", "--js", "--gr=2,4",
    "-", "--", "-1", " 5", "",
)


def argparse_vars(argv):
    """vars() of the Namespace argparse gives for argv, or None if it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            return vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        return None


def mutants(rng, count):
    """count argvs, each a PLAIN_ARGVS entry with one to three tokens
    inserted, dropped, swapped or replaced."""
    for _ in range(count):
        argv = list(rng.choice(PLAIN_ARGVS))
        for _ in range(rng.randint(1, 3)):
            edit = rng.randrange(4)
            at = rng.randrange(len(argv) + 1)
            if edit == 0:
                argv.insert(at, rng.choice(MUTANT_TOKENS))
            elif not argv:
                continue
            elif edit == 1:
                del argv[at % len(argv)]
            elif edit == 2:
                other = rng.randrange(len(argv))
                at %= len(argv)
                argv[at], argv[other] = argv[other], argv[at]
            else:
                argv[at % len(argv)] = rng.choice(MUTANT_TOKENS)
        yield argv


def test_plain_parse_agrees_with_argparse():
    for argv in PLAIN_ARGVS:
        plain = cli._plain_parse(list(argv))
        assert plain is not None, argv
        assert vars(plain) == argparse_vars(argv), argv
    plain_count = 0
    for argv in mutants(random.Random(24), 60000):
        plain = cli._plain_parse(argv)
        if plain is not None:
            plain_count += 1
            assert vars(plain) == argparse_vars(argv), argv
    # the mutants reach both sides of the plain form
    assert 2000 < plain_count < 50000


def test_plain_grammar_is_the_parsers_grammar():
    def leaves(parser, words=()):
        # a parser with commands takes nothing but -h and its command word
        help_flag, sub = parser._actions
        assert isinstance(help_flag, argparse._HelpAction), words
        assert isinstance(sub, argparse._SubParsersAction), words
        for name, child in sub.choices.items():
            if any(isinstance(a, argparse._SubParsersAction) for a in child._actions):
                yield from leaves(child, (*words, name))
            else:
                yield (*words, name), child

    built = dict(leaves(cli._build_parser()))
    assert list(built) == [words for words, entry in cli._GRAMMAR.items() if entry[0]]
    for words, parser in built.items():
        handler, _, *arguments = cli._GRAMMAR[words]
        assert parser.get_default("handler") is handler
        # each action is the table's argument, in order, and --json is last
        *actions, json_flag = [
            a for a in parser._actions if not isinstance(a, argparse._HelpAction)
        ]
        assert isinstance(json_flag, argparse._StoreTrueAction)
        assert (json_flag.option_strings, json_flag.dest) == (["--json"], "json")
        assert len(actions) == len(arguments), words
        for action, (name, text, *keywords) in zip(actions, arguments):
            keywords = dict(*keywords)
            assert isinstance(action, argparse._StoreAction), name
            assert action.option_strings == ([name] if name[0] == "-" else []), name
            assert action.dest == name.lstrip("-").replace("-", "_"), name
            assert (action.help, action.default, action.nargs) == (text, None, None), name
            assert action.required == keywords.get("required", name[0] != "-"), name
            assert action.type == keywords.get("type"), name
            assert action.choices == keywords.get("choices"), name
            assert set(keywords) <= {"required", "type", "choices"}, name


def counted_parsers(monkeypatch):
    """A list that collects every ArgumentParser built from now on, with
    the cached parser dropped so that any use of argparse builds one."""
    cli._build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "__init__",
        lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs),
    )
    return built


def test_plain_queries_build_no_parser(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    cases = (
        ("stanley", "31524"),
        ("affine-stanley", "5,2,7,4;n=4"),
        ("rank-class", "[1,1],[3,3];n=4", "--json"),
        ("diagram-specht", "(1,1),(2,2)"),
        ("schubert", "mult", "1", "1", "--gr", "1,2"),
        ("schubert", "degree", "2,2", "--gr", "4,8"),
        ("verify", "paper"),
        ("verify", "suite", "--max-n", "1"),
    )
    built = counted_parsers(monkeypatch)
    for argv in cases:
        assert run(capsys, *argv)[0] == 0, argv
    assert built == []
    # help and an unknown flag build the parser once, and print its own bytes
    helped = run(capsys, "--help")
    first = list(built)
    rejected = run(capsys, "stanley", "31524", "--bogus")
    assert first and built == first
    parser = cli._build_parser()
    assert helped == (0, parser.format_help(), "")
    assert rejected == (
        2,
        "",
        parser.format_usage() + "rankcalc: error: unrecognized arguments: --bogus\n",
    )


def test_main_takes_any_sequence_and_sys_argv(capsys, monkeypatch):
    listed = run(capsys, "stanley", "31524")
    assert listed == (0, "1*s[2,2] + 1*s[3,1]\n", "")
    built = counted_parsers(monkeypatch)
    assert main(("stanley", "31524")) == listed[0]
    assert capsys.readouterr() == listed[1:]
    monkeypatch.setattr(sys, "argv", ["rankcalc", "stanley", "31524"])
    assert main() == listed[0]
    assert capsys.readouterr() == listed[1:]
    assert built == []


def test_affine_stanley_json_round_trip(capsys):
    code, out, _ = run(capsys, "affine-stanley", "6,4,5,8,7;n=5", "--json")
    payload = json.loads(out)
    expansion = parse_expansion(payload["monomial"], MonomialExpansion)
    assert expansion.degree() == 3
    assert payload["window"] == "6,4,5,8,7;n=5"


def test_diagram_specht_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "diagram-specht", "(1,1),(2,2),(3,3)", "--json"
    )
    payload = json.loads(out)
    expansion = parse_expansion(payload["schur"], SchurExpansion)
    assert expansion.coeff((2, 1)) == 2


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify", "paper", "--json")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == 5
    assert all(r["passed"] for r in reports)


def test_a_failed_check_exits_1_after_every_record(capsys, monkeypatch):
    reports = [
        CheckReport("holds", "1", "1", True),
        CheckReport("breaks", "1", "2", False),
    ]
    monkeypatch.setattr(cli, "replay_counterexample", lambda: reports)
    code, out, err = run(capsys, "verify", "paper")
    assert (code, err) == (1, "")
    assert out == (
        "PASS holds: expected 1, actual 1\n"
        "FAIL breaks: expected 1, actual 2\n"
    )
    code, out, err = run(capsys, "verify", "paper", "--json")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [json.loads(line) for line in lines] == [asdict(r) for r in reports]
    assert '"passed": false' in lines[1]


def test_handlers_return_records_and_only_main_prints(capsys):
    cases = (
        ("stanley", "31524"),
        ("affine-stanley", "5,2,7,4;n=4"),
        ("rank-class", "[1,1],[3,3];n=4"),
        ("diagram-specht", "(1,1),(2,2)"),
        ("schubert", "mult", "1", "1", "--gr", "1,2"),
        ("schubert", "degree", "2,2", "--gr", "4,8"),
        ("verify", "paper"),
        ("verify", "suite", "--max-n", "2"),
    )
    called = set()
    for argv in cases:
        args = cli._build_parser().parse_args(argv)
        handler = args.handler
        records = handler(args)
        called.add(handler)
        assert capsys.readouterr() == ("", ""), argv
        assert records and all(isinstance(p, dict) for p, _ in records), argv
        # main prints each record, and nothing else
        assert run(capsys, *argv) == (0, "".join(f"{t}\n" for _, t in records), "")
        assert run(capsys, *argv, "--json") == (
            0,
            "".join(f"{json.dumps(p)}\n" for p, _ in records),
            "",
        )
    # the table's handlers, every _cmd_ function of the module
    assert called == {entry[0] for entry in cli._GRAMMAR.values() if entry[0]}
    assert called == {getattr(cli, f) for f in dir(cli) if f.startswith("_cmd_")}


def test_determinism(capsys):
    first = run(capsys, "stanley", "31524", "--json")
    second = run(capsys, "stanley", "31524", "--json")
    assert first == second
    third = run(capsys, "verify", "suite", "--max-n", "2", "--json")
    fourth = run(capsys, "verify", "suite", "--max-n", "2", "--json")
    assert third == fourth
