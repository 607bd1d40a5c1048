"""Command-line surface with stable text and JSON output.

Exit codes: 0 success, 1 check failure, 2 parse error (including unknown
flags and families), 3 domain error (including input too deep for the
recursive kernels).

Each handler parses, computes and returns its records, (payload, text)
pairs: one per command, one per report for verify.  main is the only writer
of stdout: it prints each record, as json.dumps(payload) under --json and
as text otherwise, and exits 1 when a payload has "passed": false.

_GRAMMAR states the commands once: their words, handlers, help and
arguments.  From it main reads plain argv, exact flag names and their
values, into the Namespace argparse would give, handler included.  The
argparse parser, built from it once per process, serves only --help,
abbreviated flags, --flag=value forms and usage errors, with the same output
and exit codes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from .errors import ParseError, RankCalcError
from .diagrams import parse_diagram, specht_schur
from .grassmann import (
    class_degree,
    class_product,
    parse_class,
    phi,
    schubert_class,
)
from .partitions import parse_partition
from .perms import (
    affine_stanley,
    parse_permutation,
    parse_window,
    permutation_text,
    stanley,
    window_text,
)
from .rankset import parse_rank_set, w_of_rank_set
from .verify import replay_counterexample, run_all


def _parse_gr(text: str) -> tuple[int, int]:
    try:
        ktext, ntext = text.split(",")
        k, n = int(ktext), int(ntext)
    except ValueError:
        raise ParseError(f"context must be K,N: {text!r}") from None
    if not 0 <= k <= n:
        raise ParseError(f"need 0 <= K <= N in context {text!r}")
    return k, n


# One answer of a handler: its JSON payload and its plain text.
Record = tuple[dict, str]


def _cmd_stanley(args) -> list[Record]:
    w = parse_permutation(args.w)
    rendered = stanley(w).text()
    payload = {"command": "stanley", "w": permutation_text(w), "schur": rendered}
    return [(payload, rendered)]


def _cmd_affine_stanley(args) -> list[Record]:
    f = parse_window(args.window)
    rendered = affine_stanley(f).text()
    payload = {
        "command": "affine-stanley",
        "window": window_text(f),
        "monomial": rendered,
    }
    return [(payload, rendered)]


def _cmd_rank_class(args) -> list[Record]:
    m = parse_rank_set(args.rankset)
    k, n = (m.k, m.ambient_n) if args.gr is None else _parse_gr(args.gr)
    w = w_of_rank_set(m)
    cls = phi(stanley(w), k, n)
    degree = class_degree(cls)
    w_text, cls_text = permutation_text(w), cls.text()
    payload = {
        "command": "rank-class",
        "rank_set": args.rankset.strip(),
        "w": w_text,
        "class": cls_text,
        "degree": degree,
    }
    return [(payload, f"w_M = {w_text}\nclass = {cls_text}\ndegree = {degree}")]


def _cmd_diagram_specht(args) -> list[Record]:
    d = parse_diagram(args.diagram)
    rendered = specht_schur(d, args.family).text()
    payload = {
        "command": "diagram-specht",
        "diagram": args.diagram.strip(),
        "family": args.family or "auto",
        "schur": rendered,
    }
    return [(payload, rendered)]


def _class_from_partition(text: str, k: int, n: int):
    try:
        return schubert_class(parse_partition(text), k, n)
    except ValueError as exc:
        raise ParseError(f"partition {text!r} does not fit Gr({k},{n}): {exc}") from None


def _cmd_schubert_mult(args) -> list[Record]:
    k, n = _parse_gr(args.gr)
    first = _class_from_partition(args.first, k, n)
    second = _class_from_partition(args.second, k, n)
    rendered = class_product(first, second).text()
    payload = {
        "command": "schubert-mult",
        "first": args.first.strip(),
        "second": args.second.strip(),
        "class": rendered,
    }
    return [(payload, rendered)]


def _cmd_schubert_degree(args) -> list[Record]:
    text = args.cls.strip()
    if "@Gr(" in text:
        cls = parse_class(text)
        if args.gr is not None and _parse_gr(args.gr) != cls.context():
            raise ParseError(f"--gr {args.gr} disagrees with the class context")
    elif args.gr is None:
        raise ParseError("a bare partition needs --gr K,N")
    else:
        cls = _class_from_partition(text, *_parse_gr(args.gr))
    degree = class_degree(cls)
    payload = {
        "command": "schubert-degree",
        "class": cls.text(),
        "degree": degree,
    }
    return [(payload, str(degree))]


def _cmd_verify(args) -> list[Record]:
    if args.scope == "paper" and args.max_n is not None:
        raise ParseError("--max-n applies to verify suite only")
    max_n = 4 if args.max_n is None else args.max_n
    if max_n < 1:
        raise ParseError(f"--max-n must be at least 1, got {max_n}")
    reports = replay_counterexample() if args.scope == "paper" else run_all(max_n)
    return [
        (
            asdict(r),
            f"{'PASS' if r.passed else 'FAIL'} {r.name}: "
            f"expected {r.expected}, actual {r.actual}",
        )
        for r in reports
    ]


# The grammar, stated once: for each command, by its words, its handler, its
# help and its arguments in order.  An argument is a positional dest or an
# option string, its help and any further add_argument keywords; every command
# also takes --json, last.  A group of commands has no handler.
_GRAMMAR = {
    ("stanley",): (
        _cmd_stanley, "Schur expansion of a Stanley symmetric function",
        ("w", "one-line permutation, e.g. 31524"),
    ),
    ("affine-stanley",): (
        _cmd_affine_stanley, "monomial expansion for an affine window",
        ("window", "window text, e.g. 5,2,7,4;n=4"),
    ),
    ("rank-class",): (
        _cmd_rank_class, "permutation, class, and degree of a rank set",
        ("rankset", "rank set text, e.g. [1,3],[3,6],[4,5];n=6"),
        ("--gr", "override the Grassmannian context as K,N"),
    ),
    ("diagram-specht",): (
        _cmd_diagram_specht, "Schur expansion of a diagram module",
        ("diagram", "diagram text, e.g. (1,1),(2,2);box=4x4"),
        ("--family", "skew | perm:<w> | product | dual"),
    ),
    ("schubert",): (None, "Schubert class arithmetic"),
    ("schubert", "mult"): (
        _cmd_schubert_mult, "product of two Schubert classes",
        ("first", "partition text, e.g. 1"),
        ("second", "partition text"),
        ("--gr", "Grassmannian context K,N", {"required": True}),
    ),
    ("schubert", "degree"): (
        _cmd_schubert_degree, "degree of a class",
        ("cls", "class text (with @Gr(k,n)) or a partition"),
        ("--gr", "context K,N when a bare partition is given"),
    ),
    ("verify",): (
        _cmd_verify, "run the verification checks",
        ("scope", None, {"choices": ("paper", "suite")}),
        ("--max-n", "suite scale, at least 1 (default 4)", {"type": int}),
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built from _GRAMMAR once, on the first argv that _plain_parse cannot
    read: parse_args fills a fresh Namespace each call and leaves the parser
    as it was, failed parses too."""
    parser = argparse.ArgumentParser(
        prog="rankcalc",
        description="Exact combinatorics of Grassmannian rank varieties.",
    )
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for words, (handler, about, *arguments) in _GRAMMAR.items():
        p = groups[words[:-1]].add_parser(words[-1], help=about)
        if handler is None:
            groups[words] = p.add_subparsers(dest=f"{words[-1]}_command", required=True)
            continue
        for name, text, *keywords in arguments:
            p.add_argument(name, help=text, **dict(*keywords))
        p.add_argument("--json", action="store_true")
        p.set_defaults(handler=handler)
    return parser


def _plain_grammar(words, handler, _, *arguments):
    """_plain_parse's reading of one command: its depth, the values a parse
    starts from, its positional dests, its flags' dests and its checks."""
    dests = {name: name.lstrip("-").replace("-", "_") for name, *_ in arguments}
    flags = {name: dest for name, dest in dests.items() if name[0] == "-"}
    start = dict(zip(("command", f"{words[0]}_command"), words), handler=handler, json=False)
    start.update(dict.fromkeys(flags.values()))
    positionals = [dest for name, dest in dests.items() if name not in flags]
    checks = [(dests[name], dict(*keywords)) for name, _, *keywords in arguments if keywords]
    return len(words), start, positionals, flags, checks


_PLAIN = {words: _plain_grammar(words, *entry) for words, entry in _GRAMMAR.items() if entry[0]}


def _plain_parse(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace parse_args(argv) gives, when argv is in plain form.

    Plain form is a command's words, then its positionals, exact flag names
    given at most once each and flag values, in any order; no token but a
    lone "-" (a positional or a value) may start with "-".  Any other argv,
    including every one that argparse rejects, gives None.
    """
    grammar = _PLAIN.get(tuple(argv[:1])) or _PLAIN.get(tuple(argv[:2]))
    if grammar is None:
        return None
    depth, values, positionals, flags, checks = grammar
    values = dict(values)
    found = []
    tokens = iter(argv[depth:])
    for token in tokens:
        if token[:1] != "-" or token == "-":
            found.append(token)
        elif token == "--json" and not values["json"]:
            values["json"] = True
        elif token in flags and values[flags[token]] is None:
            value = next(tokens, "--")
            if value[:1] == "-" and value != "-":
                return None
            values[flags[token]] = value
        else:
            return None
    if len(found) != len(positionals):
        return None
    values.update(zip(positionals, found))
    for dest, keywords in checks:
        if values[dest] is None:
            if keywords.get("required"):
                return None
            continue
        try:
            values[dest] = keywords.get("type", str)(values[dest])
        except ValueError:
            return None
        if values[dest] not in keywords.get("choices", [values[dest]]):
            return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on unknown flags or missing arguments
            return int(exc.code or 0)
    try:
        records = args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except RankCalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        # a recursive kernel goes one level deeper per _factorization_count
        # factor, or _schur_monomial_row or mn_character part
        print(f"error: input too large for {args.command}", file=sys.stderr)
        return 3
    for payload, text in records:
        print(json.dumps(payload) if args.json else text)
    return 0 if all(payload.get("passed", True) for payload, _ in records) else 1


if __name__ == "__main__":
    sys.exit(main())
