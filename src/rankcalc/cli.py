"""Command-line surface with stable text and JSON output.

Commands:
    stanley <w>
    affine-stanley <window;n=N>
    rank-class <rankset> [--gr K,N]
    diagram-specht <diagram> [--family skew|perm:<w>|product|dual]
    schubert mult <lam> <mu> --gr K,N
    schubert degree <class-or-partition> [--gr K,N]
    verify paper
    verify suite [--max-n N]

Exit codes: 0 success, 1 check failure, 2 parse error (including unknown
flags and families), 3 domain error (including input too deep for the
recursive kernels).

Each handler parses, computes and returns its records, (payload, text)
pairs: one per command, one per report for verify.  main is the only writer
of stdout: it prints each record, as json.dumps(payload) under --json and
as text otherwise, and exits 1 when a payload has "passed": false.

main reads plain argv, exact flag names and their values, from one table of
the grammar, _PLAIN, into the Namespace argparse would give.  The argparse
parser is built, once per process, only for what that table leaves out:
--help, abbreviated flags, --flag=value forms and usage errors, with the
same output and exit codes.
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once, on the first argv that _plain_parse cannot read: parse_args
    fills a fresh Namespace each call and leaves the parser as it was, failed
    parses too.
    """
    parser = argparse.ArgumentParser(
        prog="rankcalc",
        description="Exact combinatorics of Grassmannian rank varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stanley", help="Schur expansion of a Stanley symmetric function")
    p.add_argument("w", help="one-line permutation, e.g. 31524")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("affine-stanley", help="monomial expansion for an affine window")
    p.add_argument("window", help="window text, e.g. 5,2,7,4;n=4")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rank-class", help="permutation, class, and degree of a rank set")
    p.add_argument("rankset", help="rank set text, e.g. [1,3],[3,6],[4,5];n=6")
    p.add_argument("--gr", help="override the Grassmannian context as K,N")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("diagram-specht", help="Schur expansion of a diagram module")
    p.add_argument("diagram", help="diagram text, e.g. (1,1),(2,2);box=4x4")
    p.add_argument("--family", help="skew | perm:<w> | product | dual")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("schubert", help="Schubert class arithmetic")
    schub_sub = p.add_subparsers(dest="schubert_command", required=True)
    pm = schub_sub.add_parser("mult", help="product of two Schubert classes")
    pm.add_argument("first", help="partition text, e.g. 1")
    pm.add_argument("second", help="partition text")
    pm.add_argument("--gr", required=True, help="Grassmannian context K,N")
    pm.add_argument("--json", action="store_true")
    pd = schub_sub.add_parser("degree", help="degree of a class")
    pd.add_argument("cls", help="class text (with @Gr(k,n)) or a partition")
    pd.add_argument("--gr", help="context K,N when a bare partition is given")
    pd.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run the verification checks")
    p.add_argument("scope", choices=["paper", "suite"])
    p.add_argument("--max-n", type=int, help="suite scale, at least 1 (default 4)")
    p.add_argument("--json", action="store_true")

    return parser


# The plain grammar: for each command word, its positional dests in order and
# its value flags by option string; every command also takes --json.  It
# restates _build_parser, and tests/test_cli.py holds the two to each other.
_PLAIN = {
    ("stanley",): (("w",), {}),
    ("affine-stanley",): (("window",), {}),
    ("rank-class",): (("rankset",), {"--gr": "gr"}),
    ("diagram-specht",): (("diagram",), {"--family": "family"}),
    ("schubert", "mult"): (("first", "second"), {"--gr": "gr"}),
    ("schubert", "degree"): (("cls",), {"--gr": "gr"}),
    ("verify",): (("scope",), {"--max-n": "max_n"}),
}


def _plain_parse(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace parse_args(argv) gives, when argv is in plain form.

    Plain form is a command word, then its positionals, exact flag names
    given at most once each and flag values, in any order; no token but a
    lone "-" (a positional or a value) may start with "-".  Any other argv,
    including every one that argparse rejects, gives None.
    """
    depth = 2 if argv[:1] == ["schubert"] else 1
    grammar = _PLAIN.get(tuple(argv[:depth]))
    if grammar is None:
        return None
    positionals, flags = grammar
    values = dict.fromkeys(flags.values())
    values["json"] = False
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
    if depth == 2:
        if argv[1] == "mult" and values["gr"] is None:
            return None
        return argparse.Namespace(command="schubert", schubert_command=argv[1], **values)
    if argv[0] == "verify":
        if values["scope"] not in ("paper", "suite"):
            return None
        if values["max_n"] is not None:
            try:
                values["max_n"] = int(values["max_n"])
            except ValueError:
                return None
    return argparse.Namespace(command=argv[0], **values)


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


def _cmd_schubert(args) -> list[Record]:
    if args.schubert_command == "mult":
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
    # degree
    text = args.cls.strip()
    if "@Gr(" in text:
        cls = parse_class(text)
        if args.gr is not None and _parse_gr(args.gr) != cls.context():
            raise ParseError(f"--gr {args.gr} disagrees with the class context")
    else:
        if args.gr is None:
            raise ParseError("a bare partition needs --gr K,N")
        k, n = _parse_gr(args.gr)
        cls = _class_from_partition(text, k, n)
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


_HANDLERS = {
    "stanley": _cmd_stanley,
    "affine-stanley": _cmd_affine_stanley,
    "rank-class": _cmd_rank_class,
    "diagram-specht": _cmd_diagram_specht,
    "schubert": _cmd_schubert,
    "verify": _cmd_verify,
}


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
        records = _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except RankCalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        # the recursive kernels go one level deeper per part, cell or factor
        print(f"error: input too large for {args.command}", file=sys.stderr)
        return 3
    for payload, text in records:
        print(json.dumps(payload) if args.json else text)
    return 0 if all(payload.get("passed", True) for payload, _ in records) else 1


if __name__ == "__main__":
    sys.exit(main())
