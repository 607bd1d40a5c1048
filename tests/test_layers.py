"""The modules of rankcalc import one another strictly down one order."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rankcalc"

# a module may import only from modules of a lower rank; the three domain
# modules share a rank, so none of them imports another
RANKS = {
    "errors": 0,
    "partitions": 1,
    "symfunc": 2,
    "perms": 3,
    "rankset": 4,
    "grassmann": 4,
    "diagrams": 4,
    "verify": 5,
    "cli": 6,
    "__init__": 7,
}


def package_imports(tree):
    """(line, module) for each import of a rankcalc module anywhere in the
    tree, function bodies included, relative or absolute; a name imported
    from the package itself that is not a module comes from __init__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            head, _, rest = (node.module or "").partition(".")
            if not node.level:
                if head != "rankcalc":
                    continue
                head = rest.partition(".")[0]
            if head:
                yield node.lineno, head
            else:  # from . import x, or from rankcalc import x
                for alias in node.names:
                    yield node.lineno, alias.name if alias.name in RANKS else "__init__"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "rankcalc":
                    yield node.lineno, parts[1] if len(parts) > 1 else "__init__"


def layer_breaks():
    """The modules missing from RANKS, and each import, as
    'module:line -> target', that does not go strictly down the ranks."""
    modules = sorted(path.stem for path in SRC.glob("*.py"))
    missing = [name for name in modules if name not in RANKS]
    bad = [
        f"{name}:{line} -> {target}"
        for name in modules
        for line, target in package_imports(ast.parse((SRC / f"{name}.py").read_text()))
        if RANKS.get(target, len(RANKS)) >= RANKS.get(name, -1)
    ]
    return missing, bad


def test_every_import_goes_down_the_module_order():
    # the reader sees an import inside a function, as the cycle that this
    # order forbids once hid in one
    tree = ast.parse(
        "from .errors import ParseError\n"
        "def f():\n"
        "    from .perms import _transition\n"
        "    import rankcalc.cli, random\n"
        "    from . import verify, clear_caches\n"
        "    from rankcalc.symfunc import kostka\n"
    )
    assert sorted(package_imports(tree)) == [
        (1, "errors"),
        (3, "perms"),
        (4, "cli"),
        (5, "__init__"),
        (5, "verify"),
        (6, "symfunc"),
    ]
    assert layer_breaks() == ([], [])
