"""Static checks on the package source, with the standard library's ``ast``."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "dblnerve"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(function):
    """The nodes of ``function``'s body outside the functions nested in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, (*FUNCTIONS, ast.Lambda)))


def dead_locals(tree):
    """(function, name) for each local a function assigns and nothing in it,
    nested functions included, reads; names starting with ``_`` are exempt."""
    for function in ast.walk(tree):
        if not isinstance(function, FUNCTIONS):
            continue
        own = list(_own_nodes(function))
        outer = {name for node in own if isinstance(node, (ast.Global, ast.Nonlocal))
                 for name in node.names}
        assigned = {node.id for node in own
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        read = {node.id for node in ast.walk(function)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for name in sorted(assigned - read - outer):
            if not name.startswith("_"):
                yield function.name, name


def test_dead_locals_are_flagged():
    tree = ast.parse(
        "def f(a):\n"
        "    x, _y = a\n"
        "    z = 1\n"
        "    def g():\n"
        "        return z\n"
        "    for i in a:\n"
        "        w = i\n"
        "    return g\n")
    assert list(dead_locals(tree)) == [("f", "w"), ("f", "x")]


def test_no_function_assigns_a_local_it_never_reads():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}: {function}: {name}" for function, name in dead_locals(tree)]
    assert found == []
