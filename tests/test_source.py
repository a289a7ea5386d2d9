"""Static checks on the package source, with the standard library's ``ast``."""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "dblnerve"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# module-level definitions kept although nothing names them, as module.name
UNNAMED_ON_PURPOSE = {
    "cat.validate_cat_functor",  # the only validator of the exported CatFunctor
}


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


def unread_imports(tree):
    """The names ``tree`` imports, anywhere in it, and never loads; imports
    from ``__future__`` are exempt."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - loaded)


def test_unread_imports_are_flagged():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from .a import b, c as d, e\n"
        "def f():\n"
        "    from .g import h\n"
        "    return os.sep, d, e\n")
    assert unread_imports(tree) == ["b", "h", "j"]


def test_every_module_reads_what_it_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            found += [f"{path.stem}: {name}" for name in unread_imports(tree)]
    assert found == []


def dataclass_value_methods(tree):
    """(class, method) for each ``__hash__`` or ``__eq__`` that the body of a
    ``@dataclass`` class defines or assigns."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not any(
                "dataclass" in ast.unparse(decorator) for decorator in node.decorator_list):
            continue
        for item in node.body:
            if isinstance(item, FUNCTIONS):
                names = [item.name]
            else:
                names = [t.id for t in getattr(item, "targets", ()) if isinstance(t, ast.Name)]
            yield from ((node.name, name) for name in names if name in ("__hash__", "__eq__"))


def test_dataclass_value_methods_are_flagged():
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    def __hash__(self):\n"
        "        return id(self)\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    __eq__ = object.__eq__\n"
        "@dataclass(frozen=True, eq=False)\n"
        "class C:\n"
        "    def __repr__(self):\n"
        "        return 'C'\n"
        "class D:\n"
        "    def __eq__(self, other):\n"
        "        return True\n")
    assert list(dataclass_value_methods(tree)) == [("A", "__hash__"), ("B", "__eq__")]


def test_no_dataclass_defines_its_own_hash_or_equality():
    """A record compared by identity declares ``eq=False`` and keeps the
    hash and equality of ``object``; a ``__hash__`` of its own beside the
    generated ``__eq__`` broke the rule that equal objects hash equally."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.stem}.{cls}.{name}" for cls, name in dataclass_value_methods(tree)]
    assert found == []


def module_definitions(tree):
    """The names a module defines at its top level: functions, classes and
    assigned names."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def names_read(tree):
    """Every name ``tree`` reads: names it loads, attributes, imported names
    and the dotted parts of its string constants (``"twocat.squares_with"``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def test_unnamed_definitions_are_flagged():
    tree = ast.parse(
        "import a.b\n"
        "X = 1\n"
        "Y: int = 2\n"
        "def f():\n"
        "    return X\n"
        "class C:\n"
        "    pass\n"
        "g = getattr(a, 'b.g')\n"
        "C.f = f\n")
    assert sorted(set(module_definitions(tree)) - set(names_read(tree))) == ["Y"]


def test_every_module_level_definition_is_named_somewhere():
    paths = [path for folder in ("src", "tests", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    named = set().union(*(names_read(ast.parse(path.read_text(encoding="utf-8"), str(path)))
                          for path in paths))
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.stem}.{name}" for name in module_definitions(tree)
                  if not name.startswith("__") and name not in named]
    assert sorted(set(found) - UNNAMED_ON_PURPOSE) == []
