"""Compiled evaluation against a reference interpreter.

``reference`` below is the tag-dispatching interpreter that evaluated
pasting expressions before ``compile_expr``; the compiled closures must
give the same cell, or raise the same error class with the same message,
on every expression: well-formed ones, mismatched composites, unassigned
generators, missing inverses and unknown tags.
"""

from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dblnerve import expr as ex
from dblnerve.errors import BoundaryMismatch, DanglingReference
from dblnerve.io import load_path

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
ALGEBRAS = {
    path.stem: alg
    for path in sorted(CORPUS.glob("*.json")) if not path.name.endswith(".map.json")
    for alg in [load_path(str(path))] if hasattr(alg, "squares_with")
}


def reference(alg, expr, env):
    tag = expr[0]
    if tag in ("ogen", "hgen", "vgen", "sgen"):
        name = expr[1]
        if name not in env:
            raise DanglingReference(f"unassigned generator {name!r}")
        return env[name]
    if tag == "hid":
        return alg.h_id(reference(alg, expr[1], env))
    if tag == "hcomp":
        first = reference(alg, expr[1], env)
        then = reference(alg, expr[2], env)
        if alg.h_tgt(first) != alg.h_src(then):
            raise BoundaryMismatch(f"h-composition mismatch at {expr!r}")
        return alg.h_then(first, then)
    if tag == "vid":
        return alg.v_id(reference(alg, expr[1], env))
    if tag == "vcomp":
        first = reference(alg, expr[1], env)
        then = reference(alg, expr[2], env)
        if alg.v_tgt(first) != alg.v_src(then):
            raise BoundaryMismatch(f"v-composition mismatch at {expr!r}")
        return alg.v_then(first, then)
    if tag == "sid_h":
        return alg.s_unit_h(reference(alg, expr[1], env))
    if tag == "sid_v":
        return alg.s_unit_v(reference(alg, expr[1], env))
    if tag == "shcomp":
        left = reference(alg, expr[1], env)
        right = reference(alg, expr[2], env)
        if alg.s_right(left) != alg.s_left(right):
            raise BoundaryMismatch(f"horizontal pasting mismatch at {expr!r}")
        return alg.s_hcomp(left, right)
    if tag == "svcomp":
        top = reference(alg, expr[1], env)
        bottom = reference(alg, expr[2], env)
        if alg.s_bottom(top) != alg.s_top(bottom):
            raise BoundaryMismatch(f"vertical pasting mismatch at {expr!r}")
        return alg.s_vcomp(top, bottom)
    if tag == "sinv_v":
        inner = reference(alg, expr[1], env)
        inv = alg.s_vinverse(inner)
        if inv is None:
            raise BoundaryMismatch(f"cell has no vertical inverse at {expr!r}")
        return inv
    if tag == "sinv_h":
        inner = reference(alg, expr[1], env)
        inv = alg.s_hinverse(inner)
        if inv is None:
            raise BoundaryMismatch(f"cell has no horizontal inverse at {expr!r}")
        return inv
    raise DanglingReference(f"unknown expression tag {tag!r}")


# -- well-formed expressions, by decomposing a cell ----------------------------


@cache
def cells(name):
    """The cells of each sort; in a 2-category the vertical sort is the objects."""
    alg = ALGEBRAS[name]
    objects = sorted(alg.objects)
    return {
        "o": objects,
        "h": sorted(f for a in objects for b in objects for f in alg.hmors_between(a, b)),
        "v": sorted(alg.vmors) if hasattr(alg, "vmors") else objects,
        "s": sorted(alg.squares_with()),
    }


@cache
def decompositions(name, sort, cell):
    """Every way to write ``cell`` as one operation applied to cells, as
    (tag, ((sort, cell), ...))."""
    alg, of = ALGEBRAS[name], cells(name)
    out = []
    if sort in ("h", "v"):
        unit, src, tgt, then = ((alg.h_id, alg.h_src, alg.h_tgt, alg.h_then) if sort == "h"
                                else (alg.v_id, alg.v_src, alg.v_tgt, alg.v_then))
        out += [(sort + "id", (("o", a),)) for a in of["o"] if unit(a) == cell]
        out += [(sort + "comp", ((sort, f), (sort, g)))
                for f in of[sort] for g in of[sort]
                if src(f) == src(cell) and tgt(g) == tgt(cell) and tgt(f) == src(g)
                and then(f, g) == cell]
    elif sort == "s":
        out += [("sid_h", (("h", f),)) for f in of["h"] if alg.s_unit_h(f) == cell]
        out += [("sid_v", (("v", u),)) for u in of["v"] if alg.s_unit_v(u) == cell]
        for s in of["s"]:
            for t in of["s"]:
                if alg.s_right(s) == alg.s_left(t) and alg.s_hcomp(s, t) == cell:
                    out.append(("shcomp", (("s", s), ("s", t))))
                if alg.s_bottom(s) == alg.s_top(t) and alg.s_vcomp(s, t) == cell:
                    out.append(("svcomp", (("s", s), ("s", t))))
            if alg.s_vinverse(s) == cell:
                out.append(("sinv_v", (("s", s),)))
            if alg.s_hinverse(s) == cell:
                out.append(("sinv_h", (("s", s),)))
    return tuple(out)


LEAVES = {"o": ex.ogen, "h": ex.hgen, "v": ex.vgen, "s": ex.sgen}


def well_formed(draw, name, sort, cell, env, depth):
    """An expression evaluating to ``cell``; its generators go into ``env``."""
    ways = decompositions(name, sort, cell)
    if depth == 0 or not ways or draw(st.booleans()):
        key = f"{sort}{len(env)}"
        env[key] = cell
        return LEAVES[sort](key)
    tag, parts = draw(st.sampled_from(ways))
    return (tag, *(well_formed(draw, name, s, c, env, depth - 1) for s, c in parts))


def nodes(expr):
    yield expr
    for part in expr[1:]:
        if isinstance(part, tuple):
            yield from nodes(part)


def replace(expr, target, new):
    if expr is target:
        return new
    return tuple(replace(part, target, new) if isinstance(part, tuple) else part
                 for part in expr)


@st.composite
def cases(draw):
    """An algebra, an expression and an environment: well-formed, or with one
    defect (a mismatched composite, an inverse that may not exist, an
    unassigned generator, an unknown tag)."""
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    of = cells(name)
    sort = draw(st.sampled_from([s for s in "ohvs" if of[s]]))
    env = {}
    expr = well_formed(draw, name, sort, draw(st.sampled_from(of[sort])), env, 4)
    defect = draw(st.sampled_from(["none", "composite", "inverse", "unassigned", "unknown"]))
    if defect == "inverse" and sort == "s":
        expr = (draw(st.sampled_from(["sinv_v", "sinv_h"])), expr)
    elif defect == "composite" and sort != "o":
        other = well_formed(draw, name, sort, draw(st.sampled_from(of[sort])), env, 2)
        tag = {"h": "hcomp", "v": "vcomp"}.get(sort) or draw(st.sampled_from(["shcomp",
                                                                             "svcomp"]))
        expr = (tag, *draw(st.permutations([expr, other])))
    elif defect == "unassigned":
        del env[draw(st.sampled_from(sorted(env)))]
    elif defect == "unknown":
        target = draw(st.sampled_from(list(nodes(expr))))
        expr = replace(expr, target, ("bogus", *target[1:]))
    return name, expr, env


def outcome(run):
    try:
        return "value", run()
    except (BoundaryMismatch, DanglingReference) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None)
@given(cases())
def test_compiled_evaluation_matches_the_reference(case):
    name, expr, env = case
    alg = ALGEBRAS[name]
    expected = outcome(lambda: reference(alg, expr, env))
    compiled = ex.compile_expr(alg, expr)
    assert outcome(lambda: compiled(env)) == expected
    assert outcome(lambda: ex.evaluate(alg, expr, env)) == expected


def test_the_corpus_covers_both_kinds_of_algebra():
    kinds = {type(alg).__name__ for alg in ALGEBRAS.values()}
    assert kinds == {"FiniteTwoCategory", "FiniteDoubleCategory"}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_every_cell_is_evaluated_through_each_of_its_decompositions(name):
    alg = ALGEBRAS[name]
    for sort, found in cells(name).items():
        for cell in found:
            for tag, parts in decompositions(name, sort, cell):
                env = {f"x{i}": c for i, (_, c) in enumerate(parts)}
                expr = (tag, *(LEAVES[s](f"x{i}") for i, (s, _) in enumerate(parts)))
                assert ex.compile_expr(alg, expr)(env) == cell == reference(alg, expr, env)


def test_one_compiled_expression_runs_under_many_environments():
    alg = ALGEBRAS["hsim-iso"]
    expr = ex.hcomp(ex.hgen("f"), ex.hgen("g"))
    compiled = ex.compile_expr(alg, expr)
    hmors = cells("hsim-iso")["h"]
    for f in hmors:
        for g in hmors:
            env = {"f": f, "g": g}
            assert outcome(lambda: compiled(env)) == outcome(lambda: reference(alg, expr, env))
