"""Pasting expressions.

Expressions are tagged tuples, JSON-friendly and hashable.  The same
grammar serves 2-categories and double categories; the double-categorical
sorts are objects, h-morphisms, v-morphisms, and squares, while for a
2-category the "h" sort holds 1-cells, the "sq" sort holds 2-cells, and
the "v" sort is unused.

    ("ogen", name)                object generator
    ("hgen", name)                h-morphism / 1-cell generator
    ("hid", o)                    identity h-morphism on object expression o
    ("hcomp", first, then)        composite, diagrammatic order
    ("vgen", name) ("vid", o) ("vcomp", first, then)
    ("sgen", name)                square / 2-cell generator
    ("sid_h", h)                  unit square e_f  (identity 2-cell in a 2-category)
    ("sid_v", v)                  unit square id_u
    ("shcomp", left, right)       horizontal pasting
    ("svcomp", top, bottom)       vertical pasting
    ("sinv_v", s)                 vertical inverse
    ("sinv_h", s)                 horizontal inverse

Evaluation happens against an *algebra* (a FiniteTwoCategory or
FiniteDoubleCategory) and an environment mapping generator names to cells.
"""

from __future__ import annotations

from .errors import BoundaryMismatch, DanglingReference


def ogen(name):
    return ("ogen", name)


def hgen(name):
    return ("hgen", name)


def hid(o):
    return ("hid", o)


def hcomp(first, then):
    return ("hcomp", first, then)


def hpath(*cells):
    """Composite of h-expressions in diagrammatic order."""
    expr = cells[0]
    for nxt in cells[1:]:
        expr = hcomp(expr, nxt)
    return expr


def vgen(name):
    return ("vgen", name)


def vid(o):
    return ("vid", o)


def vcomp(first, then):
    return ("vcomp", first, then)


def vpath(*cells):
    expr = cells[0]
    for nxt in cells[1:]:
        expr = vcomp(expr, nxt)
    return expr


def sgen(name):
    return ("sgen", name)


def sid_h(h):
    return ("sid_h", h)


def sid_v(v):
    return ("sid_v", v)


def shcomp(left, right):
    return ("shcomp", left, right)


def svcomp(top, bottom):
    return ("svcomp", top, bottom)


def sinv_v(s):
    return ("sinv_v", s)


def sinv_h(s):
    return ("sinv_h", s)


def generators_of(expr) -> set[str]:
    tag = expr[0]
    if tag in ("ogen", "hgen", "vgen", "sgen"):
        return {expr[1]}
    out: set[str] = set()
    for child in expr[1:]:
        out |= generators_of(child)
    return out


def to_json(expr):
    return [to_json(part) if isinstance(part, tuple) else part for part in expr]


def from_json(doc):
    if not isinstance(doc, list) or not doc or not isinstance(doc[0], str):
        raise DanglingReference(f"malformed expression {doc!r}")
    return tuple(from_json(part) if isinstance(part, list) else part for part in doc)


def evaluate(alg, expr, env):
    """Evaluate ``expr`` in the algebra ``alg`` under generator images ``env``.

    ``alg`` must provide the cell-algebra protocol: ``obj_exists``,
    ``h_src/h_tgt/h_id/h_then``, the square boundary maps, square units and
    compositions, and inverse search (see FiniteTwoCategory and
    FiniteDoubleCategory).  Raises BoundaryMismatch at the offending node.
    """
    tag = expr[0]
    if tag in ("ogen", "hgen", "vgen", "sgen"):
        name = expr[1]
        if name not in env:
            raise DanglingReference(f"unassigned generator {name!r}")
        return env[name]
    if tag == "hid":
        return alg.h_id(evaluate(alg, expr[1], env))
    if tag == "hcomp":
        first = evaluate(alg, expr[1], env)
        then = evaluate(alg, expr[2], env)
        if alg.h_tgt(first) != alg.h_src(then):
            raise BoundaryMismatch(f"h-composition mismatch at {expr!r}")
        return alg.h_then(first, then)
    if tag == "vid":
        return alg.v_id(evaluate(alg, expr[1], env))
    if tag == "vcomp":
        first = evaluate(alg, expr[1], env)
        then = evaluate(alg, expr[2], env)
        if alg.v_tgt(first) != alg.v_src(then):
            raise BoundaryMismatch(f"v-composition mismatch at {expr!r}")
        return alg.v_then(first, then)
    if tag == "sid_h":
        return alg.s_unit_h(evaluate(alg, expr[1], env))
    if tag == "sid_v":
        return alg.s_unit_v(evaluate(alg, expr[1], env))
    if tag == "shcomp":
        left = evaluate(alg, expr[1], env)
        right = evaluate(alg, expr[2], env)
        if alg.s_right(left) != alg.s_left(right):
            raise BoundaryMismatch(f"horizontal pasting mismatch at {expr!r}")
        return alg.s_hcomp(left, right)
    if tag == "svcomp":
        top = evaluate(alg, expr[1], env)
        bottom = evaluate(alg, expr[2], env)
        if alg.s_bottom(top) != alg.s_top(bottom):
            raise BoundaryMismatch(f"vertical pasting mismatch at {expr!r}")
        return alg.s_vcomp(top, bottom)
    if tag == "sinv_v":
        inner = evaluate(alg, expr[1], env)
        inv = alg.s_vinverse(inner)
        if inv is None:
            raise BoundaryMismatch(f"cell has no vertical inverse at {expr!r}")
        return inv
    if tag == "sinv_h":
        inner = evaluate(alg, expr[1], env)
        inv = alg.s_hinverse(inner)
        if inv is None:
            raise BoundaryMismatch(f"cell has no horizontal inverse at {expr!r}")
        return inv
    raise DanglingReference(f"unknown expression tag {tag!r}")
