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
An algebra provides the cell-algebra protocol: ``objects``,
``h_src/h_tgt/h_id/h_then``, ``v_src/v_tgt/v_id/v_then``, the square
boundary maps ``s_top/s_bottom/s_left/s_right``, square units and
compositions, and the two boundary queries ``hmors_between(a, b)`` and
``squares_with(top, bottom, left, right)``.  A 2-category is the double
category whose only vertical morphisms are identities: its vertical sides
are objects.  ``CellAlgebra`` derives from the protocol the searches both
kinds share: vertical and horizontal inverses, the vertically invertible
squares with identity vertical sides, the triangle identities and
horizontal equivalences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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

    ``alg`` must provide the cell-algebra protocol (see the module
    docstring) and the inverse searches of ``CellAlgebra``.  Raises
    BoundaryMismatch at the offending node.
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


@dataclass(frozen=True)
class HorizontalEquivalence:
    f: str
    g: str
    eta: str  # vertically invertible square id_A ⇒ gf with identity vertical sides
    eps: str  # vertically invertible square fg ⇒ id_B with identity vertical sides
    adjoint: bool  # the triangle identities hold

    def as_tuple(self):
        return (self.f, self.g, self.eta, self.eps)


class CellAlgebra:
    """Exhaustive searches over the cell-algebra protocol, written once for
    2-categories and double categories.  Results are memoized in the
    instance ``__dict__``."""

    def _index(self, name, cells, *boundary):
        """Group ``cells`` by their images under the ``boundary`` maps and
        keep the index under ``name`` for the boundary queries."""
        index = self.__dict__[name] = {}
        for c in cells:
            index.setdefault(tuple(m[c] for m in boundary), []).append(c)
        return index

    def s_vinverse(self, s):
        """The square t with s over t and t over s units, or None."""
        cache = self.__dict__.setdefault("_vinv", {})
        if s not in cache:
            top, bottom = self.s_top(s), self.s_bottom(s)
            cache[s] = next((t for t in self.squares_with(top=bottom, bottom=top)
                             if self.s_vcomp(s, t) == self.s_unit_h(top)
                             and self.s_vcomp(t, s) == self.s_unit_h(bottom)), None)
        return cache[s]

    def s_hinverse(self, s):
        """The square t with s beside t and t beside s units, or None."""
        cache = self.__dict__.setdefault("_hinv", {})
        if s not in cache:
            left, right = self.s_left(s), self.s_right(s)
            cache[s] = next((t for t in self.squares_with(left=right, right=left)
                             if self.s_hcomp(s, t) == self.s_unit_v(left)
                             and self.s_hcomp(t, s) == self.s_unit_v(right)), None)
        return cache[s]

    def triangle_identities_hold(self, f, g, eta, eps) -> bool:
        e_f, e_g = self.s_unit_h(f), self.s_unit_h(g)
        return (self.s_vcomp(self.s_hcomp(eta, e_f), self.s_hcomp(e_f, eps)) == e_f
                and self.s_vcomp(self.s_hcomp(e_g, eta), self.s_hcomp(eps, e_g)) == e_g)

    def h_equivalences(self) -> tuple[HorizontalEquivalence, ...]:
        """Every (f, g, η, ε) with η: id ⇒ gf and ε: fg ⇒ id vertically
        invertible with identity vertical sides, sorted."""
        found = self.__dict__.get("_heq")
        if found is None:
            found = []
            for a, b in product(self.objects, repeat=2):
                for f, g in product(self.hmors_between(a, b), self.hmors_between(b, a)):
                    etas = self.invertible_flat(self.h_id(a), self.h_then(f, g))
                    epss = self.invertible_flat(self.h_then(g, f), self.h_id(b))
                    found.extend(
                        HorizontalEquivalence(f, g, eta, eps,
                                              self.triangle_identities_hold(f, g, eta, eps))
                        for eta in etas for eps in epss)
            found = self.__dict__["_heq"] = tuple(sorted(found, key=lambda d: d.as_tuple()))
        return found

    def invertible_flat(self, top, bottom):
        """The vertically invertible squares top ⇒ bottom whose vertical
        sides are the identities on the endpoints of ``top``."""
        left, right = self.v_id(self.h_src(top)), self.v_id(self.h_tgt(top))
        return [s for s in self.squares_with(top=top, bottom=bottom, left=left, right=right)
                if self.s_vinverse(s) is not None]
