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
FiniteDoubleCategory) and generator images: a dict by name, or a sequence
read at the position given for each generator name.  ``compile_expr``
reads an expression once and returns a closure over the algebra's protocol
methods that evaluates it under any environment; it is the only evaluator,
and ``evaluate`` compiles and runs it once, by name.  Callers that evaluate
many expressions many times compile each distinct *shape* of them once per
call: the expression with its generator leaves renamed to slots numbered in
the order they first occur (``presentation._shapes``), compiled against
the slot numbers into a function of the tuple of images at its slots.  A
search compiles the shapes of its boundaries and relations, a pullback
along a presentation morphism those of its images that are not
generators.  A presentation's relations are a few pasting laws repeated at
many places: the 1,776 relations of the 81 tensor-level presentations with
m, k, n at most 2 come in 12 shapes.  A compiled shape reads only the
images at its slots, so its callers memoize it on them, in one dict per
shape that every binding of the shape shares: a search for its length, a
pullback for as long as the function ``pullback`` returns lives.  A shape
that raises BoundaryMismatch is evaluated again as the concrete
expression, by position, which fails at the same node and names its
generators.  What a presentation keeps is its search plan
(``Presentation.search_plan``): names, positions and shapes, no algebra
and no closure over one.  No closure or memo is kept on a presentation,
an algebra or a module.

An algebra provides the cell-algebra protocol: ``objects``,
``h_src/h_tgt/h_id/h_then``, ``v_src/v_tgt/v_id/v_then``, the square
boundary maps ``s_top/s_bottom/s_left/s_right``, square units and
compositions, and its cells per sort (``CELLS``).  A 2-category is the
double category whose only vertical morphisms are identities: its vertical
sides are objects.  ``CellAlgebra`` derives from the protocol what both
kinds share: the boundary queries ``hmors_between(a, b)``,
``vmors_between(a, b)`` and ``squares_with(top, bottom, left, right)``,
vertical and horizontal inverses, the vertically invertible squares with
identity vertical sides, the triangle identities and horizontal
equivalences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, groupby, product
from operator import attrgetter, itemgetter

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


def whisker(pre, cell, post):
    """``cell`` whiskered by the unit squares on the h-expressions ``pre``
    before it and ``post`` after it, first ``pre``; None whiskers by nothing."""
    if pre is not None:
        cell = shcomp(sid_h(pre), cell)
    if post is not None:
        cell = shcomp(cell, sid_h(post))
    return cell


# the tag of the generator leaf of each sort
LEAF_TAGS = {"object": "ogen", "h": "hgen", "v": "vgen", "sq": "sgen"}
_GENERATORS = frozenset(LEAF_TAGS.values())


def generators_of(expr) -> set[str]:
    tag = expr[0]
    if tag in _GENERATORS:
        return {expr[1]}
    out: set[str] = set()
    for child in expr[1:]:
        if isinstance(child, tuple):
            out |= generators_of(child)
    return out


def to_json(expr):
    return [to_json(part) if isinstance(part, tuple) else part for part in expr]


def from_json(doc):
    if not isinstance(doc, list) or not doc or not isinstance(doc[0], str):
        raise DanglingReference(f"malformed expression {doc!r}")
    return tuple(from_json(part) if isinstance(part, list) else part for part in doc)


_UNITS = {"hid": "h_id", "vid": "v_id", "sid_h": "s_unit_h", "sid_v": "s_unit_v"}
# tag -> (end of the first part, start of the second, composite, name of a mismatch)
_COMPOSITES = {
    "hcomp": ("h_tgt", "h_src", "h_then", "h-composition"),
    "vcomp": ("v_tgt", "v_src", "v_then", "v-composition"),
    "shcomp": ("s_right", "s_left", "s_hcomp", "horizontal pasting"),
    "svcomp": ("s_bottom", "s_top", "s_vcomp", "vertical pasting"),
}
_INVERSES = {"sinv_v": ("s_vinverse", "vertical"), "sinv_h": ("s_hinverse", "horizontal")}


def compile_expr(alg, expr, at=None):
    """Compile ``expr`` into a function ``env -> cell`` that evaluates it in
    the algebra ``alg`` under generator images ``env``: a dict by name or,
    given ``at``, the position of each generator name, a sequence (a row,
    or the list a search binds).

    The expression is read once; the returned closure holds ``alg``'s
    protocol methods and runs no dispatch.  ``alg`` must provide the
    cell-algebra protocol (see the module docstring) and the inverse
    searches of ``CellAlgebra``.  Evaluation raises BoundaryMismatch at the
    offending node and DanglingReference for an unassigned generator or an
    unknown tag, children first and left to right.
    """
    tag = expr[0]
    if tag in _GENERATORS:
        name = expr[1]
        if at is not None:
            return itemgetter(at[name])

        def generator(env):
            try:
                return env[name]
            except KeyError:
                raise DanglingReference(f"unassigned generator {name!r}") from None
        return generator
    if tag in _UNITS:
        unit, part = getattr(alg, _UNITS[tag]), compile_expr(alg, expr[1], at)
        return lambda env: unit(part(env))
    if tag in _COMPOSITES:
        end_name, start_name, then_name, what = _COMPOSITES[tag]
        end, start, then = getattr(alg, end_name), getattr(alg, start_name), getattr(alg, then_name)
        first, second = compile_expr(alg, expr[1], at), compile_expr(alg, expr[2], at)

        def composite(env):
            a, b = first(env), second(env)
            if end(a) != start(b):
                raise BoundaryMismatch(f"{what} mismatch at {expr!r}")
            return then(a, b)
        return composite
    if tag in _INVERSES:
        inverse_name, direction = _INVERSES[tag]
        inverse, part = getattr(alg, inverse_name), compile_expr(alg, expr[1], at)

        def inverted(env):
            inv = inverse(part(env))
            if inv is None:
                raise BoundaryMismatch(f"cell has no {direction} inverse at {expr!r}")
            return inv
        return inverted

    def unknown(env):
        raise DanglingReference(f"unknown expression tag {tag!r}")
    return unknown


def evaluate(alg, expr, env):
    """Evaluate ``expr`` once: ``compile_expr(alg, expr)(env)``.  A caller
    that evaluates one expression under many environments compiles it once."""
    return compile_expr(alg, expr)(env)


@dataclass(frozen=True)
class HorizontalEquivalence:
    f: str
    g: str
    eta: str  # vertically invertible square id_A ⇒ gf with identity vertical sides
    eps: str  # vertically invertible square fg ⇒ id_B with identity vertical sides
    adjoint: bool  # the triangle identities hold

    def as_tuple(self):
        return (self.f, self.g, self.eta, self.eps)


# the protocol's boundary maps of each sort, in the order the queries take them
_SIDES = {"h": ("h_src", "h_tgt"), "v": ("v_src", "v_tgt"),
          "sq": ("s_top", "s_bottom", "s_left", "s_right")}


class CellAlgebra:
    """The boundary queries and the exhaustive searches over the
    cell-algebra protocol, written once for 2-categories and double
    categories.  A kind declares ``CELLS``, the field listing its cells of
    each sort ("h", "v", "sq").  Everything derived from the cells is held
    by a cached property, so it lives exactly as long as the algebra.

    Both constructors (``dblcat.assemble_double_category`` and
    ``twocat.assemble_two_category``) store the cells sorted, and every
    bucket of an index keeps cell order, so every bucket, and every list a
    boundary query returns, is sorted (a 2-category's vertical buckets hold
    one object each): the search takes its candidate lists from them as
    they are."""

    CELLS: dict[str, str]
    # the indices of the boundary queries: the cells of a sort grouped by
    # the values of the boundary maps a query gives, each group in cell
    # order; keyed by the sort when it gives them all, the one dict lookup
    # of the queries made most, else by (sort, which maps it gives)
    _indices = cached_property(lambda self: {})
    # the memos of s_vinverse and s_hinverse: square -> its inverse or None
    _vinverses = cached_property(lambda self: {})
    _hinverses = cached_property(lambda self: {})

    def _index(self, sort, given=(True,) * 4):
        """The index of the cells of ``sort`` by the boundary maps that
        ``given`` flags, built by the first query that gives those sides."""
        key = sort if all(given) else (sort, given)
        index = self._indices.get(key)
        if index is None:
            index = self._indices[key] = {}
            maps = [getattr(self, name) for name in compress(_SIDES[sort], given)]
            for c in getattr(self, self.CELLS[sort]):
                index.setdefault(tuple([m(c) for m in maps]), []).append(c)
        return index

    def hmors_between(self, a, b):
        """The horizontal morphisms (1-cells) a → b, in cell order."""
        return (self._indices.get("h") or self._index("h")).get((a, b), [])

    def vmors_between(self, a, b):
        """The vertical morphisms a ⇸ b, in cell order."""
        return (self._indices.get("v") or self._index("v")).get((a, b), [])

    def squares_with(self, top=None, bottom=None, left=None, right=None):
        """The squares (2-cells) with the sides given, in cell order; a side
        given as None is free."""
        if top is not None and bottom is not None and left is not None and right is not None:
            index = self._indices.get("sq") or self._index("sq")
            return index.get((top, bottom, left, right), [])
        given = (top is not None, bottom is not None, left is not None, right is not None)
        index = self._indices.get(("sq", given)) or self._index("sq", given)
        return index.get(tuple(compress((top, bottom, left, right), given)), [])

    def s_vinverse(self, s):
        """The square t with s over t and t over s units, or None."""
        memo = self._vinverses
        if s not in memo:
            top, bottom = self.s_top(s), self.s_bottom(s)
            memo[s] = next((t for t in self.squares_with(top=bottom, bottom=top)
                            if self.s_vcomp(s, t) == self.s_unit_h(top)
                            and self.s_vcomp(t, s) == self.s_unit_h(bottom)), None)
        return memo[s]

    def s_hinverse(self, s):
        """The square t with s beside t and t beside s units, or None."""
        memo = self._hinverses
        if s not in memo:
            left, right = self.s_left(s), self.s_right(s)
            memo[s] = next((t for t in self.squares_with(left=right, right=left)
                            if self.s_hcomp(s, t) == self.s_unit_v(left)
                            and self.s_hcomp(t, s) == self.s_unit_v(right)), None)
        return memo[s]

    def triangle_identities_hold(self, f, g, eta, eps) -> bool:
        e_f, e_g = self.s_unit_h(f), self.s_unit_h(g)
        return (self.s_vcomp(self.s_hcomp(eta, e_f), self.s_hcomp(e_f, eps)) == e_f
                and self.s_vcomp(self.s_hcomp(e_g, eta), self.s_hcomp(eps, e_g)) == e_g)

    def h_equivalences(self) -> tuple[HorizontalEquivalence, ...]:
        """Every (f, g, η, ε) with η: id ⇒ gf and ε: fg ⇒ id vertically
        invertible with identity vertical sides, sorted."""
        return self._h_equivalences

    @cached_property
    def _h_equivalences(self) -> tuple[HorizontalEquivalence, ...]:
        found = []
        for a, b in product(self.objects, repeat=2):
            for f, g in product(self.hmors_between(a, b), self.hmors_between(b, a)):
                etas = self.invertible_flat(self.h_id(a), self.h_then(f, g))
                epss = self.invertible_flat(self.h_then(g, f), self.h_id(b))
                found.extend(
                    HorizontalEquivalence(f, g, eta, eps,
                                          self.triangle_identities_hold(f, g, eta, eps))
                    for eta in etas for eps in epss)
        return tuple(sorted(found, key=lambda d: d.as_tuple()))

    @cached_property
    def h_equivalences_by_f(self) -> dict[str, list[HorizontalEquivalence]]:
        """``h_equivalences()`` grouped by their first 1-cell f, in the same
        order: its keys are the 1-cells that are equivalences."""
        return {f: list(data) for f, data in groupby(self.h_equivalences(), attrgetter("f"))}

    def invertible_flat(self, top, bottom):
        """The vertically invertible squares top ⇒ bottom whose vertical
        sides are the identities on the endpoints of ``top``."""
        left, right = self.v_id(self.h_src(top)), self.v_id(self.h_tgt(top))
        return [s for s in self.squares_with(top=top, bottom=bottom, left=left, right=right)
                if self.s_vinverse(s) is not None]
