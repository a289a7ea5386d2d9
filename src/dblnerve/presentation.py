"""Generators-and-relations presentations and functor enumeration.

A presentation lists generators in dependency order (objects, then
morphism-level cells, then square-level cells) with boundaries given as
expressions over earlier generators.  Flags constrain images during
enumeration:

    "invertible"    image has a vertical inverse
    "h_invertible"  image has a horizontal inverse (double targets)
    "whi"           image admits a weak-inverse witness (double targets)

Adjoint-equivalence-flagged morphism generators are expanded structurally:
adding one introduces the partner generator, invertible unit and counit
cells, and the two triangle relations, so enumeration ranges exactly over
adjoint equivalences of the target.  The base generator records the names
of its partner, unit and counit; ``adjoint_morphism`` reads that record to
send them after the image of their base, a path of adjoint generators and
their partners or an identity.

Enumeration runs on a depth-first search kernel with an explicit stack and
one candidate budget, which ``pseudohom`` also uses, in two halves: a plan
(``_plan``) of names and positions, and a run (``_run``) that binds
candidate and check functions to a plan; ``_search`` plans and runs once.
A run binds its images in one list, ``env``, with a slot per depth: the
candidate and check functions read the images they need at the positions
the plan gives their variables.  Each variable declares the earlier
variables its candidates read, and a depth's memo holds, for the length of
the run, which of its candidates pass the checks that become ready there,
keyed on the images at the positions both read; a depth that accepts only
the last of its candidates is bound without a stack frame.  A presentation
is planned once (``Presentation.search_plan``, no algebra and no closure
over one): its search order, and the distinct *shapes* of its boundaries
and relations, each an expression or tuple of expressions with its
generator leaves renamed to slots numbered in first-occurrence order,
bound to each boundary and relation by the search positions of its slots.
Its depths fall into *memo classes*: the depths whose candidates and checks
ask the same question, one pasting condition at many coordinates, and
every depth of a class shares one memo.
``enumerate_canonical`` compiles each shape in the target once, evaluates
each boundary and relation as its shape on the images at its slots,
memoized in one dict per shape for the length of the search, and runs the
plan.  Candidate lists are the boundary queries' own lists, which are
sorted (``CellAlgebra``).  It returns the solutions as sorted rows, their
images in one key order, the sorted generator names
(``Presentation.keys``), and ``enumerate_functors`` as dicts.  Pullback
along a presentation morphism maps rows to rows; the images that are not
generators are planned once per morphism
(``PresentationMorphism.pullback_plan``) and bound as shapes in the same
way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import cached_property, partial, reduce
from operator import itemgetter
from typing import NamedTuple

from . import expr as ex
from .dblcat import FiniteDoubleCategory
from .errors import BoundaryMismatch, BudgetExceeded, DanglingReference, UsageError
from .twocat import FiniteTwoCategory
from .whi import is_whi_square

DEFAULT_BUDGET = 1_000_000
FLAGS = frozenset({"invertible", "h_invertible", "whi"})  # see the module docstring


@dataclass(frozen=True)
class Gen:
    name: str
    sort: str  # "object" | "h" | "v" | "sq"
    bounds: tuple  # h/v: (src, tgt) object exprs; sq: (top, bottom, left, right)
    flags: frozenset = frozenset()
    adjoint: tuple = ()  # adjoint h-generator: the (partner, unit, counit) its expansion added


class SearchPlan(NamedTuple):
    """How ``enumerate_canonical`` searches a presentation
    (``Presentation.search_plan``).

    A *shape* is a tuple of expressions whose generator leaves name slots
    0, 1, ... in the order the generators first occur, left to right, held
    with its number of slots (``_shapes``).  A presentation's relations are
    a few pasting laws repeated at many places, and so are its boundaries,
    so each has few shapes.  A *binding* is a tuple: a shape's index, then
    the search position of the generator at each of its slots.  So its
    search depths fall into few *memo classes*: the depths that query one
    boundary shape and test the same flags and relation shapes, on images
    at the same places in their memo keys, share one memo in the kernel
    plan (``_memo_classes``)."""
    order: tuple  # the generators in search order (``_schedule``)
    flags: tuple  # (position, flags) of each flagged square generator
    boundary_shapes: tuple  # the distinct shapes of the boundaries (``_bounds``)
    boundaries: tuple  # per generator in search order, its boundary's binding; None for an object
    relation_shapes: tuple  # the distinct shapes of the relations, each (lhs, rhs)
    relations: tuple  # the binding of each relation
    kernel: tuple  # the kernel plan (``_plan``), with the flag checks before the relations
    keyed: tuple  # the search position of each key, in key order


@dataclass(frozen=True)
class Presentation:
    kind: str  # "double" | "two"
    gens: tuple[Gen, ...]
    relations: tuple[tuple, ...]  # pairs (lhs, rhs) of expressions of one sort
    label: str = ""
    expansion_relations: frozenset = frozenset()  # indices of auto-added triangle laws

    @cached_property
    def _by_name(self):
        return {g.name: g for g in self.gens}

    def gen(self, name: str) -> Gen:
        return self._by_name[name]

    @cached_property
    def keys(self) -> tuple[str, ...]:
        """The key order of this presentation's rows: the sorted generator names."""
        return tuple(sorted(g.name for g in self.gens))

    @cached_property
    def adjoints(self) -> dict[str, tuple]:
        """The partner, unit and counit expressions of each adjoint generator
        by name: a base's are the generators its expansion added, a
        partner's are its base and the inverses of the base's counit and unit."""
        out = {}
        for g in self.gens:
            if g.adjoint:
                partner, unit, counit = g.adjoint
                out[g.name] = (ex.hgen(partner), ex.sgen(unit), ex.sgen(counit))
                out[partner] = (ex.hgen(g.name), ex.sinv_v(ex.sgen(counit)),
                                ex.sinv_v(ex.sgen(unit)))
        return out

    @cached_property
    def search_plan(self) -> SearchPlan:
        """How ``enumerate_canonical`` searches this presentation, planned
        once and without an algebra (``SearchPlan``): names, positions,
        shapes and this presentation's own generators, no algebra and no
        closure over one.  Each call compiles the shapes in its algebra and
        runs this plan."""
        order = tuple(_schedule(self))
        at = {g.name: i for i, g in enumerate(order)}
        bounded = [g for g in order if g.sort != "object"]
        boundary_shapes, bounds = _shapes([_bounds(self.kind, g) for g in bounded])
        relation_shapes, relations = _shapes(self.relations)
        bound = dict(zip([g.name for g in bounded], bounds))
        boundary = [bound.get(g.name, (None, ())) for g in order]  # an object's: no shape, no slot
        flagged = [g for g in self.gens if g.sort == "sq" and g.flags]
        # what a depth's candidates ask: its sort's query on its boundary's
        # shape; and its checks: their flags (a set) or relation shape (a number)
        kernel = _plan([(g.name, names) for g, (_, names) in zip(order, boundary)],
                       [(g.name,) for g in flagged] + [names for _, names in relations],
                       ([(g.sort, shape) for g, (shape, _) in zip(order, boundary)],
                        [g.flags for g in flagged] + [shape for shape, _ in relations]))
        bounds = iter(_at_positions(bounds, at))
        return SearchPlan(order, tuple((at[g.name], g.flags) for g in flagged),
                          boundary_shapes,
                          tuple(None if g.sort == "object" else next(bounds) for g in order),
                          relation_shapes, _at_positions(relations, at), kernel,
                          tuple(at[name] for name in self.keys))

    def expansion_gens(self) -> set[str]:
        """The partners, units and counits that adjoint expansions added."""
        return {name for g in self.gens for name in g.adjoint}


class PresentationBuilder:
    """Accumulates generators and relations; adjoint flags auto-expand."""

    def __init__(self, kind: str, label: str = ""):
        self.kind = kind
        self.label = label
        self.gens: list[Gen] = []
        self.relations: list[tuple] = []
        self.expansion_relation_idx: set[int] = set()
        self._names: set[str] = set()

    def _add(self, gen: Gen):
        if gen.name in self._names:
            raise DanglingReference(f"duplicate generator {gen.name!r}")
        self._names.add(gen.name)
        self.gens.append(gen)

    def add_object(self, name):
        self._add(Gen(name, "object", ()))
        return ex.ogen(name)

    def add_hgen(self, name, src, tgt, adjoint=False):
        if adjoint:
            self._expand_adjoint(name, src, tgt)
        else:
            self._add(Gen(name, "h", (src, tgt)))
        return ex.hgen(name)

    def add_vgen(self, name, src, tgt):
        if self.kind != "double":
            raise DanglingReference("vertical generators need a double presentation")
        self._add(Gen(name, "v", (src, tgt)))
        return ex.vgen(name)

    def add_square(self, name, top, bottom, left, right, flags=()):
        self._add(Gen(name, "sq", (top, bottom, left, right), frozenset(flags)))
        return ex.sgen(name)

    def add_cell2(self, name, src, tgt, flags=()):
        """2-cell generator of a 2-category presentation (trivial verticals)."""
        if self.kind != "two":
            raise DanglingReference("add_cell2 needs a two-category presentation")
        return self.add_square(name, src, tgt, None, None, flags)

    def add_relation(self, lhs, rhs):
        self.relations.append((lhs, rhs))

    def _expand_adjoint(self, name, src, tgt):
        """Add ``name`` as an adjoint equivalence: the base, which records the
        names of the partner, unit and counit added after it, then the two
        triangle laws."""
        partner, unit, counit = f"{name}*", f"{name}.unit", f"{name}.counit"
        self._add(Gen(name, "h", (src, tgt), adjoint=(partner, unit, counit)))
        self._add(Gen(partner, "h", (tgt, src)))
        fwd, bwd = ex.hgen(name), ex.hgen(partner)
        trivial = self.kind == "two"
        lv = None if trivial else ex.vid(src)
        rv_src = None if trivial else ex.vid(src)
        rv_tgt = None if trivial else ex.vid(tgt)
        self._add(
            Gen(unit, "sq", (ex.hid(src), ex.hcomp(fwd, bwd), lv, rv_src), frozenset({"invertible"}))
        )
        self._add(
            Gen(
                counit,
                "sq",
                (ex.hcomp(bwd, fwd), ex.hid(tgt), None if trivial else ex.vid(tgt), rv_tgt),
                frozenset({"invertible"}),
            )
        )
        e_f, e_g = ex.sid_h(fwd), ex.sid_h(bwd)
        un, co = ex.sgen(unit), ex.sgen(counit)
        self.expansion_relation_idx.add(len(self.relations))
        self.add_relation(
            ex.svcomp(ex.shcomp(un, e_f), ex.shcomp(e_f, co)),
            e_f,
        )
        self.expansion_relation_idx.add(len(self.relations))
        self.add_relation(
            ex.svcomp(ex.shcomp(e_g, un), ex.shcomp(co, e_g)),
            e_g,
        )

    def build(self) -> Presentation:
        """The presentation, once every boundary and relation is checked: a
        boundary may name only generators listed before it, a relation only
        generators listed at all, every expression must be well-formed
        and of the sort its place takes, and every flag one of ``FLAGS``
        (DanglingReference otherwise)."""
        sorts: dict[str, str] = {}
        for g in self.gens:
            if not g.flags <= FLAGS:
                unknown = ", ".join(sorted(map(repr, g.flags - FLAGS)))
                raise DanglingReference(f"unknown flag {unknown} on {g.name!r}")
            wanted = _BOUNDARY_SORTS[g.sort]
            if g.sort == "sq" and self.kind == "two":
                wanted = wanted[:2] + (None, None)  # 2-cells: (src, tgt)
            for b, want in zip(g.bounds, wanted):
                if (None if b is None else _sort(b, sorts)) != want:
                    raise DanglingReference(f"boundary {b!r} of {g.name!r} is not of sort {want}")
            sorts[g.name] = g.sort
        for lhs, rhs in self.relations:
            if _sort(lhs, sorts) != _sort(rhs, sorts):
                raise DanglingReference(f"relation sides {lhs!r} and {rhs!r} differ in sort")
        seen: dict = {}  # one instance of each subexpression
        return Presentation(
            self.kind,
            tuple(replace(g, bounds=tuple(_shared(b, seen) for b in g.bounds)) for g in self.gens),
            tuple((_shared(lhs, seen), _shared(rhs, seen)) for lhs, rhs in self.relations),
            self.label,
            frozenset(self.expansion_relation_idx),
        )


def _shared(expression, seen: dict):
    """``expression`` rebuilt from the instances in ``seen`` of each of its
    subexpressions, which it adds to ``seen`` if they are not there: the
    expressions of one presentation repeat many subexpressions, and each is
    then held once."""
    if not isinstance(expression, tuple):
        return expression
    expression = tuple([_shared(part, seen) for part in expression])
    return seen.setdefault(expression, expression)


def _shapes(expression_lists) -> tuple:
    """The distinct shapes of ``expression_lists`` (``SearchPlan``), each
    with its number of slots, and per list the index of its shape and the
    generator names at its slots.  Slots are numbered by first occurrence,
    not set order, so shapes and memo keys are the same under any hash
    seed.  The shapes hold each repeated subexpression once (``_shared``)."""
    index: dict = {}
    seen: dict = {}
    bindings = []
    for expressions in expression_lists:
        slots: dict = {}
        shape = (tuple([_renamed(expression, slots) for expression in expressions]), len(slots))
        if shape not in index:
            index[_shared(shape, seen)] = len(index)
        bindings.append((index[shape], tuple(slots)))
    return tuple(index), bindings


def _renamed(expression, slots: dict):
    """``expression`` with each generator leaf naming its slot in ``slots``,
    to which a generator not yet there is added as the next slot."""
    tag = expression[0]
    if tag in _LEAF_SORTS:
        return tag, slots.setdefault(expression[1], len(slots))
    return (tag, *[_renamed(part, slots) for part in expression[1:]])


def _at_positions(bindings, at: dict) -> tuple:
    """``bindings`` (``_shapes``) as flat tuples, each generator name read
    at its position in ``at``."""
    return tuple((shape, *map(at.__getitem__, names)) for shape, names in bindings)


_BOUNDARY_SORTS = {"object": (), "h": ("object", "object"), "v": ("object", "object"),
                   "sq": ("h", "h", "v", "v")}  # sq: (top, bottom, left, right)
_LEAF_SORTS = {tag: sort for sort, tag in ex.LEAF_TAGS.items()}
# tag -> (the sorts of its parts, its sort)
_SIGNATURES = {
    "hid": (("object",), "h"), "vid": (("object",), "v"),
    "hcomp": (("h", "h"), "h"), "vcomp": (("v", "v"), "v"),
    "sid_h": (("h",), "sq"), "sid_v": (("v",), "sq"),
    "shcomp": (("sq", "sq"), "sq"), "svcomp": (("sq", "sq"), "sq"),
    "sinv_v": (("sq",), "sq"), "sinv_h": (("sq",), "sq"),
}


def _sort(expression, sorts: dict) -> str:
    """The sort of ``expression`` given the sorts of the generators listed
    so far; DanglingReference if a tag is unknown, an arity wrong, a part of
    the wrong sort or a generator leaf names none of them of its sort."""
    tag = expression[0] if isinstance(expression, tuple) and expression else None
    if tag in _LEAF_SORTS:
        sort = _LEAF_SORTS[tag]
        if len(expression) != 2 or not isinstance(expression[1], str):
            raise DanglingReference(f"malformed expression {expression!r}")
        if sorts.get(expression[1]) != sort:
            raise DanglingReference(f"{expression!r} names no {sort} generator listed before it")
        return sort
    if tag not in _SIGNATURES:
        raise DanglingReference(f"malformed expression {expression!r}")
    parts, sort = _SIGNATURES[tag]
    if len(expression) != 1 + len(parts):
        raise DanglingReference(f"{tag!r} takes {len(parts)} parts in {expression!r}")
    for part, want in zip(expression[1:], parts):
        if _sort(part, sorts) != want:
            raise DanglingReference(f"{tag!r} takes parts of sort {want} in {expression!r}")
    return sort


@dataclass(frozen=True, eq=False)
class PresentationMorphism:
    source: Presentation
    target: Presentation
    gen_map: dict[str, tuple]  # source gen -> target expression

    @cached_property
    def pullback_plan(self) -> tuple:
        """How ``pullback`` reads a row of the target, planned once and
        without an algebra: the distinct shapes of the images that are not
        generators (``_shapes``), and per source key the position in a
        target row that its generator image reads or the binding of its
        image."""
        at = {name: i for i, name in enumerate(self.target.keys)}
        images = [self.gen_map[name] for name in self.source.keys]
        shapes, bindings = _shapes([(image,) for image in images if image[0] not in _LEAF_SORTS])
        bindings = iter(_at_positions(bindings, at))
        return shapes, tuple(at[image[1]] if image[0] in _LEAF_SORTS else next(bindings)
                             for image in images)

    def pullback(self, alg):
        """Pullback along this morphism, in ``alg``, as a function from rows
        of the target to rows of the source, compiled once, here: a
        generator image becomes the position it reads, and each shape of the
        other images (``pullback_plan``) one function of the images at its
        slots, memoized in a dict per shape for as long as the function
        lives (``_binder``).  A row of the wrong length raises
        DanglingReference."""
        shapes, reads = self.pullback_plan
        bind = _binder(alg, shapes, _image)
        parts = [itemgetter(read) if isinstance(read, int) else bind(read, (self.gen_map[name],))
                 for name, read in zip(self.source.keys, reads)]
        width = len(self.target.keys)

        def pull(row):
            if len(row) != width:
                raise DanglingReference(f"a row of {len(row)} images pulled back along a "
                                        f"morphism whose target has {width} generators")
            return tuple([part(row) for part in parts])
        return pull

    def after(self, other: "PresentationMorphism") -> "PresentationMorphism":
        """other followed by self (source of other, target of self)."""
        assert other.target is self.source or other.target.label == self.source.label
        composed = {}
        for name, image in other.gen_map.items():
            composed[name] = substitute(image, self.gen_map)
        return PresentationMorphism(other.source, self.target, composed)


def substitute(expression, gen_map):
    tag = expression[0]
    if tag in _LEAF_SORTS:
        return gen_map[expression[1]]
    return tuple(
        substitute(part, gen_map) if isinstance(part, tuple) else part
        for part in expression
    )


def inclusion(source: Presentation, target: Presentation, **images) -> PresentationMorphism:
    """The morphism sending each generator of ``source`` to its entry in
    ``images``, or else to the generator of ``target`` of the same name."""
    return PresentationMorphism(source, target, {
        g.name: images.get(g.name, (ex.LEAF_TAGS[g.sort], g.name)) for g in source.gens})


def adjoint_morphism(source: Presentation, target: Presentation, image_of) -> PresentationMorphism:
    """The morphism sending each generator ``g`` of ``source`` that no
    adjoint expansion added to ``image_of(g)``.  The partner, unit and
    counit of an adjoint generator follow the image of their base, an
    identity or a path of adjoint generators of ``target`` and their
    partners (``_adjoint_images``); any other image raises DanglingReference."""
    added = source.expansion_gens()
    gen_map = {}
    for g in source.gens:
        if g.name in added:
            continue
        image = gen_map[g.name] = image_of(g)
        if g.adjoint:
            gen_map.update(zip(g.adjoint, _adjoint_images(target, g.name, image)))
    return PresentationMorphism(source, target, gen_map)


def _adjoint_images(target: Presentation, name, image):
    """The images of the partner, unit and counit of the adjoint generator
    ``name`` whose image is ``image``.  An identity's are itself and its
    unit square twice.  A path of adjoint generators and their partners
    has its legs' partners in reverse order, and as unit and counit the
    right-nested vertical composites of its legs' units and counits
    (``Presentation.adjoints``), each whiskered by the legs before and
    after it."""
    if image[0] == "hid":
        return image, ex.sid_h(image), ex.sid_h(image)
    legs = _legs(image)
    if not all(leg[0] == "hgen" and leg[1] in target.adjoints for leg in legs):
        raise DanglingReference(f"adjoint generator {name!r} sent to {image!r}, neither a path "
                                f"of adjoint generators of {target.label!r} and their partners "
                                f"nor an identity")
    partners, units, counits = zip(*(target.adjoints[leg[1]] for leg in legs))

    def path(cells):
        return ex.hpath(*cells) if cells else None

    def composite(cells):  # right-nested: the first cell over the composite of the rest
        return reduce(lambda below, above: ex.svcomp(above, below), reversed(cells))
    return (path(partners[::-1]),
            composite([ex.whisker(path(legs[:i]), unit, path(partners[:i][::-1]))
                       for i, unit in enumerate(units)]),
            composite([ex.whisker(path(partners[i + 1:][::-1]), counit, path(legs[i + 1:]))
                       for i, counit in enumerate(counits)]))


def _legs(h):
    """The legs of the h-expression ``h``, a path of composites."""
    return _legs(h[1]) + _legs(h[2]) if h[0] == "hcomp" else [h]


# -- enumeration --------------------------------------------------------


_MISSING = object()


def _binder(alg, shapes, combine):
    """The function binding the shapes ``shapes`` (``_shapes``), each
    compiled once in ``alg`` as ``combine`` of the functions its
    expressions compile to, which read the tuple of images at its slots.

    ``bind(binding, expressions)`` is the function of a row or a search's
    env that gives the binding's shape on the images at its positions,
    memoized on those images in one dict per shape: every binding of a
    shape shares it, since the value depends only on them.  A call that
    raises is not memoized.  On BoundaryMismatch the concrete
    ``expressions`` the binding stands for are evaluated, each generator
    read at the position of its slot: they fail at the same node, with the
    error that names their generators."""
    computes = [combine(*[ex.compile_expr(alg, expression, range(width)) for expression in shape])
                for shape, width in shapes]
    memos: list[dict] = [{} for _ in shapes]

    def bind(binding, expressions):
        shape, *positions = binding
        compute, memo = computes[shape], memos[shape]
        key, single = itemgetter(*positions), len(positions) == 1

        def bound(env):
            images = key(env)
            value = memo.get(images, _MISSING)
            if value is _MISSING:
                try:
                    value = memo[images] = compute((images,) if single else images)
                except BoundaryMismatch:
                    slots: dict = {}
                    for expression in expressions:
                        _renamed(expression, slots)
                    at = dict(zip(slots, positions))
                    for expression in expressions:
                        ex.compile_expr(alg, expression, at)(env)
                    raise
            return value
        return bound
    return bind


# ``_binder``'s ``combine`` for a pullback image, a boundary and a relation


def _image(image):
    return image


def _sides(*sides):
    return lambda images: tuple([side(images) for side in sides])


def _equal(lhs, rhs):
    return lambda images: lhs(images) == rhs(images)


def _flag_check(alg, flags, at):
    """The check of ``flags`` on the image at search position ``at``, each
    flag's test chosen once: a vertical, a horizontal inverse, and for
    "whi" a weak-inverse witness in a double category or a vertical
    inverse in a 2-category, tested in that order."""
    whi = partial(is_whi_square, alg) if isinstance(alg, FiniteDoubleCategory) else alg.s_vinverse
    tests = [test for flag, test in (("invertible", alg.s_vinverse),
                                     ("h_invertible", alg.s_hinverse), ("whi", whi))
             if flag in flags]
    return lambda env: all(test(env[at]) is not None for test in tests)


def _search(variables, constraints, budget: int | None, spent: int = 0):
    """Depth-first search over ordered variables with an explicit stack:
    ``_plan`` and ``_run`` once.

    ``variables`` is a list of ``(name, inputs, candidates)``:
    ``candidates(env)`` lists the images to try and reads only the bindings
    of ``inputs``, earlier variables (DanglingReference otherwise).
    ``constraints`` is a list of ``(inputs, check)``; each ``check(env)`` is
    tested right after the last of its inputs is bound, in list order.
    ``env`` is a list holding the binding of each variable at its position
    in ``variables``, which is where the functions read it.
    Every candidate tried counts against the budget, starting from
    ``spent``, so callers can share one budget between searches.  Returns
    the solutions, as tuples in variable order listed in the lexicographic
    order of the candidate lists, and the candidates spent.
    """
    budget = _environment_budget() if budget is None else budget
    plan = _plan([(name, inputs) for name, inputs, _ in variables],
                 [inputs for inputs, _ in constraints])
    return _run(plan, [candidates for _, _, candidates in variables],
                [check for _, check in constraints], budget, spent)


def _plan(variables, constraints, asks=None) -> tuple:
    """The plan of a search, without its candidate and check functions:
    ``variables`` are ``(name, inputs)`` pairs in depth order and
    ``constraints`` the inputs of each constraint.  Returns the names, per
    depth the earlier depths its memo key reads in order (those its
    candidates and the checks tested there read), per constraint the depth
    it is tested at: right after the last of its inputs is bound, and per
    depth the number of its memo (``_memo_classes``): one per depth unless
    ``asks`` says which depths ask the same question.  Names and positions
    only, so one plan serves any number of runs.  DanglingReference if a
    variable reads a name that is not a variable before it."""
    position: dict = {}
    inputs_at: list[tuple] = []
    for depth, (name, inputs) in enumerate(variables):
        for read in inputs:
            if read not in position:
                raise DanglingReference(f"variable {name!r} reads {read!r}, "
                                        f"which is not a variable before it")
        inputs_at.append(tuple(map(position.__getitem__, inputs)))
        position[name] = depth
    constraints = [tuple(map(position.__getitem__, inputs)) for inputs in constraints]
    depths = tuple(map(max, constraints))
    reads = [set(inputs) for inputs in inputs_at]
    for depth, inputs in zip(depths, constraints):
        reads[depth].update(inputs)
    keys = tuple(tuple(sorted(read - {depth})) for depth, read in enumerate(reads))
    memos = (tuple(range(len(keys))) if asks is None
             else _memo_classes(asks, inputs_at, constraints, keys, depths))
    return tuple(position), keys, depths, memos


def _memo_classes(asks, inputs_at, constraints, keys, depths) -> tuple:
    """Per depth the number of its memo, shared by the depths that ask the
    same question.  ``asks`` is what each variable's candidates and then
    each constraint's check compute from the images of their inputs, in
    input order: equal asks compute the same from equal images.  A depth's
    question is its variable's ask, then the ask of each check tested there
    in test order, each with its inputs as indices into the depth's memo
    key (-1 for the depth itself), then its key's length.  Two depths with
    one question and equal key images try the same candidates against the
    same checks, so their memo entries are equal.  Numbered by first
    occurrence in depth order, never set order, so the memos and what
    they hold are the same under any hash seed."""
    variable_asks, check_asks = asks
    tested: list[list] = [[] for _ in keys]
    for i, depth in enumerate(depths):
        tested[depth].append(i)

    def read(depth, inputs):
        return tuple(-1 if at == depth else keys[depth].index(at) for at in inputs)
    number: dict = {}
    return tuple(number.setdefault(
        (variable_asks[depth], read(depth, inputs_at[depth]),
         tuple((check_asks[i], read(depth, constraints[i])) for i in tested[depth]),
         len(keys[depth])), len(number)) for depth in range(len(keys)))


def _run(plan, candidates, checks, budget: int | None, spent: int = 0):
    """Run the search ``plan`` (``_plan``) with ``candidates[depth](env)``
    listing the images to try at each depth and ``checks[i](env)`` testing
    its ``i``-th constraint, each reading the images it needs at their
    depths in ``env``; returns what ``_search`` returns.

    Until it returns, the search holds each solution as the shallowest
    depth bound since the solution before and the images from there on
    (``_Solutions``): consecutive solutions share long prefixes, and a
    search that runs out of budget never builds a full row.

    Each memo class of the plan has one memo, shared by its depths
    (``_memo_classes``), which holds, on the images of what a depth's
    candidates and checks read, the candidates it accepts (``_accept``):
    the depths of a class ask the same question of those images, so their
    entries agree and one depth reuses another's.  Rejected candidates are
    charged before the accepted one after them, or after the subtrees of
    the last, so the search spends and stops where trying candidates one at
    a time would.  A depth that accepts only its last candidate is bound
    without a stack frame.  ``env`` is one list with a slot per depth,
    allocated once: the binding at a depth is written to its slot, and a
    deeper slot is overwritten before it is read again.  The memos and the
    key functions live as long as the run.
    """
    budget = _environment_budget() if budget is None else budget
    names, reads, depths, classes = plan
    if not names:
        return [()], spent
    keys = [itemgetter(*read) if read else _no_key for read in reads]
    at_depth: list[list] = [[] for _ in names]  # the checks tested at each depth, in list order
    for depth, check in zip(depths, checks):
        at_depth[depth].append(check)
    shared: dict = {}
    memos: list[dict] = [shared.setdefault(number, {}) for number in classes]

    solutions = _Solutions()
    keep = solutions.keep
    env: list = [None] * len(names)
    stack: list = []  # (depth, the accepted candidates left, the candidates after them)
    last = len(names) - 1
    depth = low = 0  # low: the shallowest depth bound since the last solution
    while True:
        memo, key = memos[depth], keys[depth](env)
        try:
            cost, image, rest = memo[key]
        except KeyError:
            cost, image, rest = memo[key] = _accept(candidates[depth], at_depth[depth],
                                                    depth, env)
        spent += cost
        if spent > budget:
            raise _exceeded(budget, names, depth, solutions)
        if image is not _NONE_ACCEPTED:
            env[depth] = image
            if rest is not None:
                stack.append((depth, iter(rest[0]), rest[1]))
            if depth < last:
                depth += 1
                continue
            keep(low, env)
            low = last
        while stack:
            depth, accepted, tail = stack[-1]
            step = next(accepted, None)
            if step is None:
                stack.pop()
                spent += tail
                if spent > budget:
                    raise _exceeded(budget, names, depth, solutions)
                continue
            cost, image = step
            spent += cost
            if spent > budget:
                raise _exceeded(budget, names, depth, solutions)
            env[depth] = image
            if depth < low:
                low = depth
            if depth < last:
                depth += 1
                break
            keep(low, env)
            low = last
        else:
            return solutions.rows(last + 1), spent


def _no_key(env):
    return None


_CHUNK = 256  # solutions per chunk of a search's store


class _Solutions:
    """The solutions of one search in the order found, each kept as the
    depth from which it may differ from the one before followed by its
    images from there on, in one flat list per ``_CHUNK`` solutions: blocks
    large enough to be given back whole when dropped, unlike small tuples,
    and small enough that the chunk still held while its rows are built
    adds little to the rows."""

    __slots__ = ("found", "_chunks")

    def __init__(self):
        self.found = 0
        self._chunks: list[list] = []

    def keep(self, low, env):
        """Keep the solution whose images, in depth order, are ``env``,
        given that those before ``low`` are the last solution's."""
        if self.found % _CHUNK == 0:
            self._chunks.append([])
        chunk = self._chunks[-1]
        chunk.append(low)
        chunk += env[low:]
        self.found += 1

    def rows(self, width):
        """The solutions as tuples of ``width`` images, built once into a
        list allocated once; each chunk is dropped as soon as its rows are
        built."""
        chunks, rows, row = self._chunks, [None] * self.found, [None] * width
        self._chunks = None
        n = 0
        for i, chunk in enumerate(chunks):
            chunks[i] = None
            at = 0
            while at < len(chunk):
                low = chunk[at]
                end = at + 1 + width - low
                row[low:] = chunk[at + 1:end]
                rows[n] = tuple(row)
                n += 1
                at = end
        return rows


_NONE_ACCEPTED = object()


def _accept(candidates, checks, depth, env):
    """One depth's memo entry ``(cost, image, rest)``: ``image`` is the
    first candidate, bound at ``env[depth]``, that passes ``checks`` and
    ``cost`` the number tried up to it.  ``rest`` is None if ``image`` was
    tried last; otherwise it holds the later accepted candidates, each with
    the number tried since the one before, and the number tried after
    them.  With none accepted, ``image`` is ``_NONE_ACCEPTED`` and ``cost``
    the number tried."""
    accepted, cost = [], 0
    for image in candidates(env):
        cost += 1
        env[depth] = image
        for check in checks:
            if not check(env):
                break
        else:
            accepted.append((cost, image))
            cost = 0
    if not accepted:
        return cost, _NONE_ACCEPTED, None
    (first_cost, first), later = accepted[0], accepted[1:]
    return first_cost, first, (later, cost) if later or cost else None


def _exceeded(budget, names, depth, solutions):
    return BudgetExceeded(budget, names[depth], depth + 1, len(names), solutions.found)


def _environment_budget() -> int:
    """The search budget: ``DBLNERVE_BUDGET`` if set, else DEFAULT_BUDGET."""
    raw = os.environ.get("DBLNERVE_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise UsageError(f"DBLNERVE_BUDGET must be a positive integer, not {raw!r}")
    return value


def _schedule(pres: Presentation) -> list[Gen]:
    """Generators in search order.  Objects keep presentation order; every
    other generator comes right after the last object its boundary depends
    on, directly or through the generators it names, so it is bound once
    per choice of the objects up to there, not of every object.  Ties keep
    presentation order, which lists each generator after those it names; a
    generator whose boundary reaches no object comes first."""
    last: dict[str, int] = {}  # generator -> position of the last object it depends on
    for i, g in enumerate(pres.gens):
        named = set().union(*(ex.generators_of(b) for b in g.bounds if isinstance(b, tuple)))
        last[g.name] = i if g.sort == "object" else max((last[n] for n in named), default=-1)
    # an object sorts before the generators that come right after it
    return sorted(pres.gens, key=lambda g: (last[g.name], g.sort != "object"))


def _bounds(kind: str, gen: Gen) -> tuple:
    """The boundary expressions of ``gen`` that its candidates are queried
    by: none for an object, (src, tgt) for a 2-cell of a 2-category."""
    return gen.bounds[:2] if kind == "two" else gen.bounds


def _candidates(alg, gen: Gen, sides):
    """The function that lists the candidate images of ``gen``, sorted,
    given ``sides(env)``, the sides of its boundary (``_bounds``) in the
    env: the list the boundary query returns, which is sorted
    (``CellAlgebra``), as it is."""
    if gen.sort == "object":
        objects = sorted(alg.objects)
        return lambda env: objects
    query = getattr(alg, {"h": "hmors_between", "v": "vmors_between",
                          "sq": "squares_with"}[gen.sort])
    return lambda env: query(*sides(env))


def enumerate_canonical(pres: Presentation, alg, budget: int | None = None) -> list[tuple]:
    """All generator valuations into ``alg`` satisfying boundaries, flags,
    and relations, as sorted rows in the key order ``pres.keys``: the
    presentation's ``search_plan``, run with each shape of its boundaries
    and relations compiled in ``alg`` once and memoized for the length of
    the search (``_binder``)."""
    if pres.kind == "two" and isinstance(alg, FiniteDoubleCategory):
        raise DanglingReference("two-category presentation needs a 2-category target")
    if pres.kind == "double" and isinstance(alg, FiniteTwoCategory):
        raise DanglingReference("double presentation needs a double category target")
    plan = pres.search_plan
    boundary = _binder(alg, plan.boundary_shapes, _sides)
    candidates = [_candidates(alg, g, binding and boundary(binding, _bounds(pres.kind, g)))
                  for g, binding in zip(plan.order, plan.boundaries)]
    # flag checks come first so that relations only see flagged images
    checks = [_flag_check(alg, flags, at) for at, flags in plan.flags]
    relation = _binder(alg, plan.relation_shapes, _equal)
    checks += [relation(binding, pair) for pair, binding in zip(pres.relations, plan.relations)]
    rows, _ = _run(plan.kernel, candidates, checks, budget)
    if len(plan.keyed) > 1:  # from search order to key order, in place: one copy of the rows
        reorder = itemgetter(*plan.keyed)
        for i, row in enumerate(rows):
            rows[i] = reorder(row)
    rows.sort()
    return rows


def enumerate_functors(pres: Presentation, alg, budget: int | None = None) -> list[dict]:
    """The valuations of ``enumerate_canonical``, as dicts in the same order."""
    keys = pres.keys
    return [dict(zip(keys, row)) for row in enumerate_canonical(pres, alg, budget)]


def has_rlp(functor, morphism: PresentationMorphism, budget: int | None = None):
    """Right lifting property of a (double or 2-) functor against a
    presentation morphism: every commuting square admits a diagonal filler.
    The witness of a failure is a top and a bottom row without a lift."""
    src_pres, tgt_pres = morphism.source, morphism.target
    A, B = functor.source, functor.target
    if isinstance(A, FiniteDoubleCategory):
        maps = {"object": functor.object_map, "h": functor.h_map, "v": functor.v_map,
                "sq": functor.sq_map}
    else:
        maps = {"object": functor.object_map, "h": functor.one_map, "sq": functor.two_map}

    def push(pres):
        """The functor on rows of ``pres``: one cell map per key position."""
        at_key = [maps[pres.gen(name).sort] for name in pres.keys]
        return lambda row: tuple([cells[image] for cells, image in zip(at_key, row)])

    tops = enumerate_canonical(src_pres, A, budget)
    bottoms = enumerate_canonical(tgt_pres, B, budget)
    lowers = enumerate_canonical(tgt_pres, A, budget)
    push_src, push_tgt = push(src_pres), push(tgt_pres)
    restrict_b, restrict_a = morphism.pullback(B), morphism.pullback(A)
    restricted = [(b, restrict_b(b)) for b in bottoms]
    # the images of the lower lifts, by their restriction to the source
    lifts: dict[tuple, set] = {}
    for c in lowers:
        lifts.setdefault(restrict_a(c), set()).add(push_tgt(c))
    for a in tops:
        fa, lifted = push_src(a), lifts.get(a, ())
        for b, fb in restricted:
            if fb == fa and b not in lifted:
                return False, (a, b)
    return True, None
