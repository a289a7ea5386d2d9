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
send them after the image of their base.

Enumeration runs on a depth-first search kernel with an explicit stack and
one candidate budget, which ``pseudohom`` also uses, in two halves: a plan
(``_plan``) of names and positions, and a run (``_run``) that binds
candidate and check functions to a plan; ``_search`` plans and runs once.
Each variable declares the earlier variables its candidates read, and each
depth memoizes, for the length of the run, which of its candidates pass
the checks that become ready there, keyed on the images of what both read;
a depth that accepts only the last of its candidates is bound without a
stack frame.  A presentation is planned once (``Presentation.search_plan``,
no algebra and no closure over one), and ``enumerate_canonical`` compiles
its boundaries and relations in the target and runs that plan.  It returns
the solutions as sorted rows, their images in one key order, the sorted
generator names (``Presentation.keys``), and ``enumerate_functors`` as
dicts; pullback along a presentation morphism maps rows to rows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice
from operator import itemgetter

from . import expr as ex
from .dblcat import FiniteDoubleCategory
from .errors import BudgetExceeded, DanglingReference, UsageError
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
    def search_plan(self) -> tuple:
        """How ``enumerate_canonical`` searches this presentation, planned
        once and without an algebra: the generators in search order
        (``_schedule``), the flagged square generators, the generators each
        relation names, the kernel plan (``_plan``) over them with the flag
        checks before the relations, and the search position of each key.
        It holds names, positions and this presentation's own generators,
        no algebra and no closure over one: each call compiles the
        boundaries and relations in its algebra and runs this plan."""
        order = tuple(_schedule(self))
        flagged = tuple(g for g in self.gens if g.sort == "sq" and g.flags)
        related = tuple(tuple(sorted(ex.generators_of(lhs) | ex.generators_of(rhs)))
                        for lhs, rhs in self.relations)
        kernel = _plan([(g.name, set().union(*map(ex.generators_of, _bounds(self.kind, g))))
                        for g in order], [(g.name,) for g in flagged] + list(related))
        at = {g.name: i for i, g in enumerate(order)}
        return order, flagged, related, kernel, tuple(at[name] for name in self.keys)

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


@dataclass(frozen=True)
class PresentationMorphism:
    source: Presentation
    target: Presentation
    gen_map: dict[str, tuple] = field(hash=False)  # source gen -> target expression

    def __hash__(self):
        return id(self)

    def pullback(self, alg):
        """Pullback along this morphism, in ``alg``, as a function from rows
        of the target to rows of the source, compiled once, here: a
        generator image becomes the position it reads, any other image a
        closure over positions memoized on the images it reads for as long
        as the function lives.  A row of the wrong length raises
        DanglingReference."""
        at = {name: i for i, name in enumerate(self.target.keys)}
        parts = []
        for name in self.source.keys:
            image = self.gen_map[name]
            if image[0] in _LEAF_SORTS:
                parts.append(itemgetter(at[image[1]]))
            else:
                parts.append(_by_inputs([at[read] for read in ex.generators_of(image)],
                                        ex.compile_expr(alg, image, at)))
        width = len(at)

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


def identity_morphism(pres: Presentation) -> PresentationMorphism:
    return PresentationMorphism(pres, pres,
                                {g.name: (ex.LEAF_TAGS[g.sort], g.name) for g in pres.gens})


def adjoint_morphism(source: Presentation, target: Presentation, image_of) -> PresentationMorphism:
    """The morphism sending each generator ``g`` of ``source`` that no
    adjoint expansion added to ``image_of(g)``.  The partner, unit and
    counit of an adjoint generator follow the image of their base: to the
    partner, unit and counit that ``target`` records for a generator image,
    and to the image itself and its unit square for an identity image.  Any
    other image raises DanglingReference."""
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
    ``name`` whose image is ``image``."""
    if image[0] == "hid":
        return image, ex.sid_h(image), ex.sid_h(image)
    adjoint = target.gen(image[1]).adjoint if image[0] == "hgen" else ()
    if not adjoint:
        raise DanglingReference(f"adjoint generator {name!r} sent to {image!r}, neither an "
                                f"adjoint generator of {target.label!r} nor an identity")
    partner, unit, counit = adjoint
    return ex.hgen(partner), ex.sgen(unit), ex.sgen(counit)


# -- enumeration --------------------------------------------------------


_MISSING = object()


def _by_inputs(inputs, compute):
    """``compute``, a function of bindings that reads only those at
    ``inputs`` (names of a dict or positions of a row, at least one),
    memoized on their images in a dict of its own.  A call that raises is
    not memoized."""
    key, memo = itemgetter(*inputs), {}

    def memoized(env):
        images = key(env)
        value = memo.get(images, _MISSING)
        if value is _MISSING:
            value = memo[images] = compute(env)
        return value
    return memoized


def _flag_ok(alg, flags, image):
    if "invertible" in flags and alg.s_vinverse(image) is None:
        return False
    if "h_invertible" in flags and alg.s_hinverse(image) is None:
        return False
    if "whi" in flags:
        if isinstance(alg, FiniteDoubleCategory):
            if is_whi_square(alg, image) is None:
                return False
        elif alg.s_vinverse(image) is None:
            return False
    return True


def _search(variables, constraints, budget: int | None, spent: int = 0):
    """Depth-first search over ordered variables with an explicit stack:
    ``_plan`` and ``_run`` once.

    ``variables`` is a list of ``(name, inputs, candidates)``:
    ``candidates(env)`` lists the images to try and reads only the bindings
    of ``inputs``, earlier variables (DanglingReference otherwise).
    ``constraints`` is a list of ``(inputs, check)``; each ``check(env)`` is
    tested right after the last of its inputs is bound, in list order.
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


def _plan(variables, constraints) -> tuple:
    """The plan of a search, without its candidate and check functions:
    ``variables`` are ``(name, inputs)`` pairs in depth order and
    ``constraints`` the inputs of each constraint.  Returns the names, per
    depth the earlier names its memo key reads in depth order (those its
    candidates and the checks tested there read), and per constraint the
    depth it is tested at: right after the last of its inputs is bound.
    Names and positions only, so one plan serves any number of runs.
    DanglingReference if a variable reads a name that is not a variable
    before it."""
    position: dict = {}
    reads: list[set] = []
    for depth, (name, inputs) in enumerate(variables):
        for read in inputs:
            if read not in position:
                raise DanglingReference(f"variable {name!r} reads {read!r}, "
                                        f"which is not a variable before it")
        reads.append(set(inputs))
        position[name] = depth
    depths = tuple(max(map(position.__getitem__, inputs)) for inputs in constraints)
    for depth, inputs in zip(depths, constraints):
        reads[depth].update(inputs)
    names = tuple(position)
    keys = tuple(tuple(sorted(read - {name}, key=position.get)) for name, read in zip(names, reads))
    return names, keys, depths


def _run(plan, candidates, checks, budget: int | None, spent: int = 0):
    """Run the search ``plan`` (``_plan``) with ``candidates[depth](env)``
    listing the images to try at each depth and ``checks[i](env)`` testing
    its ``i``-th constraint; returns what ``_search`` returns.

    Until it returns, the search holds each solution as the shallowest
    depth bound since the solution before and the images from there on
    (``_Solutions``): consecutive solutions share long prefixes, and a
    search that runs out of budget never builds a full row.

    Each depth memoizes, on the images of what its candidates and checks
    read, the candidates it accepts (``_accept``).  Rejected candidates are
    charged before the accepted one after them, or after the subtrees of
    the last, so the search spends and stops where trying candidates one at
    a time would.  A depth that accepts only its last candidate is bound
    without a stack frame.  ``env`` is never popped: its keys stay in depth
    order, and a deeper binding is overwritten before it is read again.
    The memos and the key functions live as long as the run.
    """
    budget = _environment_budget() if budget is None else budget
    names, reads, depths = plan
    if not names:
        return [()], spent
    keys = [itemgetter(*read) if read else _no_key for read in reads]
    at_depth: list[list] = [[] for _ in names]  # the checks tested at each depth, in list order
    for depth, check in zip(depths, checks):
        at_depth[depth].append(check)
    memos: list[dict] = [{} for _ in names]

    solutions = _Solutions()
    keep = solutions.keep
    env: dict = {}
    values = env.values()
    stack: list = []  # (depth, the accepted candidates left, the candidates after them)
    last = len(names) - 1
    depth = low = 0  # low: the shallowest depth bound since the last solution
    while True:
        memo, key = memos[depth], keys[depth](env)
        try:
            cost, image, rest = memo[key]
        except KeyError:
            cost, image, rest = memo[key] = _accept(candidates[depth], at_depth[depth],
                                                    names[depth], env)
        spent += cost
        if spent > budget:
            raise _exceeded(budget, names, depth, solutions)
        if image is not _NONE_ACCEPTED:
            env[names[depth]] = image
            if rest is not None:
                stack.append((depth, iter(rest[0]), rest[1]))
            if depth < last:
                depth += 1
                continue
            keep(low, values)
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
            env[names[depth]] = image
            if depth < low:
                low = depth
            if depth < last:
                depth += 1
                break
            keep(low, values)
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

    def keep(self, low, values):
        """Keep the solution whose images, in depth order, are ``values``,
        given that those before ``low`` are the last solution's."""
        if self.found % _CHUNK == 0:
            self._chunks.append([])
        chunk = self._chunks[-1]
        chunk.append(low)
        chunk.extend(islice(values, low, None))
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


def _accept(candidates, checks, name, env):
    """One depth's memo entry ``(cost, image, rest)``: ``image`` is the
    first candidate at ``name`` that passes ``checks`` and ``cost`` the
    number tried up to it.  ``rest`` is None if ``image`` was tried last;
    otherwise it holds the later accepted candidates, each with the number
    tried since the one before, and the number tried after them.  With
    none accepted, ``image`` is ``_NONE_ACCEPTED`` and ``cost`` the number
    tried."""
    accepted, cost = [], 0
    for image in candidates(env):
        cost += 1
        env[name] = image
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


def _candidates(alg, kind: str, gen: Gen):
    """The function that lists the candidate images of ``gen``, sorted,
    given the images of the generators its boundary names."""
    if gen.sort == "object":
        objects = sorted(alg.objects)
        return lambda env: objects
    query = getattr(alg, {"h": "hmors_between", "v": "vmors_between",
                          "sq": "squares_with"}[gen.sort])
    compiled = [ex.compile_expr(alg, b) for b in _bounds(kind, gen)]
    return lambda env: sorted(query(*[b(env) for b in compiled]))


def enumerate_canonical(pres: Presentation, alg, budget: int | None = None) -> list[tuple]:
    """All generator valuations into ``alg`` satisfying boundaries, flags,
    and relations, as sorted rows in the key order ``pres.keys``: the
    presentation's ``search_plan``, run with its boundaries and relations
    compiled in ``alg``."""
    if pres.kind == "two" and isinstance(alg, FiniteDoubleCategory):
        raise DanglingReference("two-category presentation needs a 2-category target")
    if pres.kind == "double" and isinstance(alg, FiniteTwoCategory):
        raise DanglingReference("double presentation needs a double category target")
    order, flagged, related, kernel, at = pres.search_plan
    candidates = [_candidates(alg, pres.kind, g) for g in order]
    # flag checks come first so that relations only see flagged images
    checks = [lambda env, name=g.name, flags=g.flags: _flag_ok(alg, flags, env[name])
              for g in flagged]
    for (lhs, rhs), inputs in zip(pres.relations, related):
        checks.append(_by_inputs(inputs, lambda env, lhs=ex.compile_expr(alg, lhs),
                                 rhs=ex.compile_expr(alg, rhs): lhs(env) == rhs(env)))
    rows, _ = _run(kernel, candidates, checks, budget)
    if len(at) > 1:  # from search order to key order, in place: one copy of the rows
        reorder = itemgetter(*at)
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
