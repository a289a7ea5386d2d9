"""Oriental shape families and the presented tensor shapes.

Materialized shapes: the 2-truncated orientals (hom-posets of endpoint-
containing subsets, composition by union), their invertible variants
(indiscrete hom-groupoids), boundaries and horns as free-hom path
categories, and the vertical double categories on them.

Presented shapes: the adjoint family (all gap edges adjoint equivalences,
covering cells invertible) with the maps between its levels, the
free-living 2-categorical shapes, and the generating cofibrations of both
model structures, each an inclusion of presentations
(``presentation.inclusion``).  The three-directional tensor levels, their
one-sided quotients and the comparison maps between those live in
``tensor``.

Which vertices, 1-cells and covering cells a variant has is decided once,
by one presence rule (``_present``), which every builder of an oriental,
materialized or presented, reads.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from . import expr as ex
from .dblcat import FiniteDoubleCategory, vertical_embed
from .errors import DanglingReference, RangeExceeded, monotone
from .presentation import (
    Presentation,
    PresentationBuilder,
    PresentationMorphism,
    adjoint_morphism,
    inclusion,
)
from .twocat import FiniteTwoCategory, assemble_two_category, validate_two_functor

# The largest n of the oriental families, materialized or presented.  On a
# 2-vCPU VM, at 5 every family serializes in under 0.2 s; at 6 building the
# invertible vertical double category takes 1.6 s, and at 7 building the
# invertible oriental alone takes 16 s.
SHAPE_CAP = 5


def _check_cap(n):
    if n < 0:
        raise RangeExceeded(f"n = {n} is negative")
    if n > SHAPE_CAP:
        raise RangeExceeded(f"n = {n} above the shape cap {SHAPE_CAP}")


# -- subsets ------------------------------------------------------------


def _interval_subsets(x, y):
    middle = range(x + 1, y)
    out = []
    for r in range(0, y - x):
        for chosen in combinations(middle, r):
            out.append((x,) + chosen + (y,))
    if x == y:
        return [(x,)]
    return sorted(out)


def _one_name(subset):
    return "[" + "".join(str(i) for i in subset) + "]"


def _two_name(lo, hi):
    return f"({_one_name(lo)}>{_one_name(hi)})"


def _jumps(subset):
    return [(subset[i], subset[i + 1]) for i in range(len(subset) - 1)]


# -- materialized orientals ---------------------------------------------


def oriental(n: int, invertible: bool = False) -> FiniteTwoCategory:
    """The 2-truncated n-oriental; with ``invertible`` every hom-category is
    the indiscrete groupoid on the same 1-cells.  One object per (n,
    invertible), however it is asked for.  RangeExceeded above SHAPE_CAP."""
    _check_cap(n)
    return _oriental(n, bool(invertible))


@cache
def _oriental(n, invertible):
    vertices, homs, _ = _present(n, "full", None)
    objects, one_bounds, id1, subset_of = _one_cells(vertices, homs)

    two_bounds, id2 = {}, {}
    for subs in homs.values():
        for lo in subs:
            for hi in subs:
                if invertible or set(lo) <= set(hi):
                    two_bounds[_two_name(lo, hi)] = (_one_name(lo), _one_name(hi))
    for f, s in subset_of.items():
        id2[f] = _two_name(s, s)

    vcomp2 = {}
    for c, (f1, g1) in two_bounds.items():
        for d, (f2, g2) in two_bounds.items():
            if g1 == f2:
                vcomp2[(d, c)] = _two_name(subset_of[f1], subset_of[g2])

    hcomp2 = {}
    for c, (f1, g1) in two_bounds.items():
        s1, t1 = subset_of[f1], subset_of[g1]
        for d, (f2, g2) in two_bounds.items():
            s2, t2 = subset_of[f2], subset_of[g2]
            if s1[-1] == s2[0]:
                hcomp2[(d, c)] = _two_name(_union(s1, s2), _union(t1, t2))

    return assemble_two_category(objects, one_bounds, two_bounds, id1, id2,
                                 _union_hcomp1(subset_of), vcomp2, hcomp2)


def _core(lo, hi):
    """The three-point core of the covering cell lo ⋖ hi: the point it adds
    and that point's neighbours in hi."""
    pos = hi.index((set(hi) - set(lo)).pop())
    return hi[pos - 1:pos + 2]


def _present(n, variant, t):
    """The cells of a variant of the n-oriental: its vertices, its 1-cells
    by end pair (x ≤ y, each hom in subset order) and its covering cells
    lo ⋖ hi, in that order.  A vertex, gap or covering cell is present iff
    its points (a covering cell's: its core, which is what generates it)
    together with a horn's t are not every vertex, so that they lie in a
    retained face; a boundary keeps every vertex.  A 1-cell is a subset all
    of whose gaps are present."""
    horn = {t} if variant == "horn" else set()

    def kept(points):
        return variant == "full" or set(points) | horn != set(range(n + 1))

    vertices = [x for x in range(n + 1) if variant == "boundary" or kept({x})]
    homs = {(x, y): [s for s in _interval_subsets(x, y) if all(map(kept, _jumps(s)))]
            for x in vertices for y in vertices if x <= y}
    covers = [(lo, hi) for subs in homs.values() for lo in subs for hi in subs
              if set(lo) < set(hi) and len(hi) == len(lo) + 1 and kept(_core(lo, hi))]
    return vertices, homs, covers


def _one_cells(vertices, homs):
    """The objects, 1-cell bounds and identities of a variant, and the
    subset of each 1-cell by name."""
    subset_of = {_one_name(s): s for subs in homs.values() for s in subs}
    return ([str(x) for x in vertices], {f: (str(s[0]), str(s[-1])) for f, s in subset_of.items()},
            {str(x): _one_name((x,)) for x in vertices}, subset_of)


def oriental_variant(family: str, n: int, variant: str, t: int | None = None):
    """Boundary and horn 2-categories of the oriental families.

    ``family`` in {"plain", "inverted", "adjoint"}; ``variant`` in {"full",
    "boundary", "horn"} (the latter takes ``t``).  Materialized as a
    FiniteTwoCategory where finite (plain: all cases; inverted: n ≤ 2 and
    full shapes); otherwise a Presentation is returned (adjoint family and
    non-full inverted shapes at n = 3 have infinite localized homs).
    """
    if variant == "horn":
        if t is None or not 0 <= t <= n or n < 1:
            raise RangeExceeded(f"bad horn index {t!r} for n={n}")
    elif variant not in ("full", "boundary"):
        raise DanglingReference(f"unknown variant {variant!r}")
    if n < 0:
        raise RangeExceeded("n must be non-negative")

    if family == "adjoint":
        if variant == "full":
            return oriental_adjoint_presentation(n)
        return _oriental_presentation(n, variant, t, adjoint=True)
    invertible = family == "inverted"
    if family not in ("plain", "inverted"):
        raise DanglingReference(f"unknown family {family!r}")

    if variant == "full" or n >= 4:
        return oriental(n, invertible)
    if variant == "boundary" and n == 0:
        return assemble_two_category([], {}, {}, {}, {}, {}, {}, {})
    if invertible and n == 3:
        # localizing the free diamond hom is infinite; present it instead
        return _oriental_presentation(n, variant, t, adjoint=False)
    return _materialize_variant(n, variant, t, invertible)


def _materialize_variant(n, variant, t, invertible):
    vertices, homs, covers = _present(n, variant, t)
    if invertible and covers:
        raise RangeExceeded("inverted non-full variants with 2-cells are presented, "
                            "not materialized")
    objects, one_bounds, id1, subset_of = _one_cells(vertices, homs)
    up = {}
    for lo, hi in covers:
        up.setdefault(lo, []).append(hi)

    # hom 2-cells are edge paths in the cover graph (free: the n=3 diamond
    # relation is exactly what boundaries and horns omit)
    two_bounds, id2 = {}, {}
    path_cells = {}
    for start in subset_of.values():
        stack = [(start, ())]
        while stack:
            cur, path = stack.pop()
            name = _path_name(start, path)
            if name not in two_bounds:
                two_bounds[name] = (_one_name(start), _one_name(cur))
                path_cells[name] = (start, cur, path)
                stack.extend((hi, path + ((cur, hi),)) for hi in up.get(cur, []))
    for f, s in subset_of.items():
        id2[f] = _path_name(s, ())

    vcomp2 = {}
    for c, (s1, t1, p1) in path_cells.items():
        for d, (s2, _, p2) in path_cells.items():
            if t1 == s2:
                vcomp2[(d, c)] = _path_name(s1, p1 + p2)

    hcomp2 = {}
    for c, (s1, t1, p1) in path_cells.items():
        for d, (s2, _, p2) in path_cells.items():
            if s1[-1] != s2[0]:
                continue
            whisk1 = tuple((_union(lo, s2), _union(hi, s2)) for lo, hi in p1)
            whisk2 = tuple((_union(lo, t1), _union(hi, t1)) for lo, hi in p2)
            hcomp2[(d, c)] = _path_name(_union(s1, s2), whisk1 + whisk2)

    return assemble_two_category(objects, one_bounds, two_bounds, id1, id2,
                                 _union_hcomp1(subset_of), vcomp2, hcomp2)


def _union(s, u):
    return tuple(sorted(set(s) | set(u)))


def _union_hcomp1(subset_of):
    table = {}
    for f, s in subset_of.items():
        for g, u in subset_of.items():
            if s[-1] == u[0]:
                table[(g, f)] = _one_name(_union(s, u))
    return table


def _path_name(start, path):
    if not path:
        return _two_name(start, start).replace(">", "=")
    steps = "|".join(_two_name(lo, hi) for lo, hi in path)
    return f"path({_one_name(start)};{steps})"


# -- presented oriental families -----------------------------------------


def _subset_expr(subset):
    if len(subset) == 1:
        return ex.hid(ex.ogen(str(subset[0])))
    return ex.hpath(*[ex.hgen(_one_name(j)) for j in _jumps(subset)])


def _oriental_presentation(n, variant, t, adjoint) -> Presentation:
    """Present an oriental family: gap-edge generators (optionally adjoint
    equivalences), invertible covering 2-cells, whisker
    identifications for non-basic covers, and diamond relations when the
    shape is full.  RangeExceeded above SHAPE_CAP."""
    _check_cap(n)
    label = f"oriental-pres({n},{variant},{t},{'adj' if adjoint else ''}inv)"
    b = PresentationBuilder("two", label)
    vertices, homs, covers = _present(n, variant, t)
    for x in vertices:
        b.add_object(str(x))
    for a, c in (s for subs in homs.values() for s in subs if len(s) == 2):
        b.add_hgen(_one_name((a, c)), ex.ogen(str(a)), ex.ogen(str(c)), adjoint=adjoint)
    for lo, hi in covers:
        b.add_cell2(_two_name(lo, hi), _subset_expr(lo), _subset_expr(hi), ("invertible",))

    # non-basic covers are whiskers of their three-point core
    for lo, hi in covers:
        core = _core(lo, hi)
        if core == hi:
            continue
        prefix = tuple(v for v in lo if v <= core[0])
        suffix = tuple(v for v in lo if v >= core[2])
        whisker = ex.sgen(_two_name((core[0], core[2]), core))
        if len(prefix) > 1:
            whisker = ex.shcomp(ex.sid_h(_subset_expr(prefix)), whisker)
        if len(suffix) > 1:
            whisker = ex.shcomp(whisker, ex.sid_h(_subset_expr(suffix)))
        b.add_relation(ex.sgen(_two_name(lo, hi)), whisker)

    if variant == "full":
        for lo, _ in covers:
            ups = sorted(set(hi for l2, hi in covers if l2 == lo))
            for h1, h2 in combinations(ups, 2):
                top = _union(h1, h2)
                b.add_relation(
                    ex.svcomp(ex.sgen(_two_name(lo, h1)), ex.sgen(_two_name(h1, top))),
                    ex.svcomp(ex.sgen(_two_name(lo, h2)), ex.sgen(_two_name(h2, top))),
                )
    return b.build()


def oriental_adjoint_presentation(n: int) -> Presentation:
    return _oriental_presentation(n, "full", None, adjoint=True)


def oriental_inv_presentation(n: int) -> Presentation:
    """Presentation of the invertible family by formal inversion; the
    independent oracle for the indiscrete-hom model."""
    return _oriental_presentation(n, "full", None, adjoint=False)


def oriental_inv(n: int) -> FiniteTwoCategory:
    """The oriental with every hom-category made indiscrete."""
    return oriental(n, invertible=True)


def v_oriental_inv(k: int) -> FiniteDoubleCategory:
    """Vertical double category on the invertible oriental, one object per k."""
    return _v_oriental_inv(k)


@cache
def _v_oriental_inv(k):
    return vertical_embed(oriental_inv(k))


# -- cosimplicial operators ----------------------------------------------


def coface(n: int, i: int):
    """Monotone injection [n] -> [n+1] skipping i, as a value list.
    RangeExceeded unless 0 ≤ i ≤ n + 1."""
    if n < 0 or not 0 <= i <= n + 1:
        raise RangeExceeded(f"coface {i} on [{n}]: need n ≥ 0 and 0 ≤ i ≤ n + 1")
    return [x if x < i else x + 1 for x in range(n + 1)]


def codegeneracy(n: int, j: int):
    """Monotone surjection [n+1] -> [n] repeating j.  RangeExceeded unless
    0 ≤ j ≤ n."""
    if not 0 <= j <= n:
        raise RangeExceeded(f"codegeneracy {j} on [{n}]: need 0 ≤ j ≤ n")
    return [x if x <= j else x - 1 for x in range(n + 2)]


def _subset_image(alpha, subset):
    return tuple(sorted({alpha[v] for v in subset}))


def oriental_functor(alpha, n_src, n_tgt, invertible=False):
    """2-functor between materialized orientals induced by a monotone map.
    RangeExceeded unless ``alpha`` is weakly monotone from [n_src] to [n_tgt]."""
    alpha = monotone(alpha, n_src, n_tgt)
    src = oriental(n_src, invertible)
    tgt = oriental(n_tgt, invertible)
    om = {str(x): str(alpha[x]) for x in range(n_src + 1)}
    one_map, two_map = {}, {}
    for f in src.one_cells:
        one_map[f] = _one_name(_subset_image(alpha, _subset_from_name(f)))
    for c in src.two_cells:
        lo, hi = _subsets_from_two_name(c)
        two_map[c] = _two_name(_subset_image(alpha, lo), _subset_image(alpha, hi))
    return validate_two_functor(src, tgt, om, one_map, two_map)


def _subset_from_name(name):
    return tuple(int(ch) for ch in name[1:-1])


def _subsets_from_two_name(name):
    lo, hi = name[1:-1].split(">")
    return _subset_from_name(lo), _subset_from_name(hi)


def oriental_presentation_map(alpha, n_src, n_tgt) -> PresentationMorphism:
    """Presentation morphism between adjoint orientals induced by a monotone
    map on vertices.  RangeExceeded unless ``alpha`` is weakly monotone from
    [n_src] to [n_tgt]."""
    alpha = monotone(alpha, n_src, n_tgt)

    def image_of(g):
        if g.sort == "object":
            return ex.ogen(str(alpha[int(g.name)]))
        if g.sort == "h":  # a gap edge, sent to the edge or vertex it spans
            return _subset_expr(_subset_image(alpha, _subset_from_name(g.name)))
        lo, hi = (_subset_image(alpha, s) for s in _subsets_from_two_name(g.name))
        return ex.sid_h(_subset_expr(lo)) if lo == hi else ex.sgen(_two_name(lo, hi))
    return adjoint_morphism(oriental_adjoint_presentation(n_src),
                            oriental_adjoint_presentation(n_tgt), image_of)


# -- free-living 2-categorical shapes and generating cofibrations ---------


def shape_2cat(family: str) -> Presentation:
    b = PresentationBuilder("two", f"shape({family})")
    if family == "E_adj":
        b.add_object("a")
        b.add_object("b")
        b.add_hgen("f", ex.ogen("a"), ex.ogen("b"), adjoint=True)
        return b.build()
    if family in ("C", "C_inv", "C2", "dC"):
        b.add_object("a")
        b.add_object("b")
        b.add_hgen("f", ex.ogen("a"), ex.ogen("b"))
        b.add_hgen("g", ex.ogen("a"), ex.ogen("b"))
        if family == "C":
            b.add_cell2("c", ex.hgen("f"), ex.hgen("g"))
        elif family == "C_inv":
            b.add_cell2("c", ex.hgen("f"), ex.hgen("g"), ("invertible",))
        elif family == "C2":
            b.add_cell2("c1", ex.hgen("f"), ex.hgen("g"))
            b.add_cell2("c2", ex.hgen("f"), ex.hgen("g"))
        return b.build()
    raise DanglingReference(f"unknown 2-categorical shape {family!r}")


def _point_presentation(kind) -> Presentation:
    b = PresentationBuilder(kind, "point")
    b.add_object("a")
    return b.build()


def _empty_presentation(kind) -> Presentation:
    return PresentationBuilder(kind, "empty").build()


def _two_points(kind) -> Presentation:
    b = PresentationBuilder(kind, "two-points")
    b.add_object("a")
    b.add_object("b")
    return b.build()


def _free_hmor(kind) -> Presentation:
    b = PresentationBuilder(kind, "free-h-arrow")
    b.add_object("a")
    b.add_object("b")
    b.add_hgen("f", ex.ogen("a"), ex.ogen("b"))
    return b.build()


def free_vmor_presentation() -> Presentation:
    b = PresentationBuilder("double", "free-v-arrow")
    b.add_object("a")
    b.add_object("b")
    b.add_vgen("u", ex.ogen("a"), ex.ogen("b"))
    return b.build()


def square_presentation(n_squares: int) -> Presentation:
    """Free double category on 0, 1, or 2 parallel squares."""
    b = PresentationBuilder("double", f"square({n_squares})")
    for name in ("00", "10", "01", "11"):
        b.add_object(name)
    b.add_hgen("f", ex.ogen("00"), ex.ogen("10"))
    b.add_hgen("f'", ex.ogen("01"), ex.ogen("11"))
    b.add_vgen("u", ex.ogen("00"), ex.ogen("01"))
    b.add_vgen("v", ex.ogen("10"), ex.ogen("11"))
    names = [], ["s"], ["s1", "s2"]
    for name in names[n_squares]:
        b.add_square(name, ex.hgen("f"), ex.hgen("f'"), ex.vgen("u"), ex.vgen("v"))
    return b.build()


def generating_cofibrations_dbl() -> dict[str, PresentationMorphism]:
    """The five generating cofibrations of the double-categorical model
    structure, as inclusions of presentations; I5 also identifies the two
    parallel squares."""
    two_pts, square = _two_points("double"), square_presentation(1)
    return {
        "I1": inclusion(_empty_presentation("double"), _point_presentation("double")),
        "I2": inclusion(two_pts, _free_hmor("double")),
        "I3": inclusion(two_pts, free_vmor_presentation()),
        "I4": inclusion(square_presentation(0), square),
        "I5": inclusion(square_presentation(2), square, s1=ex.sgen("s"), s2=ex.sgen("s")),
    }


def generating_cofibrations_two() -> dict[str, PresentationMorphism]:
    """Lack's generating cofibrations (I2 set) and trivial cofibrations (J2),
    as inclusions of presentations; i4 also identifies the two parallel
    2-cells."""
    point, arrow, c_shape = _point_presentation("two"), _free_hmor("two"), shape_2cat("C")
    return {
        "i1": inclusion(_empty_presentation("two"), point),
        "i2": inclusion(_two_points("two"), arrow),
        "i3": inclusion(shape_2cat("dC"), c_shape),
        "i4": inclusion(shape_2cat("C2"), c_shape, c1=ex.sgen("c"), c2=ex.sgen("c")),
        "j1": inclusion(point, shape_2cat("E_adj")),
        "j2": inclusion(arrow, shape_2cat("C_inv")),
    }
