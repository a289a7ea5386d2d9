"""Oriental shape families and the presented tensor shapes.

Materialized shapes: the 2-truncated orientals (hom-posets of endpoint-
containing subsets, composition by union), their invertible variants
(indiscrete hom-groupoids), boundaries and horns as free-hom path
categories, and the vertical double categories on them.

Presented shapes: the adjoint family (all gap edges adjoint equivalences,
covering cells invertible) with the maps between its levels, the
free-living 2-categorical shapes, and the generating cofibrations of both
model structures.  The three-directional tensor levels, their one-sided
quotients and the comparison maps between those live in ``tensor``.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from . import expr as ex
from .dblcat import FiniteDoubleCategory, vertical_embed
from .errors import DanglingReference, RangeExceeded, monotone
from .presentation import Presentation, PresentationBuilder, PresentationMorphism, adjoint_morphism
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
    objects = [str(i) for i in range(n + 1)]
    one_bounds, id1 = {}, {}
    homs = {}
    for x in range(n + 1):
        for y in range(x, n + 1):
            subs = _interval_subsets(x, y)
            homs[(x, y)] = subs
            for s in subs:
                one_bounds[_one_name(s)] = (str(x), str(y))
        id1[str(x)] = _one_name((x,))

    subset_of = {_one_name(s): s for (x, y), subs in homs.items() for s in subs}

    two_bounds, id2 = {}, {}
    for (x, y), subs in homs.items():
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


def _variant_vertex_present(n, variant, t, x):
    if variant == "full" or variant == "boundary":
        return True
    others = set(range(n + 1)) - {t, x}
    return bool(others) or x == t


def _variant_gap_present(n, variant, t, a, b):
    if variant == "full":
        return True
    if variant == "boundary":
        return set(range(n + 1)) != {a, b}
    return set(range(n + 1)) != {a, b} | {t}


def _variant_cover_present(n, variant, t, lo, hi):
    """A covering cell lo ⋖ hi is generated by the faces iff its three-point
    core avoids some retained face."""
    added = (set(hi) - set(lo)).pop()
    pos = hi.index(added)
    core = {hi[pos - 1], added, hi[pos + 1]}
    if variant == "full":
        return True
    if variant == "boundary":
        return core != set(range(n + 1))
    return core | {t} != set(range(n + 1))


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
    objects = [str(x) for x in range(n + 1) if _variant_vertex_present(n, variant, t, x)]
    vertex_ok = {int(o) for o in objects}

    def one_present(subset):
        if len(subset) == 1:
            return subset[0] in vertex_ok
        return all(_variant_gap_present(n, variant, t, a, b) for a, b in _jumps(subset))

    one_bounds, id1, subset_of = {}, {}, {}
    for x in sorted(vertex_ok):
        for y in sorted(vertex_ok):
            if y < x:
                continue
            for s in _interval_subsets(x, y):
                if one_present(s):
                    one_bounds[_one_name(s)] = (str(x), str(y))
                    subset_of[_one_name(s)] = s
        id1[str(x)] = _one_name((x,))

    covers = {}
    for s in subset_of.values():
        for u in subset_of.values():
            if set(s) < set(u) and len(u) == len(s) + 1 and s[0] == u[0] and s[-1] == u[-1]:
                if _variant_cover_present(n, variant, t, s, u):
                    covers.setdefault((s[0], s[-1]), []).append((s, u))

    if invertible and any(covers.values()):
        raise RangeExceeded("inverted non-full variants with 2-cells are presented, not materialized")

    # hom 2-cells are edge paths in the cover graph (free: the n=3 diamond
    # relation is exactly what boundaries and horns omit)
    two_bounds, id2 = {}, {}
    path_cells = {}
    for x in sorted(vertex_ok):
        for y in sorted(vertex_ok):
            if y < x:
                continue
            starts = [s for s in subset_of.values() if s[0] == x and s[-1] == y]
            for start in starts:
                stack = [(start, ())]
                while stack:
                    cur, path = stack.pop()
                    name = _path_name(start, path)
                    if name not in two_bounds:
                        two_bounds[name] = (_one_name(start), _one_name(cur))
                        path_cells[name] = (start, cur, path)
                        for (lo, hi) in covers.get((x, y), []):
                            if lo == cur:
                                stack.append((hi, path + ((lo, hi),)))
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
    vertices = [x for x in range(n + 1) if _variant_vertex_present(n, variant, t, x)]
    for x in vertices:
        b.add_object(str(x))
    gaps = []
    for a in vertices:
        for c in vertices:
            if a < c and _variant_gap_present(n, variant, t, a, c):
                gaps.append((a, c))
                b.add_hgen(_one_name((a, c)), ex.ogen(str(a)), ex.ogen(str(c)), adjoint=adjoint)

    covers = []
    for a, c in [(a, c) for a in vertices for c in vertices if a < c]:
        subs = [s for s in _interval_subsets(a, c) if all(j in gaps for j in _jumps(s))]
        for lo in subs:
            for hi in subs:
                if set(lo) < set(hi) and len(hi) == len(lo) + 1:
                    if _variant_cover_present(n, variant, t, lo, hi):
                        covers.append((lo, hi))
                        b.add_cell2(_two_name(lo, hi), _subset_expr(lo), _subset_expr(hi),
                                    ("invertible",))

    # non-basic covers are whiskers of their three-point core
    for lo, hi in covers:
        added = (set(hi) - set(lo)).pop()
        pos = hi.index(added)
        core_lo = (hi[pos - 1], hi[pos + 1])
        core_hi = (hi[pos - 1], added, hi[pos + 1])
        if core_hi == hi:
            continue
        prefix = tuple(v for v in lo if v <= core_lo[0])
        suffix = tuple(v for v in lo if v >= core_lo[1])
        whisker = ex.sgen(_two_name(core_lo, core_hi))
        if len(prefix) > 1:
            whisker = ex.shcomp(ex.sid_h(_subset_expr(prefix)), whisker)
        if len(suffix) > 1:
            whisker = ex.shcomp(whisker, ex.sid_h(_subset_expr(suffix)))
        b.add_relation(ex.sgen(_two_name(lo, hi)), whisker)

    if variant == "full":
        for lo, _ in covers:
            ups = sorted(set(hi for l2, hi in covers if l2 == lo))
            for h1 in ups:
                for h2 in ups:
                    if h1 >= h2:
                        continue
                    top = _union(h1, h2)
                    if len(top) != len(lo) + 2:
                        continue
                    if (h1, top) in covers and (h2, top) in covers:
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
    structure, as presentation morphisms."""
    point = _point_presentation("double")
    two_pts = _two_points("double")
    h_arrow = _free_hmor("double")
    v_arrow = free_vmor_presentation()
    boundary = square_presentation(0)
    square = square_presentation(1)
    parallel = square_presentation(2)
    incl = {
        "I1": PresentationMorphism(_empty_presentation("double"), point, {}),
        "I2": PresentationMorphism(two_pts, h_arrow, {"a": ex.ogen("a"), "b": ex.ogen("b")}),
        "I3": PresentationMorphism(two_pts, v_arrow, {"a": ex.ogen("a"), "b": ex.ogen("b")}),
        "I4": PresentationMorphism(
            boundary, square,
            {"00": ex.ogen("00"), "10": ex.ogen("10"), "01": ex.ogen("01"), "11": ex.ogen("11"),
             "f": ex.hgen("f"), "f'": ex.hgen("f'"), "u": ex.vgen("u"), "v": ex.vgen("v")},
        ),
        "I5": PresentationMorphism(
            parallel, square,
            {"00": ex.ogen("00"), "10": ex.ogen("10"), "01": ex.ogen("01"), "11": ex.ogen("11"),
             "f": ex.hgen("f"), "f'": ex.hgen("f'"), "u": ex.vgen("u"), "v": ex.vgen("v"),
             "s1": ex.sgen("s"), "s2": ex.sgen("s")},
        ),
    }
    return incl


def generating_cofibrations_two() -> dict[str, PresentationMorphism]:
    """Lack's generating cofibrations (I2 set) and trivial cofibrations (J2)."""
    point = _point_presentation("two")
    two_pts = _two_points("two")
    arrow = _free_hmor("two")
    c_shape = shape_2cat("C")
    dc = shape_2cat("dC")
    c2 = shape_2cat("C2")
    c_inv = shape_2cat("C_inv")
    e_adj = shape_2cat("E_adj")
    base = {"a": ex.ogen("a"), "b": ex.ogen("b"), "f": ex.hgen("f"), "g": ex.hgen("g")}
    return {
        "i1": PresentationMorphism(_empty_presentation("two"), point, {}),
        "i2": PresentationMorphism(two_pts, arrow, {"a": ex.ogen("a"), "b": ex.ogen("b")}),
        "i3": PresentationMorphism(dc, c_shape, dict(base)),
        "i4": PresentationMorphism(c2, c_shape, dict(base, c1=ex.sgen("c"), c2=ex.sgen("c"))),
        "j1": PresentationMorphism(point, e_adj, {"a": ex.ogen("a")}),
        "j2": PresentationMorphism(arrow, c_inv,
                                   {"a": ex.ogen("a"), "b": ex.ogen("b"), "f": ex.hgen("f")}),
    }
