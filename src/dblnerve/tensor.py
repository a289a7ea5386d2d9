"""Three-directional tensor shapes and their one-sided quotients.

``x_presentation(m, k, n)`` presents the double category whose functors
into A are the (m, k, n)-cells of the bisimplicial nerve: one object per
coordinate triple, horizontal generators in the m- and n-directions (the
latter adjoint equivalences), vertical generators in the k-direction,
naturality squares for each mixed pair of directions (weak-inverse-
admitting squares against the n-direction), invertible interchangers
across the m/n directions, covering cells per direction at width two, and
the pseudo-naturality and modification relations instantiated on
generators.  The supported grid is m, k, n ≤ 2; the nerve engine
cross-checks these presentations against structural descriptions of the
same cells built without any relation search.

The m- and n-directions are both horizontal over the vertical
k-direction, so their generators, naturality squares (A against B),
covering cells (M against N), the covering cells' laws against the
interchangers X (``against_x``) and section images are written once, over
one coordinate table (``_AXES``).  One rule, ``_name``, names every
generator: its kind's letter, then the point or gap it occupies in each
direction of the table, joined by dots.

``lx_presentations`` derives the two 2-categorical quotients (vertical
generators collapsed, respectively turned into adjoint equivalences)
together with the comparison generator maps in both directions.  Each
quotient has one translation rule.  The plain one is substitution along
one generator map per level, ``plain_map``, which sends each object to
its class, each vertical generator to the identity on its class and
every other generator to itself: it gives the plain presentation, its
relations, its level maps and the collapse map, and the section and
level maps read each class's k = 0 object from it.  The equivalence one
turns vertical generators into horizontal ones and conjugates squares
into 2-cells (``_tr_v_as_h``, ``_conjugate``, which carries each
pasting's boundary along in the same pass).  ``level_map`` realizes
the faces and degeneracies between levels: one image per generator of
the double presentation, passed through the rule of either quotient
(``_translate``).
"""

from __future__ import annotations

from functools import cache
from itertools import product

from . import expr as ex
from .errors import DisagreementBug, RangeExceeded, monotone, named
from .presentation import (
    Presentation,
    PresentationBuilder,
    PresentationMorphism,
    adjoint_morphism,
    substitute,
)

GRID = (2, 2, 2)
AXIS = {"m": 0, "k": 1, "n": 2}  # the place of each direction in a level (m, k, n)


def _gaps(size):
    return [(a, b) for a in range(size + 1) for b in range(size + 1) if a < b]


# directions of the coordinates of each generator kind in the metadata of
# ``x_presentation``; a covering cell spans (0, 2) in the direction it lacks
_AXES = {"obj": "mkn", "m": "mkn", "n": "nmk", "k": "kmn", "A": "mkn", "B": "nkm",
         "X": "mnk", "T": "mn", "M": "kn", "N": "mk"}
_KIND_OF_GAPS = {"": "obj", "m": "m", "n": "n", "k": "k", "mk": "A", "kn": "B", "mn": "X"}
# the name format of each kind: its letter, then its coordinates in ``_AXES``
# order joined by dots, a gap written as its two ends
_GAPS = {kind: gaps for gaps, kind in _KIND_OF_GAPS.items()}
_FORMATS = {tag: ("o" if tag == "obj" else tag) + ".".join(
    f"{{{i}[0]}}{{{i}[1]}}" if d in _GAPS.get(tag, "") else f"{{{i}}}"
    for i, d in enumerate(axes)) for tag, axes in _AXES.items()}
_SORTS = {"obj": ex.ogen, "m": ex.hgen, "n": ex.hgen, "k": ex.vgen}
# the naturality squares of each horizontal direction against the k-direction
_NATURALITY = {"m": "A", "n": "B"}


def _coords(tag, at):
    return tuple(at[d] for d in _AXES[tag])


@cache  # names repeat across levels, and str.format parses its template on each call
def _name(tag, *coords):
    """The name of the generator of kind ``tag`` at ``coords``, its point or
    gap in each direction of ``_AXES[tag]``."""
    return _FORMATS[tag].format(*coords)


def _cell(tag, *coords):
    """The generator of kind ``tag`` at ``coords``, as an expression."""
    return _SORTS.get(tag, ex.sgen)(_name(tag, *coords))


def _gen(tag, at):
    """The generator of kind ``tag`` at ``at`` (direction -> point or gap),
    as an expression."""
    return _cell(tag, *_coords(tag, at))


def x_presentation(m: int, k: int, n: int):
    """Presentation of the (m, k, n) tensor level plus generator metadata,
    built once per level."""
    return _x_presentation(m, k, n)


@cache
def _x_presentation(m, k, n):
    if not (0 <= m <= GRID[0] and 0 <= k <= GRID[1] and 0 <= n <= GRID[2]):
        raise RangeExceeded(f"(m, k, n) = {(m, k, n)} outside the supported grid {GRID}")
    b = PresentationBuilder("double", f"x{(m, k, n)}")
    meta: dict[str, tuple] = {}

    def add(tag, at, adder, *bounds, **options):
        coords = _coords(tag, at)
        name = _name(tag, *coords)
        adder(name, *bounds, **options)
        meta[name] = (tag, *coords)

    for x, y, z in product(range(m + 1), range(k + 1), range(n + 1)):
        add("obj", {"m": x, "k": y, "n": z}, b.add_object)

    mgaps, kgaps, ngaps = _gaps(m), _gaps(k), _gaps(n)

    def horizontal(d, at):
        """The generators in direction ``d`` over the gap ``at[d]``, one per
        height, then their naturality squares against the k-direction.  In
        the n-direction the generators are adjoint equivalences and the
        squares admit weak inverses."""
        lo, hi = ({**at, d: c} for c in at[d])
        for y in range(k + 1):
            add(d, {**at, "k": y}, b.add_hgen, _gen("obj", {**lo, "k": y}),
                _gen("obj", {**hi, "k": y}), adjoint=d == "n")
        for kgap in kgaps:
            add(_NATURALITY[d], {**at, "k": kgap}, b.add_square,
                _gen(d, {**at, "k": kgap[0]}), _gen(d, {**at, "k": kgap[1]}),
                _gen("k", {**lo, "k": kgap}), _gen("k", {**hi, "k": kgap}),
                flags=("whi",) if d == "n" else ())

    def cover(d, at):
        """The invertible covering cell of the width-two gap in direction ``d``."""
        add(d.upper(), at, b.add_square, _gen(d, {**at, d: (0, 2)}),
            ex.hpath(_gen(d, {**at, d: (0, 1)}), _gen(d, {**at, d: (1, 2)})),
            ex.vid(_gen("obj", {**at, d: 0})), ex.vid(_gen("obj", {**at, d: 2})),
            flags=("invertible",))

    # emit generators in coordinate-local blocks so that, during the
    # backtracking enumeration, constraints between nearby cells fire before
    # distant object images pile up
    for z in range(n + 1):
        for x in range(m + 1):
            for gap in kgaps:
                add("k", {"k": gap, "m": x, "n": z}, b.add_vgen,
                    _cell("obj", x, gap[0], z), _cell("obj", x, gap[1], z))
            if k == 2:
                add("T", {"m": x, "n": z}, b.add_square,
                    ex.hid(_cell("obj", x, 0, z)), ex.hid(_cell("obj", x, 2, z)),
                    _cell("k", (0, 2), x, z),
                    ex.vpath(_cell("k", (0, 1), x, z), _cell("k", (1, 2), x, z)),
                    flags=("h_invertible",))
            for mgap in [g for g in mgaps if g[1] == x]:
                horizontal("m", {"m": mgap, "n": z})
            if m == 2 and x == 2:
                for y in range(k + 1):
                    cover("m", {"k": y, "n": z})
        for ngap in [g for g in ngaps if g[1] == z]:
            for x in range(m + 1):
                horizontal("n", {"n": ngap, "m": x})
                for mgap in [g for g in mgaps if g[1] == x]:
                    for y in range(k + 1):
                        add("X", {"m": mgap, "n": ngap, "k": y}, b.add_square,
                            ex.hpath(_cell("n", ngap, mgap[0], y), _cell("m", mgap, y, ngap[1])),
                            ex.hpath(_cell("m", mgap, y, ngap[0]), _cell("n", ngap, mgap[1], y)),
                            ex.vid(_cell("obj", mgap[0], y, ngap[0])),
                            ex.vid(_cell("obj", mgap[1], y, ngap[1])),
                            flags=("invertible",))
        if n == 2 and z == 2:
            for x, y in product(range(m + 1), range(k + 1)):
                cover("n", {"m": x, "k": y})

    sh = ex.sid_h

    def against_t(d, at):
        """Pseudo-naturality of the d-direction transformation over the gap
        ``at[d]`` against the k-direction covering square."""
        nat = _NATURALITY[d]
        lo, hi = ({**at, d: c} for c in at[d])
        chain = ex.svcomp(_gen(nat, {**at, "k": (0, 1)}), _gen(nat, {**at, "k": (1, 2)}))
        b.add_relation(ex.shcomp(_gen("T", lo), chain),
                       ex.shcomp(_gen(nat, {**at, "k": (0, 2)}), _gen("T", hi)))

    if k == 2:
        for mgap, z in product(mgaps, range(n + 1)):
            against_t("m", {"m": mgap, "n": z})

    # pseudo-naturality of n-direction transformations against the mixed
    # naturality squares (the square-space pasting equality)
    for ngap in ngaps:
        for mgap in mgaps:
            for kgap in kgaps:
                z, z2 = ngap
                lhs = ex.svcomp(
                    _cell("X", mgap, ngap, kgap[0]),
                    ex.shcomp(_cell("A", mgap, kgap, z), _cell("B", ngap, kgap, mgap[1])),
                )
                rhs = ex.svcomp(
                    ex.shcomp(_cell("B", ngap, kgap, mgap[0]), _cell("A", mgap, kgap, z2)),
                    _cell("X", mgap, ngap, kgap[1]),
                )
                b.add_relation(lhs, rhs)

    if k == 2:
        for ngap, x in product(ngaps, range(m + 1)):
            against_t("n", {"n": ngap, "m": x})

    size = {"m": m, "n": n}

    def against_x(d, e):
        """The d-direction covering cell against the interchangers over each
        gap in direction e.  X runs from "n then m" to "m then n", so against
        the n-cover the two whiskered covers change places, and so do the
        two X-factors."""
        for (p, p2), y in product(_gaps(size[e]), range(k + 1)):
            at = {e: (p, p2), "k": y}
            covers = [ex.shcomp(_gen(d.upper(), {**at, e: p}), sh(_gen(e, {**at, d: 2}))),
                      ex.shcomp(sh(_gen(e, {**at, d: 0})), _gen(d.upper(), {**at, e: p2}))]
            xs = [ex.shcomp(_gen("X", {**at, d: (0, 1)}), sh(_gen(d, {**at, d: (1, 2), e: p2}))),
                  ex.shcomp(sh(_gen(d, {**at, d: (0, 1), e: p})), _gen("X", {**at, d: (1, 2)}))]
            if d == "n":
                covers.reverse()
                xs.reverse()
            b.add_relation(ex.svcomp(_gen("X", {**at, d: (0, 2)}), covers[0]),
                           ex.svcomp(covers[1], ex.svcomp(*xs)))

    if m == 2:
        against_x("m", "n")

    # m- and n-covering modifications against the k-direction verticals
    for d, e in ("mn", "nm"):
        if size[d] < 2:
            continue
        nat, cov = _NATURALITY[d], d.upper()
        for kgap, p in product(kgaps, range(size[e] + 1)):
            at = {"k": kgap, e: p}
            lhs = ex.svcomp(_gen(nat, {**at, d: (0, 2)}), _gen(cov, {**at, "k": kgap[1]}))
            rhs = ex.svcomp(
                _gen(cov, {**at, "k": kgap[0]}),
                ex.shcomp(_gen(nat, {**at, d: (0, 1)}), _gen(nat, {**at, d: (1, 2)})),
            )
            b.add_relation(lhs, rhs)

    if n == 2:
        against_x("n", "m")

    return b.build(), meta


# -- symbolic boundaries -------------------------------------------------


def _ends(pres: Presentation, e):
    """Source and target objects of a horizontal or vertical 1-cell expression."""
    tag = e[0]
    if tag in ("hgen", "vgen"):
        return pres.gen(e[1]).bounds
    if tag in ("hid", "vid"):
        return (e[1], e[1])
    if tag in ("hcomp", "vcomp"):
        return (_ends(pres, e[1])[0], _ends(pres, e[2])[1])
    raise RangeExceeded(f"not a 1-cell expression: {e!r}")


# -- quotient presentations ---------------------------------------------


@cache
def plain_map(m: int, k: int, n: int) -> dict:
    """The generator map of the (m, k, n) double presentation onto its plain
    quotient: each object to its class, the objects that share its m- and
    n-coordinates, each vertical generator to the identity on its class,
    and every other generator to itself.  Built once per level."""
    xp, meta = x_presentation(m, k, n)
    out = {}
    for g in xp.gens:
        if g.sort == "object":
            out[g.name] = ex.ogen(f"q{meta[g.name][1]}.{meta[g.name][3]}")
        elif g.sort == "v":
            out[g.name] = ex.vid(out[g.bounds[0][1]])
        else:
            out[g.name] = (ex.LEAF_TAGS[g.sort], g.name)
    return out


def _lifts(m, k, n):
    """The k = 0 object of each class of the plain quotient's objects."""
    meta = x_presentation(m, k, n)[1]
    return {image[1]: name for name, image in plain_map(m, k, n).items()
            if image[0] == "ogen" and meta[name][2] == 0}


def _tr_v_as_h(v):
    tag = v[0]
    if tag == "vgen":
        return ex.hgen(v[1])
    if tag == "vid":
        return ex.hid(v[1])
    if tag == "vcomp":
        return ex.hcomp(_tr_v_as_h(v[1]), _tr_v_as_h(v[2]))
    raise RangeExceeded(f"not a v-expression: {v!r}")


def _conjugate(pres: Presentation, s):
    """The square pasting ``s`` of the tensor shape ``pres`` in its
    adjoint-equivalence quotient: (cell, top, bottom, left, right), the
    2-cell pasting there and the boundary of ``s``, its vertical sides
    turned horizontal.  A square becomes the 2-cell top·right ⇒ left·bottom
    and compositions conjugate accordingly, in one pass over ``s``."""
    tag = s[0]
    if tag == "sgen":
        top, bottom, left, right = pres.gen(s[1]).bounds
        return s, top, bottom, _tr_v_as_h(left), _tr_v_as_h(right)
    if tag == "sid_h":
        a, b = _ends(pres, s[1])
        return s, s[1], s[1], ex.hid(a), ex.hid(b)
    if tag == "sid_v":
        a, b = _ends(pres, s[1])
        side = _tr_v_as_h(s[1])
        return ex.sid_h(side), ex.hid(a), ex.hid(b), side, side
    if tag == "shcomp":
        left, l_top, l_bottom, l_left, _ = _conjugate(pres, s[1])
        right, r_top, r_bottom, _, r_right = _conjugate(pres, s[2])
        return (ex.svcomp(ex.shcomp(ex.sid_h(l_top), right), ex.shcomp(left, ex.sid_h(r_bottom))),
                ex.hcomp(l_top, r_top), ex.hcomp(l_bottom, r_bottom), l_left, r_right)
    if tag == "svcomp":
        top, t_top, _, t_left, t_right = _conjugate(pres, s[1])
        bottom, _, b_bottom, b_left, b_right = _conjugate(pres, s[2])
        return (ex.svcomp(ex.shcomp(top, ex.sid_h(b_right)), ex.shcomp(ex.sid_h(t_left), bottom)),
                t_top, b_bottom, ex.hcomp(t_left, b_left), ex.hcomp(t_right, b_right))
    raise RangeExceeded(f"unsupported square expression: {s!r}")


def lx_presentations(m: int, k: int, n: int):
    """The two 2-categorical quotients of the (m, k, n) tensor level and the
    comparison generator maps.

    Returns (plain, equivalence, collapse, section): the quotients by the
    rules of ``_translate``, ``plain`` the image under ``plain_map`` of the
    double presentation but its vertical generators; ``collapse`` maps the
    equivalence quotient onto the plain one as ``plain_map`` does, but each
    vertical generator to the horizontal identity on its class; ``section``
    goes the other way with collapse ∘ section the identity on generators.  Pullback along
    ``collapse`` realizes the comparison of the two 2-categorical nerves;
    pullback along ``section`` retracts it.  Built once per level.
    """
    return _lx_presentations(m, k, n)


@cache
def _lx_presentations(m, k, n):
    xp, meta = x_presentation(m, k, n)
    expansion = xp.expansion_gens()
    pmap, lifts = plain_map(m, k, n), _lifts(m, k, n)

    # plain quotient: the image of every generator but the vertical ones
    # under the plain map, each class of objects once
    bl = PresentationBuilder("two", f"lx{(m, k, n)}")
    for name in lifts:
        bl.add_object(name)
    for g in xp.gens:
        if g.name in expansion or g.sort in ("object", "v"):
            continue
        bounds = [substitute(b, pmap) for b in g.bounds]
        if g.sort == "h":
            bl.add_hgen(g.name, *bounds, adjoint=bool(g.adjoint))
        else:
            bl.add_cell2(g.name, *bounds[:2], ["invertible"] if g.flags else [])

    # equivalence quotient: vertical generators become adjoint equivalences
    bs = PresentationBuilder("two", f"lsimx{(m, k, n)}")
    for g in xp.gens:
        if g.name in expansion:
            continue
        if g.sort == "object":
            bs.add_object(g.name)
        elif g.sort in ("h", "v"):
            bs.add_hgen(g.name, *g.bounds, adjoint=bool(g.adjoint) or g.sort == "v")
        else:
            _, top, bottom, left, right = _conjugate(xp, ex.sgen(g.name))
            bs.add_cell2(g.name, ex.hcomp(top, right), ex.hcomp(left, bottom),
                         ["invertible"] if g.flags else [])

    # the relations but the triangle laws, translated into each quotient,
    # where two of them may coincide
    for builder, variant in ((bl, "l"), (bs, "lsim")):
        seen = set()
        for idx, pair in enumerate(xp.relations):
            if idx in xp.expansion_relations:
                continue
            pair = tuple(_translate(variant, (m, k, n), side) for side in pair)
            if pair not in seen:
                seen.add(pair)
                builder.add_relation(*pair)
    plain, equivalence = bl.build(), bs.build()

    def collapse_image(g):  # a vertical generator goes to the identity on its class
        image = pmap[g.name]
        return ex.hid(image[1]) if image[0] == "vid" else image
    collapse = adjoint_morphism(equivalence, plain, collapse_image)
    section = adjoint_morphism(plain, equivalence, _section_map(meta, lifts, equivalence))

    # collapse ∘ section must be the identity generator-wise, except where a
    # cell routes through the k = 2 vertical covering loop
    composite = collapse.after(section)
    for g in plain.gens:
        if _reduce(composite.gen_map[g.name]) == (ex.LEAF_TAGS[g.sort], g.name):
            continue
        kind = meta.get(g.name, ("?",))
        if kind[0] == "T" or (kind[0] in ("A", "B") and kind[2] == (1, 2)):
            continue
        raise DisagreementBug(f"retract identity fails at generator {g.name!r}")

    return plain, equivalence, collapse, section


def _section_map(meta, lifts, equivalence):
    """The image under the section of the collapse map of each generator
    of the plain quotient that no adjoint expansion added, for
    ``adjoint_morphism``, which sends the partner, unit and counit of an
    n-direction generator after its image, a path of adjoint generators.

    Each class of objects goes to its k = 0 object (``lifts``).  Morphism
    generators are conjugated through the (0, y) vertical-gap
    equivalences; 2-cell generators are transported by whiskering with the
    units and counits that ``equivalence`` records for them.  At k = 2 the
    cells touching the (1, 2) gap additionally route through the vertical
    covering cell, whose collapse-image is a possibly non-identity loop; the
    composite with the collapse map is then the identity only up to that
    loop (exactly on locally discrete targets).  The m- and n-directions
    follow one rule, keyed on the direction ``d`` that a kind spans.
    """
    adjoints, H, W = equivalence.adjoints, ex.hgen, ex.whisker

    def conj(at, **move):
        """The vertical generator over the (0, y) gap at ``at`` moved by
        ``move``, y its k-coordinate; None at y = 0."""
        c = {**at, **move}
        return None if c["k"] == 0 else _name("k", (0, c["k"]), c["m"], c["n"])

    def star(v):
        return adjoints[v][0]

    def unit(v):
        return adjoints[v][1]

    def counit(v):
        return adjoints[v][2]

    def image_of(g):
        name = g.name
        if g.sort == "object":
            return ex.ogen(lifts[name])
        tag = meta[name][0]
        at = dict(zip(_AXES[tag], meta[name][1:]))
        d = "m" if tag in ("m", "A", "M") else "n"
        if tag in ("m", "n"):
            if at["k"] == 0:
                return H(name)
            lo, hi = (conj(at, **{d: c}) for c in at[d])
            return ex.hpath(H(lo), H(name), star(hi))
        if tag in ("A", "B"):
            lo, hi = ({**at, d: c} for c in at[d])
            kgap = at["k"]
            if kgap[0] == 0:
                v = conj(hi, k=kgap[1])
                return ex.svcomp(W(_gen(d, {**at, "k": 0}), unit(v), None),
                                 W(None, ex.sgen(name), star(v)))
            # the (1, 2) gap at k = 2 routes through the covering cell T at lo,
            # and T at hi, (p;v) => q, through its mate (v*;p*) => q*
            g1, p, g2, q = conj(lo, k=1), conj(hi, k=1), conj(lo, k=2), conj(hi, k=2)
            v = _name("k", (1, 2), hi["m"], hi["n"])
            h1, h2 = _gen(d, {**at, "k": 1}), _gen(d, {**at, "k": 2})
            vp = ex.hpath(star(v), star(p))
            s1 = W(ex.hpath(H(g1), h1), unit(v), star(p))
            s2 = W(H(g1), ex.sgen(name), vp)
            s3 = W(None, _gen("T", lo), ex.hpath(h2, star(v), star(p)))
            m1 = W(vp, unit(q), None)
            m2 = W(vp, W(None, ex.sinv_v(_gen("T", hi)), star(q)), None)
            m3 = W(star(v), W(None, counit(p), ex.hpath(H(v), star(q))), None)
            m4 = W(None, counit(v), star(q))
            s4 = W(ex.hpath(H(g2), h2), ex.svcomp(m1, ex.svcomp(m2, ex.svcomp(m3, m4))), None)
            return ex.svcomp(s1, ex.svcomp(s2, ex.svcomp(s3, s4)))
        if tag == "X":
            (x, x2), (z, z2), y = at["m"], at["n"], at["k"]
            if y == 0:
                return ex.sgen(name)
            g1, g2 = conj(at, m=x, n=z), conj(at, m=x, n=z2)
            g3, g4 = conj(at, m=x2, n=z2), conj(at, m=x2, n=z)
            s1 = W(ex.hpath(H(g1), _cell("n", at["n"], x, y)), counit(g2),
                   ex.hpath(_cell("m", at["m"], y, z2), star(g3)))
            s2 = W(H(g1), ex.sgen(name), star(g3))
            s3 = W(ex.hpath(H(g1), _cell("m", at["m"], y, z)), ex.sinv_v(counit(g4)),
                   ex.hpath(_cell("n", at["n"], x2, y), star(g3)))
            return ex.svcomp(s1, ex.svcomp(s2, s3))
        if tag == "T":
            g2 = conj(at, k=2)
            s2 = W(None, ex.sinv_v(ex.sgen(name)), star(g2))
            s3 = W(None, ex.sgen(name), star(g2))
            return ex.svcomp(unit(g2), ex.svcomp(s2, ex.svcomp(s3, ex.sinv_v(unit(g2)))))
        if tag in ("M", "N"):
            if at["k"] == 0:
                return ex.sgen(name)
            g0, g1, g2 = (conj(at, **{d: c}) for c in range(3))
            s1 = W(H(g0), ex.sgen(name), star(g2))
            s2 = W(ex.hpath(H(g0), _gen(d, {**at, d: (0, 1)})), ex.sinv_v(counit(g1)),
                   ex.hpath(_gen(d, {**at, d: (1, 2)}), star(g2)))
            return ex.svcomp(s1, s2)
        raise DisagreementBug(f"unexpected plain generator {name!r}")
    return image_of


def _reduce(expression):
    """Identity elimination used to verify the retract at generator level.

    Sound only on pastings that are unit-padded by construction; used for
    the collapse-after-section check, never during evaluation.
    """
    tag = expression[0]
    if tag in ("ogen", "hgen", "vgen", "sgen", "hid", "vid"):
        return expression
    parts = [_reduce(p) if isinstance(p, tuple) else p for p in expression[1:]]
    if tag == "hcomp":
        a, b2 = parts
        if a[0] == "hid":
            return b2
        if b2[0] == "hid":
            return a
        return (tag, a, b2)
    if tag == "shcomp":
        a, b2 = parts
        if a[0] == "sid_h" and a[1][0] == "hid":
            return b2
        if b2[0] == "sid_h" and b2[1][0] == "hid":
            return a
        if a[0] == "sid_h" and b2[0] == "sid_h":
            return ("sid_h", _reduce(ex.hcomp(a[1], b2[1])))
        return (tag, a, b2)
    if tag == "svcomp":
        a, b2 = parts
        if a[0] == "sid_h":
            return b2
        if b2[0] == "sid_h":
            return a
        return (tag, a, b2)
    if tag == "sinv_v":
        inner = parts[0]
        if inner[0] == "sid_h":
            return inner
        if inner[0] == "sinv_v":
            return inner[1]
        return (tag, inner)
    return (tag,) + tuple(parts)


# -- cosimplicial maps between levels -------------------------------------


def _image(kind, direction, alpha):
    """Image in the double presentation of the generator of kind ``kind``
    under the monotone map ``alpha`` in ``direction``.  A gap that ``alpha``
    collapses, or the span of a covering cell in its own direction, leaves
    the unit on the cell that remains."""
    tag = kind[0]
    at = dict(zip(_AXES[tag], kind[1:]))
    c = at.get(direction, (0, 2))
    if not isinstance(c, tuple):
        at[direction] = alpha[c]
        return _gen(tag, at)
    a, b = alpha[c[0]], alpha[c[1]]
    if direction in at and a != b:
        at[direction] = (a, b)
        return _gen(tag, at)
    at[direction] = a if a == b else (a, b)
    rest = _KIND_OF_GAPS["".join(d for d in "mkn" if isinstance(at[d], tuple))]
    cell = _gen(rest, at)
    if rest == "obj":
        return ex.vid(cell) if direction == "k" else ex.hid(cell)
    return ex.sid_v(cell) if rest == "k" else ex.sid_h(cell)


def _translate(variant, level, e):
    """An expression of the double presentation of ``level`` in its
    ``variant`` quotient: in the plain one ("l") its substitution along
    ``plain_map``, in the equivalence one ("lsim") the conjugation rule;
    unchanged in the double presentation itself ("x")."""
    sort = e[0][0]
    if variant == "l":
        return substitute(e, plain_map(*level))
    if variant == "lsim":
        if sort == "v":
            return _tr_v_as_h(e)
        return _conjugate(x_presentation(*level)[0], e)[0] if sort == "s" else e
    return e


def level_map(variant: str, direction: str, alpha, src_mkn, tgt_mkn) -> PresentationMorphism:
    """The presentation morphism realizing one cosimplicial operator between
    two tensor levels, for the double presentation ("x") or either
    2-categorical quotient ("l", "lsim"): ``alpha``, a weakly monotone map
    from [src] to [tgt] in ``direction``, between levels that agree in the
    other two directions.  DanglingReference for an unknown variant or
    direction, RangeExceeded for any other operator.

    Each generator's image is computed in the double presentation and
    translated into the quotient (``_translate``), an object of the plain
    quotient standing for its k = 0 object; adjoint partners, units and
    counits follow the image of their base generator.  Built once per
    operator."""
    named(_VARIANTS, variant, "variant")
    axis = named(AXIS, direction, "direction")
    src_mkn, tgt_mkn = tuple(src_mkn), tuple(tgt_mkn)
    if (len(src_mkn) != 3 or len(tgt_mkn) != 3
            or any(s != t for d, s, t in zip(AXIS, src_mkn, tgt_mkn) if d != direction)):
        raise RangeExceeded(f"{src_mkn} and {tgt_mkn} are not levels (m, k, n) that agree "
                            f"outside direction {direction}")
    alpha = monotone(alpha, src_mkn[axis], tgt_mkn[axis], f" in direction {direction}")
    return _level_map(variant, direction, alpha, src_mkn, tgt_mkn)


_VARIANTS = {"x": None, "l": 0, "lsim": 1}  # each variant's place in ``lx_presentations``


@cache
def _level_map(variant, direction, alpha, src_mkn, tgt_mkn):
    source, smeta = x_presentation(*src_mkn)
    target = x_presentation(*tgt_mkn)[0]
    which = _VARIANTS[variant]
    if which is not None:
        source, target = lx_presentations(*src_mkn)[which], lx_presentations(*tgt_mkn)[which]
    lifts = _lifts(*src_mkn)

    def image_of(g):
        kind = smeta[lifts.get(g.name, g.name)]
        return _translate(variant, tgt_mkn, _image(kind, direction, alpha))
    return adjoint_morphism(source, target, image_of)
