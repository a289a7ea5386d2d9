"""Bisimplicial nerve levels, their two computation routes, and the
fibrancy / Segal-restriction / comparison checks built on them.

The generic route enumerates functors out of the presented tensor shapes;
the oracle route builds the same sets structurally from the explicit
low-dimensional descriptions, by one rule over the cells of the (m, k)
grid: cells (objects, morphisms or squares) at n = 0, pairs of cells
joined by an edge (horizontal adjoint equivalences at the corners,
invertible fillers on the rows, weak-inverse-admitting fillers on the
columns, one pasting condition between squares) at n = 1, and at n = 2
three edges with a covering cell at each corner, subject to one equation
per row and one per column.  A level holds one key order, the sorted
generator names of its presentation, and its elements as rows, their
images in that order; both routes build their rows in the same key
order, so agreement is literal equality of the sorted rows.  The oracle
builds each level's rows in one layout of its own, checked once against
the level's keys and reordered into them.  Faces and degeneracies, the
grid's and the 2-categorical nerve's, take one path (``_simplicial``):
rows pull back along the operator's level or oriental map.  A
2-category's level, a quotient's, is the double level of its embedding
projected onto the quotient's keys (``_projection``), one row per row.

``presentation``, ``tensor``, ``pseudohom``, ``shapes`` and ``standard``
are reached through their modules when a function needs them, so the
fibrancy check runs none of them and a nerve level runs no ``pseudohom``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import pairwise, product
from operator import itemgetter

from . import presentation, pseudohom, shapes, standard, tensor
from .dblcat import (
    FiniteDoubleCategory,
    equivalence_embed,
    horizontal_embed,
    validate_double_functor,
    vertical_embed,
)
from .errors import DisagreementBug, RangeExceeded, named
from .twocat import FiniteTwoCategory, is_trivial_fibration_two
from .whi import (
    horizontal_equivalences,
    is_weakly_horizontally_invariant,
    whi_squares,
)

ORACLE_GRID = {(m, k, n) for m in (0, 1) for k in (0, 1) for n in (0, 1, 2)}
N2_CAP = 3  # the largest n of the 2-categorical nerve's simplices
_QUOTIENT = {"h": "l", "hsim": "lsim"}


@dataclass(frozen=True)
class SimplexSet:
    level: tuple[int, int, int]
    keys: tuple[str, ...]  # the generator names, sorted
    elements: list[tuple]  # sorted rows, the images in key order: the list the search returned
    provenance: str

    def count(self) -> int:
        return len(self.elements)


def dbl_nerve_level(dbl: FiniteDoubleCategory, m: int, k: int, n: int,
                    budget: int | None = None) -> SimplexSet:
    pres, _meta = tensor.x_presentation(m, k, n)
    return SimplexSet((m, k, n), pres.keys, presentation.enumerate_canonical(pres, dbl, budget),
                      "generic-enumeration")


def dbl_nerve_face(dbl, level, direction, i, element):
    """d_i on a row of ``level``, by pullback."""
    return _simplicial(dbl, partial(tensor.level_map, "x", direction), level, direction, i,
                       element, face=True)


def dbl_nerve_degeneracy(dbl, level, direction, j, element):
    """s_j on a row of ``level``."""
    return _simplicial(dbl, partial(tensor.level_map, "x", direction), level, direction, j,
                       element, face=False)


def two_nerve_face(cat2, variant, level, direction, i, element):
    operator_map = partial(tensor.level_map, named(_QUOTIENT, variant, "variant"), direction)
    return _simplicial(cat2, operator_map, level, direction, i, element, face=True)


def two_nerve_degeneracy(cat2, variant, level, direction, j, element):
    operator_map = partial(tensor.level_map, named(_QUOTIENT, variant, "variant"), direction)
    return _simplicial(cat2, operator_map, level, direction, j, element, face=False)


def _simplicial(alg, operator_map, level, direction, i, element, face):
    """d_i (``face``) or s_i on a row of ``level``, by pullback along
    ``operator_map(alpha, src, level)``, the level map (``tensor.level_map``)
    or oriental map (``_oriental_map``) of the cosimplicial operator ``alpha``
    from ``src``, where the row lands.  RangeExceeded unless 0 ≤ i ≤ the
    level's size in ``direction`` and ``operator_map`` builds both levels."""
    src = _adjacent(level, direction, -1 if face else +1)
    axis = tensor.AXIS[direction]
    if not 0 <= i <= level[axis]:
        raise RangeExceeded(f"{'d' if face else 's'}_{i} on level {level} in direction "
                            f"{direction}: the index runs from 0 to {level[axis]}")
    alpha = shapes.coface(src[axis], i) if face else shapes.codegeneracy(level[axis], i)
    return operator_map(tuple(alpha), src, level).pullback(alg)(element)


def _adjacent(level, direction, delta):
    index = named(tensor.AXIS, direction, "direction")
    out = list(level)
    out[index] += delta
    if out[index] < 0:
        raise RangeExceeded(f"no level below {level} in direction {direction}")
    return tuple(out)


# -- structural oracle ----------------------------------------------------


def _adjoint_by_ends(dbl):
    """Adjoint horizontal equivalences, each as its images (f, g, unit,
    counit), looked up by the endpoints of f."""
    index = {}
    for f, data in dbl.h_equivalences_by_f.items():
        index.setdefault((dbl.hsrc[f], dbl.htgt[f]), []).extend(
            (d.f, d.g, d.eta, d.eps) for d in data if d.adjoint)
    return lambda a, b: index.get((a, b), [])


def dbl_nerve_oracle(dbl: FiniteDoubleCategory, m: int, k: int, n: int) -> SimplexSet:
    """Elements built from the explicit low-dimensional descriptions,
    independent of the presentation search; (m, k) ∈ {0,1}² and n ≤ 2.
    ``_oracle`` gives one layout, the keys of its rows' images in order,
    which is checked once against the level's keys; DisagreementBug on a
    layout with other keys, a row of another width or a duplicate row."""
    if (m, k, n) not in ORACLE_GRID:
        raise RangeExceeded(f"oracle covers (m, k) in {{0,1}}² and n ≤ 2, not {(m, k, n)}")
    keys = tensor.x_presentation(m, k, n)[0].keys
    layout, rows = _oracle(dbl, m, k, n)
    if sorted(layout) != list(keys):
        raise DisagreementBug(f"oracle layout {sorted(layout)} differs from {list(keys)}")
    # itemgetter of one position returns the bare image; a one-key layout is in key order
    order = itemgetter(*map(layout.index, keys)) if len(keys) > 1 else tuple
    out = []
    for row in rows:
        if len(row) != len(layout):
            raise DisagreementBug(f"oracle row {row} is not one image per key of {layout}")
        out.append(order(row))
    out.sort()
    if any(a == b for a, b in pairwise(out)):
        raise DisagreementBug("oracle produced duplicate elements")
    return SimplexSet((m, k, n), keys, out, "structural-oracle")


def _oracle(dbl, m, k, n):
    """The layout and rows of level (m, k, n), by one rule over the cells
    of the (m, k) grid.  A cell is its corner objects, one horizontal side
    per row, one vertical side per column and, at m = k = 1, its square.
    An edge between two cells is an adjoint equivalence at each corner, a
    filler on each row (``_row_fillers``) and on each column
    (``_column_fillers``) and, between squares, one pasting equality.  A
    triangle is three edges and a covering cell at each corner
    (``_covering_fillers``) such that the (1,0) equation holds on each row
    and the (0,1) equation on each column.  Level n is the cells, the
    pairs of cells with an edge, or the triples with three edges and a
    fill; each row is the images of its cells, edges and covering cells."""
    corners = [(x, y) for y in range(k + 1) for x in range(m + 1)]
    rows, columns = range(k + 1 if m else 0), range(m + 1 if k else 0)
    # a cell's images: its corners (y-major), its sides (rows, then columns), its square;
    # each side by its place among the sides and the places of its two corners
    nc, nr = len(corners), len(rows)
    row_ends = [(y, corners.index((0, y)), corners.index((1, y))) for y in rows]
    column_ends = [(nr + x, corners.index((x, 0)), corners.index((x, 1))) for x in columns]
    s, t = dbl.hsrc, dbl.htgt
    if m and k:
        cells = [(s[f], t[f], s[g], t[g], f, g, dbl.sleft[a], dbl.sright[a], a)
                 for a in dbl.squares for f, g in [(dbl.stop[a], dbl.sbottom[a])]]
    elif m:
        cells = [(s[f], t[f], f) for f in dbl.hmors]
    elif k:
        cells = [(dbl.vsrc[u], dbl.vtgt[u], u) for u in dbl.vmors]
    else:
        cells = [(a,) for a in dbl.objects]

    def cell_keys(z):
        return (*(f"o{x}.{y}.{z}" for x, y in corners), *(f"m01.{y}.{z}" for y in rows),
                *(f"k01.{x}.{z}" for x in columns), *([f"A01.01.{z}"] if m and k else []))

    def edge_keys(gap):
        return (*(f"n{gap}.{x}.{y}{part}" for x, y in corners
                  for part in ("", "*", ".unit", ".counit")),
                *(f"X01.{gap}.{y}" for y in rows), *(f"B{gap}.01.{x}" for x in columns))

    if n == 0:
        return cell_keys(0), cells
    adj = _adjoint_by_ends(dbl)
    row_fill, column_fill = _row_fillers(dbl), _column_fillers(dbl)
    hcomp, vcomp, e = dbl.s_hcomp, dbl.s_vcomp, dbl.e_sq

    def edges(a, b):
        """The edges from cell a to cell b, each as the 1-cells f of its
        equivalences by corner, its fillers by row then column, and its
        images in the order of ``edge_keys``."""
        out = []
        alpha, beta = a[-1], b[-1]
        for data in product(*list(map(adj, a[:nc], b[:nc]))):
            fs, equivalences = tuple(d[0] for d in data), sum(data, ())
            sides = [row_fill(a[nc + y], b[nc + y], fs[i], fs[j]) for y, i, j in row_ends]
            sides += [column_fill(a[nc + x], b[nc + x], fs[i], fs[j]) for x, i, j in column_ends]
            for fill in product(*sides):
                # between squares (fillers: top, bottom, left, right): the top filler over
                # alpha beside the right one is the left one beside beta over the bottom one
                if m and k and (vcomp(fill[0], hcomp(alpha, fill[3]))
                                != vcomp(hcomp(fill[2], beta), fill[1])):
                    continue
                out.append((fs, fill, equivalences + fill))
        return out

    if n == 1:
        return (cell_keys(0) + cell_keys(1) + edge_keys("01"),
                (a + b + images for a, b in product(cells, repeat=2)
                 for _, _, images in edges(a, b)))
    cover = _covering_fillers(dbl)

    def triangles():
        links = [[edges(a, b) for b in cells] for a in cells]  # each ordered pair's, once
        for (ia, a), (ib, b), (ic, c) in product(enumerate(cells), repeat=3):
            for (p, phi, ab), (q, psi, bc), (r, theta, ac) in product(
                    links[ia][ib], links[ib][ic], links[ia][ic]):
                # a list: unpacking the map itself would build and shrink a tuple each time
                for mu in product(*list(map(cover, r, p, q))):
                    # the (1,0) equation on each row, then the (0,1) equation on each column
                    for y, i0, i1 in row_ends:
                        lhs = vcomp(hcomp(mu[i0], e[c[nc + y]]),
                                    vcomp(hcomp(e[p[i0]], psi[y]), hcomp(phi[y], e[q[i1]])))
                        if lhs != vcomp(theta[y], hcomp(e[a[nc + y]], mu[i1])):
                            break
                    else:
                        for x, i0, i1 in column_ends:
                            if vcomp(mu[i0], hcomp(phi[x], psi[x])) != vcomp(theta[x], mu[i1]):
                                break
                        else:
                            yield (*a, *b, *c, *ab, *bc, *ac, *mu)

    return (cell_keys(0) + cell_keys(1) + cell_keys(2) + edge_keys("01") + edge_keys("12")
            + edge_keys("02") + tuple(f"N{x}.{y}" for x, y in corners), triangles())


def _row_fillers(dbl):
    """The vertically invertible squares (d0 then g) ⇒ (f then d1) with
    identity vertical sides, as a function of the four 1-cells that asks
    each question of ``dbl`` once."""

    @cache
    def fillers(f, g, d0, d1):
        return dbl.invertible_flat(dbl.h_then(d0, g), dbl.h_then(f, d1))
    return fillers


def _column_fillers(dbl):
    """The whi squares top ⇒ bottom with left side u and right side w, as
    a function of the four 1-cells that asks each question of ``dbl`` once."""
    whis = whi_squares(dbl)

    @cache
    def fillers(u, w, top, bottom):
        return [s for s in dbl.squares_with(top=top, bottom=bottom, left=u, right=w)
                if s in whis]
    return fillers


def _covering_fillers(dbl):
    """The vertically invertible squares long ⇒ (first then then) with
    identity vertical sides, as a function of the three 1-cells that asks
    each question of ``dbl`` once."""

    @cache
    def fillers(long, first, then):
        return dbl.invertible_flat(long, dbl.h_then(first, then))
    return fillers


# -- nerves of 2-categories ------------------------------------------------


def _projection(variant, dbl, level):
    """The forgetful map from rows of ``level`` in ``dbl``, the ``variant``
    embedding of a 2-category, to rows of its quotient: each key reads the
    double key of its name.  Through ``h`` a class reads one of its objects
    (all alike, the only vertical morphisms being identities); through
    ``hsim`` a 2-cell reads its square's, and a vertical generator and its
    partner, unit and counit the adjoint equivalence that its image is."""
    pres = tensor.x_presentation(*level)[0]
    quotient = tensor.lx_presentations(*level)[variant == "hsim"]
    part = {name: itemgetter(i) for i, name in enumerate(pres.keys)}
    if variant == "h":
        part.update((image[1], part[name]) for name, image in tensor.plain_map(*level).items()
                    if image[0] == "ogen")
    else:
        for g in pres.gens:
            read = part[g.name]
            if g.sort == "sq":
                part[g.name] = lambda row, read=read: dbl.cell_of_square[read(row)]
            elif g.sort == "v":
                part.update((name, lambda row, read=read, i=i: dbl.quad_of_vmor[read(row)][i])
                            for i, name in enumerate((g.name, *quotient.gen(g.name).adjoint)))
    parts = [part[name] for name in quotient.keys]
    return lambda row: tuple([part(row) for part in parts])


def two_nerve_level(cat2: FiniteTwoCategory, variant: str, m: int, k: int, n: int,
                    budget: int | None = None, check_bijection: bool = True) -> SimplexSet:
    """Nerve level of a 2-category through the plain (``h``) or
    adjoint-equivalence (``hsim``) embedding.  With ``check_bijection``,
    the same level of the embedded double category, projected onto the
    quotient (``_projection``), must give exactly its sorted rows, each
    once; DisagreementBug otherwise."""
    pres = tensor.lx_presentations(m, k, n)[named(_QUOTIENT, variant, "variant") == "lsim"]
    out = SimplexSet((m, k, n), pres.keys, presentation.enumerate_canonical(pres, cat2, budget),
                     f"two-nerve-{variant}")
    if check_bijection:
        dbl = horizontal_embed(cat2) if variant == "h" else equivalence_embed(cat2)
        direct = dbl_nerve_level(dbl, m, k, n, budget)
        if sorted(map(_projection(variant, dbl, (m, k, n)), direct.elements)) != out.elements:
            raise DisagreementBug(f"two-nerve level {(m, k, n)} does not match the double route")
    return out


def comparison_maps(cat2: FiniteTwoCategory, m: int, k: int, n: int,
                    budget: int | None = None):
    """Pullbacks along the collapse/section pair between the two quotients,
    the retract verdict, and injectivity of the comparison.  ``pi_star``
    maps rows of the plain quotient's level ``base`` to rows of the
    equivalence quotient's, and ``iota_star`` maps them back."""
    _, _, collapse, section = tensor.lx_presentations(m, k, n)
    base = two_nerve_level(cat2, "h", m, k, n, budget, check_bijection=False)

    pi_star, iota_star = collapse.pullback(cat2), section.pullback(cat2)
    images = [pi_star(el) for el in base.elements]
    retract = all(iota_star(image) == el for image, el in zip(images, base.elements))
    injective = len(set(images)) == len(images)
    return {
        "pi_star": pi_star,
        "iota_star": iota_star,
        "base": base,
        "retract": retract,
        "injective": injective,
    }


# -- fibrancy and Segal checks ---------------------------------------------


def fibrancy_vertical_check(dbl: FiniteDoubleCategory):
    """Weak horizontal invariance, computed both as stated and as the
    horn-lifting condition on adjoint-equivalence pairs; the two runs must
    agree (a disagreement would be a code fault, never an input state)."""
    direct, witness = is_weakly_horizontally_invariant(dbl)

    whis = whi_squares(dbl)
    adjoint = [d for d in horizontal_equivalences(dbl) if d.adjoint]
    lift_witness = next((
        (d.f, d2.f, v) for d, d2 in product(adjoint, repeat=2)
        for v in dbl.vmors_between(dbl.htgt[d.f], dbl.htgt[d2.f])
        if not any(alpha in whis
                   for u in dbl.vmors_between(dbl.hsrc[d.f], dbl.hsrc[d2.f])
                   for alpha in dbl.squares_with(top=d.f, bottom=d2.f, left=u, right=v))), None)
    lifted = lift_witness is None
    if direct != lifted:
        raise DisagreementBug(
            f"invariance checker disagreement: direct={direct}, lifting={lifted}"
        )
    return direct, witness or lift_witness


def inclusion_chain_to_invertible(k: int):
    """The double functor from the free vertical chain into the vertical
    invertible-oriental double category."""
    chain = vertical_embed(standard.locally_discrete(standard.chain_category(k)))
    target = shapes.v_oriental_inv(k)
    om = {str(i): str(i) for i in range(k + 1)}
    vm = {}
    for u in chain.vmors:
        if u in chain.idv.values():
            continue
        i, j = int(chain.vsrc[u]), int(chain.vtgt[u])
        vm[u] = "[" + "".join(str(t) for t in range(i, j + 1)) + "]"
    return validate_double_functor(chain, target, om, {}, vm, {})


def segal_tfib_check(dbl: FiniteDoubleCategory, k: int, budget: int | None = None):
    """The restriction 2-functor from maps out of the invertible vertical
    oriental to maps out of the vertical chain is surjective on objects,
    full on 1-cells, and fully faithful on 2-cells."""
    incl = inclusion_chain_to_invertible(k)
    big = pseudohom.pseudo_hom(incl.target, dbl, budget)
    small = pseudohom.pseudo_hom(incl.source, dbl, budget)
    return is_trivial_fibration_two(pseudohom.restriction(incl, big, small))


# -- low-dimensional 2-categorical nerve -----------------------------------


def n2_simplices(cat2: FiniteTwoCategory, n: int, budget: int | None = None) -> SimplexSet:
    """Simplices of the 2-categorical nerve: 2-functors out of the adjoint
    oriental family, for n ≤ N2_CAP."""
    if not 0 <= n <= N2_CAP:
        raise RangeExceeded(f"n = {n} outside the levels 0 to {N2_CAP}")
    pres = shapes.oriental_adjoint_presentation(n)
    return SimplexSet((n,), pres.keys, presentation.enumerate_canonical(pres, cat2, budget),
                      "two-categorical-nerve")


def n2_face(cat2, n, i, element):
    """d_i on a row of level n of ``n2_simplices``."""
    return _simplicial(cat2, _oriental_map, (0, 0, n), "n", i, element, face=True)


def n2_degeneracy(cat2, n, j, element):
    """s_j on a row of level n of ``n2_simplices``."""
    return _simplicial(cat2, _oriental_map, (0, 0, n), "n", j, element, face=False)


@cache
def _oriental_map(alpha, src, tgt):
    """The adjoint-oriental map of ``alpha`` between the levels (0, 0, n) of
    the 2-categorical nerve at ``src`` and ``tgt``, built once;
    RangeExceeded for a level above N2_CAP."""
    if max(src[2], tgt[2]) > N2_CAP:
        raise RangeExceeded(f"an operator from level {tgt[2]} to level {src[2]}: levels run "
                            f"from 0 to {N2_CAP}")
    return shapes.oriental_presentation_map(alpha, src[2], tgt[2])
