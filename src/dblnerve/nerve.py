"""Bisimplicial nerve levels, their two computation routes, and the
fibrancy / Segal-restriction / comparison checks built on them.

The generic route enumerates functors out of the presented tensor shapes;
the oracle route builds the same sets structurally from the explicit
low-dimensional descriptions (horizontal adjoint equivalences, weak-
inverse-admitting squares, invertible interchangers, and their pasting
conditions).  A level holds one key order, the sorted generator names of
its presentation, and its elements as rows, their images in that order;
both routes build their rows in the same key order, so agreement is
literal equality of the sorted rows.  The oracle builds each level's
rows in one layout of its own, checked once against the level's keys and
reordered into them.  Faces and degeneracies pull rows back along the
level maps (``PresentationMorphism.pullback``).

``presentation``, ``tensor``, ``pseudohom``, ``shapes`` and ``standard``
are reached through their modules when a function needs them, so the
fibrancy check runs none of them and a nerve level runs no ``pseudohom``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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
from .expr import compile_expr
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
    return _simplicial(dbl, "x", level, direction, i, element, face=True)


def dbl_nerve_degeneracy(dbl, level, direction, j, element):
    """s_j on a row of ``level``."""
    return _simplicial(dbl, "x", level, direction, j, element, face=False)


def two_nerve_face(cat2, variant, level, direction, i, element):
    quotient = named(_QUOTIENT, variant, "variant")
    return _simplicial(cat2, quotient, level, direction, i, element, face=True)


def two_nerve_degeneracy(cat2, variant, level, direction, j, element):
    quotient = named(_QUOTIENT, variant, "variant")
    return _simplicial(cat2, quotient, level, direction, j, element, face=False)


def _simplicial(alg, variant, level, direction, i, element, face):
    """d_i (``face``) or s_i on a row of ``level``, by pullback along the
    ``variant`` level map of the cosimplicial operator.  RangeExceeded
    unless 0 ≤ i ≤ the level's size in ``direction`` and the level it lands
    on is on the grid."""
    src = _adjacent(level, direction, -1 if face else +1)
    axis = tensor.AXIS[direction]
    if not 0 <= i <= level[axis]:
        raise RangeExceeded(f"{'d' if face else 's'}_{i} on level {level} in direction "
                            f"{direction}: the index runs from 0 to {level[axis]}")
    alpha = shapes.coface(src[axis], i) if face else shapes.codegeneracy(level[axis], i)
    return tensor.level_map(variant, direction, alpha, src, level).pullback(alg)(element)


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
    counit) in the order of ``_data_keys``, looked up by the endpoints of f."""
    index = {}
    for f, data in dbl.h_equivalences_by_f.items():
        index.setdefault((dbl.hsrc[f], dbl.htgt[f]), []).extend(
            (d.f, d.g, d.eta, d.eps) for d in data if d.adjoint)
    return lambda a, b: index.get((a, b), [])


def _data_keys(*prefixes):
    """The keys of the images of an adjoint equivalence per prefix, in order."""
    return tuple(key for prefix in prefixes
                 for key in (prefix, prefix + "*", prefix + ".unit", prefix + ".counit"))


def dbl_nerve_oracle(dbl: FiniteDoubleCategory, m: int, k: int, n: int) -> SimplexSet:
    """Elements built from the explicit low-dimensional descriptions,
    independent of the presentation search; (m, k) ∈ {0,1}² and n ≤ 2.
    Each builder gives one layout, the keys of its rows' images in order,
    which is checked once against the level's keys; DisagreementBug on a
    layout with other keys, a row of another width or a duplicate row."""
    if (m, k, n) not in ORACLE_GRID:
        raise RangeExceeded(f"oracle covers (m, k) in {{0,1}}² and n ≤ 2, not {(m, k, n)}")
    build = {
        (0, 0): _oracle_00,
        (1, 0): _oracle_10,
        (0, 1): _oracle_01,
        (1, 1): _oracle_11,
    }[(m, k)]
    keys = tensor.x_presentation(m, k, n)[0].keys
    layout, rows = build(dbl, _adjoint_by_ends(dbl), n)
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


def _covering_fillers(dbl):
    """The vertically invertible squares long ⇒ (first then then) with
    identity vertical sides, as a function of the three 1-cells that asks
    each question of ``dbl`` once."""

    @cache
    def fillers(long, first, then):
        return dbl.invertible_flat(long, dbl.h_then(first, then))
    return fillers


def _oracle_00(dbl, adj, n):
    if n == 0:
        return ("o0.0.0",), ((a,) for a in dbl.objects)
    if n == 1:
        return (("o0.0.0", "o0.0.1", *_data_keys("n01.0.0")),
                ((a, b, *d) for a, b in product(dbl.objects, repeat=2) for d in adj(a, b)))
    cover = _covering_fillers(dbl)
    return (("o0.0.0", "o0.0.1", "o0.0.2", "N0.0", *_data_keys("n01.0.0", "n12.0.0", "n02.0.0")),
            ((a, b, c, mu, *d01, *d12, *d02)
             for a, b, c in product(dbl.objects, repeat=3)
             for d01, d12, d02 in product(adj(a, b), adj(b, c), adj(a, c))
             for mu in cover(d02[0], d01[0], d12[0])))


def _one_simplex_10(dbl):
    """The vertically invertible squares (d0 then g) ⇒ (f then d1) with
    identity vertical sides, as a function of the four 1-cells that asks
    each question of ``dbl`` once."""

    @cache
    def fillers(f, g, d0, d1):
        return dbl.invertible_flat(dbl.h_then(d0, g), dbl.h_then(f, d1))
    return fillers


def _oracle_10(dbl, adj, n):
    s, t = dbl.hsrc, dbl.htgt
    if n == 0:
        return ("o0.0.0", "o1.0.0", "m01.0.0"), ((s[f], t[f], f) for f in dbl.hmors)
    if n == 1:
        simplex = _one_simplex_10(dbl)
        return (("o0.0.0", "o1.0.0", "o0.0.1", "o1.0.1", "m01.0.0", "m01.0.1", "X01.01.0",
                 *_data_keys("n01.0.0", "n01.1.0")),
                ((s[f], t[f], s[g], t[g], f, g, sq, *d0, *d1)
                 for f, g in product(dbl.hmors, repeat=2)
                 for d0, d1 in product(adj(s[f], s[g]), adj(t[f], t[g]))
                 for sq in simplex(f, g, d0[0], d1[0])))
    return (("o0.0.0", "o1.0.0", "o0.0.1", "o1.0.1", "o0.0.2", "o1.0.2", "m01.0.0", "m01.0.1",
             "m01.0.2", "X01.01.0", "X01.12.0", "X01.02.0", "N0.0", "N1.0",
             *_data_keys("n01.0.0", "n01.1.0", "n12.0.0", "n12.1.0", "n02.0.0", "n02.1.0")),
            _oracle_10_rows(dbl, adj))


def _oracle_10_rows(dbl, adj):
    s, t = dbl.hsrc, dbl.htgt
    cover, simplex = _covering_fillers(dbl), _one_simplex_10(dbl)
    for f, g, h in product(dbl.hmors, repeat=3):
        corners = (s[f], t[f], s[g], t[g], s[h], t[h], f, g, h)
        for data in product(adj(s[f], s[g]), adj(t[f], t[g]), adj(s[g], s[h]),
                            adj(t[g], t[h]), adj(s[f], s[h]), adj(t[f], t[h])):
            yield from _oracle_10_two(dbl, cover, simplex, corners, *data)


def _oracle_10_two(dbl, cover, simplex, corners, phi0, phi1, psi0, psi1, th0, th1):
    e = dbl.e_sq
    f, g, h = corners[6:]
    for phi in simplex(f, g, phi0[0], phi1[0]):
        for psi in simplex(g, h, psi0[0], psi1[0]):
            for theta in simplex(f, h, th0[0], th1[0]):
                for mu0 in cover(th0[0], phi0[0], psi0[0]):
                    for mu1 in cover(th1[0], phi1[0], psi1[0]):
                        lhs = dbl.s_vcomp(
                            dbl.s_hcomp(mu0, e[h]),
                            dbl.s_vcomp(
                                dbl.s_hcomp(e[phi0[0]], psi),
                                dbl.s_hcomp(phi, e[psi1[0]]),
                            ),
                        )
                        rhs = dbl.s_vcomp(theta, dbl.s_hcomp(e[f], mu1))
                        if lhs != rhs:
                            continue
                        yield (*corners, phi, psi, theta, mu0, mu1,
                               *phi0, *phi1, *psi0, *psi1, *th0, *th1)


def _whi_fillers(dbl):
    """The whi squares top ⇒ bottom with left side u and right side w, as
    a function of the four 1-cells that asks each question of ``dbl`` once."""
    whis = whi_squares(dbl)

    @cache
    def fillers(u, w, top, bottom):
        return [s for s in dbl.squares_with(top=top, bottom=bottom, left=u, right=w)
                if s in whis]
    return fillers


def _oracle_01(dbl, adj, n):
    s, t = dbl.vsrc, dbl.vtgt
    if n == 0:
        return ("o0.0.0", "o0.1.0", "k01.0.0"), ((s[u], t[u], u) for u in dbl.vmors)
    if n == 1:
        whi_fill = _whi_fillers(dbl)
        return (("o0.0.0", "o0.1.0", "o0.0.1", "o0.1.1", "k01.0.0", "k01.0.1", "B01.01.0",
                 *_data_keys("n01.0.0", "n01.0.1")),
                ((s[u], t[u], s[w], t[w], u, w, sq, *d0, *d1)
                 for u, w in product(dbl.vmors, repeat=2)
                 for d0, d1 in product(adj(s[u], s[w]), adj(t[u], t[w]))
                 for sq in whi_fill(u, w, d0[0], d1[0])))
    return (("o0.0.0", "o0.1.0", "o0.0.1", "o0.1.1", "o0.0.2", "o0.1.2", "k01.0.0", "k01.0.1",
             "k01.0.2", "B01.01.0", "B12.01.0", "B02.01.0", "N0.0", "N0.1",
             *_data_keys("n01.0.0", "n01.0.1", "n12.0.0", "n12.0.1", "n02.0.0", "n02.0.1")),
            _oracle_01_rows(dbl, adj))


def _oracle_01_rows(dbl, adj):
    s, t = dbl.vsrc, dbl.vtgt
    cover, whi_fill = _covering_fillers(dbl), _whi_fillers(dbl)
    for u, w, y in product(dbl.vmors, repeat=3):
        corners = (s[u], t[u], s[w], t[w], s[y], t[y], u, w, y)
        for data in product(adj(s[u], s[w]), adj(t[u], t[w]), adj(s[w], s[y]),
                            adj(t[w], t[y]), adj(s[u], s[y]), adj(t[u], t[y])):
            yield from _oracle_01_two(dbl, cover, whi_fill, corners, *data)


def _oracle_01_two(dbl, cover, whi_fill, corners, phi0, phi1, psi0, psi1, th0, th1):
    u, w, y = corners[6:]
    for phi in whi_fill(u, w, phi0[0], phi1[0]):
        for psi in whi_fill(w, y, psi0[0], psi1[0]):
            for theta in whi_fill(u, y, th0[0], th1[0]):
                for mu in cover(th0[0], phi0[0], psi0[0]):
                    for mu2 in cover(th1[0], phi1[0], psi1[0]):
                        if dbl.s_vcomp(mu, dbl.s_hcomp(phi, psi)) != dbl.s_vcomp(theta, mu2):
                            continue
                        yield (*corners, phi, psi, theta, mu, mu2,
                               *phi0, *phi1, *psi0, *psi1, *th0, *th1)


def _square_keys(z):
    return tuple(f"{stem}.{z}" for stem in ("o0.0", "o1.0", "o0.1", "o1.1", "m01.0",
                                            "m01.1", "k01.0", "k01.1", "A01.01"))


def _edge_keys(gap):
    """The keys of the images of an edge across ``gap``: its four adjoint
    equivalences, corner by corner, then its four squares."""
    return (*_data_keys(*(f"n{gap}.{x}.{z}" for z in (0, 1) for x in (0, 1))),
            f"X01.{gap}.0", f"X01.{gap}.1", f"B{gap}.01.0", f"B{gap}.01.1")


def _oracle_11(dbl, adj, n):
    corners = {}  # each square's images, in the order of _square_keys
    for s in dbl.squares:
        top, bottom = dbl.stop[s], dbl.sbottom[s]
        corners[s] = (dbl.hsrc[top], dbl.htgt[top], dbl.hsrc[bottom], dbl.htgt[bottom],
                      top, bottom, dbl.sleft[s], dbl.sright[s], s)
    if n == 0:
        return _square_keys(0), corners.values()
    if n == 1:
        one = _one_simplices_11(dbl, adj)
        return (_square_keys(0) + _square_keys(1) + _edge_keys("01"),
                (corners[alpha] + corners[beta] + images
                 for alpha, beta in product(dbl.squares, repeat=2)
                 for _, images in one(alpha, beta)))
    return (_square_keys(0) + _square_keys(1) + _square_keys(2) + _edge_keys("01")
            + _edge_keys("12") + _edge_keys("02") + ("N0.0", "N1.0", "N0.1", "N1.1"),
            _oracle_11_two(dbl, adj, corners))


def _one_simplices_11(dbl, adj):
    """The connecting data between two squares, as a function of the
    ordered pair that computes each pair once: four adjoint equivalences,
    two invertible interchangers, two weak-inverse-admitting fillers, and
    the single pasting equality; each datum with its images, in the order
    of ``_edge_keys``."""
    s, t = dbl.hsrc, dbl.htgt
    simplex, whi_fill = _one_simplex_10(dbl), _whi_fillers(dbl)

    @cache
    def one(alpha, beta):
        f, f2 = dbl.stop[alpha], dbl.sbottom[alpha]
        g, g2 = dbl.stop[beta], dbl.sbottom[beta]
        u, v = dbl.sleft[alpha], dbl.sright[alpha]
        w, x_ = dbl.sleft[beta], dbl.sright[beta]
        out = []
        # components at (0, 0), (1, 0), (0, 1), (1, 1): the corners of alpha to those of beta
        for d00, d10, d01, d11 in product(adj(s[f], s[g]), adj(t[f], t[g]),
                                          adj(s[f2], s[g2]), adj(t[f2], t[g2])):
            for phi in simplex(f, g, d00[0], d10[0]):
                for phi2 in simplex(f2, g2, d01[0], d11[0]):
                    for t0 in whi_fill(u, w, d00[0], d01[0]):
                        for t1 in whi_fill(v, x_, d10[0], d11[0]):
                            lhs = dbl.s_vcomp(phi, dbl.s_hcomp(alpha, t1))
                            rhs = dbl.s_vcomp(dbl.s_hcomp(t0, beta), phi2)
                            if lhs != rhs:
                                continue
                            datum = (d00, d10, d01, d11, phi, phi2, t0, t1)
                            out.append((datum, (*d00, *d10, *d01, *d11, phi, phi2, t0, t1)))
        return out
    return one


def _oracle_11_two(dbl, adj, corners):
    cover, one = _covering_fillers(dbl), _one_simplices_11(dbl, adj)
    for alpha in dbl.squares:
        for beta in dbl.squares:
            one_ab = one(alpha, beta)
            if not one_ab:
                continue
            for gamma in dbl.squares:
                one_bc = one(beta, gamma)
                if not one_bc:
                    continue
                one_ac = one(alpha, gamma)
                head = corners[alpha] + corners[beta] + corners[gamma]
                for (phi_d, phi), (psi_d, psi), (th_d, th) in product(one_ab, one_bc, one_ac):
                    for mus in _oracle_11_two_fill(dbl, cover, alpha, gamma, phi_d, psi_d, th_d):
                        yield head + phi + psi + th + mus


def _oracle_11_two_fill(dbl, cover, alpha, gamma, phi_d, psi_d, th_d):
    """The covering cells (N0.0, N1.0, N0.1, N1.1) of three edges that
    satisfy the four pasting conditions."""
    e = dbl.e_sq
    p00, p10, p01, p11, phi_t, phi_b, pt0, pt1 = phi_d
    s00, s10, s01, s11, psi_t, psi_b, st0, st1 = psi_d
    t00, t10, t01, t11, th_t, th_b, tt0, tt1 = th_d
    f, f2 = dbl.stop[alpha], dbl.sbottom[alpha]
    h, h2 = dbl.stop[gamma], dbl.sbottom[gamma]
    for mu00 in cover(t00[0], p00[0], s00[0]):
        for mu10 in cover(t10[0], p10[0], s10[0]):
            # condition along the top horizontal generator
            lhs = dbl.s_vcomp(
                dbl.s_hcomp(mu00, e[h]),
                dbl.s_vcomp(dbl.s_hcomp(e[p00[0]], psi_t), dbl.s_hcomp(phi_t, e[s10[0]])),
            )
            if lhs != dbl.s_vcomp(th_t, dbl.s_hcomp(e[f], mu10)):
                continue
            for mu01 in cover(t01[0], p01[0], s01[0]):
                # condition along the left vertical generator
                if dbl.s_vcomp(mu00, dbl.s_hcomp(pt0, st0)) != dbl.s_vcomp(tt0, mu01):
                    continue
                for mu11 in cover(t11[0], p11[0], s11[0]):
                    if dbl.s_vcomp(mu10, dbl.s_hcomp(pt1, st1)) != dbl.s_vcomp(tt1, mu11):
                        continue
                    lhs = dbl.s_vcomp(
                        dbl.s_hcomp(mu01, e[h2]),
                        dbl.s_vcomp(
                            dbl.s_hcomp(e[p01[0]], psi_b), dbl.s_hcomp(phi_b, e[s11[0]])
                        ),
                    )
                    if lhs != dbl.s_vcomp(th_b, dbl.s_hcomp(e[f2], mu11)):
                        continue
                    yield mu00, mu10, mu01, mu11


# -- nerves of 2-categories ------------------------------------------------


def _two_rows_to_dbl(cat2, variant, dbl, quotient, level):
    """The map from rows of ``quotient``, the ``variant`` quotient of
    ``level``, in ``cat2`` to rows of the double level in ``dbl``, the
    embedded double category, compiled once: one function of the quotient
    row per generator of the double presentation, in its key order."""
    pres, meta = tensor.x_presentation(*level)
    at = {name: i for i, name in enumerate(quotient.keys)}
    if variant == "h":  # an object reads its class in the plain quotient
        at.update((name, at[image[1]]) for name, image in tensor.plain_map(*level).items()
                  if image[0] == "ogen")

    def vmor(v):
        """The vertical morphism of ``dbl`` that a row gives the v-expression ``v``."""
        if v[0] == "vid":
            obj = compile_expr(cat2, v[1], at)
            return lambda row: dbl.idv[obj(row)]
        if v[0] == "vgen":  # the adjoint equivalence (f, g, unit, counit) of the quotient
            quad = itemgetter(*(at[name] for name in (v[1], *quotient.gen(v[1]).adjoint)))
            return lambda row: dbl.vmor_of_quad[quad(row)]
        first, then = vmor(v[1]), vmor(v[2])
        return lambda row: dbl.v_then(first(row), then(row))

    def part(g):
        tag = meta[g.name][0]
        if tag == "k":
            return vmor(("vid", g.bounds[0]) if variant == "h" else ("vgen", g.name))
        if variant == "h" or tag in ("obj", "m", "n", "n*"):
            return itemgetter(at[g.name])
        # a square, including the units of the n-direction: the square of the
        # equivalence embedding with its boundary and 2-cell
        data = [compile_expr(cat2, b, at) for b in g.bounds[:2]]
        data += [vmor(b) for b in g.bounds[2:]] + [itemgetter(at[g.name])]
        return lambda row: dbl.square_by_data[tuple([d(row) for d in data])]

    parts = [part(pres.gen(name)) for name in pres.keys]
    return lambda row: tuple([part(row) for part in parts])


def two_nerve_level(cat2: FiniteTwoCategory, variant: str, m: int, k: int, n: int,
                    budget: int | None = None, check_bijection: bool = True) -> SimplexSet:
    """Nerve level of a 2-category through the plain (``h``) or
    adjoint-equivalence (``hsim``) embedding; optionally re-derives the same
    set through the embedded double category and asserts the bijection."""
    pres = tensor.lx_presentations(m, k, n)[named(_QUOTIENT, variant, "variant") == "lsim"]
    out = SimplexSet((m, k, n), pres.keys, presentation.enumerate_canonical(pres, cat2, budget),
                     f"two-nerve-{variant}")
    if check_bijection:
        dbl = horizontal_embed(cat2) if variant == "h" else equivalence_embed(cat2)
        direct = dbl_nerve_level(dbl, m, k, n, budget)
        converted = sorted(map(_two_rows_to_dbl(cat2, variant, dbl, pres, (m, k, n)),
                               out.elements))
        if converted != direct.elements:
            raise DisagreementBug(
                f"two-nerve level {(m, k, n)} does not match the double route"
            )
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
    _n2_operator(n, i, n - 1)
    return _n2_face_map(n, i).pullback(cat2)(element)


def n2_degeneracy(cat2, n, j, element):
    """s_j on a row of level n of ``n2_simplices``."""
    _n2_operator(n, j, n + 1)
    return _n2_degeneracy_map(n, j).pullback(cat2)(element)


def _n2_operator(n, i, lands):
    """RangeExceeded unless the operator with index ``i`` from level ``n``
    to level ``lands`` has 0 ≤ i ≤ n and both levels in 0..N2_CAP."""
    if not (0 <= i <= n <= N2_CAP and 0 <= lands <= N2_CAP):
        raise RangeExceeded(f"an operator from level {n} to level {lands} with index {i}: "
                            f"levels run from 0 to {N2_CAP} and the index from 0 to {n}")


@cache
def _n2_face_map(n, i):
    """The oriental map behind d_i on level n, built once."""
    return shapes.oriental_presentation_map(shapes.coface(n - 1, i), n - 1, n)


@cache
def _n2_degeneracy_map(n, j):
    """The oriental map behind s_j on level n, built once."""
    return shapes.oriental_presentation_map(shapes.codegeneracy(n, j), n + 1, n)
