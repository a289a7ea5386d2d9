"""Bisimplicial nerve levels, their two computation routes, and the
fibrancy / Segal-restriction / comparison checks built on them.

The generic route enumerates functors out of the presented tensor shapes;
the oracle route builds the same sets structurally from the explicit
low-dimensional descriptions (horizontal adjoint equivalences, weak-
inverse-admitting squares, invertible interchangers, and their pasting
conditions).  A level holds one key order, the sorted generator names of
its presentation, and its elements as rows, their images in that order;
both routes build their rows in the same key order, so agreement is
literal equality of the sorted rows.  Faces and degeneracies pull rows
back along the level maps (``PresentationMorphism.pullback``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import pairwise, product
from operator import itemgetter

from .dblcat import (
    FiniteDoubleCategory,
    equivalence_embed,
    horizontal_embed,
    validate_double_functor,
    vertical_embed,
)
from .errors import DisagreementBug, RangeExceeded
from .expr import compile_expr
from .presentation import enumerate_canonical
from .pseudohom import pseudo_hom, restriction
from .shapes import (
    codegeneracy,
    coface,
    oriental_adjoint_presentation,
    oriental_presentation_map,
    v_oriental_inv,
)
from .standard import chain_category, locally_discrete
from .tensor import _qname, level_map, lx_presentations, x_presentation
from .twocat import FiniteTwoCategory, is_trivial_fibration_two
from .whi import (
    horizontal_equivalences,
    is_weakly_horizontally_invariant,
    whi_squares,
)

ORACLE_GRID = {(m, k, n) for m in (0, 1) for k in (0, 1) for n in (0, 1, 2)}
N2_CAP = 3  # the largest n of the 2-categorical nerve's simplices
_AXIS = {"m": 0, "k": 1, "n": 2}
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
    pres, _meta = x_presentation(m, k, n)
    return SimplexSet((m, k, n), pres.keys, enumerate_canonical(pres, dbl, budget),
                      "generic-enumeration")


def dbl_nerve_face(dbl, level, direction, i, element):
    """d_i on a row of ``level``, by pullback."""
    return _simplicial(dbl, "x", level, direction, i, element, face=True)


def dbl_nerve_degeneracy(dbl, level, direction, j, element):
    """s_j on a row of ``level``."""
    return _simplicial(dbl, "x", level, direction, j, element, face=False)


def two_nerve_face(cat2, variant, level, direction, i, element):
    return _simplicial(cat2, _QUOTIENT[variant], level, direction, i, element, face=True)


def two_nerve_degeneracy(cat2, variant, level, direction, j, element):
    return _simplicial(cat2, _QUOTIENT[variant], level, direction, j, element, face=False)


def _simplicial(alg, variant, level, direction, i, element, face):
    """d_i (``face``) or s_i on a row of ``level``, by pullback along the
    ``variant`` level map of the cosimplicial operator."""
    src = _adjacent(level, direction, -1 if face else +1)
    axis = _AXIS[direction]
    alpha = coface(src[axis], i) if face else codegeneracy(level[axis], i)
    return level_map(variant, direction, alpha, src, level).pullback(alg)(element)


def _adjacent(level, direction, delta):
    index = _AXIS[direction]
    out = list(level)
    out[index] += delta
    if out[index] < 0:
        raise RangeExceeded(f"no level below {level} in direction {direction}")
    return tuple(out)


# -- structural oracle ----------------------------------------------------


def _adjoint_by_ends(dbl):
    """Adjoint horizontal equivalence data, looked up by the endpoints of f."""
    index = {}
    for f, data in dbl.h_equivalences_by_f.items():
        index.setdefault((dbl.hsrc[f], dbl.htgt[f]), []).extend(d for d in data if d.adjoint)
    return lambda a, b: index.get((a, b), [])


# The oracle names the same keys for every element; each prefix's are built once.
@cache
def _data_keys(prefix):
    return prefix, prefix + "*", prefix + ".unit", prefix + ".counit"


def _data_env(prefix, data):
    return dict(zip(_data_keys(prefix), (data.f, data.g, data.eta, data.eps)))


def dbl_nerve_oracle(dbl: FiniteDoubleCategory, m: int, k: int, n: int) -> SimplexSet:
    """Elements built from the explicit low-dimensional descriptions,
    independent of the presentation search; (m, k) ∈ {0,1}² and n ≤ 2."""
    if (m, k, n) not in ORACLE_GRID:
        raise RangeExceeded(f"oracle covers (m, k) in {{0,1}}² and n ≤ 2, not {(m, k, n)}")
    build = {
        (0, 0): _oracle_00,
        (1, 0): _oracle_10,
        (0, 1): _oracle_01,
        (1, 1): _oracle_11,
    }[(m, k)]
    keys = x_presentation(m, k, n)[0].keys
    out = _rows(build(dbl, _adjoint_by_ends(dbl), n), keys)
    out.sort()
    if any(a == b for a, b in pairwise(out)):
        raise DisagreementBug("oracle produced duplicate elements")
    return SimplexSet((m, k, n), keys, out, "structural-oracle")


def _rows(elements, keys):
    """Dict elements as rows in the level's key order ``keys``;
    DisagreementBug if an element has other keys."""
    wanted, out = set(keys), []
    for env in elements:
        if env.keys() != wanted:
            raise DisagreementBug(f"element keys {sorted(env)} differ from {list(keys)}")
        out.append(tuple(map(env.__getitem__, keys)))
    return out


def _covering_fillers(dbl, long, first, then):
    """Vertically invertible squares long.f ⇒ (first.f then then.f) with
    identity vertical sides."""
    return dbl.invertible_flat(long.f, dbl.h_then(first.f, then.f))


def _oracle_00(dbl, adj, n):
    if n == 0:
        yield from ({"o0.0.0": a} for a in dbl.objects)
        return
    if n == 1:
        yield from ({"o0.0.0": a, "o0.0.1": b, **_data_env("n01.0.0", d)}
                    for a, b in product(dbl.objects, repeat=2) for d in adj(a, b))
        return
    for a, b, c in product(dbl.objects, repeat=3):
        for d01, d12, d02 in product(adj(a, b), adj(b, c), adj(a, c)):
            for mu in _covering_fillers(dbl, d02, d01, d12):
                env = {"o0.0.0": a, "o0.0.1": b, "o0.0.2": c, "N0.0": mu}
                env.update(_data_env("n01.0.0", d01))
                env.update(_data_env("n12.0.0", d12))
                env.update(_data_env("n02.0.0", d02))
                yield env


def _one_simplex_10(dbl, f, g, d0, d1):
    """Vertically invertible squares (d0.f then g) ⇒ (f then d1.f)."""
    return dbl.invertible_flat(dbl.h_then(d0.f, g), dbl.h_then(f, d1.f))


def _oracle_10(dbl, adj, n):
    s, t = dbl.hsrc, dbl.htgt
    if n == 0:
        yield from ({"o0.0.0": s[f], "o1.0.0": t[f], "m01.0.0": f} for f in dbl.hmors)
        return
    if n == 1:
        for f, g in product(dbl.hmors, repeat=2):
            for d0, d1 in product(adj(s[f], s[g]), adj(t[f], t[g])):
                for sq in _one_simplex_10(dbl, f, g, d0, d1):
                    env = {
                        "o0.0.0": s[f], "o1.0.0": t[f], "o0.0.1": s[g], "o1.0.1": t[g],
                        "m01.0.0": f, "m01.0.1": g, "X01.01.0": sq,
                    }
                    env.update(_data_env("n01.0.0", d0))
                    env.update(_data_env("n01.1.0", d1))
                    yield env
        return
    for f, g, h in product(dbl.hmors, repeat=3):
        for data in product(adj(s[f], s[g]), adj(t[f], t[g]), adj(s[g], s[h]),
                            adj(t[g], t[h]), adj(s[f], s[h]), adj(t[f], t[h])):
            yield from _oracle_10_two(dbl, f, g, h, *data)


def _oracle_10_two(dbl, f, g, h, phi0, phi1, psi0, psi1, th0, th1):
    e = dbl.e_sq
    for phi in _one_simplex_10(dbl, f, g, phi0, phi1):
        for psi in _one_simplex_10(dbl, g, h, psi0, psi1):
            for theta in _one_simplex_10(dbl, f, h, th0, th1):
                for mu0 in _covering_fillers(dbl, th0, phi0, psi0):
                    for mu1 in _covering_fillers(dbl, th1, phi1, psi1):
                        lhs = dbl.s_vcomp(
                            dbl.s_hcomp(mu0, e[h]),
                            dbl.s_vcomp(
                                dbl.s_hcomp(e[phi0.f], psi),
                                dbl.s_hcomp(phi, e[psi1.f]),
                            ),
                        )
                        rhs = dbl.s_vcomp(theta, dbl.s_hcomp(e[f], mu1))
                        if lhs != rhs:
                            continue
                        env = {
                            "o0.0.0": dbl.hsrc[f], "o1.0.0": dbl.htgt[f],
                            "o0.0.1": dbl.hsrc[g], "o1.0.1": dbl.htgt[g],
                            "o0.0.2": dbl.hsrc[h], "o1.0.2": dbl.htgt[h],
                            "m01.0.0": f, "m01.0.1": g, "m01.0.2": h,
                            "X01.01.0": phi, "X01.12.0": psi, "X01.02.0": theta,
                            "N0.0": mu0, "N1.0": mu1,
                        }
                        env.update(_data_env("n01.0.0", phi0))
                        env.update(_data_env("n01.1.0", phi1))
                        env.update(_data_env("n12.0.0", psi0))
                        env.update(_data_env("n12.1.0", psi1))
                        env.update(_data_env("n02.0.0", th0))
                        env.update(_data_env("n02.1.0", th1))
                        yield env


def _whi_fillers(dbl, u, w, d_top, d_bot):
    whis = whi_squares(dbl)
    return [
        s
        for s in dbl.squares_with(top=d_top.f, bottom=d_bot.f, left=u, right=w)
        if s in whis
    ]


def _oracle_01(dbl, adj, n):
    s, t = dbl.vsrc, dbl.vtgt
    if n == 0:
        yield from ({"o0.0.0": s[u], "o0.1.0": t[u], "k01.0.0": u} for u in dbl.vmors)
        return
    if n == 1:
        for u, w in product(dbl.vmors, repeat=2):
            for d0, d1 in product(adj(s[u], s[w]), adj(t[u], t[w])):
                for sq in _whi_fillers(dbl, u, w, d0, d1):
                    env = {
                        "o0.0.0": s[u], "o0.1.0": t[u], "o0.0.1": s[w], "o0.1.1": t[w],
                        "k01.0.0": u, "k01.0.1": w, "B01.01.0": sq,
                    }
                    env.update(_data_env("n01.0.0", d0))
                    env.update(_data_env("n01.0.1", d1))
                    yield env
        return
    for u, w, y in product(dbl.vmors, repeat=3):
        for data in product(adj(s[u], s[w]), adj(t[u], t[w]), adj(s[w], s[y]),
                            adj(t[w], t[y]), adj(s[u], s[y]), adj(t[u], t[y])):
            yield from _oracle_01_two(dbl, u, w, y, *data)


def _oracle_01_two(dbl, u, w, y, phi0, phi1, psi0, psi1, th0, th1):
    for phi in _whi_fillers(dbl, u, w, phi0, phi1):
        for psi in _whi_fillers(dbl, w, y, psi0, psi1):
            for theta in _whi_fillers(dbl, u, y, th0, th1):
                for mu in _covering_fillers(dbl, th0, phi0, psi0):
                    for mu2 in _covering_fillers(dbl, th1, phi1, psi1):
                        if dbl.s_vcomp(mu, dbl.s_hcomp(phi, psi)) != dbl.s_vcomp(theta, mu2):
                            continue
                        env = {
                            "o0.0.0": dbl.vsrc[u], "o0.1.0": dbl.vtgt[u],
                            "o0.0.1": dbl.vsrc[w], "o0.1.1": dbl.vtgt[w],
                            "o0.0.2": dbl.vsrc[y], "o0.1.2": dbl.vtgt[y],
                            "k01.0.0": u, "k01.0.1": w, "k01.0.2": y,
                            "B01.01.0": phi, "B12.01.0": psi, "B02.01.0": theta,
                            "N0.0": mu, "N0.1": mu2,
                        }
                        env.update(_data_env("n01.0.0", phi0))
                        env.update(_data_env("n01.0.1", phi1))
                        env.update(_data_env("n12.0.0", psi0))
                        env.update(_data_env("n12.0.1", psi1))
                        env.update(_data_env("n02.0.0", th0))
                        env.update(_data_env("n02.0.1", th1))
                        yield env


def _oracle_11(dbl, adj, n):
    if n == 0:
        return (_square_env(dbl, s, 0) for s in dbl.squares)
    return _oracle_11_one(dbl, adj) if n == 1 else _oracle_11_two(dbl, adj)


@cache
def _square_keys(z):
    return tuple(f"{stem}.{z}" for stem in ("o0.0", "o1.0", "o0.1", "o1.1", "m01.0",
                                            "m01.1", "k01.0", "k01.1", "A01.01"))


def _square_env(dbl, s, z):
    top, bottom = dbl.stop[s], dbl.sbottom[s]
    return dict(zip(_square_keys(z), (dbl.hsrc[top], dbl.htgt[top], dbl.hsrc[bottom],
                                      dbl.htgt[bottom], top, bottom, dbl.sleft[s],
                                      dbl.sright[s], s)))


def _one_simplices_11(dbl, adj, alpha, beta):
    """The connecting data between two squares: four adjoint equivalences,
    two invertible interchangers, two weak-inverse-admitting fillers, and
    the single pasting equality."""
    s, t = dbl.hsrc, dbl.htgt
    f, f2 = dbl.stop[alpha], dbl.sbottom[alpha]
    g, g2 = dbl.stop[beta], dbl.sbottom[beta]
    u, v = dbl.sleft[alpha], dbl.sright[alpha]
    w, x_ = dbl.sleft[beta], dbl.sright[beta]
    out = []
    # components at (0, 0), (1, 0), (0, 1), (1, 1): the corners of alpha to those of beta
    for d00, d10, d01, d11 in product(adj(s[f], s[g]), adj(t[f], t[g]),
                                      adj(s[f2], s[g2]), adj(t[f2], t[g2])):
        for phi in _one_simplex_10(dbl, f, g, d00, d10):
            for phi2 in _one_simplex_10(dbl, f2, g2, d01, d11):
                for t0 in _whi_fillers(dbl, u, w, d00, d01):
                    for t1 in _whi_fillers(dbl, v, x_, d10, d11):
                        lhs = dbl.s_vcomp(phi, dbl.s_hcomp(alpha, t1))
                        rhs = dbl.s_vcomp(dbl.s_hcomp(t0, beta), phi2)
                        if lhs != rhs:
                            continue
                        out.append((d00, d10, d01, d11, phi, phi2, t0, t1))
    return out


@cache
def _edge_keys(gap):
    """The prefixes of the four adjoint equivalences of an edge across
    ``gap``, in the order of a datum, and the keys of its four squares."""
    return (tuple(f"n{gap}.{x}.{z}" for z in (0, 1) for x in (0, 1)),
            (f"X01.{gap}.0", f"X01.{gap}.1", f"B{gap}.01.0", f"B{gap}.01.1"))


def _edge_env_11(datum, gap):
    prefixes, square_keys = _edge_keys(gap)
    env = dict(zip(square_keys, datum[4:]))
    for prefix, data in zip(prefixes, datum[:4]):
        env.update(_data_env(prefix, data))
    return env


def _oracle_11_one(dbl, adj):
    for alpha in dbl.squares:
        for beta in dbl.squares:
            for datum in _one_simplices_11(dbl, adj, alpha, beta):
                env = _square_env(dbl, alpha, 0)
                env.update(_square_env(dbl, beta, 1))
                env.update(_edge_env_11(datum, "01"))
                yield env


def _oracle_11_two(dbl, adj):
    known: dict = {}  # the 1-simplices of each ordered pair, computed once

    def one(alpha, beta):
        if (alpha, beta) not in known:
            known[alpha, beta] = _one_simplices_11(dbl, adj, alpha, beta)
        return known[alpha, beta]

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
                for phi_d in one_ab:
                    for psi_d in one_bc:
                        for th_d in one_ac:
                            yield from _oracle_11_two_fill(dbl, alpha, beta, gamma,
                                                           phi_d, psi_d, th_d)


def _oracle_11_two_fill(dbl, alpha, beta, gamma, phi_d, psi_d, th_d):
    e = dbl.e_sq
    p00, p10, p01, p11, phi_t, phi_b, pt0, pt1 = phi_d
    s00, s10, s01, s11, psi_t, psi_b, st0, st1 = psi_d
    t00, t10, t01, t11, th_t, th_b, tt0, tt1 = th_d
    f, f2 = dbl.stop[alpha], dbl.sbottom[alpha]
    h, h2 = dbl.stop[gamma], dbl.sbottom[gamma]
    for mu00 in _covering_fillers(dbl, t00, p00, s00):
        for mu10 in _covering_fillers(dbl, t10, p10, s10):
            # condition along the top horizontal generator
            lhs = dbl.s_vcomp(
                dbl.s_hcomp(mu00, e[h]),
                dbl.s_vcomp(dbl.s_hcomp(e[p00.f], psi_t), dbl.s_hcomp(phi_t, e[s10.f])),
            )
            if lhs != dbl.s_vcomp(th_t, dbl.s_hcomp(e[f], mu10)):
                continue
            for mu01 in _covering_fillers(dbl, t01, p01, s01):
                # condition along the left vertical generator
                if dbl.s_vcomp(mu00, dbl.s_hcomp(pt0, st0)) != dbl.s_vcomp(tt0, mu01):
                    continue
                for mu11 in _covering_fillers(dbl, t11, p11, s11):
                    if dbl.s_vcomp(mu10, dbl.s_hcomp(pt1, st1)) != dbl.s_vcomp(tt1, mu11):
                        continue
                    lhs = dbl.s_vcomp(
                        dbl.s_hcomp(mu01, e[h2]),
                        dbl.s_vcomp(
                            dbl.s_hcomp(e[p01.f], psi_b), dbl.s_hcomp(phi_b, e[s11.f])
                        ),
                    )
                    if lhs != dbl.s_vcomp(th_b, dbl.s_hcomp(e[f2], mu11)):
                        continue
                    env = _square_env(dbl, alpha, 0)
                    env.update(_square_env(dbl, beta, 1))
                    env.update(_square_env(dbl, gamma, 2))
                    env.update(_edge_env_11(phi_d, "01"))
                    env.update(_edge_env_11(psi_d, "12"))
                    env.update(_edge_env_11(th_d, "02"))
                    env.update({"N0.0": mu00, "N1.0": mu10, "N0.1": mu01, "N1.1": mu11})
                    yield env


# -- nerves of 2-categories ------------------------------------------------


def _two_rows_to_dbl(cat2, variant, dbl, quotient, level):
    """The map from rows of ``quotient``, the ``variant`` quotient of
    ``level``, in ``cat2`` to rows of the double level in ``dbl``, the
    embedded double category, compiled once: one function of the quotient
    row per generator of the double presentation, in its key order."""
    pres, meta = x_presentation(*level)
    at = {name: i for i, name in enumerate(quotient.keys)}
    if variant == "h":  # an object reads its class in the plain quotient
        at.update((name, at[_qname(kind[1], kind[3])])
                  for name, kind in meta.items() if kind[0] == "obj")

    def vmor(v):
        """The vertical morphism of ``dbl`` that a row gives the v-expression ``v``."""
        if v[0] == "vid":
            obj = compile_expr(cat2, v[1], at)
            return lambda row: dbl.idv[obj(row)]
        if v[0] == "vgen":  # the adjoint equivalence (f, g, unit, counit) of the quotient
            quad = itemgetter(*(at[v[1] + end] for end in ("", "*", ".unit", ".counit")))
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
    plain, equivalence, _c, _s = lx_presentations(m, k, n)
    pres = plain if variant == "h" else equivalence
    out = SimplexSet((m, k, n), pres.keys, enumerate_canonical(pres, cat2, budget),
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
    _, _, collapse, section = lx_presentations(m, k, n)
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
    chain = vertical_embed(locally_discrete(chain_category(k)))
    target = v_oriental_inv(k)
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
    big, small = pseudo_hom(incl.target, dbl, budget), pseudo_hom(incl.source, dbl, budget)
    return is_trivial_fibration_two(restriction(incl, big, small))


# -- low-dimensional 2-categorical nerve -----------------------------------


def n2_simplices(cat2: FiniteTwoCategory, n: int, budget: int | None = None) -> SimplexSet:
    """Simplices of the 2-categorical nerve: 2-functors out of the adjoint
    oriental family, for n ≤ N2_CAP."""
    if n > N2_CAP:
        raise RangeExceeded(f"n = {n} above the cap {N2_CAP}")
    pres = oriental_adjoint_presentation(n)
    return SimplexSet((n,), pres.keys, enumerate_canonical(pres, cat2, budget),
                      "two-categorical-nerve")


def n2_face(cat2, n, i, element):
    return _n2_face_map(n, i).pullback(cat2)(element)


def n2_degeneracy(cat2, n, j, element):
    return _n2_degeneracy_map(n, j).pullback(cat2)(element)


@cache
def _n2_face_map(n, i):
    """The oriental map behind d_i on level n, built once."""
    return oriental_presentation_map(coface(n - 1, i), n - 1, n)


@cache
def _n2_degeneracy_map(n, j):
    """The oriental map behind s_j on level n, built once."""
    return oriental_presentation_map(codegeneracy(n, j), n + 1, n)
