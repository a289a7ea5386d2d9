"""Weak horizontal invertibility and the checkers built on it.

A square α with boundary (f, f', u, v) is weakly horizontally invertible
when it has a weak inverse β with boundary (g, g', v, u) against
horizontal equivalence data (f, g, η, ε) and (f', g', η', ε'), meaning the
two pasting equalities

    [η over (α | β)] = [id_u over η']      [ε over id_v] = [(β | α) over ε']

hold.  ``weak_inverse`` computes β by the explicit five-layer pasting from
the uniqueness argument: route through any auxiliary witness and
collapse it with the chosen units and counits.  Searches are exhaustive
and memoized per double category.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .dblcat import DoubleFunctor, FiniteDoubleCategory
from .errors import DisagreementBug, NotAdjoint, NotWhi
from .expr import HorizontalEquivalence
from .twocat import promote_equivalence


def horizontal_equivalences(dbl: FiniteDoubleCategory) -> tuple[HorizontalEquivalence, ...]:
    return dbl.h_equivalences()


def equivalence_hmors(dbl) -> frozenset[str]:
    cached = dbl.__dict__.get("_heq_firsts")
    if cached is None:
        cached = frozenset(d.f for d in horizontal_equivalences(dbl))
        dbl.__dict__["_heq_firsts"] = cached
    return cached


def weak_inverse_equations_hold(dbl, alpha, beta, data, data2) -> bool:
    """The two pasting equalities defining 'β is a weak inverse of α'."""
    u, v = dbl.sleft[alpha], dbl.sright[alpha]
    lhs1 = dbl.s_vcomp(data.eta, dbl.s_hcomp(alpha, beta))
    rhs1 = dbl.s_vcomp(dbl.i_sq[u], data2.eta)
    if lhs1 != rhs1:
        return False
    lhs2 = dbl.s_vcomp(data.eps, dbl.i_sq[v])
    rhs2 = dbl.s_vcomp(dbl.s_hcomp(beta, alpha), data2.eps)
    return lhs2 == rhs2


@dataclass(frozen=True)
class WhiWitness:
    alpha: str
    beta: str
    top_data: HorizontalEquivalence
    bottom_data: HorizontalEquivalence

    def verify(self, dbl) -> bool:
        return weak_inverse_equations_hold(dbl, self.alpha, self.beta, self.top_data, self.bottom_data)


def _first_witness(dbl, alpha, adjoint_only: bool):
    """The first weak inverse of α against horizontal equivalence data on
    its top and bottom (adjoint data only, if asked), or None."""
    datas = [d for d in horizontal_equivalences(dbl) if d.adjoint or not adjoint_only]
    tops = [d for d in datas if d.f == dbl.stop[alpha]]
    bottoms = [d for d in datas if d.f == dbl.sbottom[alpha]]
    u, v = dbl.sleft[alpha], dbl.sright[alpha]
    for data, data2 in product(tops, bottoms):
        for beta in dbl.squares_with(top=data.g, bottom=data2.g, left=v, right=u):
            if weak_inverse_equations_hold(dbl, alpha, beta, data, data2):
                return WhiWitness(alpha, beta, data, data2)
    return None


def is_whi_square(dbl: FiniteDoubleCategory, alpha: str):
    """Search for a WhiWitness of α; None when no witness exists."""
    cache = dbl.__dict__.setdefault("_whi", {})
    if alpha not in cache:
        cache[alpha] = _first_witness(dbl, alpha, adjoint_only=False)
    return cache[alpha]


def whi_squares(dbl) -> frozenset[str]:
    cached = dbl.__dict__.get("_whi_set")
    if cached is None:
        cached = frozenset(s for s in dbl.squares if is_whi_square(dbl, s) is not None)
        dbl.__dict__["_whi_set"] = cached
    return cached


def weak_inverse(dbl, alpha, top_data: HorizontalEquivalence, bottom_data: HorizontalEquivalence) -> str:
    """The unique weak inverse of α against fixed horizontal *adjoint*
    equivalence data, via the explicit five-layer pasting.

    The initial witness (γ against auxiliary adjoint data) is found by
    search; the γ-independent output is verified against both defining
    pasting equalities before being returned.
    """
    if not top_data.adjoint or not bottom_data.adjoint:
        raise NotAdjoint("weak_inverse requires adjoint equivalence data on both boundaries")
    if top_data.f != dbl.stop[alpha] or bottom_data.f != dbl.sbottom[alpha]:
        raise NotAdjoint("data does not match the horizontal boundaries of the square")

    aux = _first_witness(dbl, alpha, adjoint_only=True)
    if aux is None:
        raise NotWhi(f"square {alpha!r} is not weakly horizontally invertible")
    gamma, mid, mid2 = aux.beta, aux.top_data, aux.bottom_data

    g, g2 = top_data.g, bottom_data.g
    h, h2 = mid.g, mid2.g
    e = dbl.e_sq
    layer1 = dbl.s_hcomp(e[g], mid.eta)
    layer2 = dbl.s_hcomp(top_data.eps, e[h])
    layer3 = dbl.s_hcomp(dbl.i_sq[dbl.sright[alpha]], gamma)
    layer4 = dbl.s_hcomp(dbl.s_vinverse(bottom_data.eps), e[h2])
    layer5 = dbl.s_hcomp(e[g2], dbl.s_vinverse(mid2.eta))
    beta = dbl.s_vcomp(layer1, dbl.s_vcomp(layer2, dbl.s_vcomp(layer3, dbl.s_vcomp(layer4, layer5))))

    if not weak_inverse_equations_hold(dbl, alpha, beta, top_data, bottom_data):
        raise DisagreementBug(
            f"pasting formula produced a non-inverse for {alpha!r}; this is a code fault"
        )
    return beta


def promote_witness(dbl, witness: WhiWitness) -> WhiWitness:
    """Replace the witness data by adjoint data with the same f, g and unit."""
    top, bottom = (HorizontalEquivalence(*promote_equivalence(dbl, *data.as_tuple()), True)
                   for data in (witness.top_data, witness.bottom_data))
    return WhiWitness(witness.alpha, weak_inverse(dbl, witness.alpha, top, bottom), top, bottom)


def vertical_inverse_of_flat_square(dbl, alpha):
    """In terms of a weak inverse: the explicit vertical inverse of a whi
    square with trivial vertical boundaries between horizontal equivalences
    (used as an independent cross-check of the whi ⇔ vertically invertible
    equivalence)."""
    witness = is_whi_square(dbl, alpha)
    if witness is None:
        raise NotWhi(f"square {alpha!r} is not weakly horizontally invertible")
    witness = promote_witness(dbl, witness)
    top, bottom, beta = witness.top_data, witness.bottom_data, witness.beta
    e = dbl.e_sq
    band1 = dbl.s_hcomp(top.eta, e[bottom.f])
    band2 = dbl.s_hcomp(dbl.s_hcomp(e[top.f], beta), e[bottom.f])
    band3 = dbl.s_hcomp(e[top.f], bottom.eps)
    return dbl.s_vcomp(band1, dbl.s_vcomp(band2, band3))


def is_weakly_horizontally_invariant(dbl: FiniteDoubleCategory):
    """Every pair of horizontal equivalences over a vertical morphism admits
    a weakly horizontally invertible filler.  Returns (verdict, witness)."""
    eq_fs = sorted(equivalence_hmors(dbl))
    whis = whi_squares(dbl)
    for f in eq_fs:
        for f2 in eq_fs:
            for v in dbl.vmors_between(dbl.htgt[f], dbl.htgt[f2]):
                filled = False
                for u in dbl.vmors_between(dbl.hsrc[f], dbl.hsrc[f2]):
                    for alpha in dbl.squares_with(top=f, bottom=f2, left=u, right=v):
                        if alpha in whis:
                            filled = True
                            break
                    if filled:
                        break
                if not filled:
                    return False, (f, f2, v)
    return True, None


def is_double_biequivalence(functor: DoubleFunctor):
    """Verdict plus first failing datum for the four clauses."""
    src, tgt = functor.source, functor.target
    om, hm, vm = functor.object_map, functor.h_map, functor.v_map

    image_objects = set(om.values())
    reachable = {d.f for d in horizontal_equivalences(tgt)}
    for b in tgt.objects:
        if not any(tgt.hsrc[f] in image_objects and tgt.htgt[f] == b for f in reachable):
            return False, ("object-not-reached", b)

    for a1 in src.objects:
        for a2 in src.objects:
            for g in tgt.hmors_between(om[a1], om[a2]):
                if not any(tgt.invertible_flat(hm[f], g) for f in src.hmors_between(a1, a2)):
                    return False, ("h-morphism-not-reached", g)

    whis = whi_squares(tgt)
    for a1 in src.objects:
        for a2 in src.objects:
            for w in tgt.vmors_between(om[a1], om[a2]):
                hit = False
                for u in src.vmors:
                    for alpha in tgt.squares_with(left=vm[u], right=w):
                        if alpha in whis:
                            hit = True
                            break
                    if hit:
                        break
                if not hit:
                    return False, ("v-morphism-not-reached", w)

    ok, reason = _fully_faithful_on_squares(functor)
    if not ok:
        return False, reason
    return True, None


def _fully_faithful_on_squares(functor):
    src, tgt = functor.source, functor.target
    hm, vm, sm = functor.h_map, functor.v_map, functor.sq_map
    boundaries = {}
    for s in src.squares:
        key = (src.stop[s], src.sbottom[s], src.sleft[s], src.sright[s])
        boundaries.setdefault(key, []).append(s)
    seen_keys = set()
    for f in src.hmors:
        for f2 in src.hmors:
            for u in src.vmors_between(src.hsrc[f], src.hsrc[f2]):
                for v in src.vmors_between(src.htgt[f], src.htgt[f2]):
                    key = (f, f2, u, v)
                    if key in seen_keys:
                        continue
                    seen_keys.add(key)
                    upstairs = boundaries.get(key, [])
                    downstairs = tgt.squares_with(
                        top=hm[f], bottom=hm[f2], left=vm[u], right=vm[v]
                    )
                    for t in downstairs:
                        fiber = [s for s in upstairs if sm[s] == t]
                        if len(fiber) != 1:
                            return False, ("square-fiber", key, t, len(fiber))
    return True, None


def is_trivial_fibration(functor: DoubleFunctor):
    """Surjective on objects, full on horizontal and vertical morphisms,
    fully faithful on squares."""
    src, tgt = functor.source, functor.target
    om, hm, vm = functor.object_map, functor.h_map, functor.v_map
    if set(om.values()) != set(tgt.objects):
        missing = sorted(set(tgt.objects) - set(om.values()))
        return False, ("object-not-hit", missing[0] if missing else None)
    for a1 in src.objects:
        for a2 in src.objects:
            for g in tgt.hmors_between(om[a1], om[a2]):
                if not any(hm[f] == g for f in src.hmors_between(a1, a2)):
                    return False, ("h-morphism-not-hit", g, a1, a2)
            for w in tgt.vmors_between(om[a1], om[a2]):
                if not any(vm[u] == w for u in src.vmors_between(a1, a2)):
                    return False, ("v-morphism-not-hit", w, a1, a2)
    ok, reason = _fully_faithful_on_squares(functor)
    if not ok:
        return False, reason
    return True, None
