"""The 2-category of double functors, horizontal pseudo-natural
transformations, and modifications, materialized by exhaustive search.

Double functors are the valuations of the domain read as a presentation:
one generator per object and per non-unit cell, one relation per
composition-table entry.  Transformations carry a horizontal morphism per
object, a square per vertical morphism, and a vertically invertible square
per horizontal morphism, subject to strict vertical functoriality,
horizontal pseudo-functoriality, and naturality against every square;
modifications carry one square per object with two whiskering conditions.
All three searches run on the kernel of ``presentation``, which tests each
condition as soon as the components it reads are chosen.  Every candidate
tried counts against the budget; the transformation and modification
searches of one ``pseudo_hom`` call share a single budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import expr as ex
from .dblcat import DoubleFunctor, FiniteDoubleCategory, validate_double_functor
from .errors import MissingComposite
from .presentation import PresentationBuilder, _search, enumerate_functors
from .twocat import FiniteTwoCategory, assemble_two_category
from .whi import whi_squares


def _as_presentation(dom: FiniteDoubleCategory):
    """``dom`` as a double presentation.

    Generators are ``o:``, ``h:``, ``v:`` or ``s:`` followed by the name of
    an object or a non-unit cell; unit cells are the ``hid``/``vid``/
    ``sid_h``/``sid_v`` expressions over them.  Every composition-table
    entry is a relation, except those with an operand that is a unit of
    that composition, which the target's unit laws satisfy.
    """
    unit_h = {i: a for a, i in dom.idh.items()}
    unit_v = {i: a for a, i in dom.idv.items()}
    e_of = {e: f for f, e in dom.e_sq.items()}
    i_of = {i: u for u, i in dom.i_sq.items()}

    def obj(a):
        return ex.ogen(f"o:{a}")

    def hmor(f):
        return ex.hid(obj(unit_h[f])) if f in unit_h else ex.hgen(f"h:{f}")

    def vmor(u):
        return ex.vid(obj(unit_v[u])) if u in unit_v else ex.vgen(f"v:{u}")

    def square(s):
        if s in e_of:
            return ex.sid_h(hmor(e_of[s]))
        if s in i_of:
            return ex.sid_v(vmor(i_of[s]))
        return ex.sgen(f"s:{s}")

    b = PresentationBuilder("double")
    for a in dom.objects:
        b.add_object(f"o:{a}")
    for u in sorted(dom.vmors):
        if u not in unit_v:
            b.add_vgen(f"v:{u}", obj(dom.vsrc[u]), obj(dom.vtgt[u]))
    for f in sorted(dom.hmors):
        if f not in unit_h:
            b.add_hgen(f"h:{f}", obj(dom.hsrc[f]), obj(dom.htgt[f]))
    for s in sorted(dom.squares):
        if s not in e_of and s not in i_of:
            b.add_square(f"s:{s}", hmor(dom.stop[s]), hmor(dom.sbottom[s]),
                         vmor(dom.sleft[s]), vmor(dom.sright[s]))
    for table, units, cell, compose in (
        (dom.hcomp_h, unit_h, hmor, ex.hcomp),
        (dom.vcomp_v, unit_v, vmor, ex.vcomp),
        (dom.hcomp_sq, i_of, square, ex.shcomp),
        (dom.vcomp_sq, e_of, square, ex.svcomp),
    ):
        for (then, first), result in table.items():
            if first not in units and then not in units:
                b.add_relation(compose(cell(first), cell(then)), cell(result))
    return b.build()


def enumerate_double_functors_concrete(dom: FiniteDoubleCategory, cod: FiniteDoubleCategory,
                                       budget: int | None = None):
    """All double functors dom -> cod, as sorted DoubleFunctor values."""
    out = []
    for valuation in enumerate_functors(_as_presentation(dom), cod, budget):
        maps = {"o": {}, "h": {}, "v": {}, "s": {}}
        for name, image in valuation.items():
            sort, cell = name.split(":", 1)
            maps[sort][cell] = image
        out.append(validate_double_functor(dom, cod, maps["o"], maps["h"], maps["v"], maps["s"]))
    out.sort(key=_functor_key)
    return out


def _functor_key(F: DoubleFunctor):
    return (
        tuple(sorted(F.object_map.items())),
        tuple(sorted(F.h_map.items())),
        tuple(sorted(F.v_map.items())),
        tuple(sorted(F.sq_map.items())),
    )


@dataclass(frozen=True)
class Transformation:
    source: str  # functor name
    target: str
    at_obj: dict[str, str] = field(hash=False)  # object of dom -> hmor of cod
    at_v: dict[str, str] = field(hash=False)  # vmor of dom -> square of cod
    at_h: dict[str, str] = field(hash=False)  # hmor of dom -> square of cod

    def __hash__(self):
        return id(self)

    def key(self):
        return (
            self.source,
            self.target,
            tuple(sorted(self.at_obj.items())),
            tuple(sorted(self.at_v.items())),
            tuple(sorted(self.at_h.items())),
        )


@dataclass(frozen=True)
class PseudoHom:
    dom: FiniteDoubleCategory
    cod: FiniteDoubleCategory
    two_cat: FiniteTwoCategory
    functors: dict[str, DoubleFunctor] = field(hash=False)
    transformations: dict[str, Transformation] = field(hash=False)
    modifications: dict[str, dict] = field(hash=False)  # name -> components per object

    def __hash__(self):
        return id(self)


def _free_cells(dom):
    """The non-identity vertical and horizontal morphisms of ``dom``, sorted."""
    unit_v, unit_h = set(dom.idv.values()), set(dom.idh.values())
    return ([u for u in sorted(dom.vmors) if u not in unit_v],
            [f for f in sorted(dom.hmors) if f not in unit_h])


def _transformations_between(dom, cod, fname, gname, F, G, budget, spent):
    """Horizontal pseudo-natural transformations F => G by component search,
    and the budget spent so far."""
    free_v, free_h = _free_cells(dom)
    unit_v = {i: a for a, i in dom.idv.items()}
    unit_h = {i: a for a, i in dom.idh.items()}

    # The component at an identity is the unit square of the object's
    # component, so it is read from that object's variable.
    def var_v(u):
        return ("o", unit_v[u]) if u in unit_v else ("v", u)

    def var_h(f):
        return ("o", unit_h[f]) if f in unit_h else ("h", f)

    variables = [
        (("o", a), (), lambda env, a=a: cod.hmors_between(F.object_map[a], G.object_map[a]))
        for a in dom.objects
    ]
    variables += [
        (("v", u), (("o", dom.vsrc[u]), ("o", dom.vtgt[u])), lambda env, u=u: cod.squares_with(
            top=env[("o", dom.vsrc[u])], bottom=env[("o", dom.vtgt[u])],
            left=F.v_map[u], right=G.v_map[u]))
        for u in free_v
    ]
    variables += [
        (("h", f), (("o", dom.hsrc[f]), ("o", dom.htgt[f])), lambda env, f=f: cod.invertible_flat(
            cod.h_then(env[("o", dom.hsrc[f])], G.h_map[f]),
            cod.h_then(F.h_map[f], env[("o", dom.htgt[f])])))
        for f in free_h
    ]
    constraints: list = []

    def require(cells, test):
        """Constrain the components at ``cells`` by ``test``."""
        constraints.append((cells, lambda env: test(
            *[cod.e_sq[env[c]] if c[0] == "o" else env[c] for c in cells])))

    for (w, u), z in dom.vcomp_v.items():  # strict vertical functoriality
        if u not in unit_v and w not in unit_v:
            require((var_v(u), var_v(w), var_v(z)),
                    lambda first, then, composite: cod.s_vcomp(first, then) == composite)
    for (g, f), h in dom.hcomp_h.items():  # horizontal pseudo-functoriality
        if f not in unit_h and g not in unit_h:
            require((var_h(f), var_h(g), var_h(h)),
                    lambda first, then, composite, e_g=cod.e_sq[G.h_map[g]],
                    e_f=cod.e_sq[F.h_map[f]]: cod.s_vcomp(
                        cod.s_hcomp(first, e_g), cod.s_hcomp(e_f, then)) == composite)
    unit_squares = set(dom.e_sq.values()) | set(dom.i_sq.values())
    for s in sorted(dom.squares):  # naturality against every non-unit square
        if s in unit_squares:
            continue
        require((var_h(dom.stop[s]), var_h(dom.sbottom[s]),
                 var_v(dom.sleft[s]), var_v(dom.sright[s])),
                lambda top, bottom, left, right, Fs=F.sq_map[s], Gs=G.sq_map[s]:
                cod.s_vcomp(top, cod.s_hcomp(Fs, right))
                == cod.s_vcomp(cod.s_hcomp(left, Gs), bottom))
    found, spent = _search(variables, constraints, budget, spent)
    v_at, h_at = len(dom.objects), len(dom.objects) + len(free_v)
    return [
        Transformation(fname, gname, dict(zip(dom.objects, row)),
                       dict(zip(free_v, row[v_at:])), dict(zip(free_h, row[h_at:])))
        for row in found
    ], spent


def _modifications_between(dom, cod, F, G, t1, t2, budget, spent):
    """Modifications t1 => t2 as components per object, and the budget
    spent so far."""
    free_v, free_h = _free_cells(dom)
    variables = [
        (a, (), lambda env, a=a: cod.squares_with(
            top=t1.at_obj[a], bottom=t2.at_obj[a],
            left=cod.idv[F.object_map[a]], right=cod.idv[G.object_map[a]]))
        for a in dom.objects
    ]
    constraints = [
        ((dom.hsrc[f], dom.htgt[f]), lambda mu, f=f, i=dom.hsrc[f], j=dom.htgt[f]:
         cod.s_vcomp(t1.at_h[f], cod.s_hcomp(cod.e_sq[F.h_map[f]], mu[j]))
         == cod.s_vcomp(cod.s_hcomp(mu[i], cod.e_sq[G.h_map[f]]), t2.at_h[f]))
        for f in free_h
    ]
    constraints += [
        ((dom.vsrc[u], dom.vtgt[u]), lambda mu, u=u, i=dom.vsrc[u], j=dom.vtgt[u]:
         cod.s_vcomp(t1.at_v[u], mu[j]) == cod.s_vcomp(mu[i], t2.at_v[u]))
        for u in free_v
    ]
    found, spent = _search(variables, constraints, budget, spent)
    return [dict(zip(dom.objects, row)) for row in found], spent


def pseudo_hom(dom: FiniteDoubleCategory, cod: FiniteDoubleCategory,
               budget: int | None = None) -> PseudoHom:
    """Materialize the pseudo-hom 2-category of double functors dom -> cod."""
    functor_list = enumerate_double_functors_concrete(dom, cod, budget)
    fnames = {f"F{i}": F for i, F in enumerate(functor_list)}
    free_v, free_h = _free_cells(dom)
    spent = 0  # shared by every transformation and modification search

    transformations: dict[str, Transformation] = {}
    by_key = {}
    trans_names: dict[tuple, list[str]] = {}
    for fname, F in sorted(fnames.items()):
        for gname, G in sorted(fnames.items()):
            found, spent = _transformations_between(dom, cod, fname, gname, F, G, budget, spent)
            for tr in found:
                name = f"t{len(transformations)}"
                transformations[name] = tr
                by_key[tr.key()] = name
                trans_names.setdefault((fname, gname), []).append(name)

    def identity_of(fname):
        F = fnames[fname]
        tr = Transformation(
            fname,
            fname,
            {a: cod.idh[F.object_map[a]] for a in dom.objects},
            {u: cod.i_sq[F.v_map[u]] for u in free_v},
            {f: cod.e_sq[F.h_map[f]] for f in free_h},
        )
        return by_key[tr.key()]

    def compose(t1name, t2name):
        t1, t2 = transformations[t1name], transformations[t2name]
        at_obj = {a: cod.h_then(t1.at_obj[a], t2.at_obj[a]) for a in dom.objects}
        at_v = {u: cod.s_hcomp(t1.at_v[u], t2.at_v[u]) for u in free_v}
        at_h = {}
        for f in free_h:
            i, j = dom.hsrc[f], dom.htgt[f]
            row1 = cod.s_hcomp(cod.e_sq[t1.at_obj[i]], t2.at_h[f])
            row2 = cod.s_hcomp(t1.at_h[f], cod.e_sq[t2.at_obj[j]])
            at_h[f] = cod.s_vcomp(row1, row2)
        key = Transformation(t1.source, t2.target, at_obj, at_v, at_h).key()
        if key not in by_key:
            raise MissingComposite("composite transformation missing from enumeration")
        return by_key[key]

    modifications: dict[str, dict] = {}
    mod_by_key = {}
    for (fname, gname), names in sorted(trans_names.items()):
        F, G = fnames[fname], fnames[gname]
        for t1name in names:
            for t2name in names:
                t1, t2 = transformations[t1name], transformations[t2name]
                found, spent = _modifications_between(dom, cod, F, G, t1, t2, budget, spent)
                for mu in found:
                    name = f"u{len(modifications)}"
                    modifications[name] = {"src": t1name, "tgt": t2name, "components": mu}
                    mod_by_key[(t1name, t2name, tuple(sorted(mu.items())))] = name

    one_bounds = {name: (tr.source, tr.target) for name, tr in transformations.items()}
    two_bounds = {
        name: (data["src"], data["tgt"]) for name, data in modifications.items()
    }
    id1 = {fname: identity_of(fname) for fname in fnames}
    id2 = {}
    for tname, tr in transformations.items():
        mu = {a: cod.e_sq[tr.at_obj[a]] for a in dom.objects}
        id2[tname] = mod_by_key[(tname, tname, tuple(sorted(mu.items())))]

    hcomp1 = {}
    for t1name, t1 in transformations.items():
        for t2name, t2 in transformations.items():
            if t1.target == t2.source:
                hcomp1[(t2name, t1name)] = compose(t1name, t2name)

    vcomp2 = {}
    for m1, d1 in modifications.items():
        for m2, d2 in modifications.items():
            if d1["tgt"] == d2["src"]:
                mu = {
                    a: cod.s_vcomp(d1["components"][a], d2["components"][a])
                    for a in dom.objects
                }
                vcomp2[(m2, m1)] = mod_by_key[(d1["src"], d2["tgt"], tuple(sorted(mu.items())))]

    hcomp2 = {}
    for m1, d1 in modifications.items():
        t1 = transformations[d1["src"]]
        for m2, d2 in modifications.items():
            t2 = transformations[d2["src"]]
            if t1.target != t2.source:
                continue
            mu = {
                a: cod.s_hcomp(d1["components"][a], d2["components"][a])
                for a in dom.objects
            }
            src = compose(d1["src"], d2["src"])
            tgt = compose(d1["tgt"], d2["tgt"])
            hcomp2[(m2, m1)] = mod_by_key[(src, tgt, tuple(sorted(mu.items())))]

    two_cat = assemble_two_category(
        sorted(fnames), one_bounds, two_bounds, id1, id2, hcomp1, vcomp2, hcomp2
    )
    return PseudoHom(dom, cod, two_cat, fnames, transformations, modifications)


def is_hpnt_equivalence(ph: PseudoHom, tname: str) -> bool:
    """Whether a 1-cell of the pseudo-hom 2-category is an equivalence.

    Computed both by definition (a quadruple with invertible unit and
    counit exists) and as weak invertibility of every vertical component;
    the two runs must agree.
    """
    from .errors import DisagreementBug

    by_definition, all_whi = hpnt_equivalence_report(ph, tname)
    if by_definition != all_whi:
        raise DisagreementBug(
            f"equivalence checks disagree on {tname!r}: "
            f"definition={by_definition}, components={all_whi}"
        )
    return by_definition


def hpnt_equivalence_report(ph: PseudoHom, tname: str):
    """(equivalence-by-definition, all-vertical-components-whi) for a 1-cell."""
    tr = ph.transformations[tname]
    by_definition = any(e[0] == tname for e in ph.two_cat.equivalences())
    whis = whi_squares(ph.cod)
    components = []
    for u in ph.dom.vmors:
        if u in ph.dom.idv.values():
            a = next(x for x, i in ph.dom.idv.items() if i == u)
            components.append(ph.cod.e_sq[tr.at_obj[a]])
        else:
            components.append(tr.at_v[u])
    all_whi = all(s in whis for s in components)
    return by_definition, all_whi
