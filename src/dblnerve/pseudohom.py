"""The 2-category of double functors, horizontal pseudo-natural
transformations, and modifications, materialized by exhaustive search.

Double functors are the valuations of the domain read as a presentation:
one generator per object and per non-unit cell, one relation per
composition-table entry, built and planned once per domain
(``FiniteDoubleCategory.presentation``).  Transformations carry a
horizontal morphism per object, a square per vertical morphism, and a
vertically invertible square per horizontal morphism, subject to strict
vertical functoriality, horizontal pseudo-functoriality, and naturality
against every square; modifications carry one square per object with two
whiskering conditions.
All three searches run on the kernel of ``presentation``, which tests each
condition as soon as the components it reads are chosen.  The
transformation and the modification search are each planned once per
``pseudo_hom`` call, from the domain alone, and read each component at its
variable's position in the plan; each pair of functors or of
transformations binds only its images and runs that plan.  Every candidate
tried counts against the budget; the budget is read once per
``pseudo_hom`` call, and its transformation and modification searches
share a single spend.

A transformation is identified by its source and target functors plus its
search row: its components at ``dom.objects``, then at the free vertical,
then at the free horizontal morphisms (``_row_cells``).  A modification is
identified by its source and target transformations plus its components
in ``dom.objects`` order.  Identities, composites and restrictions along a
double functor (``restriction``) are computed as rows and looked up by
these keys; only this module knows the row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from . import expr as ex
from .dblcat import DoubleFunctor, FiniteDoubleCategory, validate_double_functor
from .errors import DisagreementBug, MissingComposite
from .presentation import PresentationBuilder, _environment_budget, _plan, _run, enumerate_functors
from .twocat import FiniteTwoCategory, TwoFunctor, assemble_two_category, validate_two_functor
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
    for valuation in enumerate_functors(dom.presentation, cod, budget):
        maps = {"o": {}, "h": {}, "v": {}, "s": {}}
        for name, image in valuation.items():
            sort, cell = name.split(":", 1)
            maps[sort][cell] = image
        out.append(validate_double_functor(dom, cod, maps["o"], maps["h"], maps["v"], maps["s"]))
    out.sort(key=_functor_key)
    return out


def _maps(F: DoubleFunctor):
    return F.object_map, F.h_map, F.v_map, F.sq_map


def _functor_key(F: DoubleFunctor):
    """F's images, each map's in the sorted order of its keys."""
    return tuple(images[c] for images in _maps(F) for c in sorted(images))


@dataclass(frozen=True, eq=False)
class Transformation:
    source: str  # functor name
    target: str
    at_obj: dict[str, str]  # object of dom -> hmor of cod
    at_v: dict[str, str]  # free vmor of dom -> square of cod
    at_h: dict[str, str]  # free hmor of dom -> square of cod


@dataclass(frozen=True, eq=False)
class PseudoHom:
    dom: FiniteDoubleCategory
    cod: FiniteDoubleCategory
    two_cat: FiniteTwoCategory
    functors: dict[str, DoubleFunctor]
    transformations: dict[str, Transformation]
    modifications: dict[str, dict]  # name -> components per object
    # transformation or modification name -> (source, target, row), the key it is found by
    keys: dict[str, tuple]


def _free_cells(dom):
    """The non-identity vertical and horizontal morphisms of ``dom``, sorted."""
    unit_v, unit_h = set(dom.idv.values()), set(dom.idh.values())
    return ([u for u in sorted(dom.vmors) if u not in unit_v],
            [f for f in sorted(dom.hmors) if f not in unit_h])


def _row_cells(dom):
    """The variables of a transformation out of ``dom`` in row order: its
    objects, then its free vertical, then its free horizontal morphisms."""
    free_v, free_h = _free_cells(dom)
    return [("o", a) for a in dom.objects] + [("v", u) for u in free_v] + [("h", f) for f in free_h]


def _variable(dom):
    """The variable of a transformation's component at an object ("o"), a
    vertical ("v") or a horizontal ("h") morphism of ``dom``.  At an
    identity it is the object's variable: that component is the unit square
    of the object's component."""
    units = {"o": {}, "v": {i: a for a, i in dom.idv.items()},
             "h": {i: a for a, i in dom.idh.items()}}
    return lambda sort, cell: ("o", units[sort][cell]) if cell in units[sort] else (sort, cell)


def _transformation_search(dom, cod):
    """The search for the horizontal pseudo-natural transformations between
    two double functors dom -> cod, planned once: a function of
    ``(F, G, budget, spent)`` that binds the images of F and G, and returns
    the rows of the transformations F => G and the budget spent so far."""
    free_v, free_h = _free_cells(dom)
    var = _variable(dom)
    v_ends = [(("o", dom.vsrc[u]), ("o", dom.vtgt[u])) for u in free_v]
    h_ends = [(("o", dom.hsrc[f]), ("o", dom.htgt[f])) for f in free_h]
    hmors_between, squares_with, invertible_flat, h_then = (
        cod.hmors_between, cod.squares_with, cod.invertible_flat, cod.h_then)
    e_sq, vcomp, hcomp = cod.e_sq, cod.vcomp_sq, cod.hcomp_sq  # keyed (then, first)
    at = {cell: depth for depth, cell in enumerate(_row_cells(dom))}  # the plan's positions

    def component(cell):
        """The function reading the component at ``cell``: at the variable
        of an object, the unit square of that object's component."""
        i = at[cell]
        return (lambda env: e_sq[env[i]]) if cell[0] == "o" else itemgetter(i)

    def functorial(first, then, composite):
        return lambda env: vcomp[(then(env), first(env))] == composite(env)

    def pseudo_functorial(first, then, composite, e_g, e_f):
        return lambda env: vcomp[(hcomp[(then(env), e_f)], hcomp[(e_g, first(env))])] == composite(env)

    def natural(top, bottom, left, right, Fs, Gs):
        return lambda env: (vcomp[(hcomp[(right(env), Fs)], top(env))]
                            == vcomp[(bottom(env), hcomp[(Gs, left(env))])])

    inputs, fixed, pseudo, squares = [], [], [], []
    unit_v, unit_h = set(dom.idv.values()), set(dom.idh.values())
    for (w, u), z in dom.vcomp_v.items():  # strict vertical functoriality
        if u not in unit_v and w not in unit_v:
            inputs.append((var("v", u), var("v", w), var("v", z)))
            fixed.append(functorial(*map(component, inputs[-1])))
    for (g, f), h in dom.hcomp_h.items():  # horizontal pseudo-functoriality
        if f not in unit_h and g not in unit_h:
            inputs.append((var("h", f), var("h", g), var("h", h)))
            pseudo.append((g, f, [*map(component, inputs[-1])]))
    unit_squares = set(dom.e_sq.values()) | set(dom.i_sq.values())
    for s in sorted(dom.squares):  # naturality against every non-unit square
        if s not in unit_squares:
            inputs.append((var("h", dom.stop[s]), var("h", dom.sbottom[s]),
                           var("v", dom.sleft[s]), var("v", dom.sright[s])))
            squares.append((s, [*map(component, inputs[-1])]))
    plan = _plan([(("o", a), ()) for a in dom.objects]
                 + [(("v", u), ends) for u, ends in zip(free_v, v_ends)]
                 + [(("h", f), ends) for f, ends in zip(free_h, h_ends)], inputs)
    v_ends = [(at[top], at[bottom]) for top, bottom in v_ends]
    h_ends = [(at[i], at[j]) for i, j in h_ends]

    def run(F, G, budget, spent):
        Fo, Go, Fv, Gv, Fh, Gh = F.object_map, G.object_map, F.v_map, G.v_map, F.h_map, G.h_map
        candidates = [lambda env, a=Fo[a], b=Go[a]: hmors_between(a, b) for a in dom.objects]
        candidates += [lambda env, top=top, bottom=bottom, left=Fv[u], right=Gv[u]: squares_with(
            top=env[top], bottom=env[bottom], left=left, right=right)
            for u, (top, bottom) in zip(free_v, v_ends)]
        candidates += [lambda env, i=i, j=j, Gf=Gh[f], Ff=Fh[f]: invertible_flat(
            h_then(env[i], Gf), h_then(Ff, env[j])) for f, (i, j) in zip(free_h, h_ends)]
        checks = [*fixed, *(pseudo_functorial(*cells, e_sq[Gh[g]], e_sq[Fh[f]])
                            for g, f, cells in pseudo),
                  *(natural(*cells, F.sq_map[s], G.sq_map[s]) for s, cells in squares)]
        return _run(plan, candidates, checks, budget, spent)
    return run


def _modification_search(dom, cod):
    """The search for the modifications between two transformations of
    double functors dom -> cod, planned once: a function of
    ``(F, G, r1, r2, budget, spent)``, for transformations F => G with rows
    r1 and r2, that binds their images and returns the rows of the
    modifications, their components in ``dom.objects`` order, and the
    budget spent so far."""
    free_v, free_h = _free_cells(dom)
    n, h_at = len(dom.objects), len(dom.objects) + len(free_v)  # where a row's blocks start
    h_ends = [(dom.hsrc[f], dom.htgt[f]) for f in free_h]
    v_ends = [(dom.vsrc[u], dom.vtgt[u]) for u in free_v]
    idv, e_sq, vcomp, hcomp, squares_with = (
        cod.idv, cod.e_sq, cod.vcomp_sq, cod.hcomp_sq, cod.squares_with)  # keyed (then, first)
    plan = _plan([(a, ()) for a in dom.objects], h_ends + v_ends)
    at = {a: depth for depth, a in enumerate(plan[0])}
    h_ends = [(at[i], at[j]) for i, j in h_ends]
    v_ends = [(at[i], at[j]) for i, j in v_ends]

    def whiskered_h(i, j, x1, x2, e_F, e_G):
        return lambda mu: vcomp[(hcomp[(mu[j], e_F)], x1)] == vcomp[(x2, hcomp[(e_G, mu[i])])]

    def whiskered_v(i, j, x1, x2):
        return lambda mu: vcomp[(mu[j], x1)] == vcomp[(x2, mu[i])]

    def run(F, G, r1, r2, budget, spent):
        Fo, Go = F.object_map, G.object_map
        candidates = [lambda env, top=top, bottom=bottom, left=idv[Fo[a]], right=idv[Go[a]]:
                      squares_with(top=top, bottom=bottom, left=left, right=right)
                      for a, top, bottom in zip(dom.objects, r1, r2)]
        checks = [whiskered_h(i, j, x1, x2, e_sq[F.h_map[f]], e_sq[G.h_map[f]])
                  for f, (i, j), x1, x2 in zip(free_h, h_ends, r1[h_at:], r2[h_at:])]
        checks += [whiskered_v(i, j, x1, x2)
                   for (i, j), x1, x2 in zip(v_ends, r1[n:h_at], r2[n:h_at])]
        return _run(plan, candidates, checks, budget, spent)
    return run


def pseudo_hom(dom: FiniteDoubleCategory, cod: FiniteDoubleCategory,
               budget: int | None = None) -> PseudoHom:
    """Materialize the pseudo-hom 2-category of double functors dom -> cod;
    every search of the call runs under one budget, read once."""
    budget = _environment_budget() if budget is None else budget
    functor_list = enumerate_double_functors_concrete(dom, cod, budget)
    fnames = {f"F{i}": F for i, F in enumerate(functor_list)}
    free_v, free_h = _free_cells(dom)
    n, h_at = len(dom.objects), len(dom.objects) + len(free_v)  # where a row's blocks start
    spent = 0  # shared by every transformation and modification search
    transformations_between = _transformation_search(dom, cod)
    modifications_between = _modification_search(dom, cod)

    transformations: dict[str, Transformation] = {}
    keys: dict[str, tuple] = {}
    parallel: list[list[str]] = []  # the transformations F => G, per pair of functors
    for fname, F in sorted(fnames.items()):
        for gname, G in sorted(fnames.items()):
            rows, spent = transformations_between(F, G, budget, spent)
            parallel.append([])
            for row in rows:
                name = f"t{len(transformations)}"
                transformations[name] = Transformation(
                    fname, gname, dict(zip(dom.objects, row)), dict(zip(free_v, row[n:])),
                    dict(zip(free_h, row[h_at:])))
                keys[name] = (fname, gname, row)
                parallel[-1].append(name)

    modifications: dict[str, dict] = {}
    for names in parallel:
        for t1name in names:
            for t2name in names:
                fname, gname, r1 = keys[t1name]
                rows, spent = modifications_between(fnames[fname], fnames[gname], r1,
                                                     keys[t2name][2], budget, spent)
                for row in rows:
                    name = f"u{len(modifications)}"
                    modifications[name] = {"src": t1name, "tgt": t2name,
                                           "components": dict(zip(dom.objects, row))}
                    keys[name] = (t1name, t2name, row)

    named = {key: name for name, key in keys.items()}

    def lookup(source, target, row):
        try:
            return named[(source, target, row)]
        except KeyError:
            raise MissingComposite(
                f"no cell {source} => {target} with components {row} in the enumeration") from None

    # transformations by source functor, modifications by source transformation
    out_of: dict[str, list[str]] = {name: [] for name in (*fnames, *transformations)}
    for name, (source, _, _) in keys.items():
        out_of[source].append(name)
    # modifications by the source functor of their source transformation
    at_functor: dict[str, list[str]] = {name: [] for name in fnames}
    for name in modifications:
        at_functor[keys[keys[name][0]][0]].append(name)

    ends = [(dom.objects.index(dom.hsrc[f]), dom.objects.index(dom.htgt[f])) for f in free_h]
    # the codomain's composites, each of a pair (then, first)
    compose_h, compose_v_sq, compose_h_sq, e_sq = (
        cod.hcomp_h.__getitem__, cod.vcomp_sq.__getitem__, cod.hcomp_sq.__getitem__, cod.e_sq)

    def then(r1, r2):
        """The row of the composite of the transformations with rows r1, then r2."""
        return (*map(compose_h, zip(r2[:n], r1[:n])),
                *map(compose_h_sq, zip(r2[n:h_at], r1[n:h_at])),
                *(compose_v_sq((compose_h_sq((e_sq[r2[j]], x)), compose_h_sq((y, e_sq[r1[i]]))))
                  for (i, j), x, y in zip(ends, r1[h_at:], r2[h_at:])))

    id1 = {
        fname: lookup(fname, fname, (*(cod.idh[F.object_map[a]] for a in dom.objects),
                                     *(cod.i_sq[F.v_map[u]] for u in free_v),
                                     *(cod.e_sq[F.h_map[f]] for f in free_h)))
        for fname, F in fnames.items()
    }
    id2 = {t: lookup(t, t, tuple(e_sq[x] for x in keys[t][2][:n])) for t in transformations}
    hcomp1 = {}
    for t1 in transformations:
        source, middle, r1 = keys[t1]
        for t2 in out_of[middle]:
            _, target, r2 = keys[t2]
            hcomp1[(t2, t1)] = lookup(source, target, then(r1, r2))
    vcomp2, hcomp2 = {}, {}
    for m1 in modifications:
        s1, t1, r1 = keys[m1]
        for m2 in out_of[t1]:
            _, t2, r2 = keys[m2]
            vcomp2[(m2, m1)] = lookup(s1, t2, tuple(map(compose_v_sq, zip(r2, r1))))
        for m2 in at_functor[keys[s1][1]]:
            s2, t2, r2 = keys[m2]
            hcomp2[(m2, m1)] = lookup(hcomp1[(s2, s1)], hcomp1[(t2, t1)],
                                      tuple(map(compose_h_sq, zip(r2, r1))))

    two_cat = assemble_two_category(
        sorted(fnames), {t: keys[t][:2] for t in transformations},
        {m: keys[m][:2] for m in modifications}, id1, id2, hcomp1, vcomp2, hcomp2
    )
    return PseudoHom(dom, cod, two_cat, fnames, transformations, modifications, keys)


def restriction(incl: DoubleFunctor, big: PseudoHom, small: PseudoHom) -> TwoFunctor:
    """The 2-functor ``big`` -> ``small`` that precomposes with ``incl``;
    ``big`` and ``small`` are the pseudo-homs out of its target and out of
    its source into one codomain."""
    functor_names = {_functor_key(F): name for name, F in small.functors.items()}
    image = {
        name: functor_names[tuple(images[along[c]] for images, along in zip(_maps(F), _maps(incl))
                                  for c in sorted(along))]
        for name, F in big.functors.items()
    }
    var, along = _variable(big.dom), {"o": incl.object_map, "v": incl.v_map, "h": incl.h_map}
    position = {cell: p for p, cell in enumerate(_row_cells(big.dom))}
    reads = []  # per component of a small row: its position in a big row, and if a unit
    for sort, c in _row_cells(small.dom):
        cell = var(sort, along[sort][c])
        reads.append((position[cell], cell[0] != sort))
    named = {key: name for name, key in small.keys.items()}
    for name, (source, target, row) in big.keys.items():
        at = reads if name in big.transformations else reads[:len(small.dom.objects)]
        image[name] = named[(image[source], image[target], tuple(
            big.cod.e_sq[row[p]] if unit else row[p] for p, unit in at))]
    return validate_two_functor(
        big.two_cat, small.two_cat, {F: image[F] for F in big.functors},
        {t: image[t] for t in big.transformations}, {m: image[m] for m in big.modifications})


def is_hpnt_equivalence(ph: PseudoHom, tname: str) -> bool:
    """Whether a 1-cell of the pseudo-hom 2-category is an equivalence.

    Computed both by definition (a quadruple with invertible unit and
    counit exists) and as weak invertibility of every vertical component;
    the two runs must agree.
    """
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
    by_definition = tname in ph.two_cat.h_equivalences_by_f
    whis = whi_squares(ph.cod)
    unit_v = {i: a for a, i in ph.dom.idv.items()}
    all_whi = all(
        (ph.cod.e_sq[tr.at_obj[unit_v[u]]] if u in unit_v else tr.at_v[u]) in whis
        for u in ph.dom.vmors
    )
    return by_definition, all_whi
