import hashlib
import json
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from dblnerve.dblcat import horizontal_embed, underlying, validate_double_functor, vertical_embed
from dblnerve import pseudohom
from dblnerve.errors import BudgetExceeded, DisagreementBug, ValidationError
from dblnerve.io import load_path
from dblnerve.nerve import inclusion_chain_to_invertible
from dblnerve.pseudohom import (
    _functor_key,
    enumerate_double_functors_concrete,
    hpnt_equivalence_report,
    is_hpnt_equivalence,
    pseudo_hom,
    restriction,
)
from dblnerve.shapes import oriental_inv, v_oriental_inv
from dblnerve.cat import validate_category
from dblnerve.standard import chain_category, locally_discrete, sign_loop_two_category


CORPUS = Path(__file__).parent.parent / "corpus"
CORPUS_DOUBLE = [
    "free-square", "h-iso", "hsim-arrow", "hsim-iso", "parallel-squares", "point-double",
    "square-boundary",
]


@pytest.fixture(scope="module")
def v_arrow():
    return vertical_embed(locally_discrete(chain_category(1)))


@pytest.fixture(scope="module")
def corpus_files():
    return {name: load_path(CORPUS / f"{name}.json") for name in CORPUS_DOUBLE}


@pytest.fixture(scope="module")
def loop_targets():
    """Targets with a non-identity endomorphism or square whose square is
    the identity, so that a composition the search failed to impose shows
    up as a non-functor."""
    z2 = validate_category({
        "objects": ["*"], "morphisms": [{"name": "g", "src": "*", "tgt": "*"}],
        "compose": [["g", "g", "id:*"]],
    })
    out = {}
    for label, cat2 in (("z2", locally_discrete(z2)), ("sign-loop", sign_loop_two_category())):
        out[f"{label}-h"] = horizontal_embed(cat2)
        out[f"{label}-v"] = vertical_embed(cat2)
    return out


def test_functors_from_square_are_squares(square_dbl, hsim_iso):
    # functors from the free square correspond to squares of the target
    functors = enumerate_double_functors_concrete(square_dbl, hsim_iso)
    assert len(functors) == len(hsim_iso.squares)
    images = sorted(F.sq_map["s"] for F in functors)
    assert images == sorted(hsim_iso.squares)


def test_functors_from_vertical_arrow_are_vmors(v_arrow, hsim_iso, h_iso):
    for target in (hsim_iso, h_iso):
        functors = enumerate_double_functors_concrete(v_arrow, target)
        assert sorted(F.v_map["a01"] for F in functors) == sorted(target.vmors)


def test_pseudo_hom_of_point_is_underlying_horizontal(point2, square_dbl):
    point = horizontal_embed(point2)
    ph = pseudo_hom(point, square_dbl)
    flat = underlying(square_dbl, "horizontal")
    assert len(ph.two_cat.objects) == len(flat.objects)
    assert len(ph.two_cat.one_cells) == len(flat.one_cells)
    assert len(ph.two_cat.two_cells) == len(flat.two_cells)


def test_pseudo_hom_vertical_arrow_counts(v_arrow, h_iso, square_dbl):
    ph = pseudo_hom(v_arrow, h_iso)
    # objects are the vertical morphisms, 1-cells the squares
    assert len(ph.two_cat.objects) == len(h_iso.vmors)
    assert len(ph.two_cat.one_cells) == len(h_iso.squares)
    ph2 = pseudo_hom(v_arrow, square_dbl)
    assert len(ph2.two_cat.objects) == len(square_dbl.vmors)
    assert len(ph2.two_cat.one_cells) == len(square_dbl.squares)


def test_equivalences_are_whi_componentwise(v_arrow, corpus_dbl):
    """A 1-cell of the vertical-arrow pseudo-hom is an equivalence exactly
    when its square components all admit weak inverses."""
    for label, dbl in corpus_dbl.items():
        ph = pseudo_hom(v_arrow, dbl)
        for name in sorted(ph.transformations):
            by_definition, all_whi = hpnt_equivalence_report(ph, name)
            assert by_definition == all_whi, (label, name)


def test_non_equivalence_component_detected(v_arrow):
    # in the horizontal embedding of the 3-object chain, the square on a
    # non-invertible morphism is not an equivalence 1-cell
    chain = horizontal_embed(locally_discrete(chain_category(2)))
    ph = pseudo_hom(v_arrow, chain)
    verdicts = {}
    for name, tr in ph.transformations.items():
        by_definition, all_whi = hpnt_equivalence_report(ph, name)
        assert by_definition == all_whi
        verdicts[tr.at_obj["0"]] = by_definition
    assert verdicts["a01"] is False
    assert verdicts[chain.idh["0"]] is True


def test_hpnt_equivalence_verdict_is_the_one_both_checks_agree_on(corpus_files):
    """Over the pseudo-homs out of the free square into each corpus double
    category, true for some transformations and false for others."""
    verdicts = set()
    for label, dbl in corpus_files.items():
        ph = pseudo_hom(corpus_files["free-square"], dbl)
        for name in sorted(ph.transformations):
            by_definition, all_whi = hpnt_equivalence_report(ph, name)
            assert is_hpnt_equivalence(ph, name) == by_definition == all_whi, (label, name)
            verdicts.add(by_definition)
    assert verdicts == {False, True}


def test_hpnt_equivalence_raises_when_the_checks_disagree(corpus_files, monkeypatch):
    ph = pseudo_hom(corpus_files["free-square"], corpus_files["h-iso"])
    name = min(ph.transformations)
    by_definition, _ = hpnt_equivalence_report(ph, name)
    monkeypatch.setattr(pseudohom, "hpnt_equivalence_report",
                        lambda ph, name: (by_definition, not by_definition))
    with pytest.raises(DisagreementBug):
        is_hpnt_equivalence(ph, name)


def test_budget_guard_on_pseudo_hom(v_arrow, hsim_iso):
    with pytest.raises(BudgetExceeded):
        pseudo_hom(v_oriental_inv(2), hsim_iso, budget=5)


# The candidates pseudo_hom(dom, hsim-iso) spends, as the least budget at
# which it returns, and where one candidate less stops it: (generator,
# depth, search depth, solutions found).  The transformation and
# modification searches of one call share a budget, so this is the spend of
# all of them; each stops in a modification search at the last object.
_PINNED_SPEND = {
    "v-oriental-inv-2": (640, ("2", 3, 3, 0)),
    "segal-big-3": (4864, ("3", 4, 4, 0)),
    "segal-small-3": (3584, ("3", 4, 4, 0)),
}


@pytest.mark.parametrize("case", sorted(_PINNED_SPEND))
def test_pseudo_hom_spends_the_pinned_candidates(case, corpus_files):
    """Candidates are counted, not timed: a change to the per-pair searches
    that changes what they spend fails here."""
    incl = inclusion_chain_to_invertible(3)
    dom = {"v-oriental-inv-2": v_oriental_inv(2), "segal-big-3": incl.target,
           "segal-small-3": incl.source}[case]
    total, where = _PINNED_SPEND[case]
    pseudo_hom(dom, corpus_files["hsim-iso"], budget=total)
    with pytest.raises(BudgetExceeded) as caught:
        pseudo_hom(dom, corpus_files["hsim-iso"], budget=total - 1)
    cut = caught.value
    assert (cut.budget, (cut.generator, cut.depth, cut.search_depth, cut.found)) == (total - 1, where)


def test_pseudo_hom_reads_the_budget_once(monkeypatch, corpus_files):
    """Every search of one ``pseudo_hom`` call runs under one budget, read
    from ``DBLNERVE_BUDGET`` once per call, and not at all when given."""
    from dblnerve import presentation

    reads = []
    environ = presentation.os.environ

    class Environ:
        def get(self, key, default=None):
            reads.append(key)
            return environ.get(key, default)

    monkeypatch.setattr(presentation, "os", SimpleNamespace(environ=Environ()))
    dom, cod = v_oriental_inv(2), corpus_files["hsim-iso"]
    total, where = _PINNED_SPEND["v-oriental-inv-2"]
    monkeypatch.setenv("DBLNERVE_BUDGET", str(total))
    pseudo_hom(dom, cod)
    assert reads == ["DBLNERVE_BUDGET"]
    monkeypatch.setenv("DBLNERVE_BUDGET", str(total - 1))
    with pytest.raises(BudgetExceeded) as caught:
        pseudo_hom(dom, cod)
    cut = caught.value
    assert (cut.budget, (cut.generator, cut.depth, cut.search_depth, cut.found)) == (total - 1, where)
    assert reads == ["DBLNERVE_BUDGET"] * 2
    pseudo_hom(dom, cod, budget=total)
    assert reads == ["DBLNERVE_BUDGET"] * 2


def test_pseudo_hom_against_invertible_oriental(h_iso):
    ph = pseudo_hom(v_oriental_inv(2), h_iso)
    # vertical chains in the plain embedding only exist over identities
    assert len(ph.two_cat.objects) == 2


def _brute_force_functors(dom, cod):
    """Independent reference: every object assignment, then every choice of
    morphisms with matching ends, then every choice of squares with matching
    boundary, kept when the validator accepts it."""
    free_h = [f for f in dom.hmors if f not in dom.idh.values()]
    free_v = [u for u in dom.vmors if u not in dom.idv.values()]
    units = set(dom.e_sq.values()) | set(dom.i_sq.values())
    free_sq = [s for s in dom.squares if s not in units]
    found = []
    for objs in product(cod.objects, repeat=len(dom.objects)):
        om = dict(zip(dom.objects, objs))
        h_options = [cod.hmors_between(om[dom.hsrc[f]], om[dom.htgt[f]]) for f in free_h]
        v_options = [cod.vmors_between(om[dom.vsrc[u]], om[dom.vtgt[u]]) for u in free_v]
        for hs, vs in product(product(*h_options), product(*v_options)):
            hm = {dom.idh[a]: cod.idh[om[a]] for a in dom.objects} | dict(zip(free_h, hs))
            vm = {dom.idv[a]: cod.idv[om[a]] for a in dom.objects} | dict(zip(free_v, vs))
            sq_options = [
                cod.squares_with(top=hm[dom.stop[s]], bottom=hm[dom.sbottom[s]],
                                 left=vm[dom.sleft[s]], right=vm[dom.sright[s]])
                for s in free_sq
            ]
            for ss in product(*sq_options):
                try:
                    found.append(validate_double_functor(dom, cod, om, hm, vm, dict(zip(free_sq, ss))))
                except ValidationError:
                    pass
    return found


@pytest.mark.parametrize("dom_name", ["free-square", "square-boundary", "parallel-squares",
                                      "vertical-arrow", "h-iso", "hsim-iso", "hsim-arrow"])
def test_functor_search_matches_brute_force(dom_name, corpus_files, loop_targets, v_arrow):
    dom = v_arrow if dom_name == "vertical-arrow" else corpus_files[dom_name]
    for label, cod in {**corpus_files, **loop_targets}.items():
        searched = [_functor_key(F) for F in enumerate_double_functors_concrete(dom, cod)]
        reference = sorted(_functor_key(F) for F in _brute_force_functors(dom, cod))
        assert searched == reference, (dom_name, label)


def _transformations_by_definition(dom, cod, F, G):
    """Independent reference: the rows of the transformations F => G, their
    components at the objects, then the free vertical, then the free
    horizontal morphisms of ``dom``, by brute force over the raw tables.
    Each candidate has the boundaries of a component, a horizontal one
    vertically invertible, and the component at an identity is the unit
    square of its object's component.  It is kept when vertical
    functoriality, pseudo-functoriality and naturality hold as defined.
    Also returns how many candidates pseudo-functoriality alone rejects."""
    free_v = sorted(u for u in dom.vmors if u not in dom.idv.values())
    free_h = sorted(f for f in dom.hmors if f not in dom.idh.values())

    def boundary(s):
        return cod.stop[s], cod.sbottom[s], cod.sleft[s], cod.sright[s]

    def invertible(s):
        return any(cod.vcomp_sq.get((r, s)) == cod.e_sq[cod.stop[s]]
                   and cod.vcomp_sq.get((s, r)) == cod.e_sq[cod.sbottom[s]] for r in cod.squares)

    def then(f, g):
        return cod.hcomp_h[(g, f)]

    rows, rejected = [], 0
    for objs in product(*[[h for h in cod.hmors if (cod.hsrc[h], cod.htgt[h])
                           == (F.object_map[a], G.object_map[a])] for a in dom.objects]):
        t = dict(zip(dom.objects, objs))
        v_options = [[s for s in cod.squares if boundary(s) == (
            t[dom.vsrc[u]], t[dom.vtgt[u]], F.v_map[u], G.v_map[u])] for u in free_v]
        h_options = [[s for s in cod.squares if invertible(s) and boundary(s) == (
            then(t[dom.hsrc[f]], G.h_map[f]), then(F.h_map[f], t[dom.htgt[f]]),
            cod.idv[F.object_map[dom.hsrc[f]]], cod.idv[G.object_map[dom.htgt[f]]])]
            for f in free_h]
        for vs, hs in product(product(*v_options), product(*h_options)):
            at_v = {dom.idv[a]: cod.e_sq[t[a]] for a in dom.objects} | dict(zip(free_v, vs))
            at_h = {dom.idh[a]: cod.e_sq[t[a]] for a in dom.objects} | dict(zip(free_h, hs))
            vertical = all(cod.vcomp_sq[(at_v[w], at_v[u])] == at_v[z]
                           for (w, u), z in dom.vcomp_v.items())
            # t_f whiskered by G g, then F f whiskered by t_g, is t_(g f)
            pseudo = all(cod.vcomp_sq[(cod.hcomp_sq[(at_h[g], cod.e_sq[F.h_map[f]])],
                                       cod.hcomp_sq[(cod.e_sq[G.h_map[g]], at_h[f])])] == at_h[h]
                         for (g, f), h in dom.hcomp_h.items())
            # t at the top, then F s beside t at the right side, is t at the
            # left side beside G s, then t at the bottom
            natural = all(
                cod.vcomp_sq[(cod.hcomp_sq[(at_v[dom.sright[s]], F.sq_map[s])], at_h[dom.stop[s]])]
                == cod.vcomp_sq[(at_h[dom.sbottom[s]],
                                 cod.hcomp_sq[(G.sq_map[s], at_v[dom.sleft[s]])])]
                for s in dom.squares)
            if vertical and natural and pseudo:
                rows.append((*objs, *vs, *hs))
            elif vertical and natural:
                rejected += 1
    return sorted(rows), rejected


def test_pseudo_functoriality_matches_its_definition(h_iso, hsim_iso, tri2):
    """Out of the chain 0 -> 1 -> 2, which has a composable pair of
    non-identity horizontal morphisms, the transformations between each
    pair of functors are the rows the definitions give.  Into the
    tri-invertible embedding pseudo-functoriality rejects candidates that
    the other conditions accept; into the invertible 2-oriental a square
    whose whiskered factors were pasted in the other order has no
    composite."""
    dom = horizontal_embed(locally_discrete(chain_category(2)))
    counts = {}
    for label, cod in (("h-iso", h_iso), ("hsim-iso", hsim_iso), ("h-tri", horizontal_embed(tri2)),
                       ("h-oriental", horizontal_embed(oriental_inv(2)))):
        ph = pseudo_hom(dom, cod)
        found = {}
        for source, target, row in ph.keys.values():
            if source in ph.functors:
                found.setdefault((source, target), []).append(row)
        rejected = 0
        for (fname, F), (gname, G) in product(ph.functors.items(), repeat=2):
            rows, rejections = _transformations_by_definition(dom, cod, F, G)
            assert sorted(found.get((fname, gname), [])) == rows, (label, fname, gname)
            rejected += rejections
        counts[label] = (len(ph.functors), len(ph.transformations), rejected)
    assert counts == {"h-iso": (8, 64, 0), "hsim-iso": (8, 64, 0), "h-tri": (9, 68, 4),
                      "h-oriental": (12, 113, 0)}


@pytest.mark.parametrize("cod_name, functors, transformations, modifications", [
    ("free-square", 9, 18, 18),
    ("h-iso", 4, 16, 16),
    ("hsim-iso", 16, 256, 256),
    ("hsim-arrow", 3, 6, 6),
    ("parallel-squares", 10, 22, 22),
    ("square-boundary", 8, 14, 14),
    ("point-double", 1, 1, 1),
])
def test_pseudo_hom_counts_from_free_square(cod_name, functors, transformations, modifications,
                                            corpus_files):
    ph = pseudo_hom(corpus_files["free-square"], corpus_files[cod_name])
    assert (len(ph.functors), len(ph.transformations), len(ph.modifications)) == (
        functors, transformations, modifications)


def test_pseudo_hom_leaves_no_cyclic_garbage(square_dbl, hsim_iso):
    from tests.test_presentation import cyclic_garbage

    assert cyclic_garbage(lambda: pseudo_hom(square_dbl, hsim_iso)) == 0


def _fingerprint(ph):
    """sha256 of the names, boundaries and components of every functor,
    transformation and modification, and of the five 2-category tables."""
    two = ph.two_cat
    dump = {
        "functors": {name: [F.object_map, F.h_map, F.v_map, F.sq_map]
                     for name, F in ph.functors.items()},
        "transformations": {name: [t.source, t.target, t.at_obj, t.at_v, t.at_h]
                            for name, t in ph.transformations.items()},
        "modifications": {name: [d["src"], d["tgt"], d["components"]]
                          for name, d in ph.modifications.items()},
        "id1": two.id1,
        "id2": two.id2,
        **{table: sorted([*pair, cell] for pair, cell in getattr(two, table).items())
           for table in ("hcomp1", "vcomp2", "hcomp2")},
    }
    return hashlib.sha256(json.dumps(dump, sort_keys=True).encode()).hexdigest()


# pseudo_hom(free-square, X) for each corpus double category X, and the two
# pseudo-homs of segal_tfib_check(hsim-iso, 2): out of the invertible
# vertical oriental ("segal-big") and out of the vertical chain ("segal-small")
FINGERPRINTS = {
    "free-square": "5fef579dd4020f25f880663761169711168e8b00bdbc95fa659970d5447865b1",
    "h-iso": "074f69d7794c35d0f2bae6bc2a828b2ff45dd2651e4f47a0f0c8eabd5df70507",
    "hsim-arrow": "fd693bd38a3de7abdc04d5e775c9cbc1fbdfd870112c0192252667f8fed020b3",
    "hsim-iso": "895f81391843632ca6f14a671d3f53e1d1e34e4980fffad6f24df628148eeddf",
    "parallel-squares": "401640a4158b6db52d55adafa318ee2810f47cc7c1494d49ec531d10a9a30587",
    "point-double": "5ae2f49bd054ee9a92dd40fb27498f1046312f38e278c7c5e2c8503e713a12c5",
    "square-boundary": "03495f6db6237dd7ad341509985d85de39bbc2a228f7314031b09288478f65fb",
    "segal-big": "7a782200a1729d4201ebe2e1c30a2f171b6943a3ba8f588c68bf544d5fc4e3c8",
    "segal-small": "07770dab93dadd935c40c6f16eaa640fda7b7955ddef6ed6badf2ab2a5abdd3c",
}


@pytest.fixture(scope="module")
def pinned(corpus_files):
    """The pseudo-hom of each pinned case, built once for this module."""
    def build(case):
        if case.startswith("segal-"):
            incl = inclusion_chain_to_invertible(2)
            dom = incl.target if case == "segal-big" else incl.source
            return pseudo_hom(dom, corpus_files["hsim-iso"])
        return pseudo_hom(corpus_files["free-square"], corpus_files[case])

    return {case: build(case) for case in FINGERPRINTS}


@pytest.mark.parametrize("case", sorted(FINGERPRINTS))
def test_pseudo_hom_is_pinned_byte_for_byte(case, pinned):
    assert _fingerprint(pinned[case]) == FINGERPRINTS[case]


def _composite(ph, t1, t2):
    """The components of t1 then t2, from theirs, by the definition of
    horizontal composition of pseudo-natural transformations."""
    dom, cod = ph.dom, ph.cod
    return (
        {a: cod.h_then(t1.at_obj[a], t2.at_obj[a]) for a in dom.objects},
        {u: cod.s_hcomp(t1.at_v[u], t2.at_v[u]) for u in t1.at_v},
        {f: cod.s_vcomp(cod.s_hcomp(cod.e_sq[t1.at_obj[dom.hsrc[f]]], t2.at_h[f]),
                        cod.s_hcomp(t1.at_h[f], cod.e_sq[t2.at_obj[dom.htgt[f]]]))
         for f in t1.at_h},
    )


def _cells(t):
    return t.at_obj, t.at_v, t.at_h


@pytest.mark.parametrize("case", sorted(FINGERPRINTS))
def test_composites_have_the_components_of_their_operands(case, pinned):
    """Every entry of hcomp1, vcomp2 and hcomp2 names the cell whose
    components are recomputed here from its operands' components."""
    ph = pinned[case]
    cod, two = ph.cod, ph.two_cat
    trans, mods = ph.transformations, ph.modifications
    for (t2, t1), t in two.hcomp1.items():
        assert (trans[t].source, trans[t].target) == (trans[t1].source, trans[t2].target)
        assert _cells(trans[t]) == _composite(ph, trans[t1], trans[t2]), (t2, t1)
    for (m2, m1), m in two.vcomp2.items():
        assert (mods[m]["src"], mods[m]["tgt"]) == (mods[m1]["src"], mods[m2]["tgt"])
        assert mods[m]["components"] == {
            a: cod.s_vcomp(mods[m1]["components"][a], mods[m2]["components"][a])
            for a in ph.dom.objects}, (m2, m1)
    for (m2, m1), m in two.hcomp2.items():
        for end in ("src", "tgt"):
            t1, t2 = trans[mods[m1][end]], trans[mods[m2][end]]
            assert _cells(trans[mods[m][end]]) == _composite(ph, t1, t2), (m2, m1, end)
        assert mods[m]["components"] == {
            a: cod.s_hcomp(mods[m1]["components"][a], mods[m2]["components"][a])
            for a in ph.dom.objects}, (m2, m1)


@pytest.mark.parametrize("case", ["segal-inclusion", "collapse"])
def test_restriction_reads_components_through_the_functor(case, corpus_files, v_arrow, point_dbl):
    """Each cell's image under ``restriction`` has the components read
    through the double functor; a component at an identity is the unit
    square of the object's component (the collapse sends the vertical
    arrow to an identity)."""
    cod = corpus_files["hsim-iso"]
    if case == "segal-inclusion":
        incl = inclusion_chain_to_invertible(2)
    else:
        incl = validate_double_functor(v_arrow, point_dbl, {"0": "0", "1": "0"}, {},
                                       {"a01": point_dbl.idv["0"]}, {})
    big, small = pseudo_hom(incl.target, cod), pseudo_hom(incl.source, cod)
    image = restriction(incl, big, small)
    src, tgt = incl.source, incl.target
    free_v = [u for u in src.vmors if u not in src.idv.values()]
    free_h = [f for f in src.hmors if f not in src.idh.values()]

    def at(t, components, units, cell):
        """t's component at a morphism of the target, identities included."""
        if cell in components:
            return components[cell]
        return cod.e_sq[t.at_obj[next(a for a, i in units.items() if i == cell)]]

    for name, F in big.functors.items():
        G = small.functors[image.object_map[name]]
        assert G.object_map == {a: F.object_map[incl.object_map[a]] for a in src.objects}
        assert G.h_map == {f: F.h_map[incl.h_map[f]] for f in src.hmors}
        assert G.v_map == {u: F.v_map[incl.v_map[u]] for u in src.vmors}
        assert G.sq_map == {s: F.sq_map[incl.sq_map[s]] for s in src.squares}
    for name, t in big.transformations.items():
        r = small.transformations[image.one_map[name]]
        assert (r.source, r.target) == (image.object_map[t.source], image.object_map[t.target])
        assert r.at_obj == {a: t.at_obj[incl.object_map[a]] for a in src.objects}
        assert r.at_v == {u: at(t, t.at_v, tgt.idv, incl.v_map[u]) for u in free_v}
        assert r.at_h == {f: at(t, t.at_h, tgt.idh, incl.h_map[f]) for f in free_h}
    for name, d in big.modifications.items():
        e = small.modifications[image.two_map[name]]
        assert (e["src"], e["tgt"]) == (image.one_map[d["src"]], image.one_map[d["tgt"]])
        assert e["components"] == {a: d["components"][incl.object_map[a]] for a in src.objects}
