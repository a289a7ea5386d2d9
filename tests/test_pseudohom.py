from itertools import product
from pathlib import Path

import pytest

from dblnerve.dblcat import horizontal_embed, underlying, validate_double_functor, vertical_embed
from dblnerve.errors import BudgetExceeded, ValidationError
from dblnerve.io import load_path
from dblnerve.pseudohom import (
    _functor_key,
    enumerate_double_functors_concrete,
    hpnt_equivalence_report,
    pseudo_hom,
)
from dblnerve.shapes import v_oriental_inv
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


def test_budget_guard_on_pseudo_hom(v_arrow, hsim_iso):
    with pytest.raises(BudgetExceeded):
        pseudo_hom(v_oriental_inv(2), hsim_iso, budget=5)


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
