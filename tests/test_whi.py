import pytest

from dblnerve.cat import validate_category
from dblnerve.dblcat import (
    equivalence_embed,
    horizontal_embed,
    validate_double_functor,
    vertical_embed,
)
from dblnerve.errors import NotAdjoint, NotWhi
from dblnerve.standard import locally_discrete, sign_loop_two_category
from dblnerve.whi import (
    equivalence_hmors,
    horizontal_equivalences,
    is_double_biequivalence,
    is_trivial_fibration,
    is_weakly_horizontally_invariant,
    is_whi_square,
    promote_witness,
    vertical_inverse_of_flat_square,
    weak_inverse,
    weak_inverse_equations_hold,
    whi_squares,
)


def brute_force_weak_inverses(dbl, alpha, top, bottom):
    u, v = dbl.sleft[alpha], dbl.sright[alpha]
    return [
        beta
        for beta in dbl.squares_with(top=top.g, bottom=bottom.g, left=v, right=u)
        if weak_inverse_equations_hold(dbl, alpha, beta, top, bottom)
    ]


def test_horizontal_equivalence_counts(h_iso, square_dbl, point_dbl):
    assert len(horizontal_equivalences(h_iso)) == 4
    data = horizontal_equivalences(square_dbl)
    assert len(data) == 4
    assert all(d.f in square_dbl.idh.values() for d in data)
    assert len(horizontal_equivalences(point_dbl)) == 1


def test_identity_square_has_identity_weak_inverse(hsim_iso):
    for u in hsim_iso.vmors:
        alpha = hsim_iso.i_sq[u]
        witness = is_whi_square(hsim_iso, alpha)
        assert witness is not None
        assert witness.beta == alpha
        assert witness.verify(hsim_iso)


def test_generating_square_is_not_whi(square_dbl):
    assert is_whi_square(square_dbl, "s") is None


def test_every_square_of_equivalence_embedding_of_iso_is_whi(hsim_iso):
    assert whi_squares(hsim_iso) == frozenset(hsim_iso.squares)


def test_unique_weak_inverse_matches_formula(corpus_dbl):
    """For every whi square and every choice of adjoint data, the search
    finds exactly one weak inverse and the pasting formula returns it."""
    for label, dbl in corpus_dbl.items():
        adjoint = [d for d in horizontal_equivalences(dbl) if d.adjoint]
        for alpha in whi_squares(dbl):
            tops = [d for d in adjoint if d.f == dbl.stop[alpha]]
            bottoms = [d for d in adjoint if d.f == dbl.sbottom[alpha]]
            for top in tops:
                for bottom in bottoms:
                    inverses = brute_force_weak_inverses(dbl, alpha, top, bottom)
                    assert len(inverses) == 1, (label, alpha, top, bottom, inverses)
                    assert weak_inverse(dbl, alpha, top, bottom) == inverses[0]


def test_weak_inverse_error_cases(square_dbl):
    ident = [d for d in horizontal_equivalences(square_dbl) if d.f == square_dbl.idh["00"]]
    # data not matching the boundaries of the square
    with pytest.raises(NotAdjoint):
        weak_inverse(square_dbl, "s", ident[0], ident[0])

    # a square between adjoint data that is genuinely not weakly
    # horizontally invertible: an idempotent non-invertible cell on an
    # identity boundary
    from dblnerve.dblcat import horizontal_embed
    from dblnerve.twocat import validate_two_category

    idem = validate_two_category(
        {
            "objects": ["*"],
            "one_cells": [],
            "two_cells": [{"name": "t", "src": "id:*", "tgt": "id:*"}],
            "vcompose": [["t", "t", "t"]],
            "hcompose_two": [["t", "t", "t"]],
        }
    )
    dbl = horizontal_embed(idem)
    data = next(d for d in horizontal_equivalences(dbl) if d.adjoint)
    assert is_whi_square(dbl, "t") is None
    with pytest.raises(NotWhi):
        weak_inverse(dbl, "t", data, data)


def test_weak_inverse_in_hsim_iso_example(hsim_iso, iso2):
    # the square on (f = xy, f' = xy) with identity-quadruple verticals has
    # the square on (yx, yx) as its weak inverse
    idx = next(u for u in hsim_iso.vmors if hsim_iso.vsrc[u] == "x" and u == hsim_iso.idv["x"])
    idy = hsim_iso.idv["y"]
    alpha = hsim_iso.square_by_data[("xy", "xy", idx, idy, iso2.id2["xy"])]
    data = [d for d in horizontal_equivalences(hsim_iso) if d.adjoint]
    top = next(d for d in data if d.f == "xy" and d.g == "yx")
    beta = weak_inverse(hsim_iso, alpha, top, top)
    assert hsim_iso.stop[beta] == "yx" and hsim_iso.sbottom[beta] == "yx"


def test_whi_iff_vertically_invertible_on_flat_squares(corpus_dbl):
    """Squares with trivial vertical boundaries between horizontal
    equivalences are whi exactly when vertically invertible."""
    checked = 0
    for label, dbl in corpus_dbl.items():
        eq = equivalence_hmors(dbl)
        for s in dbl.squares:
            if not dbl.has_trivial_vertical_boundaries(s):
                continue
            if dbl.stop[s] not in eq or dbl.sbottom[s] not in eq:
                continue
            checked += 1
            whi = is_whi_square(dbl, s) is not None
            vi = dbl.s_vinverse(s) is not None
            assert whi == vi, (label, s)
    assert checked >= 15


def test_flat_whi_square_vertical_inverse_formula(hsim_iso):
    for s in hsim_iso.squares:
        if not hsim_iso.has_trivial_vertical_boundaries(s):
            continue
        if is_whi_square(hsim_iso, s) is None:
            continue
        gamma = vertical_inverse_of_flat_square(hsim_iso, s)
        assert gamma == hsim_iso.s_vinverse(s)


def test_whi_in_equivalence_embedding_iff_cell_invertible(iso2, arrow2, tri2):
    for cat in (iso2, arrow2, tri2):
        dbl = equivalence_embed(cat)
        eq = equivalence_hmors(dbl)
        for s in dbl.squares:
            if dbl.stop[s] not in eq or dbl.sbottom[s] not in eq:
                continue
            cell = dbl.cell_of_square[s]
            assert (is_whi_square(dbl, s) is not None) == cat.is_invertible2(cell), (cat, s)


def test_witness_survives_promotion(corpus_dbl):
    for label, dbl in corpus_dbl.items():
        for alpha in whi_squares(dbl):
            witness = is_whi_square(dbl, alpha)
            promoted = promote_witness(dbl, witness)
            assert promoted.top_data.adjoint and promoted.bottom_data.adjoint
            assert promoted.top_data.f == witness.top_data.f
            assert promoted.top_data.g == witness.top_data.g
            assert promoted.top_data.eta == witness.top_data.eta
            assert promoted.verify(dbl)


def test_weak_invariance_verdicts(h_iso, hsim_iso, square_dbl, point_dbl, hsim_arrow):
    verdict, witness = is_weakly_horizontally_invariant(h_iso)
    assert verdict is False and witness is not None
    f, f2, v = witness
    # no vertical morphism connects the sources of the two equivalences
    assert not h_iso.vmors_between(h_iso.hsrc[f], h_iso.hsrc[f2])
    for dbl in (hsim_iso, square_dbl, point_dbl, hsim_arrow):
        assert is_weakly_horizontally_invariant(dbl)[0] is True


def test_invariance_of_equivalence_embedding_generally(iso2, arrow2, tri2):
    for cat in (iso2, arrow2, tri2):
        assert is_weakly_horizontally_invariant(equivalence_embed(cat))[0]


def _identity_functor(dbl):
    return validate_double_functor(
        dbl, dbl,
        {a: a for a in dbl.objects},
        {f: f for f in dbl.hmors},
        {u: u for u in dbl.vmors},
        {s: s for s in dbl.squares},
    )


def test_identity_is_double_biequivalence_and_tfib(hsim_iso):
    ident = _identity_functor(hsim_iso)
    assert is_double_biequivalence(ident) == (True, None)
    assert is_trivial_fibration(ident) == (True, None)


def test_each_failing_clause_of_the_double_biequivalence_names_its_failure(arrow2, point_dbl):
    """Each failing clause of ``is_double_biequivalence`` returns its own
    report, the tuple the ``dbl-bieq`` command prints, on a functor that
    fails at that clause: an object no horizontal equivalence reaches, a
    vertical morphism no whi square reaches, and two squares sent to one."""
    z2 = validate_category({"objects": ["*"], "morphisms": [{"name": "g", "src": "*", "tgt": "*"}],
                            "compose": [["g", "g", "id:*"]]})
    into_arrow = validate_double_functor(point_dbl, horizontal_embed(arrow2),
                                         {"0": "0"}, {}, {}, {})
    into_loop = validate_double_functor(point_dbl, vertical_embed(locally_discrete(z2)),
                                        {"0": "*"}, {}, {}, {})
    unit = point_dbl.e_sq[point_dbl.idh["0"]]
    conflating = validate_double_functor(horizontal_embed(sign_loop_two_category()), point_dbl,
                                         {"*": "0"}, {}, {}, {"t": unit})
    assert is_double_biequivalence(into_arrow) == (False, ("object-not-reached", "1"))
    assert is_double_biequivalence(into_loop) == (False, ("v-morphism-not-reached", "g"))
    assert is_double_biequivalence(conflating) == (
        False, ("square-fiber", ("id:*", "id:*", "idv:*", "idv:*"), unit, 2))


def _inclusion_h_to_hsim(cat):
    src = horizontal_embed(cat)
    tgt = equivalence_embed(cat)
    ident_quad = {a: tgt.idv[a] for a in cat.objects}
    return validate_double_functor(
        src, tgt,
        {a: a for a in src.objects},
        {f: f for f in src.hmors},
        {u: ident_quad[src.vsrc[u]] for u in src.vmors},
        {
            s: tgt.square_by_data[
                (src.stop[s], src.sbottom[s],
                 ident_quad[cat.one_src[src.stop[s]]], ident_quad[cat.one_tgt[src.stop[s]]],
                 s)
            ]
            for s in src.squares
        },
    )


def test_inclusion_into_equivalence_embedding_is_double_biequivalence(iso2):
    incl = _inclusion_h_to_hsim(iso2)
    assert is_double_biequivalence(incl) == (True, None)


def _chain_inclusion(k):
    from dblnerve.nerve import inclusion_chain_to_invertible

    return inclusion_chain_to_invertible(k)


@pytest.mark.parametrize("k", [2, 3])
def test_chain_into_invertible_oriental_is_double_biequivalence(k):
    incl = _chain_inclusion(k)
    assert is_double_biequivalence(incl) == (True, None)


def test_projection_from_square_is_not_trivial_fibration(square_dbl, point_dbl):
    collapse = validate_double_functor(
        square_dbl, point_dbl,
        {a: "0" for a in square_dbl.objects},
        {f: point_dbl.idh["0"] for f in square_dbl.hmors},
        {u: point_dbl.idv["0"] for u in square_dbl.vmors},
        {s: point_dbl.squares[0] for s in square_dbl.squares},
    )
    verdict, reason = is_trivial_fibration(collapse)
    # morphisms between the diagonal corners are not hit
    assert verdict is False
    assert reason[0] in ("h-morphism-not-hit", "v-morphism-not-hit")


def test_hsim_iso_to_point_is_trivial_fibration(hsim_iso, point_dbl):
    """Engine verdict for the collapse of the equivalence embedding of the
    free-living isomorphism onto the point: between any boundary there is a
    unique square, so all four clauses hold."""
    pt = point_dbl
    collapse = validate_double_functor(
        hsim_iso, pt,
        {a: "0" for a in hsim_iso.objects},
        {f: pt.idh["0"] for f in hsim_iso.hmors},
        {u: pt.idv["0"] for u in hsim_iso.vmors},
        {s: pt.squares[0] for s in hsim_iso.squares},
    )
    assert is_trivial_fibration(collapse) == (True, None)


def test_empty_double_category_to_point_is_not_trivial_fibration(point_dbl):
    from dblnerve.dblcat import validate_double_category

    empty = validate_double_category({"objects": []})
    functor = validate_double_functor(empty, point_dbl, {}, {}, {}, {})
    verdict, reason = is_trivial_fibration(functor)
    assert verdict is False
    assert reason[0] == "object-not-hit"
