import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dblnerve import nerve, presentation
from dblnerve.cat import id_of, validate_category
from dblnerve.dblcat import equivalence_embed, horizontal_embed, vertical_embed
from dblnerve.errors import BudgetExceeded, DanglingReference, DisagreementBug, RangeExceeded
from dblnerve.io import load_path
from dblnerve.nerve import (
    ORACLE_GRID,
    comparison_maps,
    dbl_nerve_degeneracy,
    dbl_nerve_face,
    dbl_nerve_level,
    dbl_nerve_oracle,
    fibrancy_vertical_check,
    n2_degeneracy,
    n2_face,
    n2_simplices,
    segal_tfib_check,
    two_nerve_degeneracy,
    two_nerve_face,
    two_nerve_level,
)
from dblnerve.standard import locally_discrete, sign_loop_two_category
from dblnerve.tensor import x_presentation
from dblnerve.twocat import validate_two_category
from tests.test_twocat import naive_two_category_laws, one_object_document

GRID = [(m, k, n) for m in (0, 1) for k in (0, 1) for n in (0, 1, 2)]
CORPUS = Path(__file__).parent.parent / "corpus"


def test_oracle_agreement_over_grid(corpus_dbl):
    for label, dbl in corpus_dbl.items():
        for m, k, n in GRID:
            generic = dbl_nerve_level(dbl, m, k, n)
            oracle = dbl_nerve_oracle(dbl, m, k, n)
            assert generic.elements == oracle.elements, (label, (m, k, n))


def test_low_level_cells_are_cells(square_dbl, h_iso, hsim_iso, point_dbl):
    assert dbl_nerve_level(square_dbl, 0, 0, 0).count() == len(square_dbl.objects)
    assert dbl_nerve_level(square_dbl, 1, 0, 0).count() == len(square_dbl.hmors)
    assert dbl_nerve_level(square_dbl, 0, 1, 0).count() == len(square_dbl.vmors)
    assert dbl_nerve_level(square_dbl, 1, 1, 0).count() == len(square_dbl.squares)
    assert dbl_nerve_level(h_iso, 0, 1, 0).count() == 2
    assert dbl_nerve_level(hsim_iso, 0, 1, 0).count() == 4
    for m, k, n in GRID:
        assert dbl_nerve_level(point_dbl, m, k, n).count() == 1


def test_oracle_range_guard(h_iso):
    with pytest.raises(RangeExceeded):
        dbl_nerve_oracle(h_iso, 2, 0, 0)


def _first_row_as(rows, rows_for):
    """``rows`` with the first one replaced by the rows ``rows_for(first)``."""
    rows = iter(rows)
    yield from rows_for(next(rows))
    yield from rows


@pytest.mark.parametrize("change, match", [
    (lambda layout, rows: ((*layout[:-1], layout[-1] + "'"), rows), "layout"),
    (lambda layout, rows: (layout[:-1], (row[:-1] for row in rows)), "layout"),
    (lambda layout, rows: ((*layout[:-1], layout[0]), rows), "layout"),
    (lambda layout, rows: (layout, _first_row_as(rows, lambda row: [row[:-1]])), "image per key"),
    (lambda layout, rows: (layout, _first_row_as(rows, lambda row: [row, row])), "duplicate"),
], ids=["renamed-key", "missing-key", "duplicated-key", "short-row", "repeated-row"])
def test_oracle_rejects_an_element_with_other_keys(monkeypatch, hsim_iso, change, match):
    """A layout with other keys than the level's, or a row of another width
    or that comes twice, fails the cross-check instead of being compared,
    on a level of each shape (m, k) of the oracle's one builder."""
    build = nerve._oracle
    monkeypatch.setattr(nerve, "_oracle", lambda *args: change(*build(*args)))
    for level in ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)):
        with pytest.raises(DisagreementBug, match=match):
            dbl_nerve_oracle(hsim_iso, *level)


def _simplicial_identity_cases(dbl, level, direction):
    index = {"m": 0, "k": 1, "n": 2}[direction]
    top = level[index]
    elements = dbl_nerve_level(dbl, *level).elements
    lower = list(level)
    lower[index] -= 1
    lower = tuple(lower)
    for element in elements:
        for j in range(top + 1):
            for i in range(j):
                lhs = dbl_nerve_face(dbl, lower, direction, i,
                                     dbl_nerve_face(dbl, level, direction, j, element))
                rhs = dbl_nerve_face(dbl, lower, direction, j - 1,
                                     dbl_nerve_face(dbl, level, direction, i, element))
                assert lhs == rhs


def test_face_face_identities(square_dbl, hsim_iso):
    _simplicial_identity_cases(square_dbl, (2, 1, 1), "m")
    _simplicial_identity_cases(square_dbl, (1, 2, 1), "k")
    _simplicial_identity_cases(square_dbl, (1, 1, 2), "n")
    _simplicial_identity_cases(hsim_iso, (0, 1, 2), "n")
    _simplicial_identity_cases(hsim_iso, (0, 2, 1), "k")


def test_degeneracy_identities(hsim_iso):
    level0 = (0, 1, 0)
    for element in dbl_nerve_level(hsim_iso, *level0).elements:
        s0 = dbl_nerve_degeneracy(hsim_iso, level0, "n", 0, element)
        # s_j then d_i for i in {j, j+1} is the identity
        assert dbl_nerve_face(hsim_iso, (0, 1, 1), "n", 0, s0) == element
        assert dbl_nerve_face(hsim_iso, (0, 1, 1), "n", 1, s0) == element
        s00 = dbl_nerve_degeneracy(hsim_iso, (0, 1, 1), "n", 0, s0)
        s10 = dbl_nerve_degeneracy(hsim_iso, (0, 1, 1), "n", 1, s0)
        assert s00 == dbl_nerve_degeneracy(hsim_iso, (0, 1, 1), "n", 0, s0)
        # s_i s_j = s_{j+1} s_i for i <= j
        assert s10 == dbl_nerve_degeneracy(hsim_iso, (0, 1, 1), "n", 1, s0)


def test_faces_and_degeneracies_reject_an_index_off_their_level(square_dbl, iso2):
    """A face or degeneracy index outside 0..size of its direction, and a
    2-categorical nerve operator off the levels 0..N2_CAP, raise
    RangeExceeded rather than acting as another operator."""
    edge = dbl_nerve_level(square_dbl, 1, 0, 0).elements[0]
    for i in (-1, 2, 3):
        with pytest.raises(RangeExceeded):
            dbl_nerve_face(square_dbl, (1, 0, 0), "m", i, edge)
    for j in (-1, 2):
        with pytest.raises(RangeExceeded):
            dbl_nerve_degeneracy(square_dbl, (1, 0, 0), "m", j, edge)
    with pytest.raises(RangeExceeded):
        dbl_nerve_face(square_dbl, (1, 0, 0), "k", 0, edge)
    row = two_nerve_level(iso2, "h", 1, 0, 0).elements[0]
    with pytest.raises(RangeExceeded):
        two_nerve_face(iso2, "h", (1, 0, 0), "m", 2, row)
    with pytest.raises(RangeExceeded):
        two_nerve_degeneracy(iso2, "h", (1, 0, 0), "m", -1, row)
    simplices = {n: n2_simplices(iso2, n).elements[0] for n in range(nerve.N2_CAP + 1)}
    for n, i in ((0, 0), (1, 2), (2, -1), (2, 3)):
        with pytest.raises(RangeExceeded):
            n2_face(iso2, n, i, simplices[n])
    for n, j in ((0, 1), (1, -1), (nerve.N2_CAP, 0)):
        with pytest.raises(RangeExceeded):
            n2_degeneracy(iso2, n, j, simplices[n])


def test_an_unknown_variant_or_direction_is_named(square_dbl, iso2):
    edge = dbl_nerve_level(square_dbl, 1, 0, 0).elements[0]
    row = two_nerve_level(iso2, "h", 1, 0, 0).elements[0]
    calls = [
        lambda: two_nerve_level(iso2, "bogus", 1, 0, 0),
        lambda: two_nerve_face(iso2, "bogus", (1, 0, 0), "m", 0, row),
        lambda: two_nerve_degeneracy(iso2, "bogus", (1, 0, 0), "m", 0, row),
        lambda: two_nerve_face(iso2, "h", (1, 0, 0), "x", 0, row),
        lambda: dbl_nerve_face(square_dbl, (1, 0, 0), "x", 0, edge),
        lambda: dbl_nerve_degeneracy(square_dbl, (1, 0, 0), "x", 0, edge),
    ]
    for call, name in zip(calls, ["bogus"] * 3 + ["x"] * 3):
        with pytest.raises(DanglingReference, match=f"unknown .* '{name}'"):
            call()


def test_cross_direction_faces_commute(square_dbl):
    level = (1, 1, 1)
    for element in dbl_nerve_level(square_dbl, *level).elements:
        a = dbl_nerve_face(square_dbl, (0, 1, 1), "k", 0,
                           dbl_nerve_face(square_dbl, level, "m", 0, element))
        b = dbl_nerve_face(square_dbl, (1, 0, 1), "m", 0,
                           dbl_nerve_face(square_dbl, level, "k", 0, element))
        assert a == b


def test_functoriality_of_nerve_levels(iso2):
    """A double functor induces a map of nerve levels commuting with faces."""
    from tests.test_whi import _inclusion_h_to_hsim

    incl = _inclusion_h_to_hsim(iso2)
    maps = {"obj": incl.object_map, "h": incl.h_map, "v": incl.v_map, "sq": incl.sq_map}
    from dblnerve.tensor import x_presentation

    def push(level, element):
        pres, meta = x_presentation(*level)
        out = []
        for name, image in zip(pres.keys, element):
            sort = {"object": "obj", "h": "h", "v": "v", "sq": "sq"}[pres.gen(name).sort]
            out.append(maps[sort][image])
        return tuple(out)

    level = (1, 1, 1)
    src, tgt = incl.source, incl.target
    source_elements = dbl_nerve_level(src, *level).elements
    target_elements = set(dbl_nerve_level(tgt, *level).elements)
    for element in source_elements:
        image = push(level, element)
        assert image in target_elements
        for direction, low in (("m", (0, 1, 1)), ("k", (1, 0, 1)), ("n", (1, 1, 0))):
            lhs = push(low, dbl_nerve_face(src, level, direction, 0, element))
            rhs = dbl_nerve_face(tgt, level, direction, 0, image)
            assert lhs == rhs


def test_two_nerve_matches_double_route(iso2, arrow2):
    for cat in (iso2, arrow2):
        for variant in ("h", "hsim"):
            for level in [(0, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]:
                two_nerve_level(cat, variant, *level)  # asserts internally


def test_the_bijection_check_fails_on_a_lost_or_repeated_row(monkeypatch, iso2):
    """``two_nerve_level`` raises DisagreementBug when the quotient route
    loses a row, and when the double route holds one row twice in place of
    another, through either embedding."""
    enumerate_canonical, double_level = presentation.enumerate_canonical, nerve.dbl_nerve_level

    def losing_a_quotient_row(pres, alg, budget=None):
        rows = enumerate_canonical(pres, alg, budget)
        return rows[1:] if pres.kind == "two" else rows

    def repeating_a_double_row(*args):
        level = double_level(*args)
        return replace(level, elements=level.elements[:1] + level.elements[:-1])
    for module, name, patch in ((presentation, "enumerate_canonical", losing_a_quotient_row),
                                (nerve, "dbl_nerve_level", repeating_a_double_row)):
        for variant in ("h", "hsim"):
            assert two_nerve_level(iso2, variant, 1, 0, 0).count() > 1
            with monkeypatch.context() as patched:
                patched.setattr(module, name, patch)
                with pytest.raises(DisagreementBug, match="does not match the double route"):
                    two_nerve_level(iso2, variant, 1, 0, 0)


def test_two_nerve_counts(iso2):
    assert two_nerve_level(iso2, "h", 0, 1, 0).count() == 2
    assert two_nerve_level(iso2, "hsim", 0, 1, 0).count() == 4
    # the (1,1,0) level through the plain embedding carries the 2-cells
    assert two_nerve_level(iso2, "h", 1, 1, 0).count() == len(iso2.two_cells)
    # the space direction does not depend on the variant at k = 0 (the two
    # quotients differ only in object bookkeeping there)
    def strip_objects(level):
        return sorted(
            tuple((k, v) for k, v in zip(level.keys, row) if not k.startswith(("q", "o")))
            for row in level.elements
        )

    for n in (0, 1, 2):
        assert strip_objects(two_nerve_level(iso2, "h", 0, 0, n)) == strip_objects(
            two_nerve_level(iso2, "hsim", 0, 0, n)
        )


def test_two_nerve_faces_and_degeneracies(iso2, arrow2):
    """On every level with m + k + n ≤ 3, each face and each degeneracy of
    the quotient level maps lands in its level (degeneracies from k = 1 to
    k = 2 reach the covering cells T, M and N), and on every level with
    m + k + n ≤ 3 a degeneracy followed by either adjacent face is the
    identity."""
    levels = [lvl for lvl in product(range(3), repeat=3) if sum(lvl) <= 3]
    for cat, variant in product((iso2, arrow2), ("h", "hsim")):
        sets = {lvl: two_nerve_level(cat, variant, *lvl, check_bijection=False).elements
                for lvl in levels}
        for level, direction in product(levels, "mkn"):
            top = level["mkn".index(direction)]
            if top > 0:
                low = tuple(c - (axis == direction) for c, axis in zip(level, "mkn"))
                lower = set(sets[low])
                for element in sets[level]:
                    for i in range(top + 1):
                        face = two_nerve_face(cat, variant, level, direction, i, element)
                        assert face in lower
            if top == 2:
                continue
            up = tuple(c + (axis == direction) for c, axis in zip(level, "mkn"))
            upper = set(sets.get(up, ()))
            for element in sets[level]:
                for j in range(top + 1):
                    lifted = two_nerve_degeneracy(cat, variant, level, direction, j, element)
                    assert up not in sets or lifted in upper
                    for i in (j, j + 1):
                        assert two_nerve_face(cat, variant, up, direction, i, lifted) == element


def test_retract_identity(iso2, arrow2):
    levels = [(m, k, n) for m in (0, 1, 2) for k in (0, 1, 2) for n in (0, 1, 2)]
    for cat in (iso2, arrow2):
        for level in levels:
            report = comparison_maps(cat, *level)
            assert report["retract"], (cat, level)


# (count, retract) of the comparison on a target that is not locally
# discrete, at every level the default budget decides: the retract fails
# exactly at k = 2, where the section routes through the vertical covering
# cell, whose collapse-image is a non-identity loop
TRI_COMPARISON = {
    (0, 0, 0): (3, True), (0, 0, 1): (6, True), (0, 0, 2): (24, True),
    (0, 1, 0): (3, True), (0, 1, 1): (12, True), (0, 1, 2): (1032, True),
    (0, 2, 0): (4, False), (0, 2, 1): (132, False),
    (1, 0, 0): (5, True), (1, 0, 1): (24, True), (1, 0, 2): (1088, True),
    (1, 1, 0): (6, True), (1, 1, 1): (528, True), (1, 2, 0): (20, False),
    (2, 0, 0): (10, True), (2, 0, 1): (192, True), (2, 1, 0): (24, True),
    (2, 2, 0): (1032, False),
}


def test_comparison_on_a_target_that_is_not_locally_discrete(tri2):
    for level, expected in TRI_COMPARISON.items():
        report = comparison_maps(tri2, *level)
        assert (len(report["base"].elements), report["retract"]) == expected, level
        assert report["injective"], level


def test_comparison_bijective_at_k_zero(iso2):
    for n in (0, 1, 2):
        report = comparison_maps(iso2, 0, 0, n)
        assert report["injective"]
        images = {report["pi_star"](el) for el in report["base"].elements}
        hsim = set(two_nerve_level(iso2, "hsim", 0, 0, n).elements)
        assert images == hsim


def test_pi_star_at_vertical_level(iso2, hsim_iso):
    report = comparison_maps(iso2, 0, 1, 0)
    keys = two_nerve_level(iso2, "hsim", 0, 1, 0).keys
    for element in report["base"].elements:
        image = dict(zip(keys, report["pi_star"](element)))
        # each object is sent to its identity adjoint equivalence
        quad = hsim_iso.quad_of_vmor[hsim_iso.idv[image["o0.0.0"]]]
        assert (image["k01.0.0"], image["k01.0.0*"]) == (quad[0], quad[1])


def test_fibrancy_checks(corpus_dbl, h_iso, hsim_iso):
    verdict, witness = fibrancy_vertical_check(h_iso)
    assert verdict is False and witness is not None
    assert fibrancy_vertical_check(hsim_iso) == (True, None)
    for label, dbl in corpus_dbl.items():
        fibrancy_vertical_check(dbl)  # raises DisagreementBug on any split


@pytest.mark.parametrize("k", [0, 1, 2])
def test_segal_restriction_is_trivial_fibration(k, h_iso, square_dbl, hsim_iso):
    for dbl in (h_iso, square_dbl, hsim_iso):
        verdict, reason = segal_tfib_check(dbl, k)
        assert verdict is True, (k, reason)


def test_n2_simplex_counts(iso2, point2):
    assert n2_simplices(point2, 0).count() == 1
    assert n2_simplices(point2, 3).count() == 1
    assert n2_simplices(iso2, 1).count() == 4
    assert n2_simplices(iso2, 2).count() == 8
    with pytest.raises(RangeExceeded):
        n2_simplices(iso2, 4)


def test_negative_levels_are_out_of_range(iso2, hsim_iso):
    """Level -1 of the 2-categorical nerve and the Segal check at k = -1 are
    out of range, not an empty simplex and a vacuous verdict."""
    with pytest.raises(RangeExceeded):
        n2_simplices(iso2, -1)
    with pytest.raises(RangeExceeded):
        segal_tfib_check(hsim_iso, -1)


def test_n2_simplicial_actions(iso2):
    two = n2_simplices(iso2, 2).elements
    one = set(n2_simplices(iso2, 1).elements)
    for element in two:
        for i in (0, 1, 2):
            assert n2_face(iso2, 2, i, element) in one
    zero = n2_simplices(iso2, 0).elements
    for element in zero:
        up = n2_degeneracy(iso2, 0, 0, element)
        assert n2_face(iso2, 1, 0, up) == element
        assert n2_face(iso2, 1, 1, up) == element


def _as_grid_key(key):
    """A key of ``n2_simplices`` as its key in the grid's 0-column through
    ``h``: vertex ``i`` is ``q0.i``, edge ``[ij]`` (and its partner, unit and
    counit) ``nij.0.0``, the covering cell ``([02]>[012])`` ``N0.0``."""
    if key == "([02]>[012])":
        return "N0.0"
    if key.startswith("["):
        return f"n{key[1:3]}.0.0{key[4:]}"
    return f"q0.{key}"


def test_n2_simplices_are_the_h_quotient_0_column(iso2, arrow2, tri2):
    """Two routes to one column: the adjoint orientals of ``n2_simplices``
    and the grid's ``two_nerve_level(cat2, "h", 0, 0, n)``, with equal rows
    under the renaming of keys and faces and degeneracies that commute with
    it, for n ≤ 2."""
    def by_grid_key(simplices, row):
        return dict(zip(map(_as_grid_key, simplices.keys), row))

    counts, checks = {}, 0
    for name, cat in (("iso", iso2), ("arrow", arrow2), ("tri-invertible", tri2)):
        oriental = {n: n2_simplices(cat, n) for n in range(3)}
        grid = {n: two_nerve_level(cat, "h", 0, 0, n) for n in range(3)}
        counts[name] = [grid[n].count() for n in range(3)]
        for n in range(3):
            assert ({tuple(sorted(by_grid_key(oriental[n], row).items()))
                     for row in oriental[n].elements}
                    == {tuple(zip(grid[n].keys, row)) for row in grid[n].elements})
            for row in oriental[n].elements:
                grid_row = tuple(by_grid_key(oriental[n], row)[key] for key in grid[n].keys)
                for i in range(n + 1 if n else 0):
                    face = by_grid_key(oriental[n - 1], n2_face(cat, n, i, row))
                    grid_face = two_nerve_face(cat, "h", (0, 0, n), "n", i, grid_row)
                    assert face == dict(zip(grid[n - 1].keys, grid_face))
                    checks += 1
                for j in range(n + 1 if n < 2 else 0):
                    up = by_grid_key(oriental[n + 1], n2_degeneracy(cat, n, j, row))
                    grid_up = two_nerve_degeneracy(cat, "h", (0, 0, n), "n", j, grid_row)
                    assert up == dict(zip(grid[n + 1].keys, grid_up))
                    checks += 1
    assert counts == {"iso": [2, 4, 8], "arrow": [2, 2, 2], "tri-invertible": [3, 6, 24]}
    assert checks == 157


def test_oracle_agreement_with_nonidentity_invertible_cells(tri2):
    """Targets whose 2-cells include a non-identity invertible cell stress
    the invertibility and pasting-equality filters of both nerve routes."""
    from dblnerve.dblcat import equivalence_embed, horizontal_embed
    from dblnerve.standard import sign_loop_two_category

    loop = sign_loop_two_category()
    targets = {
        "h-signloop": (horizontal_embed(loop),
                       [(0, 0, 1), (0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]),
        "hsim-signloop": (equivalence_embed(loop),
                          [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)]),
        "hsim-tri": (equivalence_embed(tri2),
                     [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 0, 1)]),
    }
    for label, (dbl, levels) in targets.items():
        for level in levels:
            generic = dbl_nerve_level(dbl, *level)
            oracle = dbl_nerve_oracle(dbl, *level)
            assert generic.elements == oracle.elements, (label, level)
    # two levels in the thousands of elements, with a raised search budget
    tri_dbl = targets["hsim-tri"][0]
    for level in ((1, 1, 1), (0, 1, 2)):
        generic = dbl_nerve_level(tri_dbl, *level, budget=30_000_000)
        oracle = dbl_nerve_oracle(tri_dbl, *level)
        assert generic.elements == oracle.elements, level
        assert generic.count() > 8000


def test_oracle_agreement_at_n2_with_nonidentity_invertible_cells(tri2):
    """The n = 2 builders of the oracle against the search, on targets with
    a non-identity invertible 2-cell; their (1,1,2) levels are left out for
    their size."""
    loop = sign_loop_two_category()
    targets = [
        ("h-signloop", horizontal_embed(loop), [(0, 1, 2), (1, 0, 2)]),
        ("hsim-signloop", equivalence_embed(loop), [(0, 1, 2), (1, 0, 2)]),
        ("hsim-tri", equivalence_embed(tri2), [(1, 0, 2)]),
        ("h-tri", horizontal_embed(tri2), sorted(set(GRID) - {(1, 1, 2)})),
    ]
    for label, dbl, levels in targets:
        for level in levels:
            generic = dbl_nerve_level(dbl, *level)
            oracle = dbl_nerve_oracle(dbl, *level)
            assert generic.elements == oracle.elements, (label, level)
            assert generic.count() > 0, (label, level)


@pytest.mark.parametrize("target, level, count, asked", [
    ("hsim-tri", (0, 1, 2), 8256, {"_column_fillers": (32, 20), "_covering_fillers": (8320, 9)}),
    ("h-tri", (1, 0, 2), 1088, {"_row_fillers": (20, 17), "_covering_fillers": (1152, 9)}),
    ("hsim-iso", (1, 1, 2), 4096, {"_row_fillers": (512, 16), "_column_fillers": (512, 16),
                                   "_covering_fillers": (16384, 8)}),
])
def test_oracle_fillers_ask_each_question_once(monkeypatch, tri2, target, level, count, asked):
    """The filler queries of the oracle, memoized per call: how often a
    level asks each and how many distinct questions of the double category
    that makes.  Rows and columns ask once per ordered pair of cells and
    equivalences, covers once per triple of edges and corner."""
    dbl = {"hsim-tri": lambda: equivalence_embed(tri2), "h-tri": lambda: horizontal_embed(tri2),
           "hsim-iso": lambda: load_path(CORPUS / "hsim-iso.json")}[target]()
    made = {}
    for name in asked:
        def capture(dbl, build=getattr(nerve, name), name=name):
            made[name] = build(dbl)
            return made[name]
        monkeypatch.setattr(nerve, name, capture)
    assert dbl_nerve_oracle(dbl, *level).count() == count
    found = {name: (fn.cache_info().hits + fn.cache_info().misses, fn.cache_info().misses)
             for name, fn in made.items()}
    assert found == asked


def test_n2_counts_against_hand_enumeration(iso2, tri2):
    # nerve of the contractible groupoid on two objects doubles per level
    assert [n2_simplices(iso2, n).count() for n in range(4)] == [2, 4, 8, 16]
    # 3 objects, 6 adjoint equivalences; at n = 2 the component {A, B}
    # contributes 2^3 forced triangles and the loop object 2^3 data choices
    # times 2 invertible fillers
    assert [n2_simplices(tri2, n).count() for n in range(3)] == [3, 6, 24]


def test_fibrancy_fails_for_plain_embedding_with_nontrivial_equivalences(tri2):
    # the plain horizontal embedding has no vertical morphism connecting the
    # sources of a non-identity equivalence pair
    from dblnerve.dblcat import equivalence_embed, horizontal_embed

    verdict, witness = fibrancy_vertical_check(horizontal_embed(tri2))
    assert verdict is False and witness is not None
    assert fibrancy_vertical_check(equivalence_embed(tri2))[0] is True


# -- random double categories through both routes --------------------------

EMBEDDINGS = (horizontal_embed, vertical_embed, equivalence_embed)
LOW_GRID = sorted(level for level in ORACLE_GRID if sum(level) <= 2)
# with the n = 2 levels of the one-row and one-column shapes, which the
# oracle builds by the same triangle rule as every other shape
PREORDER_GRID = sorted(LOW_GRID + [(1, 0, 2), (0, 1, 2)])


@st.composite
def preorder_categories(draw):
    """A preorder on 1-3 objects as a category (transitive closure of a
    drawn relation)."""
    size = draw(st.integers(1, 3))
    below = {(a, b) for a in range(size) for b in range(size)
             if a == b or draw(st.booleans())}
    for c, a, b in product(range(size), repeat=3):
        if (a, c) in below and (c, b) in below:
            below.add((a, b))

    def arrow(a, b):
        return id_of(str(a)) if a == b else f"a{a}{b}"

    return validate_category({
        "objects": [str(a) for a in range(size)],
        "morphisms": [{"name": arrow(a, b), "src": str(a), "tgt": str(b)}
                      for a, b in sorted(below) if a != b],
        "compose": [[arrow(a, b), arrow(b, c), arrow(a, c)]
                    for (a, b), (b2, c) in product(sorted(below), repeat=2)
                    if b == b2 and a != b and b != c],
    })


def _lawful_one_object_tables():
    """Every table pair the naive oracle accepts; by Eckmann-Hilton the two
    compositions of a lawful one must agree, so only v = h is tried."""
    cells = ("p", "q", "e")
    out = []
    for pp, pq, qp, qq in product(cells, repeat=4):
        table = {"p": [pp, pq, "p"], "q": [qp, qq, "q"], "e": list(cells)}
        raw = {"v": table, "h": table}
        if naive_two_category_laws(raw):
            out.append(raw)
    return out


def _check_both_routes(dbl, levels):
    for level in levels:
        generic = dbl_nerve_level(dbl, *level)
        assert generic.elements == dbl_nerve_oracle(dbl, *level).elements, level
    for level, direction in (((2, 0, 0), "m"), ((0, 2, 0), "k"), ((0, 0, 2), "n")):
        _simplicial_identity_cases(dbl, level, direction)


@settings(max_examples=60, deadline=None)
@given(cat=preorder_categories(), embed=st.sampled_from(EMBEDDINGS))
def test_random_preorders_agree_on_both_routes(cat, embed):
    _check_both_routes(embed(locally_discrete(cat)), PREORDER_GRID)


@settings(max_examples=60, deadline=None)
@given(raw=st.sampled_from(_lawful_one_object_tables()), embed=st.sampled_from(EMBEDDINGS))
def test_random_one_object_two_categories_agree_on_both_routes(raw, embed):
    """On ``LOW_GRID`` only: at (0,1,2) the generic route runs out of the
    default budget on the equivalence embedding of the Z/3 table (at
    ``N0.1``, depth 38 of 38, after 170,429 solutions); the oracle lists
    1,594,323 elements there."""
    _check_both_routes(embed(validate_two_category(one_object_document(raw))), LOW_GRID)


def test_a_budget_cut_level_holds_its_solutions_in_little_memory():
    """hsim-iso level (1,2,2) runs out of budget 200,000 after 5,890
    solutions of 165 images.  Kept as full tuples they raised the traced
    peak to 10.6 MB; kept as the images after the prefix each shares with
    the one before, the whole search peaks at 4.6 MB."""
    hsim_iso = load_path(CORPUS / "hsim-iso.json")
    x_presentation(1, 2, 2)  # cached: built before the measurement
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as caught:
            dbl_nerve_level(hsim_iso, 1, 2, 2, budget=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (caught.value.found, caught.value.search_depth) == (5890, 165)
    assert peak < 6 * 2**20
