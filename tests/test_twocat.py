import hashlib
import json
from pathlib import Path

import pytest

from dblnerve import expr as ex
from dblnerve.errors import BoundaryMismatch, NotAnEquivalence
from dblnerve.standard import chain_category, locally_discrete, sign_loop_two_category
from dblnerve.twocat import (
    is_biequivalence,
    is_trivial_fibration_two,
    promote_equivalence,
    validate_two_category,
    validate_two_functor,
)


def brute_force_equivalences(cat, adjoint=False):
    """Independent oracle: scan all quadruples using only raw tables."""
    found = []
    for f in cat.one_cells:
        for g in cat.one_cells:
            if cat.one_src[g] != cat.one_tgt[f] or cat.one_tgt[g] != cat.one_src[f]:
                continue
            gf = cat.hcomp1[(g, f)]
            fg = cat.hcomp1[(f, g)]
            for eta in cat.two_cells:
                if cat.two_src[eta] != cat.id1[cat.one_src[f]] or cat.two_tgt[eta] != gf:
                    continue
                if not any(
                    cat.vcomp2.get((b, eta)) == cat.id2[cat.two_src[eta]]
                    and cat.vcomp2.get((eta, b)) == cat.id2[gf]
                    for b in cat.two_cells
                ):
                    continue
                for eps in cat.two_cells:
                    if cat.two_src[eps] != fg or cat.two_tgt[eps] != cat.id1[cat.one_tgt[f]]:
                        continue
                    if not any(
                        cat.vcomp2.get((b, eps)) == cat.id2[fg]
                        and cat.vcomp2.get((eps, b)) == cat.id2[cat.two_tgt[eps]]
                        for b in cat.two_cells
                    ):
                        continue
                    if adjoint and not cat.triangle_identities_hold(f, g, eta, eps):
                        continue
                    found.append((f, g, eta, eps))
    return sorted(found)


def test_adjoint_equivalences_of_iso_match_brute_force(iso2):
    assert list(iso2.adjoint_equivalences()) == brute_force_equivalences(iso2, adjoint=True)
    assert len(iso2.adjoint_equivalences()) == 4
    for f, g, eta, eps in iso2.adjoint_equivalences():
        assert eta == iso2.id2[iso2.id1[iso2.one_src[f]]]
        assert eps == iso2.id2[iso2.id1[iso2.one_tgt[f]]]


def test_adjoint_equivalences_of_arrow_and_point(arrow2, point2):
    assert len(arrow2.adjoint_equivalences()) == 2
    assert list(arrow2.adjoint_equivalences()) == brute_force_equivalences(arrow2, adjoint=True)
    assert len(point2.adjoint_equivalences()) == 1


def test_equivalences_closed_under_swap(iso2, tri2):
    for cat in (iso2, tri2):
        quads = set(cat.adjoint_equivalences())
        for f, g, eta, eps in quads:
            swapped = (g, f, cat.s_vinverse(eps), cat.s_vinverse(eta))
            assert swapped in quads


def test_interchange_on_two_by_two_grid(tri2):
    # evaluating a grid in either order agrees (interchange is validator-enforced;
    # this exercises the pasting evaluator on a concrete expression)
    cat = sign_loop_two_category()
    env = {"a": "t", "b": "t", "c": "t", "d": "t"}
    grid_rows = ex.svcomp(
        ex.shcomp(ex.sgen("a"), ex.sgen("b")), ex.shcomp(ex.sgen("c"), ex.sgen("d"))
    )
    grid_cols = ex.shcomp(
        ex.svcomp(ex.sgen("a"), ex.sgen("c")), ex.svcomp(ex.sgen("b"), ex.sgen("d"))
    )
    assert ex.evaluate(cat, grid_rows, env) == ex.evaluate(cat, grid_cols, env)


def test_triangle_expression_on_adjoint_equivalence(iso2):
    # the triangle pasting evaluates to the identity 2-cell for each
    # adjoint equivalence
    for f, g, eta, eps in iso2.adjoint_equivalences():
        env = {"f": f, "g": g, "eta": eta, "eps": eps}
        expr = ex.svcomp(
            ex.shcomp(ex.sgen("eta"), ex.sid_h(ex.hgen("f"))),
            ex.shcomp(ex.sid_h(ex.hgen("f")), ex.sgen("eps")),
        )
        assert ex.evaluate(iso2, expr, env) == iso2.id2[f]


def test_boundary_mismatch_reported(iso2):
    env = {"a": "id2:xy", "b": "id2:xy"}
    bad = ex.svcomp(ex.sgen("a"), ex.sgen("b"))  # xy ⇒ xy stacked on xy ⇒ xy is fine
    assert ex.evaluate(iso2, bad, env)
    really_bad = ex.shcomp(ex.sgen("a"), ex.sgen("b"))  # xy then xy is not composable
    with pytest.raises(BoundaryMismatch):
        ex.evaluate(iso2, really_bad, env)


def test_promotion_idempotent_on_adjoint(iso2):
    for quad in iso2.adjoint_equivalences():
        assert promote_equivalence(iso2, *quad) == quad


def test_promotion_corrects_failing_counit():
    cat = sign_loop_two_category()
    ident = cat.id1["*"]
    unit = cat.id2[ident]
    # (id, id, 1, t) is an equivalence whose triangles fail
    assert not cat.triangle_identities_hold(ident, ident, unit, "t")
    f, g, eta, eps = promote_equivalence(cat, ident, ident, unit, "t")
    assert (f, g, eta) == (ident, ident, unit)
    assert cat.triangle_identities_hold(f, g, eta, eps)


def test_promotion_rejects_non_invertible():
    cat = validate_two_category(
        {
            "objects": ["*"],
            "one_cells": [],
            "two_cells": [{"name": "t", "src": "id:*", "tgt": "id:*"}],
            "vcompose": [["t", "t", "t"]],
            "hcompose_two": [["t", "t", "t"]],
        }
    )
    with pytest.raises(NotAnEquivalence):
        promote_equivalence(cat, "id:*", "id:*", "t", "t")


def test_identity_functor_is_biequivalence(iso2):
    ident = validate_two_functor(
        iso2, iso2,
        {a: a for a in iso2.objects},
        {f: f for f in iso2.one_cells},
        {c: c for c in iso2.two_cells},
    )
    assert is_biequivalence(ident) == (True, None)


def test_point_into_iso_is_biequivalence(iso2, point2):
    inclusion = validate_two_functor(
        point2, iso2, {"0": "x"}, {point2.id1["0"]: iso2.id1["x"]}, {}
    )
    verdict, _ = is_biequivalence(inclusion)
    assert verdict is True


def test_endpoints_into_arrow_is_not_biequivalence(arrow2):
    discrete = validate_two_category({"objects": ["a", "b"]})
    incl = validate_two_functor(
        discrete, arrow2, {"a": "0", "b": "1"}, {}, {}
    )
    verdict, reason = is_biequivalence(incl)
    assert verdict is False
    assert reason[0] == "morphism-not-reached"


def test_each_failing_clause_names_its_failure(arrow2, point2):
    """Each failing clause of the biequivalence and trivial-fibration
    verdicts returns its own report, the tuple the ``bieq`` and ``segal``
    commands print, on a functor that fails at that clause."""
    sign = sign_loop_two_category()
    point_id2 = point2.id2[point2.id1["0"]]
    into_arrow = validate_two_functor(point2, arrow2, {"0": "0"}, {}, {})
    conflating = validate_two_functor(sign, point2, {"*": "0"}, {}, {"t": point_id2})
    into_sign = validate_two_functor(point2, sign, {"0": "*"}, {}, {})
    endpoints = validate_two_functor(validate_two_category({"objects": ["a", "b"]}), arrow2,
                                     {"a": "0", "b": "1"}, {}, {})
    assert is_biequivalence(into_arrow) == (False, ("object-not-reached", "1"))
    assert is_biequivalence(conflating) == (False, ("two-cells-conflated", "id:*", "id:*"))
    assert is_biequivalence(into_sign) == (False, ("two-cell-not-reached", "t"))
    assert is_trivial_fibration_two(into_arrow) == (False, ("object-not-hit", "1"))
    assert is_trivial_fibration_two(endpoints) == (False, ("one-cell-not-hit", "a01", "a", "b"))
    assert is_trivial_fibration_two(into_sign) == (
        False, ("two-cell-fiber", "id:0", "id:0", "t", 0))
    assert is_trivial_fibration_two(conflating) == (
        False, ("two-cell-fiber", "id:*", "id:*", point_id2, 2))


def test_biequivalences_compose(iso2, point2):
    inclusion = validate_two_functor(
        point2, iso2, {"0": "x"}, {point2.id1["0"]: iso2.id1["x"]}, {}
    )
    ident = validate_two_functor(
        iso2, iso2,
        {a: a for a in iso2.objects},
        {f: f for f in iso2.one_cells},
        {c: c for c in iso2.two_cells},
    )
    composite = inclusion.compose_with(ident)
    assert is_biequivalence(composite)[0]


from hypothesis import given, settings, strategies as st

from dblnerve.errors import ValidationError


def naive_two_category_laws(raw):
    """Independent interchange/associativity oracle on explicit one-object
    tables with 2-cells {p, q} over the identity 1-cell."""
    cells = ["p", "q", "e"]
    v = {k: dict(zip(cells, row)) for k, row in raw["v"].items()}
    h = {k: dict(zip(cells, row)) for k, row in raw["h"].items()}
    for table in (v, h):
        for a in cells:
            if table["e"][a] != a or table[a]["e"] != a:
                return False
        for a in cells:
            for b in cells:
                for c in cells:
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        return False
    for a in cells:
        for b in cells:
            for c in cells:
                for d in cells:
                    if h[v[a][b]][v[c][d]] != v[h[a][c]][h[b][d]]:
                        return False
    return True


def one_object_document(raw):
    """The interchange document of the tables ``raw`` checked by
    ``naive_two_category_laws``."""
    return {
        "objects": ["*"],
        "one_cells": [],
        "two_cells": [
            {"name": "p", "src": "id:*", "tgt": "id:*"},
            {"name": "q", "src": "id:*", "tgt": "id:*"},
        ],
        "vcompose": [
            [a, b, raw["v"][b][i].replace("e", "id2:id:*")]
            for b in ("p", "q")
            for i, a in enumerate(("p", "q"))
        ],
        "hcompose_two": [
            [a, b, raw["h"][b][i].replace("e", "id2:id:*")]
            for b in ("p", "q")
            for i, a in enumerate(("p", "q"))
        ],
    }


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_validator_accepts_exactly_lawful_two_categories(data):
    cells = ["p", "q", "e"]
    raw = {"v": {}, "h": {}}
    for table in ("v", "h"):
        for a in cells:
            raw[table][a] = [data.draw(st.sampled_from(cells)) for _ in cells]
        # units are synthesized by the loader, so force them here too
        raw[table]["e"] = list(cells)
        for a in cells:
            raw[table][a][2] = a
    doc = one_object_document(raw)
    lawful = naive_two_category_laws(raw)
    try:
        validate_two_category(doc)
        accepted = True
    except ValidationError:
        accepted = False
    assert accepted == lawful


# One broken composition-table entry of a corpus 2-category and the first
# law check it fails, as each message reads when every pair and triple of
# cells is filtered by its boundary (None deletes the entry).
_BROKEN_ENTRIES = [
    ("iso", "hcomp1", ("id:x", "id:x"), None,
     "no 1-cell composite for ('id:x' then 'id:x')"),
    ("arrow", "hcomp1", ("id:1", "id:1"), "id:0", "bad 1-cell composite for ('id:1', 'id:1')"),
    ("iso", "vcomp2", ("id2:id:x", "id2:id:x"), None,
     "no vertical composite for ('id2:id:x' then 'id2:id:x')"),
    ("arrow", "vcomp2", ("id2:id:1", "id2:id:1"), "id2:id:0",
     "bad vertical composite for ('id2:id:1', 'id2:id:1')"),
    ("arrow", "hcomp2", ("id2:id:1", "id2:id:1"), None,
     "no horizontal composite for ('id2:id:1', 'id2:id:1')"),
    ("iso", "hcomp2", ("id2:id:x", "id2:id:x"), "id2:id:y",
     "bad horizontal composite for ('id2:id:x', 'id2:id:x')"),
    ("tri-invertible", "vcomp2", ("id2:id:C", "id2:id:C"), "t",
     "vertical associativity fails on ('t', 't', 'id2:id:C')"),
    ("tri-invertible", "vcomp2", ("t", "id2:id:C"), "id2:id:C",
     "vertical associativity fails on ('t', 't', 't')"),
    ("tri-invertible", "hcomp2", ("t", "id2:id:C"), "id2:id:C",
     "horizontal associativity fails on ('t', 'id2:id:C', 't')"),
    ("tri-invertible", "hcomp2", ("t", "t"), "t",
     "interchange fails on ('t', 't', 'id2:id:C', 't')"),
]


@pytest.mark.parametrize("name, table, key, value, message", _BROKEN_ENTRIES)
def test_law_check_reports_the_first_failing_cells(name, table, key, value, message):
    import dataclasses
    from pathlib import Path

    from dblnerve.errors import ValidationError
    from dblnerve.io import load_path
    from dblnerve.twocat import check_two_category_laws

    cat = load_path(Path(__file__).parent.parent / "corpus" / f"{name}.json")
    broken = dict(getattr(cat, table))
    if value is None:
        del broken[key]
    else:
        broken[key] = value
    with pytest.raises(ValidationError) as caught:
        check_two_category_laws(dataclasses.replace(cat, **{table: broken}))
    assert str(caught.value) == message


def _law_check_outcomes(cats, stride=1):
    """The first failure the law check reports on each single-entry
    mutation of each 2-category in ``cats``: every ``stride``-th entry of
    each composition table is deleted, redirected to the next cell of its
    kind, and redirected to every other cell with its boundary."""
    import dataclasses

    from dblnerve.twocat import check_two_category_laws

    outcomes = []
    for name, cat in cats.items():
        check_two_category_laws(cat)
        for table, cells, bounds in (
            ("hcomp1", cat.one_cells, lambda f: (cat.one_src[f], cat.one_tgt[f])),
            ("vcomp2", cat.two_cells, lambda a: (cat.two_src[a], cat.two_tgt[a])),
            ("hcomp2", cat.two_cells, lambda a: (cat.two_src[a], cat.two_tgt[a])),
        ):
            flat = getattr(cat, table)
            parallel: dict = {}
            for c in cells:
                parallel.setdefault(bounds(c), []).append(c)
            for pair in list(flat)[::stride]:
                value = flat[pair]
                next_cell = cells[(cells.index(value) + 1) % len(cells)]
                redirects = {next_cell, *parallel[bounds(value)]} - {value}
                for replacement in [None, *sorted(redirects)]:
                    broken = dict(flat)
                    if replacement is None:
                        del broken[pair]
                    else:
                        broken[pair] = replacement
                    try:
                        check_two_category_laws(dataclasses.replace(cat, **{table: broken}))
                        failure = None
                    except Exception as err:  # the type is part of what is pinned
                        failure = [type(err).__name__, str(err)]
                    outcomes.append([name, table, list(pair), replacement, failure])
    return sorted(outcomes, key=json.dumps)


def _segal_pseudo_homs(k):
    from dblnerve.io import load_path
    from dblnerve.nerve import inclusion_chain_to_invertible
    from dblnerve.pseudohom import pseudo_hom

    hsim = load_path(Path(__file__).parent.parent / "corpus" / "hsim-iso.json")
    incl = inclusion_chain_to_invertible(k)
    return {f"segal:hsim-iso:{k}:{end}": pseudo_hom(dom, hsim).two_cat
            for end, dom in (("big", incl.target), ("small", incl.source))}


# sha256 of the sorted JSON outcomes, computed with the law check that
# looked every pair up in the flat tables
_LAW_CHECK_PINS = [
    ("corpus", 1, "0e44affb1961b1977987f44eedf9a0a3037a536c774717af48befa48b79dc7bf"),
    ("segal-1", 1, "5101ec6a0fe041f202d54ce0ef790644d16d3cc4d89baf334d166a75e55ca8fe"),
    ("segal-2", 7, "74c5907393848652a127ec9d000157a22e41acbf57cb6bf54cfaaef0a48a9f8a"),
]


@pytest.mark.parametrize("cases, stride, digest", _LAW_CHECK_PINS,
                         ids=[cases for cases, _, _ in _LAW_CHECK_PINS])
def test_law_check_first_failure_is_pinned(cases, stride, digest):
    from dblnerve.io import load_path

    if cases == "corpus":
        cats = {name: load_path(Path(__file__).parent.parent / "corpus" / f"{name}.json")
                for name in ("arrow", "iso", "point", "tri-invertible")}
    else:
        cats = _segal_pseudo_homs(int(cases[-1]))
    outcomes = _law_check_outcomes(cats, stride)
    dump = json.dumps(outcomes, sort_keys=True).encode()
    assert hashlib.sha256(dump).hexdigest() == digest
