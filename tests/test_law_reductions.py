"""The reduced law checks against the loops that report failures.

``cat.check_table`` first proves associativity on a generating set
(``cat._associates``) and ``twocat.check_two_category_laws`` first proves
interchange by whiskering (``twocat._interchanges``); the loop over every
triple or grid runs only when the reduced check fails.  The reduced checks
must pass exactly when those loops pass, and lawful inputs must never reach
the loops, or the reduction would save nothing.
"""

import dataclasses
import hashlib
import json
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dblnerve import cat as cat_module, twocat
from dblnerve.cat import (
    FiniteCategory,
    check_category_laws,
    check_interchange,
    check_table,
    check_units,
)
from dblnerve.dblcat import equivalence_embed
from dblnerve.errors import (
    BadIdentity,
    InterchangeFailure,
    MissingComposite,
    NonAssociative,
    ValidationError,
)
from dblnerve.io import load_path
from dblnerve.nerve import inclusion_chain_to_invertible, segal_tfib_check
from dblnerve.pseudohom import pseudo_hom
from dblnerve.twocat import assemble_two_category, check_two_category_laws, validate_two_category

CORPUS = Path(__file__).parent.parent / "corpus"
TABLES = ("hcomp1", "vcomp2", "hcomp2")


# Two parallel 1-cells and a 2-cell between them: a 1-cell that composes
# with identities only can take that 2-cell as its identity and still pass
# every law before interchange.
WALKING_TWO_CELL = {
    "objects": ["0", "1"],
    "one_cells": [{"name": "f", "src": "0", "tgt": "1"}, {"name": "g", "src": "0", "tgt": "1"}],
    "two_cells": [{"name": "a", "src": "f", "tgt": "g"}],
}


@cache
def _two_categories():
    """The corpus 2-categories, the walking 2-cell, and the pseudo-hom
    2-categories that ``segal_tfib_check`` builds on hsim-iso at k = 3 and
    on the equivalence embedding of tri-invertible at k = 1.  The hsim-iso
    ones have identity 2-cells only, so no 2-cell entry of theirs can be
    redirected; most redirections come from the tri-invertible ones."""
    cats = {name: load_path(CORPUS / f"{name}.json")
            for name in ("arrow", "iso", "point", "tri-invertible")}
    cats["walking-2-cell"] = validate_two_category(WALKING_TWO_CELL)
    for name, dbl, k in (("hsim-iso", load_path(CORPUS / "hsim-iso.json"), 3),
                         ("eq(tri-invertible)", equivalence_embed(cats["tri-invertible"]), 1)):
        incl = inclusion_chain_to_invertible(k)
        for end, dom in (("big", incl.target), ("small", incl.source)):
            cats[f"segal:{name}:{k}:{end}"] = pseudo_hom(dom, dbl).two_cat
    return cats


@cache
def _redirections(name, table):
    """The entries of ``table`` that some other cell with the same boundary
    as their composite could replace, each with those cells."""
    cat = _two_categories()[name]
    cells, src, tgt = ((cat.one_cells, cat.one_src, cat.one_tgt) if table == "hcomp1"
                       else (cat.two_cells, cat.two_src, cat.two_tgt))
    parallel: dict = {}
    for c in cells:
        parallel.setdefault((src[c], tgt[c]), []).append(c)
    out = []
    for pair, value in getattr(cat, table).items():
        others = [c for c in parallel[(src[value], tgt[value])] if c != value]
        if others:
            out.append((pair, others))
    return out


@contextmanager
def _reduced_checks_recorded(fall_back=True):
    """Record the verdict of each reduced check, ``[law, verdict]``, and
    answer it to the law check, or False with ``fall_back``, so that the
    loop runs after every reduced check."""
    verdicts = []
    associates, interchanges = cat_module._associates, twocat._interchanges

    def record(law, check):
        def spy(*args):
            verdicts.append([law, check(*args)])
            return verdicts[-1][1] and not fall_back
        return spy

    with mock.patch.object(cat_module, "_associates", record("associativity", associates)), \
            mock.patch.object(twocat, "_interchanges", record("interchange", interchanges)):
        yield verdicts


def _failure(cat):
    """The class and message of what the law check raises on ``cat``."""
    try:
        check_two_category_laws(cat)
    except ValidationError as err:
        return [type(err).__name__, str(err)]
    return None


def _both_paths(cat):
    """The law check's failure on ``cat``, and each reduced check it reaches
    as ``[law, reduced verdict, loop verdict]``, with the loop run after
    every reduced check; both paths must fail alike."""
    with _reduced_checks_recorded() as verdicts:
        failure = _failure(cat)
    assert _failure(cat) == failure  # the reduced checks change no outcome
    loop_failed = {"associativity": NonAssociative.__name__,
                   "interchange": InterchangeFailure.__name__}
    outcomes = [[law, verdict, True] for law, verdict in verdicts]
    if outcomes and failure is not None and failure[0] == loop_failed[outcomes[-1][0]]:
        outcomes[-1][2] = False
    if failure is not None and failure[1].startswith("vertical unit"):  # see _each_law
        outcomes[-1][0] = "interchange without vertical units"
    return failure, outcomes


def _each_law(cat):
    """``[law, reduced verdict, loop verdict]`` for the associativity of
    each table of ``cat`` and for interchange, each decided on its own,
    whatever the other laws say; interchange only while the vertical table
    associates, which its reduction assumes.  Empty when a table does not
    compose with the right boundaries."""
    left = {a: cat.one_src[cat.two_src[a]] for a in cat.two_cells}
    right = {a: cat.one_tgt[cat.two_src[a]] for a in cat.two_cells}
    rows, laws = {}, []
    for table, cells, start, end, unit, faces in (
        ("hcomp1", cat.one_cells, cat.one_src, cat.one_tgt, cat.id1, ()),
        ("vcomp2", cat.two_cells, cat.two_src, cat.two_tgt, cat.id2, ()),
        ("hcomp2", cat.two_cells, left, right, {o: cat.id2[cat.id1[o]] for o in cat.objects},
         ((cat.two_src, "hcomp1"), (cat.two_tgt, "hcomp1"))),
    ):
        with mock.patch.object(cat_module, "_associates", lambda *_: True):
            try:
                rows[table] = check_table(getattr(cat, table), cells, start, end, unit, table,
                                          tuple((face, rows[on]) for face, on in faces))
            except MissingComposite:
                return []
        try:
            loop = cat_module._check_every_triple(rows[table], cells, table, None) is None
        except NonAssociative:
            loop = False
        laws.append([table, cat_module._associates(rows[table], cells, start, end, unit), loop])
    if laws[1][2]:
        try:
            loop = check_interchange(cat.vcomp2, rows["vcomp2"], rows["hcomp2"], left, right) is None
        except InterchangeFailure:
            loop = False
        try:  # without them interchange need not imply W, and only a pass must agree
            check_units(rows["vcomp2"], cat.two_src, cat.two_tgt, cat.id2, "vertical")
            law = "interchange"
        except BadIdentity:
            law = "interchange without vertical units"
        laws.append([law, twocat._interchanges(cat, rows["hcomp2"], left, right), loop])
    return laws


def test_lawful_tables_pass_both_paths():
    for name, cat in _two_categories().items():
        failure, outcomes = _both_paths(cat)
        assert failure is None, name
        assert outcomes == [["associativity", True, True]] * 3 + [["interchange", True, True]]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_reduced_checks_pass_exactly_when_the_loops_pass(data):
    name, table = data.draw(st.sampled_from(
        [(name, table) for name in sorted(_two_categories()) for table in TABLES
         if _redirections(name, table)]))
    pair, others = data.draw(st.sampled_from(_redirections(name, table)))
    cat = _two_categories()[name]
    broken = dict(getattr(cat, table))
    broken[pair] = data.draw(st.sampled_from(others))
    broken = dataclasses.replace(cat, **{table: broken})
    for law, reduced, loop in _both_paths(broken)[1] + _each_law(broken):
        assert (reduced <= loop if law.endswith("units") else reduced == loop), (
            name, table, pair, getattr(broken, table)[pair], law)


# Two tables that pass every law before interchange and fail it, each with
# one of the whiskering families alone: "first wins" vertical composition,
# also taken as horizontal composition, satisfies the first form of W and
# not the second (Eckmann-Hilton: both together make it commutative); and
# whiskering ``a`` by ``1_k`` to ``b``, with ``b·b = c``, satisfies W and
# not F.
_INTERCHANGE_NEEDS = [
    ({"objects": ["*"], "one_cells": [],
      "two_cells": [{"name": x, "src": "id:*", "tgt": "id:*"} for x in "pq"],
      "vcompose": [[x, y, x] for x in "pq" for y in "pq"],
      "hcompose_two": [[x, y, x] for x in "pq" for y in "pq"]},
     "interchange fails on ('id2:id:*', 'p', 'q', 'p')"),
    ({"objects": ["A", "B", "C"],
      "one_cells": [{"name": "f", "src": "A", "tgt": "B"}, {"name": "k", "src": "B", "tgt": "C"},
                    {"name": "kf", "src": "A", "tgt": "C"}],
      "hcompose_one": [["f", "k", "kf"]],
      "two_cells": [{"name": "a", "src": "f", "tgt": "f"}, {"name": "b", "src": "kf", "tgt": "kf"},
                    {"name": "c", "src": "kf", "tgt": "kf"}],
      "vcompose": [["a", "a", "a"], ["b", "b", "c"], ["b", "c", "c"], ["c", "b", "c"],
                   ["c", "c", "c"]],
      "hcompose_two": [["a", "id2:k", "b"]]},
     "interchange fails on ('a', 'a', 'id2:k', 'id2:k')"),
]


@pytest.mark.parametrize("document, message", _INTERCHANGE_NEEDS, ids=["second-form-of-W", "F"])
def test_interchange_by_whiskering_needs_every_family(document, message):
    with pytest.raises(InterchangeFailure) as err:
        validate_two_category(document)
    assert str(err.value) == message


def _one_object_table(rows, unit):
    """A composition table on one object, keyed ``(then, first)``, from
    ``rows``: for each first cell, its composites with ``unit`` and the
    cells ``p`` and ``q`` taken second, in that order."""
    return {(then, first): composite for first, row in rows.items()
            for then, composite in zip((unit, "p", "q"), row.split())}


def test_the_reduced_checks_assume_only_the_unit_laws_they_check():
    """Two tables that break a unit law and, through the unit, one more
    law checked before it: a category whose unit composed first gives the
    unit, which fails associativity only at the unit as middle; and a
    2-category whose vertical composite is the unit 2-cell whenever it
    takes part (and ``p`` otherwise), whose interchange fails only on grids
    with the unit.  Both raise what the loops raise, not the unit law."""
    u = "id:*"
    compose = _one_object_table({u: f"{u} {u} {u}", "p": "p p p", "q": "q p p"}, u)
    category = FiniteCategory(("*",), (u, "p", "q"), dict.fromkeys((u, "p", "q"), "*"),
                              dict.fromkeys((u, "p", "q"), "*"), {"*": u}, compose)
    with pytest.raises(NonAssociative) as err:
        check_category_laws(category)
    assert str(err.value) == "morphism associativity fails on ('q', 'id:*', 'p')"

    e = "id2:id:*"
    vcomp2 = _one_object_table({e: f"{e} {e} {e}", "p": f"{e} p p", "q": f"{e} p p"}, e)
    hcomp2 = _one_object_table({e: f"{e} p q", "p": "p p p", "q": "q p p"}, e)
    with pytest.raises(InterchangeFailure) as err:
        assemble_two_category(["*"], {u: ("*", "*")}, dict.fromkeys((e, "p", "q"), (u, u)),
                              {"*": u}, {u: e}, {(u, u): u}, vcomp2, hcomp2)
    assert str(err.value) == "interchange fails on ('id2:id:*', 'p', 'p', 'id2:id:*')"


def _wrong_boundary_units():
    """The law check's failure on each small 2-category above with one
    identity 2-cell ``id2[f]`` replaced by a 2-cell that does not run from
    ``f`` to ``f``, and how many of them reach interchange."""
    outcomes, reached = [], 0
    for name in ("arrow", "iso", "point", "tri-invertible", "walking-2-cell"):
        cat = _two_categories()[name]
        for f in cat.one_cells:
            for u in cat.two_cells:
                if (cat.two_src[u], cat.two_tgt[u]) != (f, f):
                    broken = dataclasses.replace(cat, id2=cat.id2 | {f: u})
                    failure, checks = _both_paths(broken)
                    interchange = [reduced for law, reduced, _ in checks if law.startswith("interchange")]
                    assert True not in interchange
                    reached += len(interchange)
                    outcomes.append([name, f, u, failure])
    return outcomes, reached


def test_an_identity_two_cell_with_the_wrong_boundary_falls_back():
    """The failures hash to what the law check that visited every grid
    reported (sha256 of their sorted JSON)."""
    outcomes, reached = _wrong_boundary_units()
    assert (len(outcomes), reached) == (58, 4)
    dump = json.dumps(sorted(outcomes, key=json.dumps), sort_keys=True).encode()
    assert hashlib.sha256(dump).hexdigest() == "357e6c6052b7dadf0dfe8974c94ebf29fb0656c5dfbd5415045a92edfca46eb5"


def test_lawful_pseudo_homs_never_reach_the_loops():
    """Building and law-checking the pseudo-homs of ``segal`` on hsim-iso at
    k = 3 proves every associativity and interchange law by the reduced
    checks."""
    def loop(*args):
        raise AssertionError("a loop over every triple or grid ran")

    with _reduced_checks_recorded(fall_back=False) as verdicts, \
            mock.patch.object(cat_module, "_check_every_triple", loop), \
            mock.patch.object(twocat, "check_interchange", loop):
        assert segal_tfib_check(load_path(CORPUS / "hsim-iso.json"), 3) == (True, None)
    assert ["associativity", True] in verdicts and ["interchange", True] in verdicts
    assert all(verdict for _, verdict in verdicts)
