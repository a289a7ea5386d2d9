"""The category and double-category law checks against brute-force oracles,
and law-check failures that no single-entry mutation reaches.

Every single-entry mutation of every composition table (the entry deleted,
or redirected to each other cell of its sort) must be accepted exactly when
the oracle finds the mutated tables lawful, and rejected with a
``ValidationError`` otherwise: no other exception may escape a law check.
"""

import dataclasses
from itertools import product
from pathlib import Path

import pytest

from dblnerve.cat import FiniteCategory, check_category_laws
from dblnerve.dblcat import (
    check_double_category_laws,
    equivalence_embed,
    horizontal_embed,
    vertical_embed,
)
from dblnerve.errors import BadIdentity, MissingComposite, ValidationError
from dblnerve.io import load_path
from dblnerve.standard import chain_category
from dblnerve.twocat import assemble_two_category, check_two_category_laws

CORPUS = Path(__file__).parent.parent / "corpus"


def naive_category_laws(cells, src, tgt, ident, table):
    """Brute force over all pairs and triples of ``cells``: ``table``,
    keyed ``(then, first)``, composes them as a category with identities
    ``ident`` (object -> cell).  A missing entry is unlawful."""
    cellset = set(cells)
    for f, g in product(cells, repeat=2):
        composable = tgt[f] == src[g]
        if (g, f) in table and not composable:
            return False
        if composable:
            h = table.get((g, f))
            if h not in cellset or src[h] != src[f] or tgt[h] != tgt[g]:
                return False
    for f in cells:
        if table[(f, ident[src[f]])] != f or table[(ident[tgt[f]], f)] != f:
            return False
    for f, g, h in product(cells, repeat=3):
        if tgt[f] == src[g] and tgt[g] == src[h]:
            if table[(h, table[(g, f)])] != table[(table[(h, g)], f)]:
                return False
    return True


def naive_double_category_laws(dbl, hcomp_h, vcomp_v, hcomp_sq, vcomp_sq):
    """Brute force over all pairs, triples and grids of cells: the four
    tables make ``dbl``'s cells a double category."""
    if not (naive_category_laws(dbl.hmors, dbl.hsrc, dbl.htgt, dbl.idh, hcomp_h)
            and naive_category_laws(dbl.vmors, dbl.vsrc, dbl.vtgt, dbl.idv, vcomp_v)):
        return False
    if any(dbl.e_sq[dbl.idh[a]] != dbl.i_sq[dbl.idv[a]] for a in dbl.objects):
        return False
    squares, top, bottom, left, right = (
        dbl.squares, dbl.stop, dbl.sbottom, dbl.sleft, dbl.sright)

    def h_ok(s, t):
        return right[s] == left[t]

    def v_ok(s, t):
        return bottom[s] == top[t]

    def h_faces(s, t, c):
        return (top[c] == hcomp_h[(top[t], top[s])] and bottom[c] == hcomp_h[(bottom[t], bottom[s])]
                and left[c] == left[s] and right[c] == right[t])

    def v_faces(s, t, c):
        return (top[c] == top[s] and bottom[c] == bottom[t]
                and left[c] == vcomp_v[(left[t], left[s])] and right[c] == vcomp_v[(right[t], right[s])])

    sqset = set(squares)
    for table, ok, faces in ((hcomp_sq, h_ok, h_faces), (vcomp_sq, v_ok, v_faces)):
        for s, t in product(squares, repeat=2):
            if (t, s) in table and not ok(s, t):
                return False
            if ok(s, t):
                c = table.get((t, s))
                if c not in sqset or not faces(s, t, c):
                    return False
    for s in squares:
        if (hcomp_sq[(s, dbl.i_sq[left[s]])] != s or hcomp_sq[(dbl.i_sq[right[s]], s)] != s
                or vcomp_sq[(s, dbl.e_sq[top[s]])] != s or vcomp_sq[(dbl.e_sq[bottom[s]], s)] != s):
            return False
    for table, squares_table, unit in ((hcomp_h, hcomp_sq, dbl.e_sq), (vcomp_v, vcomp_sq, dbl.i_sq)):
        for (g, f), h in table.items():
            if squares_table[(unit[g], unit[f])] != unit[h]:
                return False
    for table, ok in ((hcomp_sq, h_ok), (vcomp_sq, v_ok)):
        for s, t, u in product(squares, repeat=3):
            if ok(s, t) and ok(t, u) and table[(u, table[(t, s)])] != table[(table[(u, t)], s)]:
                return False
    for a1, b1 in product(squares, repeat=2):
        if not v_ok(a1, b1):
            continue
        for a2, b2 in product(squares, repeat=2):
            if h_ok(a1, a2) and h_ok(b1, b2) and v_ok(a2, b2):
                lhs = hcomp_sq[(vcomp_sq[(b2, a2)], vcomp_sq[(b1, a1)])]
                if lhs != vcomp_sq[(hcomp_sq[(b2, b1)], hcomp_sq[(a2, a1)])]:
                    return False
    return True


def _double_categories():
    """The corpus double categories and the three embeddings of four corpus
    2-categories: 19 objects."""
    dbls = {path.stem: load_path(path) for path in sorted(CORPUS.glob("*.json"))
            if not path.name.endswith(".map.json")}
    twos = {name: dbls.pop(name) for name in ("arrow", "iso", "point", "tri-invertible")}
    dbls = {name: obj for name, obj in dbls.items() if hasattr(obj, "squares")}
    for name, embed in product(twos, (horizontal_embed, vertical_embed, equivalence_embed)):
        dbls[f"{embed.__name__}-{name}"] = embed(twos[name])
    return dbls


def _mutations(obj, tables):
    """``(table, pair, replacement, broken)`` for each single-entry mutation
    of each named table of ``obj``: ``tables`` maps a table to the cells its
    entries may be redirected to; a ``None`` replacement deletes."""
    for table, cells in tables.items():
        flat = getattr(obj, table)
        for pair, value in flat.items():
            for replacement in [None, *(c for c in cells if c != value)]:
                broken = dict(flat)
                if replacement is None:
                    del broken[pair]
                else:
                    broken[pair] = replacement
                yield table, pair, replacement, broken


def _verdict(check, obj):
    """True if ``check`` accepts ``obj``, False if it raises a
    ``ValidationError``, the name of any other exception it raises."""
    try:
        check(obj)
    except ValidationError:
        return False
    except Exception as err:  # a law check may raise nothing else
        return type(err).__name__
    return True


def test_double_category_check_accepts_exactly_the_lawful_tables():
    dbls = _double_categories()
    assert len(dbls) == 19
    seen, disagreements = 0, []
    for name, dbl in dbls.items():
        tables = {"hcomp_h": dbl.hmors, "vcomp_v": dbl.vmors,
                  "hcomp_sq": dbl.squares, "vcomp_sq": dbl.squares}
        assert _verdict(check_double_category_laws, dbl) is True
        for table, pair, replacement, broken in _mutations(dbl, tables):
            seen += 1
            four = {t: getattr(dbl, t) for t in tables} | {table: broken}
            lawful = naive_double_category_laws(dbl, **four)
            verdict = _verdict(check_double_category_laws, dataclasses.replace(dbl, **{table: broken}))
            if verdict != lawful:
                disagreements.append((name, table, pair, replacement, verdict, lawful))
    assert seen == 11425
    assert disagreements == []


def _categories():
    """The corpus category, a chain, and both morphism layers of
    each double category above."""
    cats = {"iso-category": load_path(CORPUS / "iso-category.json"),
            "chain-2": chain_category(2)}
    for name, dbl in _double_categories().items():
        cats[f"{name}:h"] = FiniteCategory(dbl.objects, dbl.hmors, dbl.hsrc, dbl.htgt,
                                           dbl.idh, dbl.hcomp_h)
        cats[f"{name}:v"] = FiniteCategory(dbl.objects, dbl.vmors, dbl.vsrc, dbl.vtgt,
                                           dbl.idv, dbl.vcomp_v)
    return cats


def test_category_check_accepts_exactly_the_lawful_tables():
    disagreements = []
    for name, cat in _categories().items():
        assert _verdict(check_category_laws, cat) is True
        for _, pair, replacement, broken in _mutations(cat, {"compose": cat.morphisms}):
            lawful = naive_category_laws(cat.morphisms, cat.src, cat.tgt, cat.identity, broken)
            verdict = _verdict(check_category_laws, dataclasses.replace(cat, compose=broken))
            if verdict != lawful:
                disagreements.append((name, pair, replacement, verdict, lawful))
    assert disagreements == []


@pytest.mark.parametrize("pair", [("a01", "id:0"), ("a02", "id:0"), ("a12", "id:1")])
def test_missing_unit_entry_of_a_category_is_a_missing_composite(pair):
    cat = chain_category(2)
    broken = dict(cat.compose)
    del broken[pair]
    with pytest.raises(MissingComposite):
        check_category_laws(dataclasses.replace(cat, compose=broken))


def test_missing_unit_entry_of_a_double_category_is_a_missing_composite():
    dbl = load_path(CORPUS / "free-square.json")
    broken = dict(dbl.hcomp_h)
    del broken[("f", "idh:00")]
    with pytest.raises(MissingComposite):
        check_double_category_laws(dataclasses.replace(dbl, hcomp_h=broken))


def test_two_category_check_rejects_a_vertical_composition_without_units():
    """One object, one 2-cell ``p`` beside the identity 2-cell: horizontal
    composition is lawful and vertical composition constantly ``p``, which
    satisfies every other law."""
    unit = "id2:id:*"
    cells = (unit, "p")
    vcomp2 = {pair: "p" for pair in product(cells, repeat=2)}
    hcomp2 = {(a, unit): a for a in cells} | {(unit, a): a for a in cells} | {("p", "p"): "p"}
    with pytest.raises(BadIdentity) as err:
        assemble_two_category(["*"], {"id:*": ("*", "*")}, {c: ("id:*", "id:*") for c in cells},
                              {"*": "id:*"}, {"id:*": unit}, {("id:*", "id:*"): "id:*"},
                              vcomp2, hcomp2)
    assert str(err.value) == "vertical unit law fails at 'id2:id:*'"


def test_a_two_category_unit_map_without_a_cell_is_a_bad_identity():
    """The unit maps are read for every cell; one given through the API
    that misses a cell, or names no cell, is rejected before any law."""
    cat = load_path(CORPUS / "iso.json")
    one_bounds = {f: (cat.one_src[f], cat.one_tgt[f]) for f in cat.one_cells}
    two_bounds = {a: (cat.two_src[a], cat.two_tgt[a]) for a in cat.two_cells}
    id2 = {f: u for f, u in cat.id2.items() if f != "xy"}
    with pytest.raises(BadIdentity) as err:
        assemble_two_category(cat.objects, one_bounds, two_bounds, cat.id1, id2,
                              cat.hcomp1, cat.vcomp2, cat.hcomp2)
    assert str(err.value) == "no 2-cell unit for 'xy'"
    for field, unit, message in (
        ("id1", {"y": "id:y"}, "no 1-cell unit for 'x'"),
        ("id2", cat.id2 | {"yx": "nowhere"}, "no 2-cell unit for 'yx'"),
    ):
        with pytest.raises(BadIdentity) as err:
            check_two_category_laws(dataclasses.replace(cat, **{field: unit}))
        assert str(err.value) == message


@pytest.mark.parametrize("field, cell, message", [
    ("idh", "00", "no horizontal unit for '00'"),
    ("idv", "11", "no vertical unit for '11'"),
    ("e_sq", "f", "no vertical square unit for 'f'"),
    ("i_sq", "u", "no horizontal square unit for 'u'"),
])
def test_a_double_category_unit_map_without_a_cell_is_a_bad_identity(field, cell, message):
    dbl = load_path(CORPUS / "free-square.json")
    unit = {c: u for c, u in getattr(dbl, field).items() if c != cell}
    with pytest.raises(BadIdentity) as err:
        check_double_category_laws(dataclasses.replace(dbl, **{field: unit}))
    assert str(err.value) == message
