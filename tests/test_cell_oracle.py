"""Raw-table reference for the boundary queries and the inverse and
equivalence searches.

The oracle below scans every cell and composes through the stored
composition tables only; it calls no method of the categories, so it
stays independent of the boundary queries and the searches it checks.
"""

import gc
import weakref
from itertools import compress, product
from pathlib import Path

import pytest

from dblnerve.cat import validate_category
from dblnerve.dblcat import FiniteDoubleCategory, equivalence_embed, horizontal_embed, vertical_embed
from dblnerve.errors import NotAnEquivalence
from dblnerve.io import load_path
from dblnerve.nerve import dbl_nerve_level, inclusion_chain_to_invertible, two_nerve_level
from dblnerve.pseudohom import hpnt_equivalence_report, pseudo_hom
from dblnerve.standard import sign_loop_two_category
from dblnerve.twocat import FiniteTwoCategory, promote_equivalence, validate_two_category
from dblnerve.whi import horizontal_equivalences, whi_squares

CORPUS = Path(__file__).parent.parent / "corpus"


def _raw_dbl(cat):
    """A double category's tables as plain dicts (top, bottom, left, right)."""
    if isinstance(cat, FiniteDoubleCategory):
        return {
            "objects": cat.objects, "hmors": cat.hmors, "squares": cat.squares,
            "hsrc": cat.hsrc, "htgt": cat.htgt, "idh": cat.idh, "idv": cat.idv,
            "vmors": cat.vmors, "vsrc": cat.vsrc, "vtgt": cat.vtgt,
            "bound": {s: (cat.stop[s], cat.sbottom[s], cat.sleft[s], cat.sright[s])
                      for s in cat.squares},
            "e": cat.e_sq, "i": cat.i_sq, "hh": cat.hcomp_h,
            "hsq": cat.hcomp_sq, "vsq": cat.vcomp_sq,
        }
    # a 2-category: vertical sides are objects, its only vertical morphisms
    return {
        "objects": cat.objects, "hmors": cat.one_cells, "squares": cat.two_cells,
        "hsrc": cat.one_src, "htgt": cat.one_tgt, "idh": cat.id1,
        "idv": {a: a for a in cat.objects},
        "vmors": cat.objects, "vsrc": {a: a for a in cat.objects},
        "vtgt": {a: a for a in cat.objects},
        "bound": {c: (cat.two_src[c], cat.two_tgt[c], cat.one_src[cat.two_src[c]],
                      cat.one_tgt[cat.two_src[c]]) for c in cat.two_cells},
        "e": cat.id2, "i": {a: cat.id2[cat.id1[a]] for a in cat.objects},
        "hh": cat.hcomp1, "hsq": cat.hcomp2, "vsq": cat.vcomp2,
    }


def _vinverses(raw, s):
    top, bottom = raw["bound"][s][:2]
    return [t for t in raw["squares"]
            if raw["bound"][t][:2] == (bottom, top)
            and raw["vsq"].get((t, s)) == raw["e"][top]
            and raw["vsq"].get((s, t)) == raw["e"][bottom]]


def _hinverses(raw, s):
    left, right = raw["bound"][s][2:]
    return [t for t in raw["squares"]
            if raw["bound"][t][2:] == (right, left)
            and raw["hsq"].get((t, s)) == raw["i"][left]
            and raw["hsq"].get((s, t)) == raw["i"][right]]


def _equivalences(raw):
    """Every (f, g, eta, eps, adjoint) with invertible flat unit and counit."""
    out = []
    for f in raw["hmors"]:
        a, b = raw["hsrc"][f], raw["htgt"][f]
        for g in raw["hmors"]:
            if (raw["hsrc"][g], raw["htgt"][g]) != (b, a):
                continue
            gf, fg = raw["hh"][(g, f)], raw["hh"][(f, g)]
            ia, ib = raw["idv"][a], raw["idv"][b]
            for eta in raw["squares"]:
                if raw["bound"][eta] != (raw["idh"][a], gf, ia, ia) or not _vinverses(raw, eta):
                    continue
                for eps in raw["squares"]:
                    if raw["bound"][eps] != (fg, raw["idh"][b], ib, ib) or not _vinverses(raw, eps):
                        continue
                    e_f, e_g = raw["e"][f], raw["e"][g]
                    hsq, vsq = raw["hsq"], raw["vsq"]
                    one = vsq[(hsq[(eps, e_f)], hsq[(e_f, eta)])]
                    two = vsq[(hsq[(e_g, eps)], hsq[(eta, e_g)])]
                    out.append((f, g, eta, eps, one == e_f and two == e_g))
    return sorted(out)


def _algebras():
    out = {}
    for path in sorted(CORPUS.glob("*.json")):
        if path.name.endswith(".map.json"):
            continue
        cat = load_path(str(path))
        if isinstance(cat, (FiniteTwoCategory, FiniteDoubleCategory)):
            out[path.stem] = cat
        if isinstance(cat, FiniteTwoCategory):
            out[f"h({path.stem})"] = horizontal_embed(cat)
            out[f"hsim({path.stem})"] = equivalence_embed(cat)
    # one object whose identity carries an idempotent, non-invertible 2-cell
    idempotent = validate_two_category({
        "objects": ["*"], "one_cells": [],
        "two_cells": [{"name": "t", "src": "id:*", "tgt": "id:*"}],
        "vcompose": [["t", "t", "t"]], "hcompose_two": [["t", "t", "t"]],
    })
    for name, cat in (("sign", sign_loop_two_category()), ("idempotent", idempotent)):
        out[name] = cat
        out[f"h({name})"] = horizontal_embed(cat)
        out[f"v({name})"] = vertical_embed(cat)
        out[f"hsim({name})"] = equivalence_embed(cat)
    return out


ALGEBRAS = _algebras()


@pytest.mark.parametrize("label", sorted(ALGEBRAS))
def test_inverse_searches_match_raw_tables(label):
    cat = ALGEBRAS[label]
    raw = _raw_dbl(cat)
    for s in raw["squares"]:
        vinv, hinv = _vinverses(raw, s), _hinverses(raw, s)
        assert len(vinv) <= 1 and len(hinv) <= 1, (label, s)
        assert cat.s_vinverse(s) == (vinv[0] if vinv else None), (label, s)
        assert cat.s_hinverse(s) == (hinv[0] if hinv else None), (label, s)


@pytest.mark.parametrize("label", sorted(ALGEBRAS))
def test_equivalence_enumeration_matches_raw_tables(label):
    cat = ALGEBRAS[label]
    expected = _equivalences(_raw_dbl(cat))
    if isinstance(cat, FiniteTwoCategory):
        assert list(cat.equivalences()) == [q[:4] for q in expected], label
        assert list(cat.adjoint_equivalences()) == [q[:4] for q in expected if q[4]], label
    else:
        found = [(*d.as_tuple(), d.adjoint) for d in horizontal_equivalences(cat)]
        assert found == expected, label


def test_the_oracle_sees_nontrivial_inverses():
    """The reference would be vacuous if no algebra had a non-unit inverse."""
    sign = _raw_dbl(ALGEBRAS["sign"])
    assert _vinverses(sign, "t") == ["t"]
    assert _hinverses(_raw_dbl(ALGEBRAS["v(sign)"]), "t") == ["t"]
    assert any(not q[4] for q in _equivalences(sign))
    idempotent = _raw_dbl(ALGEBRAS["idempotent"])
    assert not _vinverses(idempotent, "t") and not _hinverses(idempotent, "t")


@pytest.mark.parametrize("label", sorted(k for k, v in ALGEBRAS.items()
                                         if isinstance(v, FiniteDoubleCategory)))
def test_promotion_on_double_categories_matches_raw_tables(label):
    dbl = ALGEBRAS[label]
    raw = _raw_dbl(dbl)
    adjoint = {q[:4] for q in _equivalences(raw) if q[4]}
    for d in horizontal_equivalences(dbl):
        f, g, eta, eps = promote_equivalence(dbl, *d.as_tuple())
        assert (f, g, eta) == (d.f, d.g, d.eta)
        assert (f, g, eta, eps) in adjoint
        if d.adjoint:
            assert eps == d.eps


def test_promotion_needs_identity_vertical_sides():
    dbl = ALGEBRAS["hsim(sign)"]
    ident = dbl.idh["*"]
    loop = next(u for u in dbl.vmors if u != dbl.idv["*"])
    with pytest.raises(NotAnEquivalence, match="unit"):
        promote_equivalence(dbl, ident, ident, dbl.i_sq[loop], dbl.e_sq[ident])


def _query_algebras():
    """ALGEBRAS, the vertical embeddings of the corpus 2-categories, and the
    pseudo-hom 2-category behind ``segal_tfib_check(hsim-iso, 3)``."""
    out = dict(ALGEBRAS)
    for label, cat in ALGEBRAS.items():
        if isinstance(cat, FiniteTwoCategory) and f"v({label})" not in out:
            out[f"v({label})"] = vertical_embed(cat)
    target = inclusion_chain_to_invertible(3).target
    out["pseudo-hom(hsim-iso, 3)"] = pseudo_hom(target, ALGEBRAS["hsim-iso"]).two_cat
    return out


QUERY_ALGEBRAS = _query_algebras()
SIDES = ("top", "bottom", "left", "right")


@pytest.mark.parametrize("label", sorted(QUERY_ALGEBRAS))
def test_boundary_queries_match_a_scan_of_raw_boundaries(label):
    """Every subset of sides given to ``squares_with``, and both ends given
    to ``hmors_between`` and ``vmors_between``, list what a scan of the raw
    boundaries lists, in the same order; a side that no cell has lists
    nothing."""
    cat = QUERY_ALGEBRAS[label]
    raw = _raw_dbl(cat)
    bound = raw["bound"]
    for given in product((False, True), repeat=4):
        keys = {tuple(compress(bound[s], given)) for s in raw["squares"]}
        keys.add(tuple(compress(("nowhere",) * 4, given)))
        for key in keys:
            expected = [s for s in raw["squares"] if tuple(compress(bound[s], given)) == key]
            sides = dict(zip(compress(SIDES, given), key))
            assert cat.squares_with(**sides) == expected, (label, sides)
    ends = [*product(raw["objects"], repeat=2), ("nowhere", raw["objects"][0])]
    for a, b in ends:
        assert cat.hmors_between(a, b) == [
            f for f in raw["hmors"] if (raw["hsrc"][f], raw["htgt"][f]) == (a, b)], (label, a, b)
        assert cat.vmors_between(a, b) == [
            u for u in raw["vmors"] if (raw["vsrc"][u], raw["vtgt"][u]) == (a, b)], (label, a, b)


@pytest.mark.parametrize("label", sorted(QUERY_ALGEBRAS))
def test_equivalences_by_f_match_a_filter_of_the_sorted_list(label):
    cat = QUERY_ALGEBRAS[label]
    found = cat.h_equivalences()
    by_f = cat.h_equivalences_by_f
    assert list(by_f) == sorted({d.f for d in found}), label
    for f in _raw_dbl(cat)["hmors"]:
        assert by_f.get(f, []) == [d for d in found if d.f == f], (label, f)


def _filled_algebras():
    """Weak references to algebras whose every memo is filled, and to
    nothing else: a pseudo-hom and a nerve level of hsim-iso, a level of
    the 2-categorical nerve, and the boundary and equivalence searches on
    each algebra.  The pseudo-hom's domain is a shape every call shares,
    so it is not among them."""
    hsim_iso, iso = load_path(str(CORPUS / "hsim-iso.json")), load_path(str(CORPUS / "iso.json"))
    ph = pseudo_hom(inclusion_chain_to_invertible(2).target, hsim_iso)
    assert dbl_nerve_level(hsim_iso, 1, 0, 1).elements
    assert two_nerve_level(iso, "hsim", 0, 0, 1).elements
    for t in ph.transformations:
        by_definition, all_whi = hpnt_equivalence_report(ph, t)
        assert by_definition == all_whi, t
    category = validate_category({"objects": ["a"]})
    assert category.is_identity("id:a")
    algebras = [hsim_iso, iso, ph.two_cat, horizontal_embed(iso), category]
    for alg in algebras[:-1]:
        assert alg.h_equivalences() and alg.h_equivalences_by_f
        assert alg.squares_with(right=alg.s_right(alg.squares_with()[0]))
        if isinstance(alg, FiniteDoubleCategory):
            whi_squares(alg)
    return [weakref.ref(alg) for alg in algebras]


def test_an_algebra_and_its_memos_are_freed_once_dropped():
    """Each memo lives exactly as long as its algebra: a memo kept beside
    the algebra, such as a ``functools.cache`` on a method, would keep
    every pseudo-hom alive."""
    refs = _filled_algebras()
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
