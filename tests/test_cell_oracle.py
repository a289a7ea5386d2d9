"""Raw-table reference for the inverse and equivalence searches.

The oracle below scans every cell and composes through the stored
composition tables only; it calls no method of the categories, so it
stays independent of the boundary queries and the searches it checks.
"""

from pathlib import Path

import pytest

from dblnerve.dblcat import FiniteDoubleCategory, equivalence_embed, horizontal_embed, vertical_embed
from dblnerve.errors import NotAnEquivalence
from dblnerve.io import load_path
from dblnerve.standard import sign_loop_two_category
from dblnerve.twocat import FiniteTwoCategory, promote_equivalence, validate_two_category
from dblnerve.whi import horizontal_equivalences

CORPUS = Path(__file__).parent.parent / "corpus"


def _raw_dbl(cat):
    """A double category's tables as plain dicts (top, bottom, left, right)."""
    if isinstance(cat, FiniteDoubleCategory):
        return {
            "objects": cat.objects, "hmors": cat.hmors, "squares": cat.squares,
            "hsrc": cat.hsrc, "htgt": cat.htgt, "idh": cat.idh, "idv": cat.idv,
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
