import hashlib
import json
from itertools import product

import pytest

from dblnerve import expr as ex
from dblnerve import nerve, tensor
from dblnerve.dblcat import equivalence_embed, horizontal_embed
from dblnerve.errors import DanglingReference, DisagreementBug, RangeExceeded
from dblnerve.nerve import (
    dbl_nerve_degeneracy,
    dbl_nerve_face,
    dbl_nerve_level,
    two_nerve_degeneracy,
    two_nerve_face,
    two_nerve_level,
)
from dblnerve.tensor import level_map, lx_presentations

LEVELS = list(product(range(3), repeat=3))


def _presentation_doc(pres):
    return {
        "kind": pres.kind, "label": pres.label,
        "gens": [[g.name, g.sort, [None if b is None else ex.to_json(b) for b in g.bounds],
                  sorted(g.flags), list(g.adjoint)] for g in pres.gens],
        "relations": [[ex.to_json(lhs), ex.to_json(rhs)] for lhs, rhs in pres.relations],
        "expansion_relations": sorted(pres.expansion_relations),
        "keys": list(pres.keys),
        "order": [g.name for g in pres.search_plan.order],
    }


def _morphism_doc(morphism):
    return {name: ex.to_json(image) for name, image in morphism.gen_map.items()}


def test_quotients_and_comparison_maps_are_pinned():
    """sha256 of the 27 levels' plain and equivalence presentations (their
    generators, relations, key orders and search orders) and their collapse
    and section maps, computed when the plain quotient had translators of
    its own.  Nothing here may follow set order, so the digest holds under
    any hash seed."""
    doc = []
    for level in LEVELS:
        plain, equivalence, collapse, section = lx_presentations(*level)
        doc.append([list(level), _presentation_doc(plain), _presentation_doc(equivalence),
                    _morphism_doc(collapse), _morphism_doc(section)])
    dump = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(dump).hexdigest() == (
        "016eb9147b07e19f1823542955f1f2b1519fb153f315f208e409a33f36f67269")


def test_double_presentations_are_pinned():
    """sha256 of the 27 levels' double presentations (their generators
    with bounds, flags and adjoint records, relations, expansion indices,
    key orders and search orders) and their generator metadata, computed
    when the covering cells' laws against the interchanger were written
    out once per direction.  Nothing here may follow set order, so the
    digest holds under any hash seed."""
    doc = []
    for level in LEVELS:
        xp, meta = tensor.x_presentation(*level)
        doc.append([list(level), _presentation_doc(xp), meta])
    dump = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(dump).hexdigest() == (
        "c0a60545db7fe03a86d2cf2da19b1f58331a1ac9add824e0f9f4cb7f7ba3846f")


def test_quotient_faces_and_degeneracies_commute_with_the_double_route(iso2, arrow2):
    """On the first 40 rows of every level with m + k + n ≤ 3 of the double
    route on both embeddings of ``iso`` and ``arrow``, the projection onto
    the quotient (``nerve._projection``) of each face and degeneracy is the
    face or degeneracy of ``two_nerve_level`` of the projected row.  The
    double route's level maps do not pass through a quotient, so a quotient
    level map whose image names another cell than the double one fails here."""
    levels = [level for level in LEVELS if sum(level) <= 3]
    checks = 0
    for cat, variant in product((iso2, arrow2), ("h", "hsim")):
        dbl = (horizontal_embed if variant == "h" else equivalence_embed)(cat)
        project = {level: nerve._projection(variant, dbl, level) for level in LEVELS}
        for level, direction in product(levels, "mkn"):
            axis = "mkn".index(direction)
            top = level[axis]
            for row in dbl_nerve_level(dbl, *level).elements[:40]:
                image = project[level](row)
                low = tuple(c - (a == axis) for a, c in enumerate(level))
                for i in range(top + 1) if top else ():
                    face = dbl_nerve_face(dbl, level, direction, i, row)
                    assert (project[low](face)
                            == two_nerve_face(cat, variant, level, direction, i, image)), (level, i)
                    checks += 1
                up = tuple(c + (a == axis) for a, c in enumerate(level))
                for j in range(top + 1) if top < 2 else ():
                    lifted = dbl_nerve_degeneracy(dbl, level, direction, j, row)
                    degeneracy = two_nerve_degeneracy(cat, variant, level, direction, j, image)
                    assert project[up](lifted) == degeneracy, (level, j)
                    checks += 1
    assert checks == 5106


def test_a_conjugated_pasting_has_the_boundary_conjugation_reports(iso2, tri2):
    """Each square-sorted relation side of the double presentation, at every
    level the default budget decides through ``hsim`` (m + k + n ≤ 4 in
    ``iso``, ≤ 3 in ``tri-invertible``), evaluated on up to eight rows of
    that level: the 2-cell ``_conjugate`` returns goes from top·right to
    left·bottom of the boundary it returns beside it."""
    checks = 0
    for cat, deepest in ((iso2, 4), (tri2, 3)):
        for level in (level for level in LEVELS if sum(level) <= deepest):
            xp = tensor.x_presentation(*level)[0]
            sides = [side for idx, pair in enumerate(xp.relations)
                     if idx not in xp.expansion_relations for side in pair if side[0][0] == "s"]
            rows = two_nerve_level(cat, "hsim", *level, check_bijection=False)
            for row in rows.elements[::max(1, len(rows.elements) // 8)]:
                env = dict(zip(rows.keys, row))
                for side in sides:
                    cell, top, bottom, left, right = tensor._conjugate(xp, side)
                    value = ex.evaluate(cat, cell, env)
                    assert cat.s_top(value) == ex.evaluate(cat, ex.hcomp(top, right), env), side
                    assert cat.s_bottom(value) == ex.evaluate(cat, ex.hcomp(left, bottom), env), side
                    checks += 1
    assert checks == 848


def test_a_level_map_names_an_unknown_variant_or_direction():
    for variant, direction, name in (("bogus", "m", "bogus"), ("x", "z", "z"), ("l", "x", "x")):
        with pytest.raises(DanglingReference, match=f"unknown .* '{name}'"):
            level_map(variant, direction, [1], (0, 0, 0), (1, 0, 0))


def test_a_level_map_takes_only_a_monotone_map_between_levels_in_its_direction():
    """A map that is not weakly monotone from [src] to [tgt] in its
    direction, or levels that differ outside it or are not triples, raise
    RangeExceeded rather than naming generators the target lacks or acting
    as another map."""
    for variant, direction, alpha, src, tgt in (
            ("x", "m", [1, 0], (1, 0, 0), (1, 0, 0)),  # not monotone
            ("x", "m", [5], (0, 0, 0), (1, 0, 0)),  # lands past the target
            ("l", "n", [-1], (0, 0, 0), (0, 0, 1)),  # lands before it
            ("x", "m", [0, 1], (0, 0, 0), (1, 0, 0)),  # from [1], not [0]
            ("lsim", "k", [0.5, 1], (0, 1, 0), (0, 1, 0)),  # not a map of points
            ("x", "m", [0, 1], (1, 0, 0), (1, 1, 0)),  # the levels differ in k
            ("l", "n", [0], (0, 0, 0), (1, 0, 1)),  # and in m
            ("x", "m", [0], (0, 0), (1, 0))):  # not levels (m, k, n)
        with pytest.raises(RangeExceeded):
            level_map(variant, direction, alpha, src, tgt)
    assert level_map("x", "k", [0, 0], (0, 1, 0), (0, 0, 0)).gen_map["o0.1.0"] == ex.ogen("o0.0.0")


def test_a_section_that_is_not_a_retract_is_a_code_fault(monkeypatch):
    """Collapse after section is the identity on generators: a section
    image patched to another cell, and a generator that the section has no
    rule for, raise DisagreementBug, the error of a code fault."""
    section_map = tensor._section_map

    def patched(meta, lifts, equivalence):
        image_of = section_map(meta, lifts, equivalence)
        return lambda g: ex.hid(ex.ogen("o0.0.0")) if g.name == "m01.0.0" else image_of(g)
    monkeypatch.setattr(tensor, "_section_map", patched)
    with pytest.raises(DisagreementBug, match="retract identity fails at generator 'm01.0.0'"):
        tensor._lx_presentations.__wrapped__(1, 0, 0)
    xp, meta = tensor.x_presentation(0, 1, 0)
    image_of = section_map(meta, tensor._lifts(0, 1, 0), lx_presentations(0, 1, 0)[1])
    with pytest.raises(DisagreementBug, match="unexpected plain generator 'k01.0.0'"):
        image_of(xp.gen("k01.0.0"))
