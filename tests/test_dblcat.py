import dataclasses
from pathlib import Path

import pytest

from dblnerve.dblcat import (
    check_double_category_laws,
    equivalence_embed,
    horizontal_embed,
    transpose,
    underlying,
    validate_double_category,
    validate_double_functor,
    vertical_embed,
)
from dblnerve.errors import InterchangeFailure, ValidationError
from dblnerve.io import load_path

CORPUS = Path(__file__).parent.parent / "corpus"



def test_free_square_is_valid(square_dbl):
    assert len(square_dbl.objects) == 4
    assert len(square_dbl.squares) == 9  # one generator plus eight units


def test_point_double_is_valid(point_dbl):
    assert len(point_dbl.objects) == 1
    assert len(point_dbl.squares) == 1


def test_interchange_violation_rejected_with_witness():
    raw = {
        "objects": ["a"],
        "hmor": [],
        "vmor": [],
        "squares": [{"name": "t", "top": "idh:a", "bottom": "idh:a",
                     "left": "idv:a", "right": "idv:a"}],
        "hcompose_sq": [["t", "t", "ee:a"]],
        "vcompose_sq": [["t", "t", "t"]],
    }
    with pytest.raises(InterchangeFailure) as err:
        validate_double_category(raw)
    assert "'t'" in str(err.value)


def test_embed_round_trips(iso2, arrow2, tri2):
    for cat in (iso2, arrow2, tri2):
        for direction, embed in (("horizontal", horizontal_embed), ("vertical", vertical_embed)):
            dbl = embed(cat)
            back = underlying(dbl, direction)
            assert set(back.objects) == set(cat.objects)
            assert set(back.one_cells) == set(cat.one_cells)
            assert set(back.two_cells) == set(cat.two_cells)
            assert back.hcomp1 == cat.hcomp1
            assert back.vcomp2 == cat.vcomp2
            assert back.hcomp2 == cat.hcomp2


def test_transpose_is_an_involution_onto_lawful_double_categories():
    """On every corpus double category and the vertical embedding of every
    corpus 2-category: transposing twice gives back every field, and the
    transpose passes the law check that ``transpose`` does not run."""
    loaded = [load_path(path) for path in sorted(CORPUS.glob("*.json"))
              if not path.name.endswith(".map.json")]
    dbls = [obj for obj in loaded if hasattr(obj, "squares")]
    dbls += [vertical_embed(obj) for obj in loaded if hasattr(obj, "two_cells")]
    assert len(dbls) == 11
    for dbl in dbls:
        twice = transpose(transpose(dbl))
        for field in dataclasses.fields(dbl):
            assert getattr(twice, field.name) == getattr(dbl, field.name)
        flipped = transpose(dbl)
        check_double_category_laws(flipped)
        assert (flipped.hmors, flipped.vmors, flipped.stop, flipped.sleft) == (
            dbl.vmors, dbl.hmors, dbl.sleft, dbl.stop)


def test_horizontal_embed_counts(iso2):
    dbl = horizontal_embed(iso2)
    assert (len(dbl.objects), len(dbl.hmors), len(dbl.vmors), len(dbl.squares)) == (2, 4, 2, 4)


def test_underlying_vertical_of_horizontal_embedding_is_discrete(iso2):
    vert = underlying(horizontal_embed(iso2), "vertical")
    assert all(vert.one_src[f] == vert.one_tgt[f] for f in vert.one_cells)
    assert len(vert.one_cells) == len(vert.objects)


def test_underlying_horizontal_of_square(square_dbl):
    two = underlying(square_dbl, "horizontal")
    # two parallel-source-disjoint arrows, no non-identity 2-cells
    non_identity_one = [f for f in two.one_cells if f not in two.id1.values()]
    assert sorted(non_identity_one) == ["f", "f'"]
    assert all(c in two.id2.values() for c in two.two_cells)


def test_equivalence_embed_counts(iso2, tri2):
    dbl = equivalence_embed(iso2)
    assert (len(dbl.objects), len(dbl.hmors), len(dbl.vmors), len(dbl.squares)) == (2, 4, 4, 16)
    # the underlying horizontal 2-category is the original one, with flat
    # squares standing for its 2-cells
    flat = underlying(dbl, "horizontal")
    assert set(flat.one_cells) == set(iso2.one_cells)
    assert sorted(dbl.cell_of_square[s] for s in flat.two_cells) == sorted(iso2.two_cells)
    for (b, a), c in flat.vcomp2.items():
        lhs = iso2.vcomp2[(dbl.cell_of_square[b], dbl.cell_of_square[a])]
        assert lhs == dbl.cell_of_square[c]
    # vertical morphisms of the embedding are exactly the adjoint equivalences
    assert len(equivalence_embed(tri2).vmors) == len(tri2.adjoint_equivalences())


def test_double_functor_validation(square_dbl, point_dbl):
    collapse = validate_double_functor(
        square_dbl, point_dbl,
        {a: "0" for a in square_dbl.objects},
        {f: point_dbl.idh["0"] for f in square_dbl.hmors},
        {u: point_dbl.idv["0"] for u in square_dbl.vmors},
        {s: point_dbl.e_sq[point_dbl.idh["0"]] for s in square_dbl.squares},
    )
    assert collapse.object_map["00"] == "0"


def test_dangling_square_boundary_rejected():
    raw = {
        "objects": ["a", "b"],
        "hmor": [{"name": "f", "src": "a", "tgt": "b"}],
        "vmor": [],
        "squares": [{"name": "s", "top": "f", "bottom": "g",
                     "left": "idv:a", "right": "idv:b"}],
    }
    with pytest.raises(ValidationError):
        validate_double_category(raw)
