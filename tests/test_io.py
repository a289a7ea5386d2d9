import json
from pathlib import Path

import pytest

from dblnerve.dblcat import equivalence_embed, horizontal_embed
from dblnerve.errors import SchemaError, ValidationError
from dblnerve.io import dump, load_document, load_path, serialize
from dblnerve.presentation import PresentationBuilder
from dblnerve.shapes import oriental, shape_2cat
from dblnerve.standard import (
    free_iso_category,
    free_square_double,
    iso_two_category,
    three_object_invertible_two_category,
)

CORPUS = Path(__file__).parent.parent / "corpus"


def test_round_trip_fixpoint_on_validated_objects():
    for obj in (
        free_iso_category(),
        iso_two_category(),
        three_object_invertible_two_category(),
        free_square_double(),
    ):
        doc = serialize(obj)
        assert dump(serialize(load_document(doc))) == dump(doc)


def test_round_trip_canonicalizes_assembled_objects(iso2):
    for obj in (oriental(2), oriental(2, True), horizontal_embed(iso2), equivalence_embed(iso2)):
        doc = serialize(obj)
        back = load_document(doc)
        assert dump(serialize(back)) == dump(doc)
        assert len(back.objects) == len(obj.objects)


def test_presentation_round_trip():
    doc = serialize(shape_2cat("E_adj"))
    assert dump(serialize(load_document(doc))) == dump(doc)


def test_presentation_round_trip_keeps_plain_starred_generators():
    b = PresentationBuilder("two")
    a, c = b.add_object("a"), b.add_object("b")
    b.add_hgen("f", a, c)
    b.add_hgen("f*", c, a)
    pres = b.build()
    doc = serialize(pres)
    assert [(e["name"], e["adjoint"]) for e in doc["hgens"]] == [("f", False), ("f*", False)]
    back = load_document(doc)
    assert back.gens == pres.gens and back.relations == ()


def test_corpus_files_load():
    for path in sorted(CORPUS.glob("*.json")):
        if path.name.endswith(".map.json"):
            continue
        load_path(str(path))


def test_corpus_files_are_canonical():
    for path in sorted(CORPUS.glob("*.json")):
        if path.name.endswith(".map.json"):
            continue
        text = path.read_text()
        obj = load_document(json.loads(text))
        assert dump(serialize(obj)) == text, path.name


def test_schema_errors():
    with pytest.raises(SchemaError):
        load_document({"no": "kind"})
    with pytest.raises(SchemaError):
        load_document({"kind": "fancy-category"})


def test_undeclared_square_boundary_names_field():
    doc = {
        "kind": "double-category",
        "objects": ["a"],
        "hmor": [],
        "vmor": [],
        "squares": [
            {"name": "s", "top": "missing", "bottom": "idh:a", "left": "idv:a", "right": "idv:a"}
        ],
    }
    with pytest.raises(ValidationError) as err:
        load_document(doc)
    assert "s" in str(err.value)
