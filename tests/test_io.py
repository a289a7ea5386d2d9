import copy
import hashlib
import json
from itertools import product
from pathlib import Path

import pytest

from dblnerve.dblcat import equivalence_embed, horizontal_embed, vertical_embed
from dblnerve.errors import DanglingReference, SchemaError, ValidationError
from dblnerve.expr import hid
from dblnerve.io import dump, load_document, load_path, serialize
from dblnerve.presentation import PresentationBuilder
from dblnerve.pseudohom import pseudo_hom
from dblnerve.shapes import oriental, oriental_variant, shape_2cat
from dblnerve.standard import (
    free_iso_category,
    free_square_double,
    iso_two_category,
    three_object_invertible_two_category,
)

CORPUS = Path(__file__).parent.parent / "corpus"
SERIALIZATION_DIGEST = "a306ca4c81178db46b08253e257fc94db16f6ebfee71f55ac9eac5fab414aae9"
LOADER_CONFLICTS = 211
LOADER_CONFLICTS_DIGEST = "a660c44b86a303e4b3fc1658266ecf0bcd74f163bcd2d24c0532975448c23c0c"


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


@pytest.mark.parametrize("doc", [
    {"kind": "category", "objects": [1, 2]},
    {"kind": "category", "objects": ["a"], "morphisms": [{"name": 1, "src": "a", "tgt": "a"}]},
    {"kind": "two-category", "objects": ["a"],
     "one_cells": [{"name": "f", "src": "a", "tgt": "a"}],
     "two_cells": [{"name": ["t"], "src": "f", "tgt": "f"}]},
    {"kind": "double-category", "objects": [True]},
    {"kind": "double-category", "objects": ["a", "a", 0]},  # before the duplicate check
    {"kind": "double-category", "objects": ["a"], "hmor": [{"name": 2.5, "src": "a", "tgt": "a"}]},
    {"kind": "presentation", "flavor": "two", "objects": [3]},
    {"kind": "presentation", "flavor": "double", "objects": ["a"],
     "hgens": [{"name": None, "src": ["ogen", "a"], "tgt": ["ogen", "a"]}]},
])
def test_names_that_are_not_strings_are_schema_errors(doc):
    with pytest.raises(SchemaError, match="must be strings"):
        load_document(doc)


@pytest.mark.parametrize("flags", [["invertable"], ["bogus"], ["whi", "invertible", "x"]])
def test_unknown_flags_are_dangling_references(flags):
    square = {"name": "s", "src": ["hid", ["ogen", "a"]], "tgt": ["hid", ["ogen", "a"]]}
    doc = {"kind": "presentation", "flavor": "two", "objects": ["a"], "squares": [square]}
    for known in ([], ["invertible"], ["invertible", "h_invertible", "whi"]):
        assert load_document({**doc, "squares": [{**square, "flags": known}]}).gens[1].flags == set(known)
    with pytest.raises(DanglingReference, match="unknown flag"):
        load_document({**doc, "squares": [{**square, "flags": flags}]})
    builder = PresentationBuilder("two")
    a = builder.add_object("a")
    builder.add_cell2("s", hid(a), hid(a), flags="ab")  # read as the flags 'a' and 'b'
    with pytest.raises(DanglingReference, match="unknown flag 'a', 'b'"):
        builder.build()


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


TABLES = {
    "category": {"compose": ("compose", "morphisms")},
    "two-category": {"hcompose_one": ("hcomp1", "one_cells"),
                     "vcompose": ("vcomp2", "two_cells"),
                     "hcompose_two": ("hcomp2", "two_cells")},
    "double-category": {"hcompose_h": ("hcomp_h", "hmor"), "vcompose_v": ("vcomp_v", "vmor"),
                        "hcompose_sq": ("hcomp_sq", "squares"),
                        "vcompose_sq": ("vcomp_sq", "squares")},
}


def _corpus_documents():
    return {path.name.removesuffix(".json"): json.loads(path.read_text())
            for path in sorted(CORPUS.glob("*.json")) if not path.name.endswith(".map.json")}


def _pinned_objects():
    """76 objects by label: the corpus files; the plain and invertible
    orientals with 1 ≤ n ≤ 3 and their vertical double categories; the three
    embeddings of four corpus 2-categories; four pseudo-homs out of the free
    square; and every boundary and horn of the three oriental families with
    1 ≤ n ≤ 3, materialized or presented."""
    corpus = {name: load_document(doc) for name, doc in _corpus_documents().items()}
    objects = dict(corpus)
    for n, invertible in product((1, 2, 3), (False, True)):
        objects[f"oriental-{n}-{invertible}"] = oriental(n, invertible)
        objects[f"v-oriental-{n}-{invertible}"] = vertical_embed(oriental(n, invertible))
    for name, embed in product(("iso", "arrow", "tri-invertible", "point"),
                               (horizontal_embed, vertical_embed, equivalence_embed)):
        objects[f"{embed.__name__}-{name}"] = embed(corpus[name])
    for name in ("h-iso", "hsim-iso", "square-boundary", "parallel-squares"):
        objects[f"pseudo-hom-{name}"] = pseudo_hom(corpus["free-square"], corpus[name]).two_cat
    for family, n in product(("plain", "inverted", "adjoint"), (1, 2, 3)):
        objects[f"{family}-{n}-boundary"] = oriental_variant(family, n, "boundary")
        for t in range(n + 1):
            objects[f"{family}-{n}-horn-{t}"] = oriental_variant(family, n, "horn", t)
    return objects


def test_serialization_is_pinned_byte_for_byte():
    """The documents the serializer writes for a fixed set of objects, both
    loaded and assembled, against their digest when pinned."""
    objects = _pinned_objects()
    assert len(objects) == 76
    digest = hashlib.sha256()
    for label, obj in sorted(objects.items()):
        digest.update(f"{label}\n{dump(serialize(obj))}".encode())
    assert digest.hexdigest() == SERIALIZATION_DIGEST


def test_loader_conflicts_are_pinned():
    """For every entry a corpus file leaves implicit, the loader's error on
    a copy of the file that lists that entry with another declared cell,
    against the digest of these errors when pinned."""
    outcomes = []
    for name, doc in _corpus_documents().items():
        loaded = load_document(doc)
        for key, (attribute, cells) in TABLES[doc["kind"]].items():
            listed = {(then, first) for first, then, _ in doc.get(key, [])}
            declared = [c if isinstance(c, str) else c["name"] for c in doc.get(cells, [])]
            for (then, first), value in sorted(getattr(loaded, attribute).items()):
                other = [c for c in declared if c != value]
                if (then, first) in listed or not other:
                    continue
                bad = copy.deepcopy(doc)
                bad.setdefault(key, []).append([first, then, other[0]])
                with pytest.raises(ValidationError) as err:
                    load_document(bad)
                outcomes.append((name, type(err.value).__name__, str(err.value)))
    assert len(outcomes) == LOADER_CONFLICTS
    digest = hashlib.sha256(json.dumps(sorted(outcomes)).encode()).hexdigest()
    assert digest == LOADER_CONFLICTS_DIGEST
