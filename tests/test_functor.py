"""The functor rule shared by categories, 2-categories and double
categories: every cell has an image of its sort with the images of its
boundary, unit cells go to unit cells, composites to composites, and a map
names no cell the source lacks."""

import dataclasses
import hashlib
import json
from functools import cache
from pathlib import Path

import pytest

from dblnerve.cat import validate_cat_functor, validate_category
from dblnerve.dblcat import horizontal_embed, validate_double_functor
from dblnerve.errors import DanglingReference
from dblnerve.io import load_path
from dblnerve.standard import chain_category, locally_discrete
from dblnerve.twocat import validate_two_functor

CORPUS = Path(__file__).parent.parent / "corpus"
DOUBLES = ("free-square", "h-iso", "hsim-arrow", "hsim-iso", "parallel-squares",
           "point-double", "square-boundary")
TWOS = ("arrow", "iso", "point", "tri-invertible")
# the validator of each kind and the cell fields its maps follow, in order
KINDS = {
    "category": (validate_cat_functor, ("objects", "morphisms")),
    "two-category": (validate_two_functor, ("objects", "one_cells", "two_cells")),
    "double-category": (validate_double_functor, ("objects", "hmors", "vmors", "squares")),
}


def _kind(cat):
    return next(kind for kind, (_, fields) in KINDS.items() if hasattr(cat, fields[-1]))


@cache
def _functors():
    """Source, target and maps of each functor of the set, by name: the
    identity of every corpus category, 2-category and double category and
    of the chain [1], the collapses of iso-category and iso onto the point,
    the two corpus map files, and the inclusion of the chain [2] into the
    chain with a second arrow 0 → 2, as a category, a locally discrete
    2-category and its horizontal double category."""
    load = {name: load_path(CORPUS / f"{name}.json")
            for name in (*DOUBLES, *TWOS, "iso-category")}
    load["chain-1"] = chain_category(1)
    cases = {}
    for name, cat in load.items():
        fields = KINDS[_kind(cat)][1]
        cases[f"identity:{name}"] = (cat, cat, [{c: c for c in getattr(cat, f)} for f in fields])
    point = load["point"]
    cases["collapse:iso"] = (load["iso"], point, [
        {c: image for c in getattr(load["iso"], f)}
        for f, image in zip(KINDS["two-category"][1], ("0", "id:0", "id2:id:0"))])
    cases["collapse:iso-category"] = (load["iso-category"], chain_category(0), [
        {c: image for c in getattr(load["iso-category"], f)}
        for f, image in zip(KINDS["category"][1], ("0", "id:0"))])
    for src, tgt, map_name in (("h-iso", "hsim-iso", "h-iso-to-hsim"),
                               ("free-square", "point-double", "square-to-point")):
        raw = json.loads((CORPUS / f"{map_name}.map.json").read_text())
        cases[f"map:{map_name}"] = (load[src], load[tgt], [
            raw.get(section, {}) for section in ("objects", "hmor", "vmor", "squares")])
    chain = chain_category(2)
    wedge = validate_category({
        "objects": list(chain.objects),
        "morphisms": [{"name": m, "src": m[1], "tgt": m[2]} for m in ("a01", "a12", "a02", "b02")],
        "compose": [["a01", "a12", "a02"]]})
    for kind, embed in (("category", lambda c: c), ("two-category", locally_discrete),
                        ("double-category", lambda c: horizontal_embed(locally_discrete(c)))):
        source = embed(chain)
        cases[f"inclusion:{kind}"] = (source, embed(wedge), [  # unit cells left out
            {c: c for c in getattr(source, f) if ":" not in c} for f in KINDS[kind][1]])
    return cases


def _outcome(source, target, maps):
    """The completed maps of the functor, or the name of the error raised."""
    validate = KINDS[_kind(source)][0]
    try:
        functor = validate(source, target, *maps)
    except Exception as err:  # the type is part of what is pinned
        return type(err).__name__
    return [getattr(functor, f.name) for f in dataclasses.fields(functor)[2:]]


def _mutation_outcomes():
    """The outcome of each functor and of each single-entry mutation of its
    maps: every entry deleted, and redirected to every other target cell of
    its sort."""
    outcomes = []
    for name, (source, target, maps) in _functors().items():
        outcomes.append([name, None, None, None, _outcome(source, target, maps)])
        for i, field in enumerate(KINDS[_kind(source)][1]):
            for cell in sorted(maps[i]):
                for replacement in [None, *getattr(target, field)]:
                    if replacement == maps[i][cell]:
                        continue
                    part = dict(maps[i])
                    if replacement is None:
                        del part[cell]
                    else:
                        part[cell] = replacement
                    mutated = [*maps[:i], part, *maps[i + 1:]]
                    outcomes.append([name, field, cell, replacement,
                                     _outcome(source, target, mutated)])
    return sorted(outcomes, key=lambda o: json.dumps(o, sort_keys=True))


def test_functor_outcomes_are_pinned():
    """sha256 of the sorted JSON outcomes, computed when each kind wrote its
    own validator."""
    outcomes = _mutation_outcomes()
    assert len(outcomes) == 1262
    dump = json.dumps(outcomes, sort_keys=True).encode()
    assert hashlib.sha256(dump).hexdigest() == (
        "e472726bbd5758a73d25a02fd5eeef64f9ad27223bc07d57431cd675ffbb09dd")


UNKNOWN = [(name, i) for name, (source, _, _) in _functors().items()
           for i in range(len(KINDS[_kind(source)][1]))]


@pytest.mark.parametrize("name, i", UNKNOWN, ids=[f"{name}-{i}" for name, i in UNKNOWN])
def test_a_map_entry_naming_no_source_cell_is_rejected(name, i):
    """One name the source lacks, added to one map of each functor of the
    set (``identity:chain-1-1`` is ``validate_cat_functor`` on the chain [1])."""
    source, target, maps = _functors()[name]
    field = KINDS[_kind(source)][1][i]
    part = {**maps[i], "zz-not-a-cell": getattr(target, field)[0]}
    validate = KINDS[_kind(source)][0]
    with pytest.raises(DanglingReference, match="zz-not-a-cell"):
        validate(source, target, *maps[:i], part, *maps[i + 1:])


@pytest.mark.parametrize("name", ["identity:iso-category", "identity:iso", "identity:free-square"])
def test_a_functor_equals_only_itself(name):
    """A functor hashes by identity, so it compares by identity: two
    validations of one identity functor are unequal, each equals itself,
    and a set holds both."""
    source, target, maps = _functors()[name]
    first, second = (KINDS[_kind(source)][0](source, target, *maps) for _ in range(2))
    assert first == first and second == second
    assert first != second and len({first, second}) == 2
