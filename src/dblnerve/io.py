"""JSON interchange: one schema with a ``kind`` discriminator.

Identities and unit cells are implicit in files and synthesized on load
with canonical names, so serialization first renames unit cells to the
canonical scheme; ``load(serialize(x))`` is the identity on canonically
named objects and a canonicalizing isomorphism otherwise.
"""

from __future__ import annotations

import json

from . import expr as ex
from .cat import FiniteCategory, check_names, id_of, validate_category
from .cat import implicit_entries as cat_implicit
from .dblcat import FiniteDoubleCategory, e_of, ee_of, i_of, idh_of, idv_of, validate_double_category
from .dblcat import implicit_entries as double_implicit
from .errors import SchemaError
from .presentation import Presentation, PresentationBuilder
from .twocat import FiniteTwoCategory, id2_of, validate_two_category
from .twocat import implicit_entries as two_implicit

LIST_FIELDS = (
    "objects", "morphisms", "compose", "one_cells", "two_cells", "hcompose_one", "vcompose",
    "hcompose_two", "hmor", "vmor", "squares", "hcompose_h", "vcompose_v", "hcompose_sq",
    "vcompose_sq", "hgens", "vgens", "relations",
)


def load_document(doc: dict):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError("document must be an object with a 'kind' field")
    kind = doc["kind"]
    for key in LIST_FIELDS:
        if not isinstance(doc.get(key, []), list):
            raise SchemaError(f"field {key!r} must be a list")
    try:
        if kind == "category":
            return validate_category(doc)
        if kind == "two-category":
            return validate_two_category(doc)
        if kind == "double-category":
            return validate_double_category(doc)
        if kind == "presentation":
            return _load_presentation(doc)
    except KeyError as err:
        raise SchemaError(f"missing field {err}") from err
    except (TypeError, ValueError) as err:
        raise SchemaError(f"malformed {kind} document: {err}") from err
    raise SchemaError(f"unknown kind {kind!r}")


def load_path(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            raise SchemaError(f"{path}: not valid JSON: {err}") from err
    return load_document(doc)


def dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_presentation(doc):
    flavor = doc.get("flavor")
    if flavor not in ("double", "two"):
        raise SchemaError("presentation needs flavor 'double' or 'two'")
    for key in ("hgens", "vgens", "squares"):
        if not all(isinstance(entry, dict) for entry in doc.get(key, [])):
            raise SchemaError(f"each entry of {key!r} must be an object")
    check_names(doc, "hgens", "vgens", "squares")
    b = PresentationBuilder(flavor, doc.get("label", ""))
    for name in doc.get("objects", []):
        b.add_object(name)
    for entry in doc.get("hgens", []):
        b.add_hgen(
            entry["name"],
            ex.from_json(entry["src"]),
            ex.from_json(entry["tgt"]),
            adjoint=bool(entry.get("adjoint")),
        )
    for entry in doc.get("vgens", []):
        b.add_vgen(entry["name"], ex.from_json(entry["src"]), ex.from_json(entry["tgt"]))
    for entry in doc.get("squares", []):
        flags = entry.get("flags", [])
        if not isinstance(flags, list):
            raise SchemaError(f"the flags of square {entry['name']!r} must be a list")
        if flavor == "two":
            b.add_cell2(
                entry["name"], ex.from_json(entry["src"]), ex.from_json(entry["tgt"]), flags
            )
        else:
            b.add_square(
                entry["name"],
                ex.from_json(entry["top"]),
                ex.from_json(entry["bottom"]),
                ex.from_json(entry["left"]),
                ex.from_json(entry["right"]),
                flags,
            )
    for lhs, rhs in doc.get("relations", []):
        b.add_relation(ex.from_json(lhs), ex.from_json(rhs))
    return b.build()


# -- serialization --------------------------------------------------------


def serialize(obj) -> dict:
    if isinstance(obj, FiniteCategory):
        return _serialize_category(obj)
    if isinstance(obj, FiniteTwoCategory):
        return _serialize_two(obj)
    if isinstance(obj, FiniteDoubleCategory):
        return _serialize_double(obj)
    if isinstance(obj, Presentation):
        return _serialize_presentation(obj)
    raise SchemaError(f"cannot serialize {type(obj).__name__}")


def _listed(key, table, implicit, name):
    """The entries of ``table`` a file lists under ``key``: those its kind's
    loader does not fill, with their cells renamed."""
    return sorted([name(f), name(g), name(h)] for (g, f), h in table.items()
                  if (key, (g, f)) not in implicit)


def _serialize_category(cat: FiniteCategory) -> dict:
    units = {cat.identity[a]: id_of(a) for a in cat.objects}
    implicit = {entry[:2] for entry in cat_implicit(cat.morphisms, cat.src, cat.tgt, cat.identity)}
    return {
        "kind": "category",
        "objects": sorted(cat.objects),
        "morphisms": [
            {"name": m, "src": cat.src[m], "tgt": cat.tgt[m]}
            for m in sorted(cat.morphisms)
            if m not in units
        ],
        "compose": _listed("compose", cat.compose, implicit, lambda m: units.get(m, m)),
    }


def _serialize_two(cat: FiniteTwoCategory) -> dict:
    r1 = {cat.id1[a]: id_of(a) for a in cat.objects}
    n1 = lambda f: r1.get(f, f)
    r2 = {cat.id2[f]: id2_of(n1(f)) for f in cat.one_cells}
    n2 = lambda c: r2.get(c, c)
    implicit = {entry[:2] for entry in two_implicit(
        {f: (cat.one_src[f], cat.one_tgt[f]) for f in cat.one_cells},
        {c: (cat.two_src[c], cat.two_tgt[c]) for c in cat.two_cells},
        cat.id1, cat.id2, cat.hcomp1)}
    return {
        "kind": "two-category",
        "objects": sorted(cat.objects),
        "one_cells": [
            {"name": f, "src": cat.one_src[f], "tgt": cat.one_tgt[f]}
            for f in sorted(cat.one_cells)
            if f not in r1
        ],
        "two_cells": [
            {"name": c, "src": n1(cat.two_src[c]), "tgt": n1(cat.two_tgt[c])}
            for c in sorted(cat.two_cells)
            if c not in r2
        ],
        "hcompose_one": _listed("hcompose_one", cat.hcomp1, implicit, n1),
        "vcompose": _listed("vcompose", cat.vcomp2, implicit, n2),
        "hcompose_two": _listed("hcompose_two", cat.hcomp2, implicit, n2),
    }


def _serialize_double(dbl: FiniteDoubleCategory) -> dict:
    rh = {dbl.idh[a]: idh_of(a) for a in dbl.objects}
    rv = {dbl.idv[a]: idv_of(a) for a in dbl.objects}
    rs = {dbl.e_sq[dbl.idh[a]]: ee_of(a) for a in dbl.objects}
    for f in dbl.hmors:
        if f not in rh:
            rs.setdefault(dbl.e_sq[f], e_of(f))
    for u in dbl.vmors:
        if u not in rv:
            rs.setdefault(dbl.i_sq[u], i_of(u))
    nh = lambda f: rh.get(f, f)
    nv = lambda u: rv.get(u, u)
    ns = lambda s: rs.get(s, s)
    implicit = {entry[:2] for entry in double_implicit(
        {f: (dbl.hsrc[f], dbl.htgt[f]) for f in dbl.hmors},
        {u: (dbl.vsrc[u], dbl.vtgt[u]) for u in dbl.vmors},
        {s: (dbl.stop[s], dbl.sbottom[s], dbl.sleft[s], dbl.sright[s]) for s in dbl.squares},
        dbl.idh, dbl.idv, dbl.e_sq, dbl.i_sq, dbl.hcomp_h, dbl.vcomp_v)}
    return {
        "kind": "double-category",
        "objects": sorted(dbl.objects),
        "hmor": [
            {"name": f, "src": dbl.hsrc[f], "tgt": dbl.htgt[f]}
            for f in sorted(dbl.hmors)
            if f not in rh
        ],
        "vmor": [
            {"name": u, "src": dbl.vsrc[u], "tgt": dbl.vtgt[u]}
            for u in sorted(dbl.vmors)
            if u not in rv
        ],
        "squares": [
            {
                "name": s,
                "top": nh(dbl.stop[s]),
                "bottom": nh(dbl.sbottom[s]),
                "left": nv(dbl.sleft[s]),
                "right": nv(dbl.sright[s]),
            }
            for s in sorted(dbl.squares)
            if s not in rs
        ],
        "hcompose_h": _listed("hcompose_h", dbl.hcomp_h, implicit, nh),
        "vcompose_v": _listed("vcompose_v", dbl.vcomp_v, implicit, nv),
        "hcompose_sq": _listed("hcompose_sq", dbl.hcomp_sq, implicit, ns),
        "vcompose_sq": _listed("vcompose_sq", dbl.vcomp_sq, implicit, ns),
    }


def _serialize_presentation(pres: Presentation) -> dict:
    expansion = pres.expansion_gens()
    doc = {
        "kind": "presentation",
        "flavor": pres.kind,
        "label": pres.label,
        "objects": [],
        "hgens": [],
        "vgens": [],
        "squares": [],
        "relations": [
            [ex.to_json(lhs), ex.to_json(rhs)]
            for i, (lhs, rhs) in enumerate(pres.relations)
            if i not in pres.expansion_relations
        ],
    }
    for g in pres.gens:
        if g.name in expansion:
            continue
        if g.sort == "object":
            doc["objects"].append(g.name)
        elif g.sort == "h":
            doc["hgens"].append(
                {
                    "name": g.name,
                    "src": ex.to_json(g.bounds[0]),
                    "tgt": ex.to_json(g.bounds[1]),
                    "adjoint": bool(g.adjoint),
                }
            )
        elif g.sort == "v":
            doc["vgens"].append(
                {"name": g.name, "src": ex.to_json(g.bounds[0]), "tgt": ex.to_json(g.bounds[1])}
            )
        else:
            entry = {"name": g.name, "flags": sorted(g.flags)}
            if pres.kind == "two":
                entry["src"] = ex.to_json(g.bounds[0])
                entry["tgt"] = ex.to_json(g.bounds[1])
            else:
                entry["top"] = ex.to_json(g.bounds[0])
                entry["bottom"] = ex.to_json(g.bounds[1])
                entry["left"] = ex.to_json(g.bounds[2])
                entry["right"] = ex.to_json(g.bounds[3])
            doc["squares"].append(entry)
    return doc
