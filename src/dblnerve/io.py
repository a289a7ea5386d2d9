"""JSON interchange: one schema with a ``kind`` discriminator.

Identities and unit cells are implicit in files and synthesized on load
with canonical names, so serialization first renames unit cells to the
canonical scheme; ``load(serialize(x))`` is the identity on canonically
named objects and a canonicalizing isomorphism otherwise.
"""

from __future__ import annotations

import json

from . import expr as ex
from .cat import FiniteCategory, validate_category
from .dblcat import FiniteDoubleCategory, validate_double_category
from .errors import SchemaError
from .presentation import Presentation, PresentationBuilder
from .twocat import FiniteTwoCategory, validate_two_category

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
        flags = tuple(entry.get("flags", []))
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


def _serialize_category(cat: FiniteCategory) -> dict:
    rename = {}
    for a in cat.objects:
        rename[cat.identity[a]] = f"id:{a}"
    name = lambda m: rename.get(m, m)
    idset = set(cat.identity.values())
    return {
        "kind": "category",
        "objects": sorted(cat.objects),
        "morphisms": [
            {"name": m, "src": cat.src[m], "tgt": cat.tgt[m]}
            for m in sorted(cat.morphisms)
            if m not in idset
        ],
        "compose": sorted(
            [f, g, name(h)]
            for (g, f), h in cat.compose.items()
            if f not in idset and g not in idset
        ),
    }


def _serialize_two(cat: FiniteTwoCategory) -> dict:
    r1 = {cat.id1[a]: f"id:{a}" for a in cat.objects}
    n1 = lambda f: r1.get(f, f)
    r2 = {cat.id2[f]: f"id2:{n1(f)}" for f in cat.one_cells}
    n2 = lambda c: r2.get(c, c)
    id1set, id2set = set(cat.id1.values()), set(cat.id2.values())
    unit_on_id = {cat.id2[cat.id1[a]] for a in cat.objects}

    hcomp_two = []
    for (b, a), c in cat.hcomp2.items():
        if a in id2set and b in id2set:
            continue
        if a in unit_on_id or b in unit_on_id:
            continue
        hcomp_two.append([n2(a), n2(b), n2(c)])
    return {
        "kind": "two-category",
        "objects": sorted(cat.objects),
        "one_cells": [
            {"name": f, "src": cat.one_src[f], "tgt": cat.one_tgt[f]}
            for f in sorted(cat.one_cells)
            if f not in id1set
        ],
        "two_cells": [
            {"name": c, "src": n1(cat.two_src[c]), "tgt": n1(cat.two_tgt[c])}
            for c in sorted(cat.two_cells)
            if c not in id2set
        ],
        "hcompose_one": sorted(
            [n1(f), n1(g), n1(h)]
            for (g, f), h in cat.hcomp1.items()
            if f not in id1set and g not in id1set
        ),
        "vcompose": sorted(
            [n2(a), n2(b), n2(c)]
            for (b, a), c in cat.vcomp2.items()
            if a not in id2set and b not in id2set
        ),
        "hcompose_two": sorted(hcomp_two),
    }


def _serialize_double(dbl: FiniteDoubleCategory) -> dict:
    rh = {dbl.idh[a]: f"idh:{a}" for a in dbl.objects}
    rv = {dbl.idv[a]: f"idv:{a}" for a in dbl.objects}
    nh = lambda f: rh.get(f, f)
    nv = lambda u: rv.get(u, u)
    rs = {}
    for a in dbl.objects:
        rs[dbl.e_sq[dbl.idh[a]]] = f"ee:{a}"
    for f in dbl.hmors:
        if f not in rh:
            rs.setdefault(dbl.e_sq[f], f"e:{nh(f)}")
    for u in dbl.vmors:
        if u not in rv:
            rs.setdefault(dbl.i_sq[u], f"i:{nv(u)}")
    ns = lambda s: rs.get(s, s)
    idh_set, idv_set = set(dbl.idh.values()), set(dbl.idv.values())
    unit_sqs = set(dbl.e_sq.values()) | set(dbl.i_sq.values())

    def keep_h_sq(pair):
        t, s = pair
        if s in unit_sqs and t in unit_sqs:
            # only unit-by-unit horizontal composites are derivable
            return not (s in dbl.e_sq.values() and t in dbl.e_sq.values()) and not (
                s == dbl.i_sq[dbl.sleft[t]] or t == dbl.i_sq[dbl.sright[s]]
            )
        if s in dbl.i_sq.values() and dbl.i_sq[dbl.sleft[t]] == s:
            return False
        if t in dbl.i_sq.values() and dbl.i_sq[dbl.sright[s]] == t:
            return False
        return True

    def keep_v_sq(pair):
        t, s = pair
        if s in dbl.i_sq.values() and t in dbl.i_sq.values():
            return False
        if s in dbl.e_sq.values() and dbl.e_sq[dbl.stop[t]] == s:
            return False
        if t in dbl.e_sq.values() and dbl.e_sq[dbl.sbottom[s]] == t:
            return False
        return True

    return {
        "kind": "double-category",
        "objects": sorted(dbl.objects),
        "hmor": [
            {"name": f, "src": dbl.hsrc[f], "tgt": dbl.htgt[f]}
            for f in sorted(dbl.hmors)
            if f not in idh_set
        ],
        "vmor": [
            {"name": u, "src": dbl.vsrc[u], "tgt": dbl.vtgt[u]}
            for u in sorted(dbl.vmors)
            if u not in idv_set
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
            if s not in unit_sqs
        ],
        "hcompose_h": sorted(
            [nh(f), nh(g), nh(h)]
            for (g, f), h in dbl.hcomp_h.items()
            if f not in idh_set and g not in idh_set
        ),
        "vcompose_v": sorted(
            [nv(u), nv(w), nv(z)]
            for (w, u), z in dbl.vcomp_v.items()
            if u not in idv_set and w not in idv_set
        ),
        "hcompose_sq": sorted(
            [ns(s), ns(t), ns(c)]
            for (t, s), c in dbl.hcomp_sq.items()
            if keep_h_sq((t, s))
        ),
        "vcompose_sq": sorted(
            [ns(s), ns(t), ns(c)]
            for (t, s), c in dbl.vcomp_sq.items()
            if keep_v_sq((t, s))
        ),
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
