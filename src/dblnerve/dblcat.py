"""Finite double categories.

A square ``s`` has boundary (top, bottom, left, right) with top: A → B and
bottom: A' → B' horizontal, left: A ⇸ A' and right: B ⇸ B' vertical.
Horizontal composition pastes along shared vertical boundaries, vertical
composition along shared horizontal ones; both tables are keyed
``(then, first)`` like every other composition table in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cat import (
    check_interchange,
    check_names,
    check_table,
    check_unit_map,
    check_units,
    check_units_along,
    fill_implicit,
    read_composition_table,
    validate_functor,
)
from .errors import BadIdentity, DanglingReference, MissingComposite
from .expr import CellAlgebra
from .twocat import FiniteTwoCategory, assemble_two_category


def idh_of(obj: str) -> str:
    return f"idh:{obj}"


def idv_of(obj: str) -> str:
    return f"idv:{obj}"


def ee_of(obj: str) -> str:
    """The unit square shared by both identities of an object."""
    return f"ee:{obj}"


def e_of(hmor: str) -> str:
    return f"e:{hmor}"


def i_of(vmor: str) -> str:
    return f"i:{vmor}"


@dataclass(frozen=True, eq=False)
class FiniteDoubleCategory(CellAlgebra):
    objects: tuple[str, ...]
    hmors: tuple[str, ...]
    vmors: tuple[str, ...]
    squares: tuple[str, ...]
    hsrc: dict[str, str]
    htgt: dict[str, str]
    vsrc: dict[str, str]
    vtgt: dict[str, str]
    stop: dict[str, str]
    sbottom: dict[str, str]
    sleft: dict[str, str]
    sright: dict[str, str]
    idh: dict[str, str]
    idv: dict[str, str]
    e_sq: dict[str, str]  # hmor -> unit square e_f
    i_sq: dict[str, str]  # vmor -> unit square id_u
    hcomp_h: dict[tuple[str, str], str]
    vcomp_v: dict[tuple[str, str], str]
    hcomp_sq: dict[tuple[str, str], str]
    vcomp_sq: dict[tuple[str, str], str]

    CELLS = {"h": "hmors", "v": "vmors", "sq": "squares"}

    # -- cell-algebra protocol (see expr) ------------------------------
    def h_src(self, f):
        return self.hsrc[f]

    def h_tgt(self, f):
        return self.htgt[f]

    def h_id(self, o):
        return self.idh[o]

    def h_then(self, first, then):
        return self.hcomp_h[(then, first)]

    def v_src(self, u):
        return self.vsrc[u]

    def v_tgt(self, u):
        return self.vtgt[u]

    def v_id(self, o):
        return self.idv[o]

    def v_then(self, first, then):
        return self.vcomp_v[(then, first)]

    def s_top(self, s):
        return self.stop[s]

    def s_bottom(self, s):
        return self.sbottom[s]

    def s_left(self, s):
        return self.sleft[s]

    def s_right(self, s):
        return self.sright[s]

    def s_unit_h(self, f):
        return self.e_sq[f]

    def s_unit_v(self, u):
        return self.i_sq[u]

    def s_hcomp(self, left, right):
        return self.hcomp_sq[(right, left)]

    def s_vcomp(self, top, bottom):
        return self.vcomp_sq[(bottom, top)]

    # -- boundary queries: CellAlgebra's, bound here too so that the
    # benchmark's tracer (perfbench/tracer.py) still counts the candidate
    # lists of functor enumeration under their dblcat.* names
    hmors_between = CellAlgebra.hmors_between
    vmors_between = CellAlgebra.vmors_between
    squares_with = CellAlgebra.squares_with

    # -- memos of the weak-inverse searches of whi ---------------------
    # is_whi_square's: square -> the first weak inverse found (a WhiWitness) or None
    whi_witnesses = cached_property(lambda self: {})

    @cached_property
    def whi_set(self) -> frozenset[str]:
        """The weakly horizontally invertible squares (``whi.whi_squares``)."""
        from .whi import is_whi_square  # whi is built on this module
        return frozenset(s for s in self.squares if is_whi_square(self, s) is not None)

    @cached_property
    def presentation(self):
        """This double category as a double presentation, whose valuations
        are the double functors out of it (``pseudohom._as_presentation``):
        built and planned once.  It names cells and holds no reference to
        this double category."""
        from .pseudohom import _as_presentation  # pseudohom is built on this module
        return _as_presentation(self)

    def has_trivial_vertical_boundaries(self, s) -> bool:
        return (self.sleft[s] == self.idv[self.hsrc[self.stop[s]]]
                and self.sright[s] == self.idv[self.htgt[self.stop[s]]])


def assemble_double_category(
    objects, h_bounds, v_bounds, sq_bounds, idh, idv, e_sq, i_sq,
    hcomp_h, vcomp_v, hcomp_sq, vcomp_sq,
) -> FiniteDoubleCategory:
    dbl = FiniteDoubleCategory(
        objects=tuple(objects),
        hmors=tuple(sorted(h_bounds)),
        vmors=tuple(sorted(v_bounds)),
        squares=tuple(sorted(sq_bounds)),
        hsrc={f: b[0] for f, b in h_bounds.items()},
        htgt={f: b[1] for f, b in h_bounds.items()},
        vsrc={u: b[0] for u, b in v_bounds.items()},
        vtgt={u: b[1] for u, b in v_bounds.items()},
        stop={s: b[0] for s, b in sq_bounds.items()},
        sbottom={s: b[1] for s, b in sq_bounds.items()},
        sleft={s: b[2] for s, b in sq_bounds.items()},
        sright={s: b[3] for s, b in sq_bounds.items()},
        idh=dict(idh),
        idv=dict(idv),
        e_sq=dict(e_sq),
        i_sq=dict(i_sq),
        hcomp_h=dict(hcomp_h),
        vcomp_v=dict(vcomp_v),
        hcomp_sq=dict(hcomp_sq),
        vcomp_sq=dict(vcomp_sq),
    )
    check_double_category_laws(dbl)
    return dbl


def check_double_category_laws(dbl: FiniteDoubleCategory) -> None:
    for unit, cells, unit_cells, label in (
        (dbl.idh, dbl.objects, dbl.hmors, "horizontal"), (dbl.idv, dbl.objects, dbl.vmors, "vertical"),
        (dbl.e_sq, dbl.hmors, dbl.squares, "vertical square"),
        (dbl.i_sq, dbl.vmors, dbl.squares, "horizontal square"),
    ):
        check_unit_map(unit, cells, unit_cells, label)
    hset, vset = set(dbl.hmors), set(dbl.vmors)

    for s in dbl.squares:
        f, g = dbl.stop[s], dbl.sbottom[s]
        u, v = dbl.sleft[s], dbl.sright[s]
        if f not in hset or g not in hset or u not in vset or v not in vset:
            raise DanglingReference(f"square {s!r} has unknown boundary cells")
        if (dbl.hsrc[f] != dbl.vsrc[u] or dbl.htgt[f] != dbl.vsrc[v]
                or dbl.hsrc[g] != dbl.vtgt[u] or dbl.htgt[g] != dbl.vtgt[v]):
            raise DanglingReference(f"square {s!r} has incompatible boundary")

    h = check_table(dbl.hcomp_h, dbl.hmors, dbl.hsrc, dbl.htgt, dbl.idh, "horizontal")
    check_units(h, dbl.hsrc, dbl.htgt, dbl.idh, "horizontal")
    v = check_table(dbl.vcomp_v, dbl.vmors, dbl.vsrc, dbl.vtgt, dbl.idv, "vertical")
    check_units(v, dbl.vsrc, dbl.vtgt, dbl.idv, "vertical")

    for a in dbl.objects:
        if dbl.e_sq[dbl.idh[a]] != dbl.i_sq[dbl.idv[a]]:
            raise BadIdentity(f"double unit square not shared at object {a!r}")

    # a horizontal composite of squares lies over the composites of their
    # tops and bottoms, a vertical one over those of their sides
    hsq = check_table(dbl.hcomp_sq, dbl.squares, dbl.sleft, dbl.sright, dbl.i_sq,
                      "horizontal square",
                      faces=((dbl.stop, h), (dbl.sbottom, h)))
    vsq = check_table(dbl.vcomp_sq, dbl.squares, dbl.stop, dbl.sbottom, dbl.e_sq,
                      "vertical square",
                      faces=((dbl.sleft, v), (dbl.sright, v)))
    check_units(hsq, dbl.sleft, dbl.sright, dbl.i_sq, "horizontal square")
    check_units(vsq, dbl.stop, dbl.sbottom, dbl.e_sq, "vertical square")
    check_units_along(h, dbl.e_sq, hsq, "unit squares along horizontal composites")
    check_units_along(v, dbl.i_sq, vsq, "unit squares along vertical composites")
    check_interchange(dbl.vcomp_sq, vsq, hsq, dbl.sleft, dbl.sright)


def validate_double_category(raw: dict) -> FiniteDoubleCategory:
    """Validate interchange-format tables; all four unit families synthesized.

    Unit square names: ``e:f`` for horizontal morphisms, ``i:u`` for vertical
    morphisms, and the shared double unit ``ee:A``.
    """
    check_names(raw, "hmor", "vmor", "squares")
    objects = list(raw.get("objects", []))
    if len(set(objects)) != len(objects):
        raise DanglingReference("duplicate object names")

    def declare(bounds, name, value):
        """Add a cell; a name declared twice, or a unit's name declared
        explicitly, is an error."""
        if name in bounds:
            raise DanglingReference(f"cell name {name!r} is declared twice or reserved")
        bounds[name] = value

    h_bounds, v_bounds = {}, {}
    for entry in raw.get("hmor", []):
        if entry["src"] not in objects or entry["tgt"] not in objects:
            raise DanglingReference(f"h-morphism {entry['name']!r} has unknown endpoints")
        declare(h_bounds, entry["name"], (entry["src"], entry["tgt"]))
    for entry in raw.get("vmor", []):
        if entry["src"] not in objects or entry["tgt"] not in objects:
            raise DanglingReference(f"v-morphism {entry['name']!r} has unknown endpoints")
        declare(v_bounds, entry["name"], (entry["src"], entry["tgt"]))
    idh, idv = {}, {}
    for a in objects:
        idh[a] = idh_of(a)
        idv[a] = idv_of(a)
        declare(h_bounds, idh[a], (a, a))
        declare(v_bounds, idv[a], (a, a))

    sq_bounds = {}
    for entry in raw.get("squares", []):
        name = entry["name"]
        if entry["top"] not in h_bounds or entry["bottom"] not in h_bounds:
            raise DanglingReference(f"square {name!r} has unknown horizontal boundary")
        if entry["left"] not in v_bounds or entry["right"] not in v_bounds:
            raise DanglingReference(f"square {name!r} has unknown vertical boundary")
        declare(sq_bounds, name, (entry["top"], entry["bottom"], entry["left"], entry["right"]))

    e_sq, i_sq = {}, {}
    for a in objects:
        e_sq[idh[a]] = i_sq[idv[a]] = ee_of(a)
        declare(sq_bounds, ee_of(a), (idh[a], idh[a], idv[a], idv[a]))
    for f, (a, b) in list(h_bounds.items()):
        if f not in idh.values():
            e_sq[f] = e_of(f)
            declare(sq_bounds, e_sq[f], (f, f, idv[a], idv[b]))
    for u, (a, b) in list(v_bounds.items()):
        if u not in idv.values():
            i_sq[u] = i_of(u)
            declare(sq_bounds, i_sq[u], (idh[a], idh[b], u, u))

    tables = {key: read_composition_table(raw, key, cells) for key, cells in (
        ("hcompose_h", h_bounds), ("vcompose_v", v_bounds),
        ("hcompose_sq", sq_bounds), ("vcompose_sq", sq_bounds))}
    hcomp_h, vcomp_v = tables["hcompose_h"], tables["vcompose_v"]
    fill_implicit(tables, implicit_entries(
        h_bounds, v_bounds, sq_bounds, idh, idv, e_sq, i_sq, hcomp_h, vcomp_v))
    return assemble_double_category(
        objects, h_bounds, v_bounds, sq_bounds, idh, idv, e_sq, i_sq,
        hcomp_h, vcomp_v, tables["hcompose_sq"], tables["vcompose_sq"],
    )


def implicit_entries(h_bounds, v_bounds, sq_bounds, idh, idv, e_sq, i_sq, hcomp_h, vcomp_v):
    """The entries a double-category file leaves implicit, in the order the
    loader fills them (see ``cat.fill_implicit``): the unit laws of both
    morphism layers, the unit squares along composites, then the unit laws
    of each square.  The bounds map cells to (src, tgt) and squares to
    (top, bottom, left, right)."""
    law = "identity law fails at {0}"
    for key, bounds, ident in (("hcompose_h", h_bounds, idh), ("vcompose_v", v_bounds, idv)):
        for m, (a, b) in bounds.items():
            for pair in ((m, ident[a]), (ident[b], m)):
                yield key, pair, m, law, pair
    for key, table, unit, law in (
        ("hcompose_sq", hcomp_h, e_sq, "unit squares along h-composition: conflicting entry at {0}"),
        ("vcompose_sq", vcomp_v, i_sq, "unit squares along v-composition: conflicting entry at {0}"),
    ):
        for (g, f), h in table.items():
            pair = unit[g], unit[f]
            yield key, pair, unit[h], law, pair
    h_law = "horizontal unit law: conflicting entry at {0}"
    v_law = "vertical unit law: conflicting entry at {0}"
    for s, (top, bottom, left, right) in sq_bounds.items():
        for key, pair, law in (
            ("hcompose_sq", (s, i_sq[left]), h_law), ("hcompose_sq", (i_sq[right], s), h_law),
            ("vcompose_sq", (s, e_sq[top]), v_law), ("vcompose_sq", (e_sq[bottom], s), v_law),
        ):
            yield key, pair, s, law, pair


@dataclass(frozen=True, eq=False)
class DoubleFunctor:
    source: FiniteDoubleCategory
    target: FiniteDoubleCategory
    object_map: dict[str, str]
    h_map: dict[str, str]
    v_map: dict[str, str]
    sq_map: dict[str, str]


# The sorts of a double category for ``cat.validate_functor``.
SORTS = (
    ("object", "objects", (), (), ()),
    ("h-morphism", "hmors", (("hsrc", "objects"), ("htgt", "objects")),
     (("idh", "objects"),), ("hcomp_h",)),
    ("v-morphism", "vmors", (("vsrc", "objects"), ("vtgt", "objects")),
     (("idv", "objects"),), ("vcomp_v",)),
    ("square", "squares",
     (("stop", "hmors"), ("sbottom", "hmors"), ("sleft", "vmors"), ("sright", "vmors")),
     (("e_sq", "hmors"), ("i_sq", "vmors")), ("hcomp_sq", "vcomp_sq")),
)


def validate_double_functor(source, target, object_map, h_map, v_map, sq_map) -> DoubleFunctor:
    return DoubleFunctor(source, target, *validate_functor(
        source, target, SORTS, (object_map, h_map, v_map, sq_map)))


# -- embeddings and underlying 2-categories ----------------------------


def _embed(cat2: FiniteTwoCategory, unit_name) -> FiniteDoubleCategory:
    """View a 2-category as a double category with trivial vertical
    morphisms, named ``unit_name(object)``."""
    objects = list(cat2.objects)
    h_bounds = {f: (cat2.one_src[f], cat2.one_tgt[f]) for f in cat2.one_cells}
    v_bounds = {unit_name(a): (a, a) for a in objects}
    idh = {a: cat2.id1[a] for a in objects}
    idv = {a: unit_name(a) for a in objects}
    sq_bounds = {
        c: (
            cat2.two_src[c],
            cat2.two_tgt[c],
            idv[cat2.one_src[cat2.two_src[c]]],
            idv[cat2.one_tgt[cat2.two_src[c]]],
        )
        for c in cat2.two_cells
    }
    e_sq = {f: cat2.id2[f] for f in cat2.one_cells}
    i_sq = {idv[a]: cat2.id2[cat2.id1[a]] for a in objects}
    vcomp_v = {(idv[a], idv[a]): idv[a] for a in objects}
    return assemble_double_category(
        objects, h_bounds, v_bounds, sq_bounds, idh, idv, e_sq, i_sq,
        dict(cat2.hcomp1), vcomp_v, dict(cat2.hcomp2), dict(cat2.vcomp2),
    )


def horizontal_embed(cat2: FiniteTwoCategory) -> FiniteDoubleCategory:
    """View a 2-category as a double category with trivial vertical morphisms."""
    return _embed(cat2, idv_of)


def vertical_embed(cat2: FiniteTwoCategory) -> FiniteDoubleCategory:
    """View a 2-category as a double category with trivial horizontal morphisms."""
    return transpose(_embed(cat2, idh_of))


def transpose(dbl: FiniteDoubleCategory) -> FiniteDoubleCategory:
    """``dbl`` with its directions exchanged: a square (top, bottom, left,
    right) becomes (left, right, top, bottom), and every cell keeps its name.
    The laws are the same laws with the directions exchanged, so the
    transpose of a lawful double category is lawful and is not checked."""
    return FiniteDoubleCategory(
        objects=dbl.objects, hmors=dbl.vmors, vmors=dbl.hmors, squares=dbl.squares,
        hsrc=dbl.vsrc, htgt=dbl.vtgt, vsrc=dbl.hsrc, vtgt=dbl.htgt,
        stop=dbl.sleft, sbottom=dbl.sright, sleft=dbl.stop, sright=dbl.sbottom,
        idh=dbl.idv, idv=dbl.idh, e_sq=dbl.i_sq, i_sq=dbl.e_sq,
        hcomp_h=dbl.vcomp_v, vcomp_v=dbl.hcomp_h, hcomp_sq=dbl.vcomp_sq, vcomp_sq=dbl.hcomp_sq)


def underlying(dbl: FiniteDoubleCategory, direction: str) -> FiniteTwoCategory:
    """Underlying horizontal or vertical 2-category of a double category:
    the vertical one is the horizontal one of its transpose."""
    if direction == "vertical":
        dbl = transpose(dbl)
    elif direction != "horizontal":
        raise DanglingReference(f"unknown direction {direction!r}")
    one_bounds = {f: (dbl.hsrc[f], dbl.htgt[f]) for f in dbl.hmors}
    flat = {s for s in dbl.squares if dbl.has_trivial_vertical_boundaries(s)}
    two_bounds = {s: (dbl.stop[s], dbl.sbottom[s]) for s in dbl.squares if s in flat}
    id2 = {f: dbl.e_sq[f] for f in dbl.hmors}
    vcomp2 = {k: v for k, v in dbl.vcomp_sq.items() if k[0] in flat and k[1] in flat}
    hcomp2 = {k: v for k, v in dbl.hcomp_sq.items() if k[0] in flat and k[1] in flat}
    return assemble_two_category(
        list(dbl.objects), one_bounds, two_bounds, dict(dbl.idh), id2, dict(dbl.hcomp_h), vcomp2, hcomp2
    )


def _quad_name(quad) -> str:
    return "ae[" + ",".join(quad) + "]"


def equivalence_embed(cat2: FiniteTwoCategory) -> FiniteDoubleCategory:
    """Double category on a 2-category whose vertical morphisms are its
    adjoint equivalences; squares with boundary (f, f', u, v) are 2-cells
    vf ⇒ f'u."""
    objects = list(cat2.objects)
    h_bounds = {f: (cat2.one_src[f], cat2.one_tgt[f]) for f in cat2.one_cells}
    idh = {a: cat2.id1[a] for a in objects}

    quads = list(cat2.adjoint_equivalences())
    ident_quads = {}
    for a in objects:
        i = cat2.id1[a]
        ident_quads[a] = (i, i, cat2.id2[i], cat2.id2[i])
    v_bounds, vname = {}, {}
    for quad in quads:
        name = _quad_name(quad)
        vname[quad] = name
        v_bounds[name] = (cat2.one_src[quad[0]], cat2.one_tgt[quad[0]])
    idv = {a: vname[ident_quads[a]] for a in objects}

    def compose_quads(q1, q2):
        """q1 followed by q2 (vertical composition of adjoint equivalences)."""
        f1, g1, eta1, eps1 = q1
        f2, g2, eta2, eps2 = q2
        f = cat2.hcomp1[(f2, f1)]
        g = cat2.hcomp1[(g1, g2)]
        eta = cat2.vcomp2[(cat2.hcomp2[(cat2.id2[g1], cat2.hcomp2[(eta2, cat2.id2[f1])])], eta1)]
        eps = cat2.vcomp2[(eps2, cat2.hcomp2[(cat2.id2[f2], cat2.hcomp2[(eps1, cat2.id2[g2])])])]
        return (f, g, eta, eps)

    vcomp_v = {}
    quadset = set(quads)
    for q1 in quads:
        for q2 in quads:
            if cat2.one_tgt[q1[0]] != cat2.one_src[q2[0]]:
                continue
            q = compose_quads(q1, q2)
            if q not in quadset:
                raise MissingComposite(
                    f"composite adjoint equivalence {q!r} missing from enumeration"
                )
            vcomp_v[(vname[q2], vname[q1])] = vname[q]

    # squares (f, f', u, v) named by their data; the 2-cell alpha: vf => f'u
    sq_bounds, sq_data, by_data = {}, {}, {}
    for f in cat2.one_cells:
        a, b = cat2.one_src[f], cat2.one_tgt[f]
        for uq in quads:
            if cat2.one_src[uq[0]] != a:
                continue
            for vq in quads:
                if cat2.one_src[vq[0]] != b:
                    continue
                a2, b2 = cat2.one_tgt[uq[0]], cat2.one_tgt[vq[0]]
                vf = cat2.hcomp1[(vq[0], f)]
                for f2 in cat2.hmors_between(a2, b2):
                    f2u = cat2.hcomp1[(f2, uq[0])]
                    for alpha in cat2.squares_with(top=vf, bottom=f2u):
                        name = f"sq[{f},{f2},{vname[uq]},{vname[vq]},{alpha}]"
                        sq_bounds[name] = (f, f2, vname[uq], vname[vq])
                        sq_data[name] = (f, f2, uq, vq, alpha)
                        by_data[(f, f2, vname[uq], vname[vq], alpha)] = name

    e_sq = {}
    for f in cat2.one_cells:
        a, b = cat2.one_src[f], cat2.one_tgt[f]
        e_sq[f] = by_data[(f, f, idv[a], idv[b], cat2.id2[f])]
    i_sq = {}
    for quad in quads:
        a, b = cat2.one_src[quad[0]], cat2.one_tgt[quad[0]]
        i_sq[vname[quad]] = by_data[
            (cat2.id1[a], cat2.id1[b], vname[quad], vname[quad], cat2.id2[quad[0]])]

    hcomp_sq, vcomp_sq = {}, {}
    for s, (f, f2, uq, vq, alpha) in sq_data.items():
        for t, (g, g2, vq2, wq, beta) in sq_data.items():
            if vq2 == vq:
                cell = cat2.vcomp2[(
                    cat2.hcomp2[(cat2.id2[g2], alpha)],
                    cat2.hcomp2[(beta, cat2.id2[f])],
                )]
                hcomp_sq[(t, s)] = by_data[(cat2.hcomp1[(g, f)], cat2.hcomp1[(g2, f2)],
                                            vname[uq], vname[wq], cell)]
    for s, (f, f2, uq, vq, alpha) in sq_data.items():
        for t, (g, g2, uq2, vq2, beta) in sq_data.items():
            if g != f2:
                continue
            cell = cat2.vcomp2[(
                cat2.hcomp2[(beta, cat2.id2[uq[0]])],
                cat2.hcomp2[(cat2.id2[vq2[0]], alpha)],
            )]
            vcomp_sq[(t, s)] = by_data[(f, g2, vcomp_v[(vname[uq2], vname[uq])],
                                        vcomp_v[(vname[vq2], vname[vq])], cell)]

    dbl = assemble_double_category(
        objects, h_bounds, v_bounds, sq_bounds, idh, idv, e_sq, i_sq,
        dict(cat2.hcomp1), vcomp_v, hcomp_sq, vcomp_sq,
    )
    dbl.__dict__["quad_of_vmor"] = {vname[q]: q for q in quads}
    dbl.__dict__["cell_of_square"] = {s: data[4] for s, data in sq_data.items()}
    dbl.__dict__["square_by_data"] = by_data
    dbl.__dict__["base_two_category"] = cat2
    return dbl
