"""Finite strict 2-categories with exhaustive law checking.

A FiniteTwoCategory stores flat cell sets plus three composition tables:
``hcomp1`` on 1-cells, ``vcomp2`` and ``hcomp2`` on 2-cells, all keyed
``(then, first)``.  The validator checks each table with the helpers of
``cat`` shared by every kind: composites, associativity, unit laws,
identity 2-cells along 1-cell composites, and interchange, shown by
whiskering or else checked on every composable grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from .cat import (
    check_interchange,
    check_names,
    check_table,
    check_unit_map,
    check_units,
    check_units_along,
    fill_implicit,
    id_of,
    read_composition_table,
    validate_functor,
)
from .errors import DanglingReference, DisagreementBug, NotAnEquivalence
from .expr import CellAlgebra


def id2_of(one: str) -> str:
    return f"id2:{one}"


@dataclass(frozen=True)
class FiniteTwoCategory(CellAlgebra):
    objects: tuple[str, ...]
    one_cells: tuple[str, ...]
    two_cells: tuple[str, ...]
    one_src: dict[str, str] = field(hash=False)
    one_tgt: dict[str, str] = field(hash=False)
    two_src: dict[str, str] = field(hash=False)  # 2-cell -> source 1-cell
    two_tgt: dict[str, str] = field(hash=False)
    id1: dict[str, str] = field(hash=False)  # object -> 1-cell
    id2: dict[str, str] = field(hash=False)  # 1-cell -> 2-cell
    hcomp1: dict[tuple[str, str], str] = field(hash=False)
    vcomp2: dict[tuple[str, str], str] = field(hash=False)
    hcomp2: dict[tuple[str, str], str] = field(hash=False)

    # a 2-cell's left and right sides are the objects at the ends of its source
    CELLS = {"h": "one_cells", "v": "objects", "sq": "two_cells"}

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other

    # -- cell-algebra protocol (see expr) ------------------------------
    def h_src(self, f):
        return self.one_src[f]

    def h_tgt(self, f):
        return self.one_tgt[f]

    def h_id(self, o):
        return self.id1[o]

    def h_then(self, first, then):
        return self.hcomp1[(then, first)]

    # objects double as trivial vertical morphisms
    def v_src(self, o):
        return o

    def v_tgt(self, o):
        return o

    def v_id(self, o):
        return o

    def v_then(self, first, then):
        return then

    def s_top(self, a):
        return self.two_src[a]

    def s_bottom(self, a):
        return self.two_tgt[a]

    def s_left(self, a):
        return self.one_src[self.two_src[a]]

    def s_right(self, a):
        return self.one_tgt[self.two_src[a]]

    def s_unit_h(self, f):
        return self.id2[f]

    def s_unit_v(self, o):
        return self.id2[self.id1[o]]

    def s_hcomp(self, left, right):
        return self.hcomp2[(right, left)]

    def s_vcomp(self, top, bottom):
        return self.vcomp2[(bottom, top)]

    def is_invertible2(self, a) -> bool:
        return self.s_vinverse(a) is not None

    def equivalences(self):
        """All tuples (f, g, eta, eps) with eta: id ⇒ gf, eps: fg ⇒ id invertible."""
        return tuple(d.as_tuple() for d in self.h_equivalences())

    def adjoint_equivalences(self):
        return tuple(d.as_tuple() for d in self.h_equivalences() if d.adjoint)


def validate_two_category(raw: dict) -> FiniteTwoCategory:
    """Validate interchange-format tables; identities are synthesized.

    Layout: ``objects``; ``one_cells``/``two_cells`` as ``{"name", "src",
    "tgt"}``; tables ``hcompose_one``, ``vcompose``, ``hcompose_two`` as
    ``[first, then, result]`` triples on non-identity composable pairs.
    """
    check_names(raw, "one_cells", "two_cells")
    objects = list(raw.get("objects", []))
    if len(set(objects)) != len(objects):
        raise DanglingReference("duplicate object names")
    one_bounds = {}
    for entry in raw.get("one_cells", []):
        name = entry["name"]
        if entry["src"] not in objects or entry["tgt"] not in objects:
            raise DanglingReference(f"1-cell {name!r} has unknown endpoints")
        if name in one_bounds:
            raise DanglingReference(f"duplicate 1-cell {name!r}")
        one_bounds[name] = (entry["src"], entry["tgt"])
    id1 = {}
    for a in objects:
        i = id1[a] = id_of(a)
        if i in one_bounds:
            raise DanglingReference(f"reserved identity name {i!r} declared explicitly")
        one_bounds[i] = (a, a)

    two_bounds = {}
    for entry in raw.get("two_cells", []):
        name, f, g = entry["name"], entry["src"], entry["tgt"]
        if f not in one_bounds or g not in one_bounds:
            raise DanglingReference(f"2-cell {name!r} has unknown boundary 1-cells")
        if one_bounds[f] != one_bounds[g]:
            raise DanglingReference(f"2-cell {name!r} has boundary 1-cells that are not parallel")
        if name in two_bounds:
            raise DanglingReference(f"duplicate 2-cell {name!r}")
        two_bounds[name] = (f, g)
    id2 = {}
    for f in one_bounds:
        i = id2[f] = id2_of(f)
        if i in two_bounds:
            raise DanglingReference(f"reserved identity name {i!r} declared explicitly")
        two_bounds[i] = (f, f)

    tables = {key: read_composition_table(raw, key, cells) for key, cells in (
        ("hcompose_one", one_bounds), ("vcompose", two_bounds), ("hcompose_two", two_bounds))}
    hcomp1 = tables["hcompose_one"]
    fill_implicit(tables, implicit_entries(one_bounds, two_bounds, id1, id2, hcomp1))
    return assemble_two_category(objects, one_bounds, two_bounds, id1, id2,
                                 hcomp1, tables["vcompose"], tables["hcompose_two"])


def implicit_entries(one_bounds, two_bounds, id1, id2, hcomp1):
    """The entries a two-category file leaves implicit, in the order the
    loader fills them (see ``cat.fill_implicit``): the unit laws of 1-cell
    and of vertical composition, identity 2-cells along composable 1-cells,
    then the whiskering of each 2-cell by the unit 2-cells at its ends.
    ``one_bounds``/``two_bounds`` map cells to (src, tgt)."""
    law = "1-cell identity law fails at {0}"
    for f, (a, b) in one_bounds.items():
        for pair in ((f, id1[a]), (id1[b], f)):
            yield "hcompose_one", pair, f, law, pair
    law = "vertical identity law fails at {0}"
    for c, (f, g) in two_bounds.items():
        for pair in ((c, id2[f]), (id2[g], c)):
            yield "vcompose", pair, c, law, pair
    law = "horizontal unit square law fails at {0}"
    ones_from: dict = {}
    for g, (a, _) in one_bounds.items():
        ones_from.setdefault(a, []).append(g)
    for f, (_, b) in one_bounds.items():
        for g in ones_from.get(b, ()):
            if (g, f) in hcomp1:
                yield "hcompose_two", (id2[g], id2[f]), id2[hcomp1[(g, f)]], law, (f, g)
    law = "horizontal unit law fails at {0}"
    for c, (f, _) in two_bounds.items():
        a, b = one_bounds[f]
        for pair in ((c, id2[id1[a]]), (id2[id1[b]], c)):
            yield "hcompose_two", pair, c, law, pair


def check_two_category_laws(cat: FiniteTwoCategory) -> None:
    """Raise on the first law that fails: a unit map that misses a cell;
    then, checking each table with ``cat.check_table``, the 1-cell layer,
    vertical composition (visiting triples in table order), horizontal
    composition of 2-cells, whose composites lie over the 1-cell composites
    of their boundaries; then identity 2-cells along 1-cell composites, the
    horizontal unit laws, interchange, and last the unit laws of the other
    two tables, so that they report only tables that pass every other law.

    Interchange is first proven by whiskering (``_interchanges``), and only
    when that fails does ``cat.check_interchange`` visit every grid, so it
    alone reports failures."""
    check_unit_map(cat.id1, cat.objects, cat.one_cells, "1-cell")
    check_unit_map(cat.id2, cat.one_cells, cat.two_cells, "2-cell")
    one_src, one_tgt, two_src, two_tgt = cat.one_src, cat.one_tgt, cat.two_src, cat.two_tgt
    left = {a: one_src[two_src[a]] for a in cat.two_cells}
    right = {a: one_tgt[two_src[a]] for a in cat.two_cells}
    h_unit = {o: cat.id2[cat.id1[o]] for o in cat.objects}
    after1 = check_table(cat.hcomp1, cat.one_cells, one_src, one_tgt, cat.id1, "1-cell")
    after2 = check_table(cat.vcomp2, cat.two_cells, two_src, two_tgt, cat.id2, "vertical",
                         order=cat.vcomp2)
    across = check_table(cat.hcomp2, cat.two_cells, left, right, h_unit, "horizontal",
                         faces=((two_src, after1), (two_tgt, after1)))
    check_units_along(after1, cat.id2, across, "identity 2-cells")
    check_units(across, left, right, h_unit, "horizontal")
    if not _interchanges(cat, across, left, right):
        check_interchange(cat.vcomp2, after2, across, left, right)
    check_units(after1, one_src, one_tgt, cat.id1, "1-cell")
    check_units(after2, two_src, two_tgt, cat.id2, "vertical")


def _interchanges(cat, across, left, right) -> bool:
    """Whether interchange holds, ``(β·α)*(β′·α′) = (α*α′)·(β*β′)`` for
    vertical composites ``β·α`` and ``β′·α′`` side by side, shown by
    whiskering.  ``across`` are the rows of the horizontal table, and
    ``left``/``right`` the objects on the sides of each 2-cell; both
    tables have passed ``cat.check_table``, the vertical one is
    associative, and identity 2-cells compose along 1-cell composites
    (``1_g*1_f = 1_gf``).  ``1_f`` is the identity 2-cell ``id2[f]``.

    Two families are checked.  (W) for every ``α: f ⇒ g`` and ``α′: f′ ⇒
    g′`` side by side, ``α*α′ = (α*1_f′)·(1_g*α′) = (1_f*α′)·(α*1_g′)``.
    (F) whiskering by ``1_k`` on either side preserves vertical composites:
    ``(β·α)*1_k = (α*1_k)·(β*1_k)`` and ``1_k*(β·α) = (1_k*α)·(1_k*β)``.
    Proof of interchange, for ``β: g ⇒ h`` and ``β′: g′ ⇒ h′``:
    ``(β·α)*(β′·α′) = ((β·α)*1_f′)·(1_h*(β′·α′))`` by W,
    ``= (α*1_f′)·(β*1_f′)·(1_h*α′)·(1_h*β′)`` by F,
    ``= (α*1_f′)·(1_g*α′)·(β*1_g′)·(1_h*β′)`` by W on ``(β, α′)``,
    ``= (α*α′)·(β*β′)`` by W on ``(α, α′)`` and on ``(β, β′)``.
    Where one of the two 2-cells is an identity, W and F follow from
    ``1_g*1_f = 1_gf`` and the vertical unit laws, so those are checked
    here first and W and F only between other 2-cells.

    Never raises.  When some ``id2[f]`` does not run from ``f`` to ``f``, a
    vertical unit law fails, or W or F does, interchange is not shown and
    the answer is False.  With the vertical unit laws, interchange implies
    W and F, so the answer is True exactly when both hold."""
    id2, two_src, two_tgt, vcomp2, hcomp2 = cat.id2, cat.two_src, cat.two_tgt, cat.vcomp2, cat.hcomp2
    units_from, units_into = {}, {}  # the identity 2-cells of the 1-cells from and into each object
    for f in cat.one_cells:
        u = id2[f]
        if two_src[u] != f or two_tgt[u] != f:
            return False
        units_from.setdefault(cat.one_src[f], []).append(u)
        units_into.setdefault(cat.one_tgt[f], []).append(u)
    cells = list(cat.two_cells)
    if (list(map(vcomp2.get, zip(cells, map(id2.__getitem__, map(two_src.__getitem__, cells)))))
            != cells or
            list(map(vcomp2.get, zip(map(id2.__getitem__, map(two_tgt.__getitem__, cells)), cells)))
            != cells):
        return False
    units = set(id2.values())
    # per object, the 2-cells other than identities whose left side it is,
    # and the identity 2-cells on their sources and on their targets
    beside: dict = {}
    for a in cells:
        if a not in units:
            others, src_units, tgt_units = beside.setdefault(left[a], ([], [], []))
            others.append(a)
            src_units.append(id2[two_src[a]])
            tgt_units.append(id2[two_tgt[a]])
    try:
        for a in cells:  # W, for every α′ beside α at once
            if a in units or right[a] not in beside:
                continue
            others, src_units, tgt_units = beside[right[a]]
            row = across[a]
            values = list(map(row.__getitem__, others))
            if list(map(vcomp2.__getitem__, zip(map(across[id2[two_tgt[a]]].__getitem__, others),
                                                map(row.__getitem__, src_units)))) != values:
                return False
            if list(map(vcomp2.__getitem__, zip(map(row.__getitem__, tgt_units),
                                                map(across[id2[two_src[a]]].__getitem__, others)))) != values:
                return False
        for (b, a), ba in vcomp2.items():  # F, for every 1_k on either side at once
            if a in units or b in units:
                continue
            us = units_from.get(right[a], ())
            row_ba, row_a, row_b = across[ba], across[a], across[b]
            if list(map(row_ba.__getitem__, us)) != list(map(vcomp2.__getitem__, zip(
                    map(row_b.__getitem__, us), map(row_a.__getitem__, us)))):
                return False
            us = units_into.get(left[a], ())
            if list(map(hcomp2.__getitem__, zip(repeat(ba), us))) != list(map(vcomp2.__getitem__, zip(
                    map(hcomp2.__getitem__, zip(repeat(b), us)),
                    map(hcomp2.__getitem__, zip(repeat(a), us))))):
                return False
    except KeyError:  # a whiskered pair that does not compose: boundaries not parallel
        return False
    return True


def assemble_two_category(
    objects, one_bounds, two_bounds, id1, id2, hcomp1, vcomp2, hcomp2
) -> FiniteTwoCategory:
    """Assemble and law-check a 2-category from fully explicit cell tables.

    ``one_bounds``/``two_bounds`` map cells to (src, tgt) pairs; identity
    maps are given, not synthesized.  Used by shape builders and by the
    pseudo-hom construction, where cells are computed rather than read
    from a file.
    """
    cat = FiniteTwoCategory(
        objects=tuple(objects),
        one_cells=tuple(sorted(one_bounds)),
        two_cells=tuple(sorted(two_bounds)),
        one_src={f: b[0] for f, b in one_bounds.items()},
        one_tgt={f: b[1] for f, b in one_bounds.items()},
        two_src={c: b[0] for c, b in two_bounds.items()},
        two_tgt={c: b[1] for c, b in two_bounds.items()},
        id1=dict(id1),
        id2=dict(id2),
        hcomp1=dict(hcomp1),
        vcomp2=dict(vcomp2),
        hcomp2=dict(hcomp2),
    )
    check_two_category_laws(cat)
    return cat


@dataclass(frozen=True)
class TwoFunctor:
    source: FiniteTwoCategory
    target: FiniteTwoCategory
    object_map: dict[str, str] = field(hash=False)
    one_map: dict[str, str] = field(hash=False)
    two_map: dict[str, str] = field(hash=False)

    def __hash__(self):
        return id(self)

    def compose_with(self, other: "TwoFunctor") -> "TwoFunctor":
        """self followed by other."""
        assert self.target is other.source
        return validate_two_functor(
            self.source,
            other.target,
            {a: other.object_map[b] for a, b in self.object_map.items()},
            {f: other.one_map[g] for f, g in self.one_map.items()},
            {c: other.two_map[d] for c, d in self.two_map.items()},
        )


# The sorts of a 2-category for ``cat.validate_functor``.
SORTS = (
    ("object", "objects", (), (), ()),
    ("1-cell", "one_cells", (("one_src", "objects"), ("one_tgt", "objects")),
     (("id1", "objects"),), ("hcomp1",)),
    ("2-cell", "two_cells", (("two_src", "one_cells"), ("two_tgt", "one_cells")),
     (("id2", "one_cells"),), ("vcomp2", "hcomp2")),
)


def validate_two_functor(source, target, object_map, one_map, two_map) -> TwoFunctor:
    return TwoFunctor(source, target, *validate_functor(
        source, target, SORTS, (object_map, one_map, two_map)))


def promote_equivalence(cat, f, g, eta, eps):
    """Promote an equivalence (f, g, eta, eps) of a 2-category, or a
    horizontal equivalence of a double category, to an adjoint one.

    The unit and counit must have identity vertical sides.  Keeps f, g,
    eta and redefines the counit; the result is checked against the
    triangle identities rather than trusted.
    """
    a, b = cat.h_src(f), cat.h_tgt(f)
    gf, fg = cat.h_then(f, g), cat.h_then(g, f)
    if eta not in cat.squares_with(cat.h_id(a), gf, cat.v_id(a), cat.v_id(a)):
        raise NotAnEquivalence(f"unit {eta!r} has wrong boundary")
    if eps not in cat.squares_with(fg, cat.h_id(b), cat.v_id(b), cat.v_id(b)):
        raise NotAnEquivalence(f"counit {eps!r} has wrong boundary")
    eta_inv, eps_inv = cat.s_vinverse(eta), cat.s_vinverse(eps)
    if eta_inv is None or eps_inv is None:
        raise NotAnEquivalence("unit or counit is not invertible")
    if cat.triangle_identities_hold(f, g, eta, eps):
        return f, g, eta, eps

    e_fg = cat.s_unit_h(fg)
    middle = cat.s_hcomp(cat.s_hcomp(cat.s_unit_h(g), eta_inv), cat.s_unit_h(f))
    # eps_inv whiskered by fg on either side
    for expand in (cat.s_hcomp(e_fg, eps_inv), cat.s_hcomp(eps_inv, e_fg)):
        candidate = cat.s_vcomp(cat.s_vcomp(expand, middle), eps)
        if cat.triangle_identities_hold(f, g, eta, candidate):
            return f, g, eta, candidate
    raise DisagreementBug("counit correction failed both whiskering conventions")


def is_biequivalence(functor: TwoFunctor):
    """Verdict plus first failing datum (None when true)."""
    src, tgt = functor.source, functor.target
    om, fm, cm = functor.object_map, functor.one_map, functor.two_map

    image_objects = set(om.values())
    for b in tgt.objects:
        if not any(tgt.one_src[f] in image_objects and tgt.one_tgt[f] == b
                   for f in tgt.h_equivalences_by_f):
            return False, ("object-not-reached", b)

    for a1 in src.objects:
        for a2 in src.objects:
            for g in tgt.hmors_between(om[a1], om[a2]):
                if not any(tgt.invertible_flat(fm[f], g) for f in src.hmors_between(a1, a2)):
                    return False, ("morphism-not-reached", g)

    for f in src.one_cells:
        for g in src.hmors_between(src.one_src[f], src.one_tgt[f]):
            upstairs = src.squares_with(top=f, bottom=g)
            images = [cm[c] for c in upstairs]
            if len(set(images)) != len(images):
                return False, ("two-cells-conflated", f, g)
            downstairs = tgt.squares_with(top=fm[f], bottom=fm[g])
            if set(images) != set(downstairs):
                missing = sorted(set(downstairs) - set(images))[0]
                return False, ("two-cell-not-reached", missing)
    return True, None


def is_trivial_fibration_two(functor: TwoFunctor):
    """Surjective on objects, full on 1-cells, fully faithful on 2-cells."""
    src, tgt = functor.source, functor.target
    om, fm, cm = functor.object_map, functor.one_map, functor.two_map
    if set(om.values()) != set(tgt.objects):
        missing = sorted(set(tgt.objects) - set(om.values()))
        return False, ("object-not-hit", missing[0] if missing else None)
    for a1 in src.objects:
        for a2 in src.objects:
            for g in tgt.hmors_between(om[a1], om[a2]):
                if not any(fm[f] == g for f in src.hmors_between(a1, a2)):
                    return False, ("one-cell-not-hit", g, a1, a2)
    for f in src.one_cells:
        for g in src.hmors_between(src.one_src[f], src.one_tgt[f]):
            upstairs = src.squares_with(top=f, bottom=g)
            for d in tgt.squares_with(top=fm[f], bottom=fm[g]):
                fiber = [c for c in upstairs if cm[c] == d]
                if len(fiber) != 1:
                    return False, ("two-cell-fiber", f, g, d, len(fiber))
    return True, None
