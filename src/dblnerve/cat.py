"""Finite 1-categories as validated composition tables.

Cells are plain strings.  Composition is stored as a total lookup table
on composable pairs; ``compose(g, f)`` means "f first, then g".  The
interchange format keeps identities implicit (they are synthesized with
names ``id:<object>``), but the validated object carries them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    BadIdentity,
    DanglingReference,
    InterchangeFailure,
    MissingComposite,
    NonAssociative,
    SchemaError,
)


def id_of(obj: str) -> str:
    return f"id:{obj}"


@dataclass(frozen=True)
class FiniteCategory:
    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    src: dict[str, str] = field(hash=False)
    tgt: dict[str, str] = field(hash=False)
    identity: dict[str, str] = field(hash=False)  # object -> morphism
    compose: dict[tuple[str, str], str] = field(hash=False)  # (g, f) -> g∘f

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other

    def is_identity(self, m: str) -> bool:
        return m in self._identities

    @cached_property
    def _identities(self) -> frozenset[str]:
        return frozenset(self.identity.values())


def check_names(raw: dict, *sections: str) -> None:
    """SchemaError unless the objects of ``raw`` and the name of each entry
    under ``sections`` are strings: map files name cells by string keys."""
    for key in ("objects", *sections):
        for entry in raw.get(key, []):
            name = entry if key == "objects" else entry["name"]
            if not isinstance(name, str):
                raise SchemaError(f"names in {key!r} must be strings, not {name!r}")


def read_composition_table(raw: dict, key: str, cells) -> dict[tuple[str, str], str]:
    """The ``[first, then, result]`` entries under ``key``, keyed ``(then,
    first)``.  An entry that is not a list of three names, names a cell not
    in ``cells``, or lists a pair twice, is an error."""
    table: dict[tuple[str, str], str] = {}
    for entry in raw.get(key, []):
        if not (isinstance(entry, list) and len(entry) == 3
                and all(isinstance(name, str) for name in entry)):
            raise SchemaError(f"each entry of {key!r} must be a list of three names")
        for name in entry:
            if name not in cells:
                raise DanglingReference(f"{key} entry references unknown cell {name!r}")
        f, g, h = entry
        if (g, f) in table:
            raise MissingComposite(f"duplicate {key} entry for ({f!r}, {g!r})")
        table[(g, f)] = h
    return table


def fill_implicit(tables: dict, entries) -> None:
    """Add each implicit entry ``(key, pair, composite, law, where)`` to the
    table read from ``key``.  A pair the file lists with another composite
    breaks the law: ``BadIdentity`` with ``law`` formatted by ``where``, the
    listed and the implicit composite."""
    for key, pair, value, law, where in entries:
        got = tables[key].setdefault(pair, value)
        if got != value:
            raise BadIdentity(law.format(where, got, value))


def implicit_entries(morphisms, src, tgt, identity):
    """The entries a category file leaves implicit, in the order the loader
    fills them: both unit laws of each morphism."""
    law = "identity law fails at {0}: got {1!r}, need {2!r}"
    for m in morphisms:
        for pair in ((m, identity[src[m]]), (identity[tgt[m]], m)):
            yield "compose", pair, m, law, pair


def validate_category(raw: dict) -> FiniteCategory:
    """Validate raw tables and return a FiniteCategory.

    ``raw`` uses the interchange layout: ``objects``, ``morphisms`` (each
    ``{"name", "src", "tgt"}``, identities omitted) and ``compose`` (list of
    ``[first, then, result]`` triples for non-identity composable pairs).
    The composition table is closed-world: every composable non-identity
    pair must appear exactly once.
    """
    check_names(raw, "morphisms")
    objects = list(raw.get("objects", []))
    if len(set(objects)) != len(objects):
        raise DanglingReference("duplicate object names")
    obj_set = set(objects)

    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    morphisms: list[str] = []
    for entry in raw.get("morphisms", []):
        name, s, t = entry["name"], entry["src"], entry["tgt"]
        if name in src or name in obj_set:
            raise DanglingReference(f"duplicate morphism name {name!r}")
        if s not in obj_set or t not in obj_set:
            raise DanglingReference(f"morphism {name!r} has unknown endpoint {s!r} or {t!r}")
        src[name], tgt[name] = s, t
        morphisms.append(name)

    identity = {}
    for a in objects:
        i = id_of(a)
        if i in src:
            raise DanglingReference(f"reserved identity name {i!r} declared explicitly")
        src[i], tgt[i] = a, a
        identity[a] = i
    all_morphisms = morphisms + [identity[a] for a in objects]

    compose = read_composition_table(raw, "compose", src)
    fill_implicit({"compose": compose}, implicit_entries(all_morphisms, src, tgt, identity))

    cat = FiniteCategory(
        objects=tuple(objects),
        morphisms=tuple(sorted(all_morphisms)),
        src=src,
        tgt=tgt,
        identity=identity,
        compose=compose,
    )
    check_category_laws(cat)
    return cat


def check_table(table, cells, start, end, unit, label, faces=(), order=None) -> dict:
    """Check that ``table``, keyed ``(then, first)``, composes ``cells``
    along ``end`` and ``start``, with units ``unit`` (for ``check_units``,
    which checks them after), and return its rows ``{first: {then:
    composite}}``, a row for every cell, each in cell order.

    Raises ``MissingComposite`` at the first entry whose ``first`` does not
    end where ``then`` starts; then, visiting ``first`` and ``then`` in cell
    order, at the first composable pair without an entry, or whose composite
    is not a cell from the start of ``first`` to the end of ``then`` with
    each face ``(face, rows)`` the composite in ``rows`` of the two cells'
    faces; then ``NonAssociative`` at the first triple that does not
    associate, visiting its first two cells by the keys of ``order`` (by
    default in cell order) and its third in cell order; the 2-category
    check passes its vertical table, whose triples it visits in table
    order.

    Associativity is first proven on a generating set (``_associates``),
    and only when that fails does the ordered loop over every triple run
    (``_check_every_triple``), so it alone reports failures."""
    for then, first in table:
        if end[first] != start[then]:
            raise MissingComposite(f"{label} table entry ({first!r}, {then!r}) is not composable")
    starting: dict = {}
    for c in cells:
        starting.setdefault(start[c], []).append(c)
    cellset, rows = set(cells), {}
    for f in cells:
        row = rows[f] = {}
        source = start[f]
        sides = [(face, face_rows[face[f]]) for face, face_rows in faces]
        for g in starting.get(end[f], ()):
            c = table.get((g, f))
            if c is None:  # a pair of cells with faces is pasted side by side
                joint = ", " if faces else " then "
                raise MissingComposite(f"no {label} composite for ({f!r}{joint}{g!r})")
            if c in cellset and start[c] == source and end[c] == end[g]:
                for face, face_row in sides:
                    if face[c] != face_row[face[g]]:
                        break
                else:
                    row[g] = c
                    continue
            raise MissingComposite(f"bad {label} composite for ({f!r}, {g!r})")
    if not _associates(rows, cells, start, end, unit):
        _check_every_triple(rows, cells, label, order)
    return rows


def _check_every_triple(rows, cells, label, order) -> None:
    """Raise ``NonAssociative`` at the first triple of ``rows`` that does
    not associate, in the order ``check_table`` states."""
    for g, f in order if order is not None else [(g, f) for f in cells for g in rows[f]]:
        row_f = rows[f]
        row_gf = rows[row_f[g]]
        for h, hg in rows[g].items():
            if row_gf[h] != row_f[hg]:
                raise NonAssociative(f"{label} associativity fails on ({f!r}, {g!r}, {h!r})")


def _associates(rows, cells, start, end, unit) -> bool:
    """Whether the composition of ``rows`` (total on composable pairs, each
    composite from the start of its first cell to the end of its second,
    as ``check_table`` has checked) is associative, by Light's test:
    ``(f·g)·h = f·(g·h)`` for every middle ``g`` of a generating set and
    every composable ``f`` and ``h``.

    Proof: if ``g`` and ``g'`` pass as middles, so does ``g·g'``, since
    ``(f·(g·g'))·h = ((f·g)·g')·h = (f·g)·(g'·h) = f·(g·(g'·h))
    = f·((g·g')·h)``, each step one of the two passing middles.  The
    middles that pass are thus closed under composition, and contain every
    cell once they contain a generating set.  A unit ``u = unit[b]`` from
    ``b`` to ``b`` passes whenever the unit laws hold, ``(f·u)·h = f·h =
    f·(u·h)``, so they are checked first and, if they hold, such units
    start the generating set.

    The rest of it is chosen greedily in cell order: each cell not yet a
    composite of the units and the cells chosen before is chosen.  It
    depends on the cells and the table only, not on set order.  Never
    raises, and passes exactly when the table is associative."""
    cells = list(cells)
    try:
        units_hold = (list(map(dict.get, map(rows.__getitem__, map(unit.__getitem__, map(
            start.__getitem__, cells))), cells)) == cells == list(map(dict.get, map(
                rows.__getitem__, cells), map(unit.__getitem__, map(end.__getitem__, cells)))))
    except KeyError:
        units_hold = False
    ending: dict = {}
    for c in cells:
        ending.setdefault(end[c], []).append(c)
    closed = {u for b, u in unit.items() if start.get(u) == b == end.get(u)} if units_hold else set()
    reached, generators = set(closed), []
    for c in cells:
        if c in reached:
            continue
        generators.append(c)
        reached.add(c)
        todo = [c]
        while todo:  # compose each new cell with those taken before it, and itself
            x = todo.pop()
            closed.add(x)
            for g, y in rows[x].items():
                if g in closed and y not in reached:
                    reached.add(y)
                    todo.append(y)
            for f in ending.get(start[x], ()):
                if f in closed:
                    y = rows[f][x]
                    if y not in reached:
                        reached.add(y)
                        todo.append(y)
    for g in generators:
        row_g = rows[g]
        for f in ending.get(start[g], ()):
            row_f = rows[f]
            # f·g and g end alike, so their rows list the same cells in one order
            if list(rows[row_f[g]].values()) != list(map(row_f.__getitem__, row_g.values())):
                return False
    return True


def check_unit_map(unit, cells, unit_cells, label) -> None:
    """Raise ``BadIdentity`` at the first of ``cells`` that ``unit`` does not
    send to one of ``unit_cells``; the checks after this one read the units
    of every cell."""
    unit_cells = set(unit_cells)
    for c in cells:
        if unit.get(c) not in unit_cells:
            raise BadIdentity(f"no {label} unit for {c!r}")


def check_units(rows, start, end, unit, label) -> None:
    """Raise ``BadIdentity`` at the first unit cell ``unit[b]`` that does not
    run from ``b`` to ``b``, then at the first cell of ``rows`` (a table's,
    from ``check_table``) that the units at its two ends do not fix."""
    for b, u in unit.items():
        if start.get(u) != b or end.get(u) != b:
            raise BadIdentity(f"{label} unit {u!r} of {b!r} has the wrong boundary")
    for c in rows:
        if rows[unit[start[c]]][c] != c or rows[c][unit[end[c]]] != c:
            raise BadIdentity(f"{label} unit law fails at {c!r}")


def check_units_along(rows, unit, unit_rows, label) -> None:
    """Raise ``BadIdentity`` at the first composable pair of ``rows`` whose
    units ``unit`` do not compose, in ``unit_rows``, to the unit of their
    composite; both rows come from ``check_table``."""
    for f, row in rows.items():
        unit_row = unit_rows[unit[f]]
        for g, gf in row.items():
            if unit_row.get(unit[g]) != unit[gf]:
                raise BadIdentity(f"{label} do not compose to identity on ({f!r}, {g!r})")


def check_interchange(vertical, v_rows, h_rows, left, right) -> None:
    """Raise ``InterchangeFailure`` at the first grid, two entries of the
    ``vertical`` table side by side (``left``/``right`` are the sides that
    the horizontal table composes along), where the horizontal composite of
    the vertical composites is not the vertical composite of the horizontal
    ones; both rows come from ``check_table``.  Grids are visited by their
    left and then their right entry, each in table order."""
    beside: dict = {}
    for (b, a), ba in vertical.items():
        beside.setdefault((left[a], left[b]), []).append((a, b, ba))
    for (b, a), ba in vertical.items():
        row_ba, row_a, row_b = h_rows[ba], h_rows[a], h_rows[b]
        for aa, bb, bbaa in beside.get((right[a], right[b]), ()):
            if row_ba[bbaa] != v_rows[row_a[aa]][row_b[bb]]:
                raise InterchangeFailure(f"interchange fails on ({a!r}, {b!r}, {aa!r}, {bb!r})")


def check_category_laws(cat: FiniteCategory) -> None:
    check_unit_map(cat.identity, cat.objects, cat.morphisms, "morphism")
    rows = check_table(cat.compose, cat.morphisms, cat.src, cat.tgt, cat.identity, "morphism")
    check_units(rows, cat.src, cat.tgt, cat.identity, "morphism")


@dataclass(frozen=True)
class CatFunctor:
    source: FiniteCategory
    target: FiniteCategory
    object_map: dict[str, str] = field(hash=False)
    morphism_map: dict[str, str] = field(hash=False)

    def __hash__(self):
        return id(self)


# The sorts of a category for ``validate_functor``.
SORTS = (
    ("object", "objects", (), (), ()),
    ("morphism", "morphisms", (("src", "objects"), ("tgt", "objects")),
     (("identity", "objects"),), ("compose",)),
)


def validate_cat_functor(source, target, object_map, morphism_map) -> CatFunctor:
    return CatFunctor(source, target, *validate_functor(
        source, target, SORTS, (object_map, morphism_map)))


def validate_functor(source, target, sorts, maps) -> list[dict]:
    """Check that ``maps``, one per sort, send ``source`` to ``target`` as a
    functor of their kind, and return them with unit cells' images filled in.

    Each sort is ``(label, cells, boundaries, units, tables)``, naming
    fields of both categories: the tuple of its cells, ``(boundary map,
    sort)`` for each boundary in an earlier sort, ``(unit map, sort)`` for
    each map from an earlier sort onto its unit cells, and its composition
    tables; a sort is named by its cells field.  Raises, in this order:
    ``DanglingReference`` for a map entry naming no cell of the source, or a
    cell without an image of its sort; ``MissingComposite`` for an image
    with the wrong boundary; ``BadIdentity`` for a unit cell not sent to the
    unit of its image; ``NonAssociative`` for a composite not preserved."""
    maps = {cells: dict(part) for (_, cells, *_), part in zip(sorts, maps)}
    for label, cells, *_ in sorts:
        known = set(getattr(source, cells))
        for c in maps[cells]:
            if c not in known:
                raise DanglingReference(f"map entry {c!r} names no {label} of the source")
    fills = {cells: [] for _, cells, *_ in sorts}  # unit maps, by the sort they start from
    for _, cells, _, units, _ in sorts:
        for unit, start in units:
            fills[start].append((getattr(source, unit), getattr(target, unit), maps[cells]))
    for label, cells, boundaries, _, _ in sorts:
        part, images = maps[cells], set(getattr(target, cells))
        sides = [(getattr(source, side), getattr(target, side), maps[other])
                 for side, other in boundaries]
        for c in getattr(source, cells):
            d = part.get(c)
            if d not in images:
                raise DanglingReference(f"no image for {label} {c!r}")
            for side, image_side, other in sides:
                if image_side[d] != other[side[c]]:
                    raise MissingComposite(f"image of {label} {c!r} has wrong boundary")
            for unit, image_unit, unit_part in fills[cells]:
                unit_part.setdefault(unit[c], image_unit[d])
    for label, cells, *_ in sorts:
        part = maps[cells]
        for unit, image_unit, unit_part in fills[cells]:
            for c in getattr(source, cells):
                if unit_part[unit[c]] != image_unit[part[c]]:
                    raise BadIdentity(f"unit cell of {label} {c!r} not preserved")
    for label, cells, _, _, tables in sorts:
        part = maps[cells]
        for table in tables:
            image = getattr(target, table)
            for (then, first), composite in getattr(source, table).items():
                if image[(part[then], part[first])] != part[composite]:
                    raise NonAssociative(f"{table} not preserved on ({first!r}, {then!r})")
    return list(maps.values())


def is_free_category(cat: FiniteCategory):
    """Freeness verdict via unique factorization into indecomposables.

    Returns ``(True, graph)`` where ``graph`` maps each generating morphism
    to its (src, tgt), or ``(False, witness)`` where ``witness`` is a
    morphism with zero or at least two factorizations.
    """
    nonid = [m for m in cat.morphisms if not cat.is_identity(m)]
    indec = []
    for m in nonid:
        proper = False
        for f in nonid:
            if cat.src[f] != cat.src[m]:
                continue
            for g in nonid:
                if cat.tgt[f] == cat.src[g] and cat.compose[(g, f)] == m:
                    proper = True
        if not proper:
            indec.append(m)

    # A cycle among indecomposables forces repeated factorizations: iterate
    # the cycle composite until a value repeats (pigeonhole), or observe an
    # identity reached by a non-empty path.
    cycle = _find_cycle(cat, indec)
    if cycle is not None:
        seen = {}
        value = None
        for k in range(1, len(cat.morphisms) + 2):
            value = cycle if value is None else _compose_path(cat, [value] + [cycle])
            if value in seen or cat.is_identity(value):
                return False, value
            seen[value] = k
        return False, value  # unreachable: pigeonhole guarantees a repeat

    counts = {m: 0 for m in cat.morphisms}
    for a in cat.objects:
        counts[cat.identity[a]] += 1  # the empty path at a
    stack = list(indec)
    while stack:
        value = stack.pop()
        counts[value] += 1
        for e in indec:
            if cat.src[e] == cat.tgt[value]:
                stack.append(cat.compose[(e, value)])
    for m in cat.morphisms:
        if counts[m] != 1:
            return False, m
    graph = {e: (cat.src[e], cat.tgt[e]) for e in indec}
    return True, graph


def _find_cycle(cat, edges):
    """Composite morphism of some directed cycle among ``edges``, else None."""
    adj: dict[str, list[str]] = {}
    for e in edges:
        adj.setdefault(cat.src[e], []).append(e)
    state: dict[str, int] = {}
    path: list[str] = []

    def visit(a):
        state[a] = 1
        for e in adj.get(a, []):
            b = cat.tgt[e]
            if state.get(b, 0) == 1:
                cyc = [e]
                for prev in reversed(path):
                    cyc.append(prev)
                    if cat.src[prev] == b:
                        break
                cyc.reverse()
                return cyc
            if state.get(b, 0) == 0:
                path.append(e)
                found = visit(b)
                path.pop()
                if found:
                    return found
        state[a] = 2
        return None

    for a in cat.objects:
        if state.get(a, 0) == 0:
            cyc = visit(a)
            if cyc:
                return _compose_path(cat, cyc)
    return None


def _compose_path(cat, path):
    value = path[0]
    for e in path[1:]:
        value = cat.compose[(e, value)]
    return value
