"""Lawful finite categories built by construction, for tests that compare a
verdict against an independent count over many inputs.

Each builder writes the interchange layout and runs it through
``validate_category``, so every generated category has passed the loader's
law check.  ``generated_categories(seed)`` lists a fixed, seeded mix of them.
"""

from __future__ import annotations

import random
from itertools import product

from dblnerve.cat import FiniteCategory, id_of, validate_category


def preorder(n: int, relation) -> FiniteCategory:
    """The thin category on objects ``0 .. n-1`` of the preorder generated
    by ``relation``, a set of pairs ``(i, j)`` read as ``i ≤ j``."""
    le = {(i, i) for i in range(n)} | set(relation)
    for k, i, j in product(range(n), repeat=3):  # Warshall: k outermost
        if (i, k) in le and (k, j) in le:
            le.add((i, j))

    def name(i, j):
        return id_of(str(i)) if i == j else f"a{i}_{j}"

    arrows = sorted((i, j) for i, j in le if i != j)
    return validate_category({
        "objects": [str(i) for i in range(n)],
        "morphisms": [{"name": name(i, j), "src": str(i), "tgt": str(j)} for i, j in arrows],
        "compose": [[name(i, j), name(j, k), name(i, k)]
                    for (i, j), (j2, k) in product(arrows, repeat=2) if j == j2],
    })


def random_preorder(rng: random.Random) -> FiniteCategory:
    """A preorder on 1 to 5 objects, each ordered pair related with a
    probability drawn per category."""
    n = rng.randint(1, 5)
    p = rng.random() * 0.6
    return preorder(n, {(i, j) for i, j in product(range(n), repeat=2)
                        if i != j and rng.random() < p})


def path_category(n: int, edges) -> FiniteCategory:
    """The free category on the graph with objects ``0 .. n-1`` and the
    ``(name, src, tgt)`` ``edges``, which must have no directed cycle.  A
    path is named by its edges joined with ``.``, first edge first."""
    out: dict[int, list] = {}
    for e in edges:
        out.setdefault(e[1], []).append(e)
    paths, frontier = [], [((e[0],), e[1], e[2]) for e in edges]
    while frontier:
        paths.extend(frontier)
        frontier = [(path + (e[0],), s, e[2]) for path, s, t in frontier for e in out.get(t, [])]
    return validate_category({
        "objects": [str(i) for i in range(n)],
        "morphisms": [{"name": ".".join(p), "src": str(s), "tgt": str(t)} for p, s, t in paths],
        "compose": [[".".join(p), ".".join(q), ".".join(p + q)]
                    for (p, _, t), (q, s, _) in product(paths, repeat=2) if t == s],
    })


def random_dag(rng: random.Random) -> FiniteCategory:
    """The path category of a random graph on 1 to 4 objects with up to 5
    edges (parallel ones allowed), each from a lower to a higher object."""
    n = rng.randint(1, 4)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = rng.randint(0, 5) if pairs else 0
    edges = [(f"e{x}", *rng.choice(pairs)) for x in range(count)]
    return path_category(n, edges)


def cyclic_group(n: int) -> FiniteCategory:
    """Z/n as a one-object category: ``g1 .. g{n-1}`` and the identity."""
    def name(k):
        return id_of("*") if k % n == 0 else f"g{k % n}"

    return validate_category({
        "objects": ["*"],
        "morphisms": [{"name": name(k), "src": "*", "tgt": "*"} for k in range(1, n)],
        "compose": [[name(i), name(j), name(i + j)] for i, j in product(range(1, n), repeat=2)],
    })


def idempotent_monoid() -> FiniteCategory:
    """The monoid {1, e} with e∘e = e, as a one-object category."""
    return validate_category({
        "objects": ["*"],
        "morphisms": [{"name": "e", "src": "*", "tgt": "*"}],
        "compose": [["e", "e", "e"]],
    })


def generated_categories(seed: int):
    """``(label, category)`` pairs: 200 seeded random preorders, the path
    categories of 100 random DAGs, Z/n for n ≤ 5 and the idempotent monoid."""
    rng = random.Random(seed)
    cats = [(f"preorder {x}", random_preorder(rng)) for x in range(200)]
    cats += [(f"dag {x}", random_dag(rng)) for x in range(100)]
    cats += [(f"Z/{n}", cyclic_group(n)) for n in range(1, 6)]
    cats.append(("idempotent", idempotent_monoid()))
    return cats
