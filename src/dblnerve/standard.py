"""Stock small categories used across tests, docs, and the CLI corpus."""

from __future__ import annotations

from .cat import FiniteCategory, validate_category
from .dblcat import FiniteDoubleCategory, validate_double_category
from .twocat import FiniteTwoCategory, validate_two_category


def chain_category(n: int) -> FiniteCategory:
    """The poset category 0 < 1 < ... < n, free on n composable arrows."""
    objects = [str(i) for i in range(n + 1)]
    morphisms = [
        {"name": f"a{i}{j}", "src": str(i), "tgt": str(j)}
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
    ]
    compose = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                compose.append([f"a{i}{j}", f"a{j}{k}", f"a{i}{k}"])
    return validate_category({"objects": objects, "morphisms": morphisms, "compose": compose})


def free_iso_category() -> FiniteCategory:
    """The free-living isomorphism: x ≅ y."""
    return validate_category(
        {
            "objects": ["x", "y"],
            "morphisms": [
                {"name": "xy", "src": "x", "tgt": "y"},
                {"name": "yx", "src": "y", "tgt": "x"},
            ],
            "compose": [["xy", "yx", "id:x"], ["yx", "xy", "id:y"]],
        }
    )


def locally_discrete(cat: FiniteCategory) -> FiniteTwoCategory:
    """View a category as a 2-category with only identity 2-cells."""
    return validate_two_category(
        {
            "objects": list(cat.objects),
            "one_cells": [
                {"name": m, "src": cat.src[m], "tgt": cat.tgt[m]}
                for m in cat.morphisms
                if not cat.is_identity(m)
            ],
            "two_cells": [],
            "hcompose_one": [
                [f, g, h]
                for (g, f), h in cat.compose.items()
                if not (cat.is_identity(f) or cat.is_identity(g))
            ],
            "vcompose": [],
            "hcompose_two": [],
        }
    )


def arrow_two_category() -> FiniteTwoCategory:
    return locally_discrete(chain_category(1))


def iso_two_category() -> FiniteTwoCategory:
    return locally_discrete(free_iso_category())


def sign_loop_two_category() -> FiniteTwoCategory:
    """One object whose identity carries a 2-cell group of order two."""
    return validate_two_category(
        {
            "objects": ["*"],
            "one_cells": [],
            "two_cells": [{"name": "t", "src": "id:*", "tgt": "id:*"}],
            "vcompose": [["t", "t", "id2:id:*"]],
            "hcompose_two": [["t", "t", "id2:id:*"]],
        }
    )


def free_square_double() -> FiniteDoubleCategory:
    """The free double category on a square: four objects, one generating
    square between two non-trivial horizontal and vertical morphisms."""
    return validate_double_category(
        {
            "objects": ["00", "10", "01", "11"],
            "hmor": [
                {"name": "f", "src": "00", "tgt": "10"},
                {"name": "f'", "src": "01", "tgt": "11"},
            ],
            "vmor": [
                {"name": "u", "src": "00", "tgt": "01"},
                {"name": "v", "src": "10", "tgt": "11"},
            ],
            "squares": [{"name": "s", "top": "f", "bottom": "f'", "left": "u", "right": "v"}],
            "hcompose_h": [],
            "vcompose_v": [],
            "hcompose_sq": [],
            "vcompose_sq": [],
        }
    )


def square_boundary_double() -> FiniteDoubleCategory:
    """free_square_double without its generating square."""
    return validate_double_category(
        {
            "objects": ["00", "10", "01", "11"],
            "hmor": [
                {"name": "f", "src": "00", "tgt": "10"},
                {"name": "f'", "src": "01", "tgt": "11"},
            ],
            "vmor": [
                {"name": "u", "src": "00", "tgt": "01"},
                {"name": "v", "src": "10", "tgt": "11"},
            ],
            "squares": [],
        }
    )


def parallel_squares_double() -> FiniteDoubleCategory:
    """The free double category on two parallel squares."""
    return validate_double_category(
        {
            "objects": ["00", "10", "01", "11"],
            "hmor": [
                {"name": "f", "src": "00", "tgt": "10"},
                {"name": "f'", "src": "01", "tgt": "11"},
            ],
            "vmor": [
                {"name": "u", "src": "00", "tgt": "01"},
                {"name": "v", "src": "10", "tgt": "11"},
            ],
            "squares": [
                {"name": "s1", "top": "f", "bottom": "f'", "left": "u", "right": "v"},
                {"name": "s2", "top": "f", "bottom": "f'", "left": "u", "right": "v"},
            ],
        }
    )


def three_object_invertible_two_category() -> FiniteTwoCategory:
    """Objects A ≅ B (strict iso) and C with one non-identity invertible 2-cell.

    The 2-cell t: id_C ⇒ id_C squares to the identity, so both (id_C, id_C,
    id, id) and (id_C, id_C, t, t) are adjoint equivalences.
    """
    return validate_two_category(
        {
            "objects": ["A", "B", "C"],
            "one_cells": [
                {"name": "k", "src": "A", "tgt": "B"},
                {"name": "k'", "src": "B", "tgt": "A"},
            ],
            "two_cells": [{"name": "t", "src": "id:C", "tgt": "id:C"}],
            "hcompose_one": [["k", "k'", "id:A"], ["k'", "k", "id:B"]],
            "vcompose": [["t", "t", "id2:id:C"]],
            "hcompose_two": [["t", "t", "id2:id:C"]],
        }
    )
