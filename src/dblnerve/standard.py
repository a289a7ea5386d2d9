"""Categories built by rule: the chains and locally discrete 2-categories
that ``nerve.inclusion_chain_to_invertible`` embeds, and the sign loop.  The
stock categories and double categories live only in ``corpus/``."""

from __future__ import annotations

from .cat import FiniteCategory, validate_category
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
