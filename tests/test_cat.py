from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dblnerve.cat import is_free_category, validate_category
from dblnerve.errors import (
    DanglingReference,
    MissingComposite,
    NonAssociative,
    ValidationError,
)
from dblnerve.io import load_path
from dblnerve.standard import chain_category

from tests.categories import generated_categories

CORPUS = Path(__file__).parent.parent / "corpus"


def test_chain_two_is_valid_with_six_morphisms():
    cat = chain_category(2)
    assert len(cat.morphisms) == 6  # 3 identities + 3 arrows


def test_free_iso_is_valid():
    cat = load_path(CORPUS / "iso-category.json")
    assert cat.compose[("xy", "yx")] == "id:y"
    assert cat.compose[("yx", "xy")] == "id:x"


def test_unknown_identifier_rejected():
    with pytest.raises(DanglingReference):
        validate_category(
            {
                "objects": ["a"],
                "morphisms": [{"name": "f", "src": "a", "tgt": "b"}],
                "compose": [],
            }
        )


def test_missing_composite_rejected():
    with pytest.raises(MissingComposite):
        validate_category(
            {
                "objects": ["a", "b", "c"],
                "morphisms": [
                    {"name": "f", "src": "a", "tgt": "b"},
                    {"name": "g", "src": "b", "tgt": "c"},
                ],
                "compose": [],
            }
        )


def test_non_associative_table_rejected_with_witness():
    # x∘x = y, x∘y = x, y∘x = y, y∘y = y breaks (x∘x)∘x = y∘x = y against
    # x∘(x∘x) = x∘y = x.
    raw = {
        "objects": ["a"],
        "morphisms": [
            {"name": "x", "src": "a", "tgt": "a"},
            {"name": "y", "src": "a", "tgt": "a"},
        ],
        "compose": [
            ["x", "x", "y"],
            ["y", "x", "x"],
            ["x", "y", "y"],
            ["y", "y", "y"],
        ],
    }
    with pytest.raises(NonAssociative) as err:
        validate_category(raw)
    assert "'x'" in str(err.value)


def naive_laws_hold(objects, morphisms, src, tgt, table):
    """Independent oracle: brute-force category laws on explicit tables."""
    for f in morphisms:
        for g in morphisms:
            if tgt[f] == src[g]:
                h = table.get((g, f))
                if h is None or src[h] != src[f] or tgt[h] != tgt[g]:
                    return False
    for f in morphisms:
        i_s, i_t = f"id:{src[f]}", f"id:{tgt[f]}"
        if table.get((f, i_s)) != f or table.get((i_t, f)) != f:
            return False
    for f in morphisms:
        for g in morphisms:
            for h in morphisms:
                if tgt[f] == src[g] and tgt[g] == src[h]:
                    if table[(h, table[(g, f)])] != table[(table[(h, g)], f)]:
                        return False
    return True


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_validator_agrees_with_naive_law_oracle(data):
    # Random small one-object tables over two endomorphisms: the validator
    # must accept exactly the lawful ones.
    names = ["p", "q"]
    entries = {}
    for g in names:
        for f in names:
            entries[(g, f)] = data.draw(
                st.sampled_from(["p", "q", "id:a"]), label=f"{g}after{f}"
            )
    raw = {
        "objects": ["a"],
        "morphisms": [{"name": n, "src": "a", "tgt": "a"} for n in names],
        "compose": [[f, g, h] for (g, f), h in entries.items()],
    }
    morphisms = names + ["id:a"]
    src = {m: "a" for m in morphisms}
    tgt = {m: "a" for m in morphisms}
    table = dict(entries)
    for m in morphisms:
        table[(m, "id:a")] = m
        table[("id:a", m)] = m
    lawful = naive_laws_hold(["a"], morphisms, src, tgt, table)
    try:
        validate_category(raw)
        accepted = True
    except ValidationError:
        accepted = False
    assert accepted == lawful


def test_chain_is_free():
    verdict, graph = is_free_category(chain_category(2))
    assert verdict is True
    assert set(graph) == {"a01", "a12"}


def test_terminal_is_free_with_empty_graph():
    verdict, graph = is_free_category(chain_category(0))
    assert verdict is True
    assert graph == {}


def test_free_iso_is_not_free():
    cat = load_path(CORPUS / "iso-category.json")
    verdict, witness = is_free_category(cat)
    assert verdict is False
    # the witness morphism has 0 or >= 2 factorizations; brute-force check
    # that it indeed has at least two factorizations into indecomposables
    indec = {"xy", "yx"}
    factorizations = []
    if cat.is_identity(witness):
        factorizations.append(())
    stack = [((e,), e) for e in indec if True]
    while stack:
        path, value = stack.pop()
        composite = path[0]
        for e in path[1:]:
            composite = cat.compose[(e, composite)]
        if composite == witness:
            factorizations.append(path)
        if len(path) < 4:
            for e in indec:
                if cat.src[e] == cat.tgt[path[-1]]:
                    stack.append((path + (e,), e))
    assert len(factorizations) >= 2


def test_free_category_morphism_count_equals_path_count():
    cat = chain_category(3)
    verdict, graph = is_free_category(cat)
    assert verdict
    # count paths in the generating graph, including empty paths
    count = len(cat.objects)
    stack = [e for e in graph]
    while stack:
        value = stack.pop()
        count += 1
        for e, (s, _t) in graph.items():
            if s == cat.tgt[value]:
                stack.append(cat.compose[(e, value)])
    assert count == len(cat.morphisms)


def factorization_counts(cat):
    """The indecomposables of ``cat`` and, per morphism, how many paths of
    them of length at most ``len(cat.morphisms) + 1`` compose to it.

    The counts decide freeness exactly: a shortest factorization repeats
    no prefix composite, so it is shorter than the bound, and a morphism
    with two factorizations makes two prefixes within the bound collide
    (pigeonhole).  Counted level by level, with the empty path at each
    object as level 0."""
    nonid = [m for m in cat.morphisms if not cat.is_identity(m)]
    indec = [m for m in nonid
             if not any(cat.tgt[f] == cat.src[g] and cat.compose[(g, f)] == m
                        for f in nonid for g in nonid)]
    counts = dict.fromkeys(cat.morphisms, 0)
    level = {cat.identity[a]: 1 for a in cat.objects}
    for _ in range(len(cat.morphisms) + 2):
        following = {}
        for m, ways in level.items():
            counts[m] += ways
            for e in indec:
                if cat.src[e] == cat.tgt[m]:
                    h = cat.compose[(e, m)]
                    following[h] = following.get(h, 0) + ways
        level = following
    return indec, counts


def test_free_verdicts_match_a_brute_force_count():
    outcomes = set()
    for label, cat in generated_categories(seed=0):
        indec, counts = factorization_counts(cat)
        verdict, result = is_free_category(cat)
        assert verdict == all(ways == 1 for ways in counts.values()), label
        if verdict:
            assert result == {e: (cat.src[e], cat.tgt[e]) for e in indec}, label
            outcomes.add("free")
        else:
            assert counts[result] != 1, label
            outcomes.add("no factorization" if counts[result] == 0 else "two factorizations")
        if label.startswith("dag"):
            assert verdict, label  # a path category is free on its graph
    assert outcomes == {"free", "no factorization", "two factorizations"}
