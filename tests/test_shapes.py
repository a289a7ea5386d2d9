import hashlib
import json
from itertools import combinations, product

import pytest

from dblnerve import expr as ex
from dblnerve import io
from dblnerve.errors import RangeExceeded
from dblnerve.presentation import Presentation, enumerate_functors
from dblnerve.shapes import (
    SHAPE_CAP,
    codegeneracy,
    coface,
    generating_cofibrations_dbl,
    generating_cofibrations_two,
    oriental,
    oriental_adjoint_presentation,
    oriental_functor,
    oriental_inv,
    oriental_inv_presentation,
    oriental_presentation_map,
    oriental_variant,
    v_oriental_inv,
)


@pytest.mark.parametrize("build", [oriental, oriental_inv, v_oriental_inv, oriental_adjoint_presentation])
def test_negative_sizes_are_out_of_range(build):
    """n = -1 is no shape: not an empty one."""
    with pytest.raises(RangeExceeded, match="n = -1 is negative"):
        build(-1)


def test_cosimplicial_operators_check_their_arguments():
    """An index outside 0 ≤ i ≤ n + 1 (coface) or 0 ≤ j ≤ n (codegeneracy),
    or a map that is not weakly monotone from [n_src] to [n_tgt], is
    RangeExceeded, not another operator's values or a failed lookup."""
    for build, n, index in ((coface, 2, 4), (coface, 2, -1), (coface, -1, 0),
                            (codegeneracy, 1, 2), (codegeneracy, 1, -1)):
        with pytest.raises(RangeExceeded):
            build(n, index)
    assert coface(2, 3) == [0, 1, 2] and codegeneracy(1, 1) == [0, 1, 1]
    for alpha, n_src, n_tgt in (([1, 0], 1, 1), ([0, 1, 2], 2, 1), ([0], 1, 1), ([0, -1], 1, 1)):
        for build in (oriental_presentation_map, oriental_functor):
            with pytest.raises(RangeExceeded, match="not a weakly monotone map"):
                build(alpha, n_src, n_tgt)


def test_oriental_low_cases():
    assert len(oriental(0).objects) == 1
    o1 = oriental(1)
    assert len(o1.one_cells) == 3 and len(o1.two_cells) == 3
    o2 = oriental(2)
    hom02 = [f for f in o2.one_cells if o2.one_src[f] == "0" and o2.one_tgt[f] == "2"]
    assert len(hom02) == 2
    nonid2 = [c for c in o2.two_cells if c not in o2.id2.values()]
    assert len(nonid2) == 1
    # orientation: from the direct edge to the longer path
    c = nonid2[0]
    assert o2.two_src[c] == "[02]" and o2.two_tgt[c] == "[012]"


def test_an_oriental_is_one_object_however_it_is_asked_for():
    """2-categories compare by identity, so each shape is built once."""
    assert oriental(2, True) is oriental(2, invertible=True) is oriental_inv(2)
    assert oriental(2) is oriental(2, False) is oriental(2, invertible=False)
    assert v_oriental_inv(2) is v_oriental_inv(2)


def test_oriental_hom_sizes_match_subset_enumeration():
    for n in range(0, 6):
        cat = oriental(n)
        for x in range(n + 1):
            for x2 in range(x + 1, n + 1):
                count = len(
                    [f for f in cat.one_cells
                     if cat.one_src[f] == str(x) and cat.one_tgt[f] == str(x2)]
                )
                middle = list(range(x + 1, x2))
                subsets = sum(
                    1 for r in range(len(middle) + 1) for _ in combinations(middle, r)
                )
                assert count == subsets == 2 ** max(0, x2 - x - 1)


def test_oriental_three_pasting_paths():
    o3 = oriental(3)
    hom03 = [f for f in o3.one_cells if o3.one_src[f] == "0" and o3.one_tgt[f] == "3"]
    assert len(hom03) == 4


def test_boundary_cases():
    empty = oriental_variant("plain", 0, "boundary")
    assert len(empty.objects) == 0
    two_points = oriental_variant("plain", 1, "boundary")
    assert len(two_points.objects) == 2
    assert all(f in two_points.id1.values() for f in two_points.one_cells)
    d2 = oriental_variant("plain", 2, "boundary")
    assert all(c in d2.id2.values() for c in d2.two_cells)
    assert len(d2.one_cells) == len(oriental(2).one_cells)
    assert oriental_variant("plain", 4, "boundary") is oriental(4)


def test_boundary_three_distinguishes_pasting_paths():
    d3 = oriental_variant("plain", 3, "boundary")
    hom = [
        c for c in d3.two_cells
        if d3.one_src[d3.two_src[c]] == "0" and d3.one_tgt[d3.two_src[c]] == "3"
    ]
    # free diamond: 4 identities, 4 covers, 2 distinct composites
    assert len(hom) == 10
    full = oriental(3)
    hom_full = [
        c for c in full.two_cells
        if full.one_src[full.two_src[c]] == "0" and full.one_tgt[full.two_src[c]] == "3"
    ]
    assert len(hom_full) == 9


def test_horn_cases():
    h1 = oriental_variant("plain", 2, "horn", 1)
    nonid = {f for f in h1.one_cells if f not in h1.id1.values()}
    assert nonid == {"[01]", "[012]", "[12]"}
    h0 = oriental_variant("plain", 2, "horn", 0)
    assert {f for f in h0.one_cells if f not in h0.id1.values()} == {"[01]", "[02]"}
    point = oriental_variant("plain", 1, "horn", 1)
    assert list(point.objects) == ["1"]
    assert oriental_variant("plain", 5, "horn", 2) is oriental(5)


def _variant_cases():
    """Every oriental variant up to the shape cap: each family, n ≤ 5, the
    full shape, the boundary and, for n ≥ 1, every horn."""
    for family, n in product(("plain", "inverted", "adjoint"), range(SHAPE_CAP + 1)):
        yield family, n, "full", None
        yield family, n, "boundary", None
        yield from ((family, n, "horn", t) for t in range(n + 1) if n)


def test_oriental_variants_are_pinned():
    """sha256 of the serialized 96 oriental variants, computed when three
    builders each decided which vertices, 1-cells and covering cells a
    variant has.  None of them raises.  Nothing here may follow set order,
    so the digest holds under any hash seed."""
    doc = [[*case, io.dump(io.serialize(oriental_variant(*case)))] for case in _variant_cases()]
    assert len(doc) == 96
    dump = json.dumps(doc).encode()
    assert hashlib.sha256(dump).hexdigest() == (
        "ba59bf53bad474c8b555ff19e27f9f361e12288990359ab310d02e257e8add2c")


def test_generating_cofibrations_are_pinned():
    """sha256 of the source label, target label and generator map of each
    of the 11 generating cofibrations, computed when their generator maps
    were spelled out by hand."""
    cofibs = {**generating_cofibrations_dbl(), **generating_cofibrations_two()}
    doc = {name: [m.source.label, m.target.label,
                  {gen: ex.to_json(image) for gen, image in m.gen_map.items()}]
           for name, m in cofibs.items()}
    assert len(doc) == 11
    dump = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(dump).hexdigest() == (
        "5b7c198f369f74f71be916f0cdff787a0210564f4a2bf36cb38760e1b3643476")


def test_adjoint_variant_is_presented():
    pres = oriental_variant("adjoint", 2, "boundary")
    assert isinstance(pres, Presentation)
    pres3 = oriental_variant("inverted", 3, "boundary")
    assert isinstance(pres3, Presentation)


def test_cosimplicial_functoriality_all_families():
    """The induced 2-functor of a composite monotone map is the composite
    2-functor, over all coface/codegeneracy pairs up to shape 3.  Together
    with the arithmetic identities of the maps themselves, this gives every
    simplicial identity."""

    def fmap(F):
        return (F.object_map, F.one_map, F.two_map)

    def compose_values(first, second):
        return [second[v] for v in first]

    operators = []
    for n in range(0, 3):
        for i in range(0, n + 2):
            operators.append((coface(n, i), n, n + 1))
    for n in range(0, 3):
        for j in range(0, n + 1):
            operators.append((codegeneracy(n, j), n + 1, n))

    for invertible in (False, True):
        for alpha, a_src, a_tgt in operators:
            for beta, b_src, b_tgt in operators:
                if a_tgt != b_src or b_tgt > 3 or a_src > 3:
                    continue
                lhs = oriental_functor(alpha, a_src, a_tgt, invertible).compose_with(
                    oriental_functor(beta, b_src, b_tgt, invertible)
                )
                rhs = oriental_functor(compose_values(alpha, beta), a_src, b_tgt, invertible)
                assert fmap(lhs) == fmap(rhs)


def test_simplicial_identities_on_operator_values():
    # the d/s identities at the level of monotone maps, up to n = 3
    def compose_values(first, second):
        return [second[v] for v in first]

    for n in range(0, 3):
        for j in range(0, n + 2):
            for i in range(0, j):
                lhs = compose_values(coface(n, i), coface(n + 1, j))
                rhs = compose_values(coface(n, j - 1), coface(n + 1, i))
                assert lhs == rhs
    for n in range(1, 4):
        for i in range(0, n + 2):
            for j in range(0, n + 1):
                lhs = compose_values(coface(n, i), codegeneracy(n, j))
                if i < j:
                    rhs = compose_values(codegeneracy(n - 1, j - 1), coface(n - 1, i))
                elif i in (j, j + 1):
                    rhs = list(range(n + 1))
                else:
                    rhs = compose_values(codegeneracy(n - 1, j), coface(n - 1, i - 1))
                assert lhs == rhs


def test_indiscrete_model_matches_presentation_counts(iso2, tri2):
    """The invertible oriental agrees with its formal-inversion presentation
    on functor counts into two test targets, for n ≤ 3."""
    for cat in (iso2, tri2):
        for n in range(0, 4):
            materialized = oriental(n, invertible=True)
            direct = _concrete_two_functor_count(materialized, cat)
            presented = len(enumerate_functors(oriental_inv_presentation(n), cat))
            assert direct == presented, (n, direct, presented)


def _concrete_two_functor_count(dom, cod):
    """Independent count of 2-functors by brute force over cell maps."""
    from itertools import product

    non_id_one = [f for f in dom.one_cells if f not in dom.id1.values()]
    count = 0
    for objs in product(cod.objects, repeat=len(dom.objects)):
        om = dict(zip(dom.objects, objs))
        one_options = []
        for f in non_id_one:
            a, b = om[dom.one_src[f]], om[dom.one_tgt[f]]
            one_options.append([g for g in cod.one_cells
                                if cod.one_src[g] == a and cod.one_tgt[g] == b])
        for ones in product(*one_options):
            fm = dict(zip(non_id_one, ones))
            for a in dom.objects:
                fm[dom.id1[a]] = cod.id1[om[a]]
            if any(
                cod.hcomp1[(fm[g], fm[f])] != fm[h]
                for (g, f), h in dom.hcomp1.items()
            ):
                continue
            non_id_two = [c for c in dom.two_cells if c not in dom.id2.values()]
            two_options = []
            for c in non_id_two:
                src, tgt = fm[dom.two_src[c]], fm[dom.two_tgt[c]]
                two_options.append([d for d in cod.two_cells
                                    if cod.two_src[d] == src and cod.two_tgt[d] == tgt])
            for twos in product(*two_options):
                cm = dict(zip(non_id_two, twos))
                for f in dom.one_cells:
                    cm[dom.id2[f]] = cod.id2[fm[f]]
                if any(
                    cod.vcomp2[(cm[b], cm[a])] != cm[c]
                    for (b, a), c in dom.vcomp2.items()
                ):
                    continue
                if any(
                    cod.hcomp2[(cm[b], cm[a])] != cm[c]
                    for (b, a), c in dom.hcomp2.items()
                ):
                    continue
                count += 1
    return count


def test_adjoint_presentation_cosimplicial_identities(iso2):
    """dd-identities act correctly on enumerated simplices of the adjoint
    family (checked through pullback on a test target)."""
    from dblnerve.presentation import enumerate_canonical

    two = enumerate_canonical(oriental_adjoint_presentation(2), iso2)
    for element in two:
        for j in range(0, 3):
            for i in range(0, j):
                one_j = oriental_presentation_map(coface(1, j), 1, 2)
                one_i = oriental_presentation_map(coface(1, i), 1, 2)
                zero_i = oriental_presentation_map(coface(0, i), 0, 1)
                zero_jm = oriental_presentation_map(coface(0, j - 1), 0, 1)
                lhs = zero_i.pullback(iso2)(one_j.pullback(iso2)(element))
                rhs = zero_jm.pullback(iso2)(one_i.pullback(iso2)(element))
                assert lhs == rhs


def test_v_oriental_counts():
    v1 = v_oriental_inv(1)
    assert (len(v1.objects), len(v1.vmors)) == (2, 3)
    v2 = v_oriental_inv(2)
    two_step = [u for u in v2.vmors if v2.vsrc[u] == "0" and v2.vtgt[u] == "2"]
    assert len(two_step) == 2
    linking = [
        s for s in v2.squares
        if {v2.sleft[s], v2.sright[s]} == set(two_step) and s not in v2.i_sq.values()
    ]
    assert len(linking) == 2  # one invertible pair


def test_a_level_map_is_one_object_however_its_operator_is_given():
    from dblnerve.tensor import level_map

    as_lists = level_map("x", "m", coface(0, 0), [0, 0, 0], [1, 0, 0])
    assert as_lists is level_map("x", "m", tuple(coface(0, 0)), (0, 0, 0), (1, 0, 0))
