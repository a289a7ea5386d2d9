import gc
import json
import weakref
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dblnerve import expr as ex
from dblnerve import presentation
from dblnerve.dblcat import validate_double_functor
from dblnerve.errors import BoundaryMismatch, BudgetExceeded, DanglingReference
from dblnerve.io import load_path
from dblnerve.presentation import (
    PresentationBuilder,
    _schedule,
    _search,
    adjoint_morphism,
    enumerate_canonical,
    enumerate_functors,
    has_rlp,
    inclusion,
)
from dblnerve.shapes import (
    generating_cofibrations_dbl,
    generating_cofibrations_two,
    shape_2cat,
)
from dblnerve.whi import is_trivial_fibration


def test_point_presentation_counts(iso2):
    b = PresentationBuilder("two")
    b.add_object("a")
    assert len(enumerate_functors(b.build(), iso2)) == 2


def test_adjoint_shape_counts(iso2, arrow2):
    e_adj = shape_2cat("E_adj")
    assert len(enumerate_functors(e_adj, iso2)) == 4
    assert len(enumerate_functors(e_adj, arrow2)) == 2
    assert len(enumerate_functors(shape_2cat("C_inv"), iso2)) == 4


def test_adjoint_flag_images_pass_validator(iso2, tri2):
    e_adj = shape_2cat("E_adj")
    for cat in (iso2, tri2):
        quads = set(cat.adjoint_equivalences())
        for val in enumerate_functors(e_adj, cat):
            assert (val["f"], val["f*"], val["f.unit"], val["f.counit"]) in quads


def test_adjoint_morphism_sends_the_expansion_after_its_base():
    e_adj = shape_2cat("E_adj")
    assert e_adj.gen("f").adjoint == ("f*", "f.unit", "f.counit")
    assert [g.name for g in e_adj.gens if g.adjoint] == ["f"]
    same = adjoint_morphism(e_adj, e_adj, lambda g: (ex.LEAF_TAGS[g.sort], g.name))
    assert same.gen_map == inclusion(e_adj, e_adj).gen_map
    b = PresentationBuilder("two", "point")
    b.add_object("a")
    a = ex.ogen("a")
    onto_point = adjoint_morphism(e_adj, b.build(), lambda g: a if g.sort == "object" else ex.hid(a))
    assert onto_point.gen_map == {"a": a, "b": a, "f": ex.hid(a), "f*": ex.hid(a),
                                  "f.unit": ex.sid_h(ex.hid(a)), "f.counit": ex.sid_h(ex.hid(a))}


def test_adjoint_morphism_rejects_other_images_of_an_adjoint_generator(iso2):
    """An adjoint generator may go to a path of adjoint generators and their
    partners: its partner to theirs in reverse order, its unit and counit to
    the composites of theirs, whiskered by the other legs, so that each
    functor pulls back to an adjoint equivalence.  A path with another leg,
    or another generator, raises DanglingReference."""
    b = PresentationBuilder("two", "two-adjoints")
    x, y, z = (b.add_object(name) for name in "xyz")
    g, h = b.add_hgen("g", x, y, adjoint=True), b.add_hgen("h", y, z, adjoint=True)
    p = b.add_hgen("p", y, z)
    target = b.build()
    ends = {"a": x, "b": z}

    def sending_f_to(image):
        return adjoint_morphism(shape_2cat("E_adj"), target,
                                lambda gen: ends[gen.name] if gen.sort == "object" else image)
    along_gh = sending_f_to(ex.hcomp(g, h))
    pull, quads = along_gh.pullback(iso2), set(iso2.adjoint_equivalences())
    for row in enumerate_canonical(target, iso2):
        image = dict(zip(along_gh.source.keys, pull(row)))
        assert (image["f"], image["f*"], image["f.unit"], image["f.counit"]) in quads
    gen_map = along_gh.gen_map
    gs, hs = ex.hgen("g*"), ex.hgen("h*")
    assert gen_map["f*"] == ex.hcomp(hs, gs)
    assert gen_map["f.unit"] == ex.svcomp(ex.sgen("g.unit"),
                                          ex.whisker(g, ex.sgen("h.unit"), gs))
    assert gen_map["f.counit"] == ex.svcomp(ex.whisker(hs, ex.sgen("g.counit"), h),
                                            ex.sgen("h.counit"))
    for image in (ex.hcomp(g, p), ex.hgen("p")):
        with pytest.raises(DanglingReference, match="neither a path of adjoint generators"):
            sending_f_to(image)


def test_budget_guard(hsim_iso):
    from dblnerve.tensor import x_presentation

    pres, _ = x_presentation(1, 1, 1)
    with pytest.raises(BudgetExceeded):
        enumerate_functors(pres, hsim_iso, budget=10)


def test_search_depth_is_not_bounded_by_recursion():
    b = PresentationBuilder("two")
    for i in range(1500):
        b.add_object(f"a{i}")
    point = load_path(Path(__file__).parent.parent / "corpus" / "point.json")
    assert len(enumerate_functors(b.build(), point)) == 1


def cyclic_garbage(run):
    """Objects in reference cycles that ``run`` leaves behind, counted after
    a warm-up call has filled the caches."""
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def test_enumeration_leaves_no_cyclic_garbage(hsim_iso):
    from dblnerve.tensor import x_presentation

    pres, _ = x_presentation(1, 1, 0)
    assert cyclic_garbage(lambda: enumerate_functors(pres, hsim_iso)) == 0


def _functor_corpus(corpus_dbl, point_dbl, h_iso, hsim_iso, square_dbl):
    """At least ten double functors: identities, collapses to the point,
    the corpus maps, the inclusion of the plain into the equivalence
    embedding, and two designed failures."""
    functors = []

    def identity(dbl):
        return validate_double_functor(
            dbl, dbl,
            {a: a for a in dbl.objects}, {f: f for f in dbl.hmors},
            {u: u for u in dbl.vmors}, {s: s for s in dbl.squares},
        )

    def to_point(dbl):
        pt = point_dbl
        return validate_double_functor(
            dbl, pt,
            {a: "0" for a in dbl.objects},
            {f: pt.idh["0"] for f in dbl.hmors},
            {u: pt.idv["0"] for u in dbl.vmors},
            {s: pt.squares[0] for s in dbl.squares},
        )

    for dbl in corpus_dbl.values():
        functors.append(identity(dbl))
        if dbl is not point_dbl:
            functors.append(to_point(dbl))
    # the corpus files that no fixture builds, and the corpus maps
    corpus = Path(__file__).parent.parent / "corpus"
    for name in ("parallel-squares", "square-boundary"):
        dbl = load_path(corpus / f"{name}.json")
        functors.extend((identity(dbl), to_point(dbl)))
    for name, (src, tgt) in {"h-iso-to-hsim": ("h-iso", "hsim-iso"),
                             "square-to-point": ("free-square", "point-double")}.items():
        doc = json.loads((corpus / f"{name}.map.json").read_text())
        functors.append(validate_double_functor(
            load_path(corpus / f"{src}.json"), load_path(corpus / f"{tgt}.json"),
            doc.get("objects", {}), doc.get("hmor", {}),
            doc.get("vmor", {}), doc.get("squares", {})))

    from tests.test_whi import _inclusion_h_to_hsim

    functors.append(_inclusion_h_to_hsim(hsim_iso.base_two_category))

    # designed failures on squares: boundary inclusion and parallel collapse
    boundary, square, parallel = (
        load_path(corpus / f"{name}.json")
        for name in ("square-boundary", "free-square", "parallel-squares"))
    functors.append(
        validate_double_functor(
            boundary, square,
            {a: a for a in boundary.objects},
            {f: f for f in boundary.hmors},
            {u: u for u in boundary.vmors},
            {},
        )
    )
    functors.append(
        validate_double_functor(
            parallel, square,
            {a: a for a in parallel.objects},
            {f: f for f in parallel.hmors},
            {u: u for u in parallel.vmors},
            {"s1": "s", "s2": "s"},
        )
    )
    return functors


def test_rlp_against_identity_morphism(square_dbl):
    ident = validate_double_functor(
        square_dbl, square_dbl,
        {a: a for a in square_dbl.objects}, {f: f for f in square_dbl.hmors},
        {u: u for u in square_dbl.vmors}, {s: s for s in square_dbl.squares},
    )
    from dblnerve.shapes import square_presentation

    square = square_presentation(1)
    self_map = inclusion(square, square)
    assert has_rlp(ident, self_map)[0] is True


def test_rlp_matches_trivial_fibration_on_corpus(
    corpus_dbl, point_dbl, h_iso, hsim_iso, square_dbl
):
    cofibs = generating_cofibrations_dbl()
    functors = _functor_corpus(corpus_dbl, point_dbl, h_iso, hsim_iso, square_dbl)
    assert len(functors) >= 10
    for functor in functors:
        direct = is_trivial_fibration(functor)[0]
        lifted = all(has_rlp(functor, j)[0] for j in cofibs.values())
        assert direct == lifted


def test_rlp_i2_detects_missing_horizontal_fullness(square_dbl, point_dbl):
    collapse = validate_double_functor(
        square_dbl, point_dbl,
        {a: "0" for a in square_dbl.objects},
        {f: point_dbl.idh["0"] for f in square_dbl.hmors},
        {u: point_dbl.idv["0"] for u in square_dbl.vmors},
        {s: point_dbl.squares[0] for s in square_dbl.squares},
    )
    cofibs = generating_cofibrations_dbl()
    assert has_rlp(collapse, cofibs["I2"])[0] is False


def test_two_categorical_lifting_sets(iso2, arrow2):
    from dblnerve.twocat import validate_two_functor

    cofibs = generating_cofibrations_two()
    ident = validate_two_functor(
        iso2, iso2, {a: a for a in iso2.objects},
        {f: f for f in iso2.one_cells}, {c: c for c in iso2.two_cells},
    )
    for name in ("i1", "i2", "i3", "i4", "j1", "j2"):
        assert has_rlp(ident, cofibs[name])[0] is True
    # the unique map from the free arrow to the point fails i1-surjectivity
    point = validate_two_functor(
        arrow2,
        iso2,
        {"0": "x", "1": "x"},
        {f: iso2.id1["x"] for f in arrow2.one_cells},
        {c: iso2.id2[iso2.id1["x"]] for c in arrow2.two_cells},
    )
    assert has_rlp(point, cofibs["i1"])[0] is False  # y is not hit


def _has_rlp_by_triple_loop(functor, morphism):
    """``has_rlp`` as a triple loop over tops, bottoms and lower lifts that
    pulls every row back afresh: the reference for its indexed form."""
    A, B = functor.source, functor.target
    maps = {"object": functor.object_map, "h": functor.h_map, "v": functor.v_map,
            "sq": functor.sq_map}

    def push(pres, row):
        return tuple(maps[pres.gen(name).sort][image] for name, image in zip(pres.keys, row))

    tops = enumerate_canonical(morphism.source, A)
    bottoms = enumerate_canonical(morphism.target, B)
    lowers = enumerate_canonical(morphism.target, A)
    for a in tops:
        fa = push(morphism.source, a)
        for b in bottoms:
            if morphism.pullback(B)(b) != fa:
                continue
            if not any(morphism.pullback(A)(c) == a and push(morphism.target, c) == b
                       for c in lowers):
                return False, (a, b)
    return True, None


def test_has_rlp_matches_the_triple_loop(corpus_dbl, point_dbl, h_iso, hsim_iso, square_dbl):
    functors = _functor_corpus(corpus_dbl, point_dbl, h_iso, hsim_iso, square_dbl)
    verdicts = []
    for functor in functors:
        for j, morphism in sorted(generating_cofibrations_dbl().items()):
            expected = _has_rlp_by_triple_loop(functor, morphism)
            assert has_rlp(functor, morphism) == expected, j
            verdicts.append(expected[0])
    assert True in verdicts and False in verdicts


# -- search order -------------------------------------------------------

CORPUS = Path(__file__).parent.parent / "corpus"
SMALL_LEVELS = [(m, k, n) for m in range(3) for k in range(3) for n in range(3)
                if m + k + n <= 3]


def _lazy_schedule(pres):
    """The earlier search order: each object right before the first
    generator whose boundary names it, other generators in presentation
    order.  The reference for the sameness test."""
    by_name = {g.name: g for g in pres.gens}
    gens, scheduled = [], set()
    for g in pres.gens:
        if g.sort == "object":
            continue
        wanted = set()
        for bound in g.bounds:
            if isinstance(bound, tuple):
                wanted |= ex.generators_of(bound)
        for name in sorted(wanted - scheduled):
            if by_name[name].sort == "object":
                gens.append(by_name[name])
                scheduled.add(name)
        gens.append(g)
        scheduled.add(g.name)
    gens.extend(g for g in pres.gens if g.sort == "object" and g.name not in scheduled)
    return gens


def _schedule_presentations():
    from dblnerve.shapes import oriental_adjoint_presentation, oriental_inv_presentation
    from dblnerve.tensor import lx_presentations, x_presentation

    for level in SMALL_LEVELS:
        yield x_presentation(*level)[0]
        yield from lx_presentations(*level)[:2]
    for n in range(4):
        yield oriental_adjoint_presentation(n)
        yield oriental_inv_presentation(n)


def test_schedule_binds_each_generator_after_its_last_object():
    for pres in _schedule_presentations():
        order = _schedule(pres)
        assert sorted(g.name for g in order) == list(pres.keys), pres.label
        at = {g.name: i for i, g in enumerate(order)}
        closure: dict[str, set] = {}
        for g in pres.gens:
            closure[g.name] = {g.name} if g.sort == "object" else set()
            for name in set().union(*(ex.generators_of(b) for b in g.bounds
                                      if isinstance(b, tuple))):
                assert at[name] < at[g.name], (pres.label, g.name, name)
                closure[g.name] |= closure[name]
        objects = [g.name for g in order if g.sort == "object"]
        assert objects == [g.name for g in pres.gens if g.sort == "object"]
        for g in order:
            if g.sort == "object":
                continue
            before = [name for name in objects if at[name] < at[g.name]]
            last = max(closure[g.name], key=at.get, default=None)
            assert (before[-1] if before else None) == last, (pres.label, g.name)


def test_schedule_rejects_a_boundary_naming_no_earlier_generator(iso2):
    b = PresentationBuilder("two")
    a = b.add_object("a")
    b.add_cell2("s", ex.hgen("f"), ex.hid(a))
    with pytest.raises(DanglingReference, match="'f'"):
        enumerate_functors(b.build(), iso2)


def _corpus_levels():
    """Every tensor level with m + k + n <= 3 into the corpus: the double
    presentation into each double category, both quotients into each
    2-category."""
    from dblnerve.dblcat import FiniteDoubleCategory
    from dblnerve.tensor import lx_presentations, x_presentation
    from dblnerve.twocat import FiniteTwoCategory

    for path in sorted(CORPUS.glob("*.json")):
        if path.name.endswith(".map.json"):
            continue
        target = load_path(path)
        for level in SMALL_LEVELS:
            if isinstance(target, FiniteDoubleCategory):
                yield path.stem, x_presentation(*level)[0], target
            elif isinstance(target, FiniteTwoCategory):
                for pres in lx_presentations(*level)[:2]:
                    yield path.stem, pres, target


def test_schedule_leaves_every_small_corpus_level_unchanged(monkeypatch):
    import dblnerve.presentation as presentation

    checked = 0
    for name, pres, target in _corpus_levels():
        now = enumerate_functors(pres, target)
        with monkeypatch.context() as patch:
            patch.setattr(presentation, "_schedule", _lazy_schedule)
            patch.delitem(pres.__dict__, "search_plan")  # planned again, on the lazy schedule
            before = enumerate_functors(pres, target)
        assert now == before, (name, pres.label)
        checked += 1
    assert checked == 255


_BOUNDARY_MAPS = {"h": ("h_src", "h_tgt"), "v": ("v_src", "v_tgt"),
                  "sq": ("s_top", "s_bottom", "s_left", "s_right")}


def _satisfies_by_name(pres, alg, row):
    """Whether ``row`` meets every boundary and relation of ``pres`` in
    ``alg``, each evaluated by name on the dict of its images: a route apart
    from the search's, whose expressions are compiled to search positions."""
    env = dict(zip(pres.keys, row))
    for g in pres.gens:
        for side, bound in zip(_BOUNDARY_MAPS.get(g.sort, ()), g.bounds):
            if bound is not None and getattr(alg, side)(env[g.name]) != ex.evaluate(alg, bound, env):
                return False
    return all(ex.evaluate(alg, lhs, env) == ex.evaluate(alg, rhs, env)
               for lhs, rhs in pres.relations)


def test_every_row_satisfies_its_presentation_by_name():
    """Every row the search returns, read back by name, meets every boundary
    and relation: each corpus double category at the levels with m, k, n
    at most 1, and iso through the adjoint-equivalence quotient."""
    from dblnerve.dblcat import FiniteDoubleCategory
    from dblnerve.tensor import lx_presentations, x_presentation

    cases = [(x_presentation(*level)[0], target)
             for path in sorted(CORPUS.glob("*.json")) if not path.name.endswith(".map.json")
             for target in [load_path(path)] if isinstance(target, FiniteDoubleCategory)
             for level in product(range(2), repeat=3)]
    cases.append((lx_presentations(1, 1, 1)[1], load_path(CORPUS / "iso.json")))
    rows = 0
    for pres, target in cases:
        for row in enumerate_canonical(pres, target):
            assert _satisfies_by_name(pres, target, row), (pres.label, row)
            rows += 1
    assert (len(cases), rows) == (57, 804)


def test_search_returns_tuples_in_variable_order():
    variables = [(name, (), lambda env: [0, 1]) for name in ("c", "a", "b")]
    # c and a are bound at positions 0 and 1
    found, spent = _search(variables, [(("c", "a"), lambda env: env[0] <= env[1])], None)
    assert all(type(s) is tuple for s in found)
    assert found == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)]
    assert spent == 2 + 4 + 6


@pytest.mark.parametrize("inputs", [("b",), ("c",), ("z",)], ids=["itself", "later", "unknown"])
def test_search_rejects_inputs_that_are_not_earlier_variables(inputs):
    variables = [("a", (), lambda env: [0]), ("b", inputs, lambda env: [0]),
                 ("c", ("a",), lambda env: [0])]
    with pytest.raises(DanglingReference) as caught:
        _search(variables, [], None)
    assert str(caught.value) == (
        f"variable 'b' reads {inputs[0]!r}, which is not a variable before it")


_DOMAIN = 4  # every variable of a drawn search takes values in range(_DOMAIN)


def _drawn_candidates(inputs, pool, cut):
    """Distinct values of range(_DOMAIN), in the order of ``pool`` shifted by
    the sum of the bindings at the positions ``inputs``, cut to a length
    that sum picks."""
    def candidates(env):
        total = sum(env[read] for read in inputs)
        return [(v + total) % _DOMAIN for v in pool][:(total + cut) % (len(pool) + 1)]
    return candidates


def _drawn_check(weights, shift):
    return lambda env: (sum(w * env[read] for read, w in weights) + shift) % 3 != 0


@st.composite
def drawn_shapes(draw):
    """Variable names, each with the earlier variables its candidates read,
    and the variables each constraint reads, at any depths."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 6)))]
    variables = [(name, tuple(draw(st.lists(st.sampled_from(names[:depth]), unique=True)))
                  if depth else ()) for depth, name in enumerate(names)]
    constraints = [tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=3,
                                       unique=True))) for _ in range(draw(st.integers(0, 3)))]
    return variables, constraints


@st.composite
def drawn_searches(draw, shapes=drawn_shapes()):
    """Variables whose candidates read earlier bindings, and constraints on
    variables at any depths: a search of a shape drawn from ``shapes``,
    whose functions read each variable at its depth."""
    shape_variables, shape_constraints = draw(shapes)
    at = {name: depth for depth, (name, _) in enumerate(shape_variables)}
    variables = []
    for name, inputs in shape_variables:
        pool = draw(st.permutations(range(_DOMAIN)))[:draw(st.integers(0, _DOMAIN))]
        variables.append((name, inputs, _drawn_candidates([at[read] for read in inputs], pool,
                                                          draw(st.integers(0, 4)))))
    constraints = []
    for reads in shape_constraints:
        weights = [(at[read], draw(st.integers(1, 2))) for read in reads]
        constraints.append((reads, _drawn_check(weights, draw(st.integers(0, 2)))))
    return variables, constraints


def _brute_force(variables, constraints):
    """The solutions of ``_search``, from a filter of every tuple of values,
    listed in the lexicographic order of their positions in the candidate
    lists."""
    found = []
    for values in product(range(_DOMAIN), repeat=len(variables)):
        positions = []
        for (_, _, candidates), value in zip(variables, values):
            listed = candidates(values)  # reads only earlier bindings
            if value not in listed:
                break
            positions.append(listed.index(value))
        else:
            if all(check(values) for _, check in constraints):
                found.append((positions, values))
    return [values for _, values in sorted(found)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(search=drawn_searches(), chunk=st.sampled_from([1, 2, 5, presentation._CHUNK]),
       data=st.data())
def test_search_matches_a_brute_force_filter(search, chunk, data):
    """The rows, in order, of a product filter, whatever the size of the
    chunks the solutions are kept in; a budget below what the search spends
    raises BudgetExceeded having found no more than all of them."""
    variables, constraints = search
    expected = _brute_force(variables, constraints)
    with mock.patch.object(presentation, "_CHUNK", chunk):
        found, spent = _search(variables, constraints, 10**9)
        assert found == expected
        assert _search(variables, constraints, spent) == (found, spent)
        if spent:
            budget = data.draw(st.integers(0, spent - 1))
            with pytest.raises(BudgetExceeded) as caught:
                _search(variables, constraints, budget)
            cut = caught.value
            assert (cut.budget, cut.search_depth) == (budget, len(variables))
            assert 0 <= cut.found <= len(expected)
            assert variables[cut.depth - 1][0] == cut.generator
            assert str(cut).endswith(f" at depth {cut.depth} of {len(variables)}, "
                                     f"{cut.found} solutions found")


def _outcome(search, *args):
    """What ``search(*args)`` returns, or the attributes and text of the
    BudgetExceeded it raises."""
    try:
        return search(*args)
    except BudgetExceeded as cut:
        return cut.budget, cut.generator, cut.depth, cut.search_depth, cut.found, str(cut)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shape=drawn_shapes(), data=st.data())
def test_one_plan_runs_like_a_fresh_search_under_every_binding(shape, data):
    """A plan made once and run under several bindings of candidates and
    checks gives, for each, the rows, spend and BudgetExceeded of a search
    planned afresh for it, at a budget that lets it finish and at one drawn
    below."""
    plan = presentation._plan(*shape)
    for _ in range(3):
        variables, constraints = data.draw(drawn_searches(st.just(shape)))
        candidates = [candidates for _, _, candidates in variables]
        checks = [check for _, check in constraints]
        start = data.draw(st.integers(0, 3))
        found, spent = _search(variables, constraints, 10**9, start)
        for budget in (spent, data.draw(st.integers(0, spent))):
            assert (_outcome(presentation._run, plan, candidates, checks, budget, start)
                    == _outcome(_search, variables, constraints, budget, start))
        assert presentation._run(plan, candidates, checks, spent, start) == (found, spent)


def test_search_rebuilds_rows_across_chunks():
    """4,096 solutions, more than one chunk holds, rebuilt in product order;
    a constraint on the first and the last variable halves them."""
    assert 4**6 > presentation._CHUNK
    variables = [(f"v{i}", (), lambda env: [0, 1, 2, 3]) for i in range(6)]
    found, _ = _search(variables, [], None)
    assert found == list(product(range(4), repeat=6))
    found, _ = _search(variables, [(("v0", "v5"), lambda env: (env[0] + env[5]) % 2)], None)
    assert found == [row for row in product(range(4), repeat=6) if (row[0] + row[5]) % 2]


def test_budget_message_says_where_the_search_stopped(iso2):
    b = PresentationBuilder("two")
    for name in ("a0", "a1", "a2"):
        b.add_object(name)
    # 2 + 4 + 8 candidates in all; the 11th tries a2 after five solutions
    with pytest.raises(BudgetExceeded) as caught:
        enumerate_functors(b.build(), iso2, budget=10)
    assert str(caught.value) == (
        "search exceeded budget 10 trying 'a2' at depth 3 of 3, 5 solutions found")


def test_search_spends_the_pinned_candidates(monkeypatch, hsim_iso, h_iso, square_dbl):
    """Candidates are counted, not timed, so a change to the search order
    that changes what it spends fails here on every run."""
    import dblnerve.presentation as presentation
    from dblnerve.tensor import x_presentation

    spent = []

    def counting(plan, candidates, checks, budget, start=0):
        out, total = run(plan, candidates, checks, budget, start)
        spent.append(total - start)
        return out, total

    run = presentation._run
    monkeypatch.setattr(presentation, "_run", counting)
    for target, level in ((hsim_iso, (1, 1, 2)), (h_iso, (2, 2, 2)), (square_dbl, (2, 2, 2))):
        enumerate_functors(x_presentation(*level)[0], target)
    assert spent == [104_102, 73_342, 4_910]


def test_depths_that_ask_the_same_question_share_one_memo(monkeypatch, hsim_iso, h_iso,
                                                          square_dbl):
    """The memo misses of the searches that spend the pinned candidates:
    1,860, 3,579 and 2,168 with one memo per depth.  The depths of one
    memo class ask the same question at other coordinates, and each
    question with the same images is answered once."""
    from dblnerve.tensor import x_presentation

    misses = []
    accept = presentation._accept

    def counting(*args):
        misses[-1] += 1
        return accept(*args)

    monkeypatch.setattr(presentation, "_accept", counting)
    for target, level in ((hsim_iso, (1, 1, 2)), (h_iso, (2, 2, 2)), (square_dbl, (2, 2, 2))):
        misses.append(0)
        enumerate_functors(x_presentation(*level)[0], target)
    assert misses == [973, 2_047, 266]


def test_depths_share_a_memo_only_where_they_ask_the_same_question():
    """``y`` and ``w`` ask for the difference of ``a`` and ``b`` and share
    one memo; ``z`` asks for it of the same key images in the other order,
    so it has its own, and the rows are those of the unshared search."""
    plan = presentation._plan([("a", ()), ("b", ()), ("y", ()), ("z", ()), ("w", ())],
                              [("a", "b", "y"), ("b", "a", "z"), ("a", "b", "w")],
                              (["digit"] * 5, ["difference"] * 3))
    assert plan[3] == (0, 0, 1, 2, 1)
    digits = [lambda env: range(3)] * 5
    checks = [lambda env: env[2] == (env[0] - env[1]) % 3,
              lambda env: env[3] == (env[1] - env[0]) % 3,
              lambda env: env[4] == (env[0] - env[1]) % 3]
    rows = [(a, b, (a - b) % 3, (b - a) % 3, (a - b) % 3) for a in range(3) for b in range(3)]
    unshared = presentation._search([(name, (), digits[0]) for name in "abyzw"],
                                    [(("a", "b", "y"), checks[0]), (("b", "a", "z"), checks[1]),
                                     (("a", "b", "w"), checks[2])], None)
    assert presentation._run(plan, digits, checks, None) == unshared == (rows, unshared[1])


DOUBLES = ("free-square", "h-iso", "hsim-arrow", "hsim-iso", "parallel-squares", "point-double",
           "square-boundary")


def compare_memo_layouts(levels) -> dict:
    """Enumerate each level of ``levels`` in every corpus double category
    and both its quotients in iso and arrow, at the budget in effect, with
    each search run twice: with the memos its plan shares between depths
    and with one memo per depth.  Asserts that both give the same rows and
    spend, or raise the same BudgetExceeded message; returns the spend or
    the message of each search, by its presentation's label and its target.
    Run from the command line by the CI over the whole grid, budget-cut
    levels included."""
    from dblnerve.tensor import lx_presentations, x_presentation

    run, compared = presentation._run, []

    def both(plan, candidates, checks, budget, spent=0):
        names, keys, depths, _ = plan
        outcomes = []
        for memos in (plan, (names, keys, depths, tuple(range(len(names))))):
            try:
                outcomes.append(run(memos, candidates, checks, budget, spent))
            except BudgetExceeded as cut:
                outcomes.append(cut)
        shared, per_depth = outcomes
        assert type(shared) is type(per_depth), (shared, per_depth)
        if isinstance(shared, BudgetExceeded):
            assert str(shared) == str(per_depth)
            compared.append(str(shared))
            raise shared
        assert shared == per_depth
        compared.append(shared[1])
        return shared

    targets = {name: load_path(CORPUS / f"{name}.json") for name in DOUBLES + ("iso", "arrow")}
    searches = [(x_presentation(*level)[0], name) for level in levels for name in DOUBLES]
    searches += [(quotient, name) for level in levels for quotient in lx_presentations(*level)[:2]
                 for name in ("iso", "arrow")]
    with mock.patch.object(presentation, "_run", both):
        for pres, name in searches:
            try:
                enumerate_canonical(pres, targets[name])
            except BudgetExceeded:
                pass
    assert len(compared) == len(searches)
    return {(pres.label, name): outcome for (pres, name), outcome in zip(searches, compared)}


def test_shared_memos_search_like_one_memo_per_depth():
    """Each search of the levels with m + k + n at most 4 finds the same
    rows and spends the same with its shared memos as with one per depth;
    the CI compares the whole grid, where four levels run out of budget in
    hsim-iso and four in the equivalence quotient in iso."""
    levels = [level for level in product(range(3), repeat=3) if sum(level) <= 4]
    spent = compare_memo_layouts(levels)
    assert len(spent) == 11 * len(levels) and all(isinstance(n, int) for n in spent.values())


# Where the budget ran out when the search tried and charged its candidates
# one at a time: for each level, the candidates its whole search spends,
# the number of its variables, and (budget, variable tried, its depth,
# solutions found so far) at budgets across that spend.  On tri-invertible,
# budget 58 runs out in the rejected tail of a depth and 60 on a rejected
# candidate before the only one its depth accepts; on the other levels
# every candidate is accepted, and 1869 on hsim-iso runs out on a depth
# with a single candidate.
_PINNED_BUDGETS = [
    ("hsim-iso", "x", (1, 1, 1), 3734, 38, [
        (0, "o0.0.0", 1, 0), (373, "m01.1.1", 31, 24), (746, "A01.01.0", 28, 50),
        (1119, "n01.1.0", 20, 76), (1492, "m01.1.1", 31, 101), (1865, "B01.01.1", 37, 127),
        (1869, "n01.0.0", 3, 128), (2238, "o1.1.1", 29, 152), (2611, "k01.1.0", 26, 178),
        (2984, "o1.0.1", 18, 204), (3357, "o1.1.1", 29, 229), (3730, "n01.1.1.unit", 35, 255),
        (3733, "X01.01.1", 38, 255)]),
    ("h-iso", "x", (1, 1, 2), 3566, 91, [
        (0, "o0.0.0", 1, 0), (356, "n02.1.0.unit", 52, 6), (712, "A01.01.0", 64, 12),
        (1068, "o1.1.2", 75, 18), (1424, "B12.01.1", 89, 24), (1780, "X01.12.1", 90, 31),
        (2136, "o1.0.2", 48, 38), (2492, "o1.1.0", 61, 44), (2848, "n01.1.1.unit", 71, 50),
        (3204, "n12.1.1", 85, 56), (3560, "n12.1.1*", 86, 63), (3565, "N1.1", 91, 63)]),
    ("free-square", "x", (1, 1, 1), 448, 38, [
        (0, "o0.0.0", 1, 0), (44, "o1.1.0", 25, 1), (88, "o0.1.1", 9, 2), (132, "o1.1.0", 25, 3),
        (176, "o0.1.1", 9, 4), (220, "k01.1.1", 30, 4), (264, "A01.01.1", 32, 5),
        (308, "n01.1.0*", 21, 6), (352, "o1.0.0", 16, 7), (396, "n01.0.0.unit", 5, 8),
        (440, "m01.1.1", 31, 8), (447, "X01.01.1", 38, 8)]),
    ("iso", "lsim", (1, 1, 1), 4958, 50, [
        (0, "o0.0.0", 1, 0), (495, "k01.1.1.counit", 42, 24), (990, "k01.1.0.counit", 35, 50),
        (1485, "n01.1.0", 26, 76), (1980, "k01.1.1", 39, 101), (2475, "n01.1.1.unit", 47, 127),
        (2970, "o1.1.1", 38, 152), (3465, "o1.1.0", 31, 178), (3960, "B01.01.1", 49, 203),
        (4455, "n01.1.1.counit", 48, 228), (4950, "m01.1.1", 43, 255),
        (4957, "X01.01.1", 50, 255)]),
    ("tri-invertible", "l", (0, 1, 1), 80, 11, [
        (0, "q0.0", 1, 0), (8, "n01.0.1.unit", 9, 0), (16, "n01.0.1", 7, 1), (24, "n01.0.0", 3, 2),
        (32, "B01.01.0", 11, 2), (40, "n01.0.1.unit", 9, 3), (48, "n01.0.0", 3, 4),
        (55, "n01.0.1.counit", 10, 4), (56, "B01.01.0", 11, 4), (57, "B01.01.0", 11, 5),
        (58, "n01.0.1.counit", 10, 6), (59, "n01.0.1.unit", 9, 6), (60, "n01.0.1.counit", 10, 6),
        (61, "n01.0.1.counit", 10, 6), (62, "B01.01.0", 11, 6), (63, "B01.01.0", 11, 7),
        (64, "n01.0.0.counit", 6, 8), (72, "B01.01.0", 11, 8), (79, "B01.01.0", 11, 11)]),
]


@pytest.mark.parametrize("target, quotient, level, total, depths, pinned", _PINNED_BUDGETS,
                         ids=[f"{t}-{q}-{''.join(map(str, lv))}" for t, q, lv, *_ in _PINNED_BUDGETS])
def test_budget_messages_are_pinned(target, quotient, level, total, depths, pinned):
    from dblnerve.tensor import lx_presentations, x_presentation

    alg = load_path(CORPUS / f"{target}.json")
    pres = (x_presentation(*level)[0] if quotient == "x"
            else lx_presentations(*level)[quotient == "lsim"])
    for budget, name, depth, found in pinned:
        with pytest.raises(BudgetExceeded) as caught:
            enumerate_functors(pres, alg, budget=budget)
        assert str(caught.value) == (f"search exceeded budget {budget} trying {name!r} at depth "
                                     f"{depth} of {depths}, {found} solutions found")
    enumerate_functors(pres, alg, budget=total)


def test_pullback_names_what_is_wrong_with_a_valuation():
    """A row of the wrong length fails with a DanglingReference that names
    both lengths, and a row whose images break a boundary with the
    BoundaryMismatch that names the generators of the failing image, also
    after the pullback has seen valid rows."""
    from dblnerve.tensor import lx_presentations

    iso = load_path(CORPUS / "iso.json")
    _, equivalence, _, section = lx_presentations(1, 1, 1)
    valid = enumerate_canonical(equivalence, iso)[-1]
    pull = section.pullback(iso)
    pull(valid)
    width = len(equivalence.keys)
    for wrong in ((), valid[:-1], valid + valid[:1]):
        with pytest.raises(DanglingReference) as caught:
            pull(wrong)
        assert str(caught.value) == (f"a row of {len(wrong)} images pulled back along a "
                                     f"morphism whose target has {width} generators")
    broken = list(valid)
    broken[equivalence.keys.index("n01.0.0")] = "id:x"
    with pytest.raises(BoundaryMismatch) as caught:
        pull(tuple(broken))
    assert str(caught.value) == (
        "horizontal pasting mismatch at ('shcomp', ('sid_h', ('hgen', 'n01.0.0')), "
        "('sgen', 'k01.0.1.unit'))")


def _named(shape, names):
    """The expressions of ``shape`` with slot ``i`` read back as ``names[i]``."""
    expressions, width = shape
    assert width == len(names)

    def fill(expression):
        if expression[0] in ex.LEAF_TAGS.values():
            return expression[0], names[expression[1]]
        return (expression[0], *map(fill, expression[1:]))
    return tuple(map(fill, expressions))


def test_relations_boundaries_and_images_come_in_few_shapes():
    """The 1,776 relations of the 81 x- and lx-presentations with m, k, n at
    most 2 come in 12 shapes, their 4,068 boundaries of non-object
    generators in 16, and the 1,248 images of their collapse and section
    maps that are not generators in 10.  Each binding, its slots read back
    as the generators at its positions, is the expressions it stands for.
    Slots are numbered by first occurrence, never by set order, so all of
    this holds under any hash seed."""
    from dblnerve.tensor import lx_presentations, x_presentation

    shapes = {"relation": set(), "boundary": set(), "image": set()}
    bound = dict.fromkeys(shapes, 0)
    for level in product(range(3), repeat=3):
        plain, equivalence, collapse, section = lx_presentations(*level)
        for pres in (x_presentation(*level)[0], plain, equivalence):
            plan = pres.search_plan
            names = [g.name for g in plan.order]
            for pair, (shape, *at) in zip(pres.relations, plan.relations, strict=True):
                assert _named(plan.relation_shapes[shape], [names[p] for p in at]) == pair
                bound["relation"] += 1
            for g, binding in zip(plan.order, plan.boundaries, strict=True):
                if g.sort == "object":
                    assert binding is None
                    continue
                shape, *at = binding
                assert (_named(plan.boundary_shapes[shape], [names[p] for p in at])
                        == presentation._bounds(pres.kind, g))
                bound["boundary"] += 1
            shapes["relation"].update(plan.relation_shapes)
            shapes["boundary"].update(plan.boundary_shapes)
        for morphism in (collapse, section):
            image_shapes, reads = morphism.pullback_plan
            for name, read in zip(morphism.source.keys, reads, strict=True):
                image = morphism.gen_map[name]
                if isinstance(read, int):
                    assert image == (image[0], morphism.target.keys[read])
                    continue
                shape, *at = read
                keys = [morphism.target.keys[p] for p in at]
                assert _named(image_shapes[shape], keys) == (image,)
                bound["image"] += 1
            shapes["image"].update(image_shapes)
    assert {kind: len(found) for kind, found in shapes.items()} == {
        "relation": 12, "boundary": 16, "image": 10}
    assert bound == {"relation": 1776, "boundary": 4068, "image": 1248}


def test_a_relation_that_does_not_compose_names_its_generators():
    """A relation whose sides do not compose on the images bound fails
    inside the search with the BoundaryMismatch that names its generators,
    also when a relation of the same shape has filled that shape's memo."""
    iso = load_path(CORPUS / "iso.json")
    b = PresentationBuilder("two")
    a_, b_ = b.add_object("a"), b.add_object("b")
    f, g, k = b.add_hgen("f", a_, b_), b.add_hgen("g", b_, a_), b.add_hgen("k", a_, b_)
    b.add_relation(ex.hcomp(f, g), ex.hcomp(f, g))
    b.add_relation(ex.hcomp(f, k), ex.hcomp(f, k))
    pres = b.build()
    assert len(pres.search_plan.relation_shapes) == 1
    with pytest.raises(BoundaryMismatch) as caught:
        enumerate_canonical(pres, iso)
    assert str(caught.value) == "h-composition mismatch at ('hcomp', ('hgen', 'f'), ('hgen', 'k'))"


def _hsim_iso_level_112():
    from dblnerve.tensor import x_presentation

    enumerate_functors(x_presentation(1, 1, 2)[0], load_path(CORPUS / "hsim-iso.json"))


def _comparison_222():
    from dblnerve.nerve import comparison_maps

    comparison_maps(load_path(CORPUS / "iso.json"), 2, 2, 2)


@pytest.mark.parametrize("run, bound", [(_hsim_iso_level_112, 100_000), (_comparison_222, 300_000)],
                         ids=["hsim-iso-1-1-2", "comparison-iso-2-2-2"])
def test_searches_and_pullbacks_evaluate_each_input_once(monkeypatch, run, bound):
    """Calls of compiled expressions are counted, not timed: a search or a
    pullback that evaluates again what it has seen fails here."""
    calls = 0
    compile_expr = ex.compile_expr

    def counting(alg, expression, *at):
        compiled = compile_expr(alg, expression, *at)

        def counted(env):
            nonlocal calls
            calls += 1
            return compiled(env)
        return counted

    monkeypatch.setattr(ex, "compile_expr", counting)
    run()
    assert calls < bound


def test_no_memo_outlives_its_search_or_pullback():
    """Once a search's result and a pullback function are dropped, reference
    counting alone frees the algebra they ran in."""
    from dblnerve.tensor import lx_presentations

    _, equivalence, _, section = lx_presentations(1, 1, 1)
    gc.disable()
    try:
        iso = load_path(CORPUS / "iso.json")
        freed = weakref.ref(iso)
        found = enumerate_canonical(equivalence, iso)
        pull = section.pullback(iso)
        assert len({pull(row) for row in found}) == 16
        del iso, found, pull
        assert freed() is None
    finally:
        gc.enable()
