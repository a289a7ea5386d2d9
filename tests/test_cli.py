import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dblnerve import cli
from dblnerve.shapes import SHAPE_CAP

ROOT = Path(__file__).parent.parent
CORPUS = ROOT / "corpus"


def run_cli(*args, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "dblnerve.cli", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=None if env is None else {**os.environ, **env},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_validate_ok():
    code, out, _ = run_cli("validate", str(CORPUS / "free-square.json"))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_missing_file_exits_2():
    code, _out, err = run_cli("validate", str(CORPUS / "nope.json"))
    assert code == 2
    assert "error" in err


def test_fibrancy_counterexample_exit_one():
    code, out, _ = run_cli("fibrancy", str(CORPUS / "h-iso.json"))
    assert code == 1
    report = json.loads(out)
    assert report["fibrant_nerve"] is False
    assert len(report["counterexample"]) == 3


def test_fibrancy_true_exit_zero():
    code, out, _ = run_cli("fibrancy", str(CORPUS / "hsim-iso.json"))
    assert code == 0
    assert json.loads(out)["fibrant_nerve"] is True


def test_nerve_compare():
    code, out, _ = run_cli(
        "nerve", str(CORPUS / "free-square.json"), "--m", "1", "--k", "1", "--n", "0", "--compare"
    )
    assert code == 0
    report = json.loads(out)
    assert report["count"] == report["oracle_count"] == 9
    assert report["oracle_agrees"] is True


def test_nerve2_counts():
    code, out, _ = run_cli(
        "nerve2", str(CORPUS / "iso.json"), "--variant", "hsim",
        "--m", "0", "--k", "1", "--n", "0",
    )
    assert code == 0
    assert json.loads(out)["count"] == 4
    code, out, _ = run_cli(
        "nerve2", str(CORPUS / "iso.json"), "--variant", "h",
        "--m", "0", "--k", "1", "--n", "0", "--compare-retract",
    )
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 2 and report["retract"] is True


def test_whi_check_square():
    code, out, _ = run_cli("whi-check", str(CORPUS / "free-square.json"), "--square", "s")
    assert code == 1
    assert json.loads(out)["whi"] is False


def test_weak_inverse_command():
    # pick an identity square of the equivalence embedding and identity data
    from dblnerve.io import load_path
    from dblnerve.whi import horizontal_equivalences

    dbl = load_path(str(CORPUS / "hsim-iso.json"))
    alpha = dbl.i_sq[sorted(dbl.vmors)[0]]
    top = next(
        d for d in horizontal_equivalences(dbl)
        if d.adjoint and d.f == dbl.stop[alpha]
    )
    bottom = next(
        d for d in horizontal_equivalences(dbl)
        if d.adjoint and d.f == dbl.sbottom[alpha]
    )
    payload = json.dumps({"top": list(top.as_tuple()), "bottom": list(bottom.as_tuple())})
    code, out, _ = run_cli(
        "weak-inverse", str(CORPUS / "hsim-iso.json"), "--square", alpha, "--data", payload
    )
    assert code == 0
    assert json.loads(out)["weak_inverse"] == alpha


def test_rlp_cross_check():
    code, out, _ = run_cli(
        "rlp", str(CORPUS / "free-square.json"), str(CORPUS / "point-double.json"),
        str(CORPUS / "square-to-point.map.json"), "--set", "I",
    )
    assert code == 1
    report = json.loads(out)
    assert report["rlp"]["I1"] is True
    assert report["rlp"]["I2"] is False


def test_dbl_bieq_inclusion():
    code, out, _ = run_cli(
        "dbl-bieq", str(CORPUS / "h-iso.json"), str(CORPUS / "hsim-iso.json"),
        str(CORPUS / "h-iso-to-hsim.map.json"),
    )
    assert code == 0
    assert json.loads(out)["double_biequivalence"] is True


def test_segal_command():
    code, out, _ = run_cli("segal", str(CORPUS / "h-iso.json"), "--k", "2")
    assert code == 0


def test_shapes_emit_round_trips():
    code, out, _ = run_cli("shapes", "emit", "--family", "inverted", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "two-category"
    from dblnerve.io import load_document

    cat = load_document(doc)
    assert len(cat.objects) == 3


def test_reports_are_byte_stable():
    args = ("nerve", str(CORPUS / "hsim-iso.json"), "--m", "0", "--k", "1", "--n", "1", "--list")
    _, first, _ = run_cli(*args)
    _, second, _ = run_cli(*args)
    assert first == second


@pytest.mark.parametrize("value", ["abc", "-5", "0"])
def test_invalid_budget_is_a_usage_error(value):
    code, out, err = run_cli(
        "nerve", str(CORPUS / "free-square.json"), "--m", "1", "--k", "1", "--n", "0",
        env={"DBLNERVE_BUDGET": value},
    )
    assert code == 2
    assert out == ""
    assert "DBLNERVE_BUDGET" in err


@pytest.mark.parametrize("args", [
    ("tfib", "h-iso.json", "iso.json", "h-iso-to-hsim.map.json"),
    ("tfib", "iso.json", "iso.json", "h-iso-to-hsim.map.json"),
    ("dbl-bieq", "iso.json", "iso.json", "h-iso-to-hsim.map.json"),
    ("bieq", "h-iso.json", "hsim-iso.json", "h-iso-to-hsim.map.json"),
    ("rlp", "iso.json", "iso.json", "h-iso-to-hsim.map.json", "--set", "I"),
    ("rlp", "h-iso.json", "hsim-iso.json", "h-iso-to-hsim.map.json", "--set", "I2"),
])
def test_functor_endpoints_of_the_wrong_kind_are_usage_errors(args):
    command, *files = args[:4]
    code, out, err = run_cli(command, *(str(CORPUS / name) for name in files), *args[4:])
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")


def _corpus_doc(name, **changes):
    return json.dumps({**json.loads((CORPUS / name).read_text()), **changes})


def _malformed_cases():
    hsim = json.loads((CORPUS / "hsim-iso.json").read_text())
    tri = json.loads((CORPUS / "tri-invertible.json").read_text())
    h_iso = json.loads((CORPUS / "h-iso.json").read_text())
    chain = [{"name": "f", "src": "a", "tgt": "b"}, {"name": "g", "src": "b", "tgt": "c"},
             {"name": "h", "src": "a", "tgt": "c"}]
    functor = ("tfib", "h-iso.json", "hsim-iso.json")
    weak = ("weak-inverse", "hsim-iso.json", "--square", "ee:x", "--data")
    return {
        "map-not-json": (functor, "{not json"),
        "map-is-a-list": (functor, "[1, 2]"),
        "data-not-json": (weak + ("{not json",), None),
        "data-is-a-list": (weak + ("[1, 2]",), None),
        "data-top-not-a-list": (weak + ('{"top": 5, "bottom": []}',), None),
        "cell-entry-as-list": (("validate",), _corpus_doc(
            "hsim-iso.json", squares=[list(hsim["squares"][0].values()), *hsim["squares"][1:]])),
        "composition-with-two-items": (("validate",), _corpus_doc(
            "hsim-iso.json", hcompose_sq=[hsim["hcompose_sq"][0][:2], *hsim["hcompose_sq"][1:]])),
        "objects-as-a-string": (("validate",), _corpus_doc("iso.json", objects="xy")),
        "two-composition-pair-listed-twice": (("validate",), _corpus_doc(
            "tri-invertible.json", hcompose_two=[["t", "t", "t"], *tri["hcompose_two"]])),
        "double-composition-pair-listed-twice": (("validate",), _corpus_doc(
            "h-iso.json", hcompose_h=[["xy", "yx", "xy"], *h_iso["hcompose_h"]])),
        "two-composition-entry-as-a-string": (("validate",), json.dumps(
            {"kind": "two-category", "objects": ["a", "b", "c"], "one_cells": chain,
             "hcompose_one": ["fgh"]})),
        "category-composition-entry-as-a-string": (("validate",), json.dumps(
            {"kind": "category", "objects": ["a", "b", "c"], "morphisms": chain,
             "compose": ["fgh"]})),
        **{f"presentation-{key}-entry-as-a-string": (("validate",), json.dumps(
            {"kind": "presentation", "flavor": "double", "objects": ["a"], key: ["zz"]}))
           for key in ("hgens", "vgens", "squares")},
        **{f"presentation-flags-{label}": (("validate",), json.dumps(
            {"kind": "presentation", "flavor": "two", "objects": ["a"],
             "squares": [{"name": "s", "src": ["hid", ["ogen", "a"]],
                          "tgt": ["hid", ["ogen", "a"]], "flags": flags}]}))
           for label, flags in (("misspelled", ["invertable"]), ("unknown", ["bogus"]),
                                ("as-a-string", "ab"), ("as-an-object", {"whi": True}))},
        **{f"names-not-strings-{label}": (("validate",), json.dumps(doc)) for label, doc in (
            ("category-objects", {"kind": "category", "objects": [1, 2]}),
            ("double-objects", {"kind": "double-category", "objects": [True]}),
            ("presentation-objects", {"kind": "presentation", "flavor": "two", "objects": [3]}),
            ("two-1-cell", {"kind": "two-category", "objects": ["a"],
                            "one_cells": [{"name": 5, "src": "a", "tgt": "a"}]}),
            ("double-square", {**hsim, "squares": [{**hsim["squares"][0], "name": None},
                                                   *hsim["squares"][1:]]}),
            ("presentation-generator", {"kind": "presentation", "flavor": "double",
                                        "objects": ["a"], "vgens": [
                                            {"name": 0, "src": ["ogen", "a"],
                                             "tgt": ["ogen", "a"]}]}))},
    }


MALFORMED = _malformed_cases()


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_input_is_an_error(case, tmp_path):
    """Each input names a file or option holding malformed JSON; the file
    content, if any, goes last on the command line."""
    args, content = MALFORMED[case]
    argv = [str(CORPUS / a) if a.endswith(".json") else a for a in args]
    if content is not None:
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        argv.append(str(bad))
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "error:" in lines[0], err


def _bad_names_cases():
    f = {"name": "f", "src": "a", "tgt": "b"}

    def two(**fields):
        return json.dumps({"kind": "two-category", "objects": ["a", "b"], **fields})

    def double(**fields):
        return json.dumps({"kind": "double-category", "objects": ["a", "b"], **fields})

    def square(name, top, bottom, left, right):
        return {"name": name, "top": top, "bottom": bottom, "left": left, "right": right}

    def presentation(**fields):
        return json.dumps({"kind": "presentation", "flavor": "double", "objects": ["a"], **fields})

    unit_a = {"top": ["hid", ["ogen", "a"]], "bottom": ["hid", ["ogen", "a"]],
              "left": ["vid", ["ogen", "a"]]}
    loop = {"name": "f", "src": ["ogen", "a"], "tgt": ["ogen", "a"]}
    nerve = ("nerve", "--m", "0", "--k", "0", "--n", "0", "--compare")
    return {
        "presentation-boundary-names-undeclared": (("validate",), presentation(
            squares=[{"name": "s", **unit_a, "right": ["vid", ["ogen", "b"]]}])),
        "presentation-relation-names-undeclared": (("validate",), presentation(
            relations=[[["sgen", "x"], ["sgen", "y"]]])),
        "presentation-generator-without-a-name": (("validate",), presentation(
            hgens=[{"name": "f", "src": ["ogen"], "tgt": ["ogen", "a"]}])),
        "presentation-unknown-tag": (("validate",), presentation(
            hgens=[{**loop, "src": ["bogus", ["ogen", "a"]]}])),
        "presentation-boundaries-of-the-wrong-sort": (("validate",), presentation(
            hgens=[loop], squares=[{"name": "s", **unit_a, "top": ["ogen", "a"],
                                    "right": ["vid", ["ogen", "a"]], "left": ["hgen", "f"]}])),
        "presentation-unit-on-no-expression": (("validate",), presentation(
            squares=[{"name": "s", **unit_a, "top": ["hid", ""],
                      "right": ["vid", ["ogen", "a"]]}])),
        "two-duplicate-object": (("validate",), two(objects=["a", "a"])),
        "two-identity-1-cell-name": (("validate",), two(
            one_cells=[{"name": "id:a", "src": "a", "tgt": "a"}])),
        "two-identity-2-cell-name": (("validate",), two(
            one_cells=[f], two_cells=[{"name": "id2:f", "src": "f", "tgt": "f"}])),
        "two-duplicate-2-cell": (("validate",), two(
            one_cells=[f, {**f, "name": "g"}],
            two_cells=[{"name": "c", "src": "f", "tgt": "g"}] * 2)),
        "double-duplicate-object": (("validate",), double(objects=["a", "a"])),
        "double-duplicate-object-nerve": (nerve, double(objects=["a", "a"])),
        "double-identity-hmor-name": (("validate",), double(
            hmor=[{"name": "idh:a", "src": "a", "tgt": "a"}])),
        "double-duplicate-hmor": (("validate",), double(hmor=[f, f])),
        "double-unit-square-name": (("validate",), double(
            squares=[square("ee:a", "idh:a", "idh:a", "idv:a", "idv:a")])),
        "double-h-unit-square-name": (("validate",), double(
            hmor=[f], squares=[square("e:f", "f", "f", "idv:a", "idv:b")])),
        "two-2-cell-between-non-parallel-1-cells": (("validate",), two(
            objects=["a", "b", "c"], one_cells=[f, {**f, "name": "g", "tgt": "c"}],
            two_cells=[{"name": "c", "src": "f", "tgt": "g"}])),
        "two-vcompose-names-undeclared": (("validate",), two(
            one_cells=[f], two_cells=[{"name": "t", "src": "f", "tgt": "f"}],
            vcompose=[["t", "t", "t"], ["q", "t", "t"]])),
        "double-hcompose-h-names-undeclared": (("validate",), double(
            hmor=[f], hcompose_h=[["zz", "f", "f"]])),
        "double-hcompose-sq-names-undeclared": (("validate",), double(
            squares=[square("t", "idh:a", "idh:a", "idv:a", "idv:a")],
            hcompose_sq=[["t", "t", "t"], ["q", "t", "t"]], vcompose_sq=[["t", "t", "t"]])),
    }


BAD_NAMES = _bad_names_cases()


@pytest.mark.parametrize("case", sorted(BAD_NAMES))
def test_duplicate_and_reserved_names_are_rejected(case, tmp_path):
    """A cell declared twice or under the name of a synthesized identity or
    unit, a presentation naming a generator it does not declare before the
    name is used, and one holding an expression with an unknown tag, a
    wrong arity or a part of the wrong sort, is bad input, not a code fault
    such as DisagreementBug or a crash."""
    (command, *options), content = BAD_NAMES[case]
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    code, out, err = run_cli(command, str(bad), *options)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "error: DanglingReference" in lines[0], err


@pytest.mark.parametrize("args", [
    ("segal", str(CORPUS / "h-iso.json"), "--k", "-1"),
    ("shapes", "emit", "--family", "plain", "--n", "-1"),
    ("shapes", "emit", "--family", "v-inverted", "--n", "-1"),
])
def test_negative_sizes_are_rejected(args):
    code, out, err = run_cli(*args)
    assert code == 2
    assert out == ""
    assert "non-negative" in err


@pytest.mark.parametrize("family", ["plain", "inverted", "adjoint", "v-inverted"])
def test_shapes_above_the_cap_are_out_of_range(family):
    """One above SHAPE_CAP, and far above it, every family exits 2 at once
    instead of running for minutes or out of memory."""
    for n in (SHAPE_CAP + 1, 30):
        code, out, err = _in_process(["shapes", "emit", "--family", family, "--n", str(n)])
        assert (code, out) == (2, "")
        assert err == f"error: RangeExceeded: n = {n} above the shape cap {SHAPE_CAP}\n"


def test_budget_exceeded_exits_2_with_where_it_stopped():
    code, out, err = run_cli("nerve", str(CORPUS / "hsim-iso.json"), "--m", "1", "--k", "2", "--n", "2",
                             env={"DBLNERVE_BUDGET": "1000000"})
    assert (code, out) == (2, "")
    assert err == ("error: BudgetExceeded: search exceeded budget 1000000 trying "
                   "'n12.1.2.counit' at depth 161 of 165, 29461 solutions found\n")


ISO_IDENTITY_MAP = {"objects": {"x": "x", "y": "y"}, "one_cells": {"xy": "xy", "yx": "yx"},
                    "two_cells": {}}


def _map_cases():
    """A functor command whose map file has an entry the source lacks, or a
    section its kind lacks, and the one error it must report."""
    h_iso_map = json.loads((CORPUS / "h-iso-to-hsim.map.json").read_text())
    double = ("h-iso.json", "hsim-iso.json")
    cases = {}
    for section, image in (("objects", "x"), ("hmor", "xy"), ("vmor", "idv:x"), ("squares", "ee:x")):
        bad = {**h_iso_map, section: {**h_iso_map[section], "zz-not-a-cell": image}}
        for command in (("tfib",), ("rlp", "--set", "I"), ("dbl-bieq",)):
            cases[f"{command[0]}-unknown-{section}"] = (command, double, bad, "DanglingReference")
    for section, image in (("objects", "x"), ("one_cells", "xy"), ("two_cells", "id2:xy")):
        bad = {**ISO_IDENTITY_MAP, section: {**ISO_IDENTITY_MAP[section], "zz-not-a-cell": image}}
        cases[f"bieq-unknown-{section}"] = (("bieq",), ("iso.json", "iso.json"), bad,
                                            "DanglingReference")
    cases["bieq-double-section"] = (("bieq",), ("iso.json", "iso.json"),
                                    {**ISO_IDENTITY_MAP, "hmor": {}}, "SchemaError")
    cases["tfib-two-category-section"] = (("tfib",), double, {**h_iso_map, "one_cells": {}},
                                          "SchemaError")
    return cases


MAP_CASES = _map_cases()


@pytest.mark.parametrize("case", sorted(MAP_CASES))
def test_map_entries_outside_the_source_are_errors(case, tmp_path):
    """A map naming a cell the source does not have, or a section outside
    its kind's, is bad input: no verdict is taken on the cells it does name."""
    (command, *options), files, doc, error = MAP_CASES[case]
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps(doc))
    code, out, err = _in_process([command, *(str(CORPUS / f) for f in files), str(mapfile),
                                  *options])
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {error}"), err


def _composition_cases():
    """A corpus file with one composition entry on a pair that does not
    compose, under the table of a category, each table of a 2-category and
    each square table of a double category."""
    def extra(name, key, entry):
        doc = json.loads((CORPUS / name).read_text())
        return {**doc, key: [*doc[key], entry]}

    return {
        "compose": extra("iso-category.json", "compose", ["id:x", "id:y", "id:x"]),
        "hcompose_one": extra("iso.json", "hcompose_one", ["id:x", "id:y", "id:x"]),
        "vcompose": extra("iso.json", "vcompose", ["id2:id:x", "id2:id:y", "id2:id:x"]),
        "hcompose_two": extra("iso.json", "hcompose_two", ["id2:xy", "id2:xy", "id2:xy"]),
        "hcompose_sq": extra("h-iso.json", "hcompose_sq", ["e:xy", "e:xy", "e:xy"]),
        "vcompose_sq": extra("h-iso.json", "vcompose_sq", ["ee:x", "ee:y", "ee:x"]),
    }


COMPOSITION_CASES = _composition_cases()


@pytest.mark.parametrize("case", [*sorted(COMPOSITION_CASES), "bieq"])
def test_composition_entries_on_pairs_that_do_not_compose_are_errors(case, tmp_path):
    bad = tmp_path / "bad.json"
    if case == "bieq":
        bad.write_text(json.dumps(COMPOSITION_CASES["hcompose_one"]))
        mapfile = tmp_path / "map.json"
        mapfile.write_text(json.dumps(ISO_IDENTITY_MAP))
        argv = ["bieq", str(bad), str(CORPUS / "iso.json"), str(mapfile)]
    else:
        bad.write_text(json.dumps(COMPOSITION_CASES[case]))
        argv = ["validate", str(bad)]
    code, out, err = _in_process(argv)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: MissingComposite"), err


SHAPES = {
    "adjoint-1": ("--family", "adjoint", "--n", "1"),
    "adjoint-2": ("--family", "adjoint", "--n", "2"),
    "adjoint-horn-1-0": ("--family", "adjoint", "--n", "1", "--variant", "horn", "--t", "0"),
}
CORPUS_DOUBLE = ("free-square", "h-iso", "hsim-arrow", "hsim-iso", "parallel-squares",
                 "point-double", "square-boundary")
DOUBLE_MAPS = (("h-iso", "hsim-iso", "h-iso-to-hsim.map"),
               ("free-square", "point-double", "square-to-point.map"))


def _in_process(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@cache
def _documents():
    """Every corpus file, each emitted shape presentation and an identity map
    of iso.json (the corpus holds no map between 2-categories), by name."""
    docs = {path.name.removesuffix(".json"): json.loads(path.read_text())
            for path in sorted(CORPUS.glob("*.json"))}
    for name, options in SHAPES.items():
        docs[name] = json.loads(_in_process(["shapes", "emit", *options])[1])
    docs["iso-identity.map"] = ISO_IDENTITY_MAP
    return docs


RUNS = [
    *(("validate", (name,), ()) for name in sorted(_documents()) if not name.endswith(".map")),
    *((command, (name,), options) for name in CORPUS_DOUBLE for command, options in (
        ("whi-check", ()), ("fibrancy", ()), ("nerve", ("--m", "1", "--k", "0", "--n", "0", "--compare")),
        ("segal", ("--k", "1")))),
    *((command, files, ()) for command in ("tfib", "dbl-bieq", "bieq") for files in DOUBLE_MAPS),
    ("bieq", ("iso", "iso", "iso-identity.map"), ()),
]
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.just([]), st.just({}),
                 st.sampled_from(["", "zz", "x", "0", "id:x", "idh:0", "ee:0"]))


def _paths(doc, path=()):
    """The path to every node below ``doc``'s root, as keys and indices."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield (*path, key)
        yield from _paths(child, (*path, key))


def _mutate(doc, path, how, junk):
    """A copy of ``doc`` with the node at ``path`` replaced by ``junk``,
    deleted or duplicated: a list item next to itself, a dict value onto
    the next key of its dict."""
    doc = copy.deepcopy(doc)
    *above, key = path
    parent = doc
    for step in above:
        parent = parent[step]
    if how == "junk":
        parent[key] = junk
    elif how == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        keys = list(parent)
        parent[keys[(keys.index(key) + 1) % len(keys)]] = copy.deepcopy(parent[key])
    return doc


@st.composite
def mutated_runs(draw):
    """A command with its files, one of which has one node mutated."""
    command, files, options = draw(st.sampled_from(RUNS))
    docs = [_documents()[name] for name in files]
    target = draw(st.integers(0, len(files) - 1))
    path = draw(st.sampled_from(list(_paths(docs[target]))))
    how = draw(st.sampled_from(["junk", "delete", "duplicate"]))
    docs[target] = _mutate(docs[target], path, how, draw(JUNK) if how == "junk" else None)
    return command, docs, options


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=mutated_runs())
def test_cli_contract_holds_under_mutated_inputs(run, tmp_path, monkeypatch):
    """Exit 0 or 1 with one JSON report on stdout, or exit 2 with a message
    on stderr; no exception escapes ``cli.main``."""
    monkeypatch.setenv("DBLNERVE_BUDGET", "20000")
    command, docs, options = run
    paths = []
    for i, doc in enumerate(docs):
        paths.append(str(tmp_path / f"{i}.json"))
        Path(paths[-1]).write_text(json.dumps(doc))
    code, out, err = _in_process([command, *paths, *options])
    if code == 2:
        assert out == "" and err.strip()
    else:
        assert code in (0, 1) and err == ""
        assert isinstance(json.loads(out), dict)
