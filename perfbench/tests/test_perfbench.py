"""Tests of the benchmark itself, on the quick slice of each workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
WORKLOADS = ("nerve-sweep", "verdicts", "cli-session")
EXACT_COUNTS = ("expr.evaluate.nodes", "presentation.candidates", "pseudohom.transformations")


def bench(*args, env=None, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def quick(workload, tmp_path, *extra, seed=1, trace=0):
    out = tmp_path / f"{workload}-{seed}-{trace}.json"
    code, stdout, stderr = bench("--workload", workload, "--seed", str(seed), "--trace",
                                 str(trace), "--quick", "--out", str(out), *extra)
    return code, stdout, stderr, json.loads(out.read_text())


def declared(kind):
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path):
    code, stdout, stderr, record = quick(workload, tmp_path, trace=trace)
    assert code == 0, stderr
    lines = stdout.splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = declared("per_layer" if trace else "end_to_end")
    assert set(last["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
    printed = {tuple(line.split("  ")[1::2]) for line in lines[1:-1]}
    for name, metric in record["metrics"].items():
        assert (name, metric["unit"]) in printed
    assert set(record["environment"]) == {"python", "nproc", "cpu", "commit", "seed"}
    assert record["budgets"] == [1000000]


def test_a_wrong_known_answer_fails_the_run(tmp_path):
    answers = json.loads((HERE / "answers.json").read_text())
    answers["ops"]["level:h-iso:0,1,0"] = 3
    wrong = tmp_path / "answers.json"
    wrong.write_text(json.dumps(answers))
    code, stdout, _, record = quick("nerve-sweep", tmp_path, "--answers", str(wrong))
    assert code == 1
    assert json.loads(stdout.splitlines()[-1])["correct"] is False
    assert record["failed"] == 1
    assert record["metrics"]["fail_ratio"]["value"] > 0
    assert record["failures"] == [
        {"name": "level:h-iso:0,1,0", "status": "wrong", "error": None}]


def test_seeds_change_the_order_but_not_the_outputs(tmp_path):
    first = quick("verdicts", tmp_path, seed=1)[3]
    second = quick("verdicts", tmp_path, seed=2)[3]
    assert first["outputs"] == second["outputs"]
    assert sorted(first["order"]) == sorted(second["order"])
    assert first["order"] != second["order"]


def test_exact_counts_repeat_between_traced_runs(tmp_path):
    first = quick("verdicts", tmp_path, seed=1, trace=1)[3]["metrics"]
    second = quick("verdicts", tmp_path, seed=2, trace=1)[3]["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] > 0
        assert first[name]["value"] == second[name]["value"], name


def test_a_budget_override_does_not_reach_the_program(tmp_path):
    env = dict(os.environ, DBLNERVE_BUDGET="10")
    out = tmp_path / "budget.json"
    code, _, stderr = bench("--workload", "nerve-sweep", "--seed", "1", "--quick",
                            "--out", str(out), env=env)
    assert code == 0, stderr
    assert json.loads(out.read_text())["budgets"] == [1000000]
    code, _, stderr = bench("--workload", "verdicts", "--seed", "1", "--setup-only",
                            env=env, script=HERE / "workloads.py")
    assert code != 0 and "DBLNERVE_BUDGET" in stderr


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    code, stdout, _ = bench("--workload", "verdicts", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert code != 0
    assert stdout == ""
