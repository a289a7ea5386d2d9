"""The dblnerve benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                             [--quick] [--answers FILE] [--out FILE]

Without --workload it runs every workload in turn.  The measured rounds and
each set-up sample run in fresh child processes (`workloads.py`), started with
the checkout's `src/` on the path and with DBLNERVE_BUDGET removed from its
environment, so every run uses the default budget.

--trace 0 measures the end-to-end metrics in one process that runs the
workload's rounds (and more, until --seconds have passed); set-up is
sampled nine times.  Operation times are reported in seconds and in
multiples of a reference computation timed around them in the same process
(`wall_ref`, see workloads.Reference).  --trace 1 runs one untraced and one traced round, each
in its own process, and reports the per-layer metrics from the traced one.

Every metric is printed as `workload  name  value  unit`.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  A full record, with the environment, every operation's
output and, for --trace 1, every span, goes to --out (default
perfbench/results/<workload>-seed<N>-trace<T>.json).  The exit code is 0
when every output matched its known answer, 1 when one did not, and 2 when
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import ANSWERS, ROOT, SRC, child_env  # noqa: E402

WORKLOADS = ("nerve-sweep", "verdicts", "cli-session")
SETUP_SAMPLES = 9
# Rounds of a measured run.  On a shared two-vCPU virtual machine every
# process slowed down by up to twofold for seconds at a time, so `wall_ref`
# takes each operation's median ratio to the reference timed around it, over
# several rounds where a round is short.  A nerve-sweep round is long enough
# on its own.  cli-session makes six rounds of 17 CLI calls, so that its p90
# has at least ten calls above it.
ROUNDS = {"nerve-sweep": 1, "verdicts": 5, "cli-session": 6}
# Statuses that mean the program gave a wrong answer or failed unexpectedly.
# An operation pinned in answers.json as exceeding the default budget may
# raise BudgetExceeded instead of returning its pinned count; that counts
# toward fail_ratio but is the program's documented refusal, not a fault.
FAILED = ("wrong", "error", "unexpected_budget_exceeded")

# The per-layer table: spans reported with their call counts, and spans
# reported with their self time.
LAYER_CALLS = [
    "presentation.enumerate_functors", "presentation.precompose", "presentation.has_rlp",
    "tensor.x_presentation", "tensor.lx_presentations", "tensor.level_map",
    "pseudohom.pseudo_hom", "pseudohom.enumerate_double_functors_concrete",
    "twocat.check_two_category_laws", "twocat.is_trivial_fibration_two",
    "whi.whi_squares", "whi.is_whi_square", "whi.horizontal_equivalences", "whi.weak_inverse",
]
LAYER_SELF = LAYER_CALLS + [
    "expr.evaluate",
    "nerve.dbl_nerve_level", "nerve.dbl_nerve_oracle", "nerve.comparison_maps",
    "nerve.two_nerve_level", "nerve.segal_tfib_check", "nerve.fibrancy_vertical_check",
    "dblcat.validate_double_category", "dblcat.equivalence_embed", "dblcat.horizontal_embed",
    "io.load_path", "io.serialize", "io.dump",
    "shapes.generating_cofibrations_dbl", "shapes.v_oriental_inv",
    "cli.main",
]
MODULES = ("cat", "twocat", "dblcat", "whi", "presentation", "pseudohom", "shapes",
           "tensor", "nerve", "io", "expr", "standard", "cli")


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit(), "seed": seed}


def commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args):
    """Run workloads.py in a fresh process; return its result and peak RSS in MB."""
    proc = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), *args],
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchmarkError(f"workload process {args} exited with {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1]), usage.ru_maxrss / 1024.0


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def in_reference(executions):
    """Each operation's median execution time in multiples of the reference
    timed around it.  The median, not the fastest: the fastest ratio would
    pick the rounds whose reference sample ran slow."""
    ratios = {}
    for e in executions:
        ratios.setdefault(e["name"], []).append(e["seconds"] / e["reference"])
    return {name: statistics.median(values) for name, values in ratios.items()}


def fastest(executions):
    """Each operation's fastest execution time in seconds."""
    out = {}
    for e in executions:
        out[e["name"]] = min(out.get(e["name"], e["seconds"]), e["seconds"])
    return out


def run_workload(name, seed, seconds, trace, quick, answers):
    base = ["--workload", name, "--seed", str(seed), "--answers", str(answers)]
    if quick:
        base.append("--quick")
    # Half of the extra set-up samples are taken before the measured
    # process and half after it, so that they span the run.
    extra = 0 if trace or quick else SETUP_SAMPLES - 1
    setups = [spawn(base + ["--setup-only"])[0]["setup_s"] for _ in range(extra // 2)]
    if trace:
        runs = [spawn(base)[0], spawn(base + ["--trace"])[0]]
    else:
        rounds = 1 if quick else ROUNDS[name]
        measured, peak_mb = spawn(base + ["--rounds", str(rounds),
                                          "--seconds", str(0 if quick else seconds)])
        runs = [measured]
    setups += [run["setup_s"] for run in runs]
    setups += [spawn(base + ["--setup-only"])[0]["setup_s"] for _ in range(extra - extra // 2)]

    executions = [e for run in runs for e in run["executions"]]
    failed = [e for e in executions if e["status"] in FAILED]
    not_ok = [e for e in executions if e["status"] != "ok"]
    first = [e for e in runs[0]["executions"] if e["round"] == 0]
    times = fastest(runs[0]["executions"])
    record = {
        "workload": name,
        "correct": not failed,
        "attempted": len(executions),
        "failed": len(failed),
        "budgets": sorted({run["budget"] for run in runs}),
        "failures": [{k: e[k] for k in ("name", "status", "error")} for e in not_ok],
        "outputs": {e["name"]: e["output"] if e["status"] == "ok" else e["status"]
                    for e in first},
        "order": [e["name"] for e in first],
        "op_seconds": times,
        "op_ref": in_reference(runs[0]["executions"]),
        "rounds": 1 + max(e["round"] for e in runs[0]["executions"]),
    }
    if trace:
        untraced, traced = runs
        record["traces"] = traced["children"]
        metrics = layer_metrics(traced["children"])
        metrics["trace.overhead_s"] = (sum(fastest(traced["executions"]).values())
                                       - sum(times.values()), "s")
    else:
        latencies = [e["seconds"] * 1000.0 for e in executions]
        metrics = {
            "wall_ref": (sum(record["op_ref"].values()), "ref"),
            "wall_s": (sum(times.values()), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "op_ms_p50": (percentile(latencies, 0.5), "ms"),
            "op_ms_p90": (percentile(latencies, 0.9), "ms"),
            "fail_ratio": (len(not_ok) / len(executions), "ratio"),
        }
        if name == "nerve-sweep":
            decided = [e for e in first if e["name"].startswith("level:") and e["status"] == "ok"]
            metrics["elements_per_s"] = (sum(e["output"] for e in decided)
                                         / sum(times[e["name"]] for e in decided), "1/s")
        if name == "cli-session":
            metrics["cli_ms_p50"] = metrics["op_ms_p50"]
            metrics["cli_ms_p90"] = metrics["op_ms_p90"]
            metrics["cli_calls"] = (len(executions), "count")
    record["metrics"] = {key: {"value": value, "unit": unit}
                         for key, (value, unit) in metrics.items()}
    return record


def layer_metrics(children):
    """The per-layer table from the traced process (or CLI processes)."""
    records = [rec for child in children for rec in child["spans"]]
    totals = tracer.layer_totals(records)
    counts = {key: sum(child["counts"][key] for child in children)
              for key in children[0]["counts"]} if children else {}

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    out = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = (calls(name), "count")
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = (self_s(name), "s")
    for module in MODULES:
        out[f"{module}.self_s"] = (sum((t["self_s"] for n, t in totals.items()
                                        if n.startswith(module + ".")), 0.0), "s")
    out["expr.evaluate.calls"] = (calls("expr.evaluate"), "count")
    for key, value in counts.items():
        out[key] = (value, "bytes" if key == "io.dump.bytes" else "count")
    candidates = counts.get("presentation.candidates", 0)
    solutions = counts.get("presentation.enumerate_functors.solutions", 0)
    out["presentation.yield"] = (solutions / candidates if candidates else 0.0, "ratio")
    out["cli.import_s"] = (sum(child.get("import_s", 0.0) for child in children), "s")
    return out


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description="The dblnerve benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one round over a small slice of each workload")
    parser.add_argument("--answers", default=str(ANSWERS))
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    if not (SRC / "dblnerve" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        sys.stderr.write(f"no dblnerve sources under {ROOT}: nothing to measure\n")
        return 2
    env = environment(args.seed)
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace, args.quick,
                                  args.answers)
            record["environment"] = env
            records.append(record)
            out = Path(args.out) if args.out and args.workload else (
                HERE / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json")
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(record, indent=1, sort_keys=True))
    except BenchmarkError as err:
        sys.stderr.write(f"benchmark failed: {err}\n")
        return 2

    print(f"# python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}, "
          f"commit {env['commit']}, seed {env['seed']}, "
          f"budget {','.join(sorted({str(b) for r in records for b in r['budgets']}))}")
    for record in records:
        for failure in record["failures"]:
            print(f"{record['workload']}  {failure['status']}: {failure['name']}"
                  + (f" ({failure['error']})" if failure["error"] else ""))
        for key, metric in record["metrics"].items():
            print(f"{record['workload']}  {key}  {metric['value']!r}  {metric['unit']}")
    wanted = declared_metrics(args.trace)
    summary = [{"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                "metrics": {key: r["metrics"][key] for key in wanted}} for r in records]
    print(json.dumps(summary[0] if args.workload else
                     {r["workload"]: s for r, s in zip(records, summary)}))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
