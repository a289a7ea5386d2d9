"""One process of a benchmark run: set-up, then rounds of operations.

    python3 perfbench/workloads.py --workload NAME --seed N [--rounds R]
                                   [--seconds S] [--trace] [--quick]
                                   [--setup-only] [--answers FILE]

`run.py` starts this script in a fresh process for the measured rounds and
for every set-up sample, and reads the JSON object it prints on its last
line.

Set-up is import, corpus loading and validation, and fixture construction.
A round runs every operation of the workload once, one at a time (a closed
loop with one client), in an order drawn from the seed, and checks each
output against the known answers in `answers.json`.  Rounds repeat until
there have been R of them and S seconds have passed.  An operation that
exceeds the budget as pinned runs in the first round only: it spends the
same fixed budget of candidates every time, several seconds of it.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = "corpus"
ANSWERS = HERE / "answers.json"
GOLDEN = HERE / "golden"
BUDGET_VARIABLE = "DBLNERVE_BUDGET"

DOUBLES = ("free-square", "h-iso", "hsim-iso", "hsim-arrow", "parallel-squares",
           "square-boundary", "point-double")
TWOS = ("iso", "arrow")
GRID = [(m, k, n) for m in range(3) for k in range(3) for n in range(3)]
# Four hsim-iso levels exceed the default budget: (1,2,2), (2,1,2), (2,2,1)
# and (2,2,2).  Each spends the whole budget of 10^6 candidates before it
# fails, 5 to 10 s on a two-vCPU Xeon virtual machine, which is most of a
# round and the least steady part of it.  The sweep keeps (1,2,2), whose
# count an enumeration with a raised budget has confirmed, and leaves out
# the other three so that a run stays within about a minute.
SKIPPED_LEVELS = {("hsim-iso", (2, 1, 2)), ("hsim-iso", (2, 2, 1)), ("hsim-iso", (2, 2, 2))}
# k = 4 on free-square is left out: at about 5 s it alone would be half of
# a verdicts round.
SEGAL = [(name, k) for name in ("h-iso", "free-square", "hsim-iso", "hsim-arrow")
         for k in range(4)] + [("h-iso", 4), ("hsim-arrow", 4)]
MAP_FILES = {"h-iso-to-hsim": ("h-iso", "hsim-iso"),
             "square-to-point": ("free-square", "point-double")}

# The README's CLI commands over corpus/, as (name, argv).
CLI_SCRIPT = [
    ("validate", ["validate", "corpus/hsim-iso.json"]),
    ("whi-check", ["whi-check", "corpus/hsim-iso.json"]),
    ("whi-check-square", ["whi-check", "corpus/free-square.json", "--square", "s"]),
    ("weak-inverse", ["weak-inverse", "corpus/hsim-iso.json",
                      "--square", "i:ae[xy,yx,id2:id:x,id2:id:y]",
                      "--data", '{"top": ["idh:x", "idh:x", "ee:x", "ee:x"], '
                                '"bottom": ["idh:y", "idh:y", "ee:y", "ee:y"]}']),
    ("whi-invariant", ["whi-invariant", "corpus/h-iso.json"]),
    ("tfib", ["tfib", "corpus/h-iso.json", "corpus/hsim-iso.json", "corpus/h-iso-to-hsim.map.json"]),
    ("rlp", ["rlp", "corpus/free-square.json", "corpus/point-double.json",
             "corpus/square-to-point.map.json", "--set", "I"]),
    ("bieq", ["bieq", "corpus/iso.json", "corpus/point.json", "perfbench/data/iso-to-point.map.json"]),
    ("dbl-bieq", ["dbl-bieq", "corpus/h-iso.json", "corpus/hsim-iso.json",
                  "corpus/h-iso-to-hsim.map.json"]),
    ("nerve-compare", ["nerve", "corpus/free-square.json", "--m", "1", "--k", "1", "--n", "0",
                       "--compare"]),
    ("nerve-list", ["nerve", "corpus/hsim-iso.json", "--m", "1", "--k", "1", "--n", "1", "--list"]),
    ("nerve2-retract", ["nerve2", "corpus/iso.json", "--variant", "h", "--m", "0", "--k", "1",
                        "--n", "0", "--compare-retract"]),
    ("nerve2-hsim", ["nerve2", "corpus/iso.json", "--variant", "hsim", "--m", "0", "--k", "1",
                     "--n", "0"]),
    ("fibrancy-h-iso", ["fibrancy", "corpus/h-iso.json"]),
    ("fibrancy-hsim-iso", ["fibrancy", "corpus/hsim-iso.json"]),
    ("segal", ["segal", "corpus/hsim-iso.json", "--k", "2"]),
    ("shapes-emit", ["shapes", "emit", "--family", "inverted", "--n", "2"]),
]


def level_name(level):
    return ",".join(str(x) for x in level)


def child_env():
    """The environment of every process the benchmark starts: the
    checkout's sources on the path and no budget override."""
    env = {key: value for key, value in os.environ.items() if key != BUDGET_VARIABLE}
    env["PYTHONPATH"] = str(SRC)
    return env


# -- fixtures ------------------------------------------------------------------


def load_fixtures(workload):
    """Corpus loading, validation and fixture construction for a workload."""
    if workload == "cli-session":
        return {}
    import dblnerve as api

    fx = {"dbl": {name: api.load_path(f"{CORPUS}/{name}.json") for name in DOUBLES},
          "two": {name: api.load_path(f"{CORPUS}/{name}.json") for name in TWOS}}
    if workload == "verdicts":
        fx["functors"] = functor_set(api, fx)
    return fx


def functor_set(api, fx):
    """Identities, collapses to the point, the corpus maps and the h→hsim inclusion."""
    dbl = fx["dbl"]
    point = dbl["point-double"]
    functors = {}
    for name, d in dbl.items():
        functors[f"identity:{name}"] = api.validate_double_functor(
            d, d, {a: a for a in d.objects}, {f: f for f in d.hmors},
            {u: u for u in d.vmors}, {s: s for s in d.squares})
        if name != "point-double":
            functors[f"to-point:{name}"] = api.validate_double_functor(
                d, point, {a: "0" for a in d.objects}, {f: point.idh["0"] for f in d.hmors},
                {u: point.idv["0"] for u in d.vmors}, {s: point.squares[0] for s in d.squares})
    for map_name, (src, tgt) in MAP_FILES.items():
        with open(f"{CORPUS}/{map_name}.map.json", encoding="utf-8") as handle:
            maps = json.load(handle)
        functors[f"map:{map_name}"] = api.validate_double_functor(
            dbl[src], dbl[tgt], maps.get("objects", {}), maps.get("hmor", {}),
            maps.get("vmor", {}), maps.get("squares", {}))
    iso = fx["two"]["iso"]
    h, hsim = api.horizontal_embed(iso), api.equivalence_embed(iso)
    unit = {a: hsim.idv[a] for a in iso.objects}
    functors["inclusion:h-to-hsim"] = api.validate_double_functor(
        h, hsim, {a: a for a in h.objects}, {f: f for f in h.hmors},
        {u: unit[h.vsrc[u]] for u in h.vmors},
        {s: hsim.square_by_data[(h.stop[s], h.sbottom[s], unit[iso.one_src[h.stop[s]]],
                                 unit[iso.one_tgt[h.stop[s]]], s)] for s in h.squares})
    return functors


# -- operations ----------------------------------------------------------------
#
# Each of these returns a list of (name, quick, call).  `call` runs one
# operation through the public API and returns its output as plain JSON
# data; `quick` marks the small slice that --quick runs.


def nerve_sweep_ops(fx):
    import dblnerve as api
    from dblnerve.nerve import ORACLE_GRID

    ops = []
    for name, d in fx["dbl"].items():
        for level in GRID:
            if (name, level) in SKIPPED_LEVELS:
                continue
            ops.append((f"level:{name}:{level_name(level)}", sum(level) <= 2,
                        lambda d=d, level=level: api.dbl_nerve_level(d, *level).count()))
        for level in sorted(ORACLE_GRID):
            def compare(d=d, level=level):
                oracle = api.dbl_nerve_oracle(d, *level)
                generic = api.dbl_nerve_level(d, *level)
                return {"count": oracle.count(), "agree": oracle.elements == generic.elements}
            ops.append((f"oracle:{name}:{level_name(level)}", sum(level) <= 1, compare))
    for name, cat in fx["two"].items():
        for level in GRID:
            def maps(cat=cat, level=level):
                result = api.comparison_maps(cat, *level)
                return {"count": result["base"].count(), "retract": result["retract"],
                        "injective": result["injective"]}
            ops.append((f"comparison:{name}:{level_name(level)}", sum(level) <= 2, maps))
            ops.append((f"two-nerve:{name}:{level_name(level)}", sum(level) <= 2,
                        lambda cat=cat, level=level:
                        api.two_nerve_level(cat, "h", *level, check_bijection=True).count()))
    return ops


def verdicts_ops(fx):
    import dblnerve as api
    from dblnerve.nerve import inclusion_chain_to_invertible

    dbl = fx["dbl"]
    ops = []
    for name, k in SEGAL:
        ops.append((f"segal:{name}:{k}", k <= 2,
                    lambda d=dbl[name], k=k: list(api.segal_tfib_check(d, k))))
    for name, d in dbl.items():
        def pseudo(d=d):
            ph = api.pseudo_hom(dbl["free-square"], d)
            reports = [api.hpnt_equivalence_report(ph, t) for t in sorted(ph.transformations)]
            return {"functors": len(ph.functors), "transformations": len(ph.transformations),
                    "equivalences": sum(1 for by_def, _ in reports if by_def),
                    "reports_agree": all(by_def == all_whi for by_def, all_whi in reports)}
        ops.append((f"pseudo-hom:{name}", name != "hsim-iso", pseudo))
    for k in (2, 3, 4):
        ops.append((f"dbl-bieq:chain-{k}", k == 2,
                    lambda k=k: list(api.is_double_biequivalence(inclusion_chain_to_invertible(k)))))
    for name, functor in fx["functors"].items():
        def lifting(functor=functor):
            tfib = api.is_trivial_fibration(functor)[0]
            rlp = {j: api.has_rlp(functor, m)[0]
                   for j, m in sorted(api.generating_cofibrations_dbl().items())}
            return {"tfib": tfib, "rlp": rlp, "agree": tfib == all(rlp.values())}
        ops.append((f"tfib-rlp:{name}", True, lifting))
    for name, d in dbl.items():
        ops.append((f"fibrancy:{name}", True,
                    lambda d=d: list(api.fibrancy_vertical_check(d))))
        ops.append((f"whi-squares:{name}", True, lambda d=d: sorted(api.whi_squares(d))))

        def inverses(d=d):
            adjoint = [e for e in api.horizontal_equivalences(d) if e.adjoint]
            out = {}
            for alpha in sorted(api.whi_squares(d)):
                top = next((e for e in adjoint if e.f == d.stop[alpha]), None)
                bottom = next((e for e in adjoint if e.f == d.sbottom[alpha]), None)
                if top is not None and bottom is not None:
                    out[alpha] = api.weak_inverse(d, alpha, top, bottom)
            return out
        ops.append((f"weak-inverse:{name}", True, inverses))
    return ops


def cli_ops(fx, trace_dir=None):
    ops = []
    for name, argv in CLI_SCRIPT:
        def call(name=name, argv=argv):
            if trace_dir is None:
                cmd = [sys.executable, "-m", "dblnerve.cli", *argv]
            else:
                spans = Path(trace_dir) / f"{name}-{time.perf_counter_ns()}.json"
                cmd = [sys.executable, str(HERE / "cli_boot.py"), str(spans), *argv]
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True)
            return {"exit": proc.returncode, "stdout": proc.stdout}
        ops.append((f"cli:{name}", True, call))
    return ops


OPS = {"nerve-sweep": nerve_sweep_ops, "verdicts": verdicts_ops, "cli-session": cli_ops}


# -- checking --------------------------------------------------------------------


def load_answers(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check(name, output, answers):
    """Whether an output matches its known answer, and the output as recorded."""
    if name.startswith("cli:"):
        golden = (GOLDEN / f"{name[4:]}.out").read_bytes()
        expected = answers["ops"][name]
        ok = output["exit"] == expected["exit"] and output["stdout"] == golden
        return ok, {"exit": output["exit"],
                    "stdout_sha256": hashlib.sha256(output["stdout"]).hexdigest()}
    output = json.loads(json.dumps(output))
    return output == answers["ops"][name], output


class Reference:
    """Gauges how fast the machine runs by timing a fixed piece of
    pure-Python dictionary and tuple work that does not use dblnerve: before
    an operation when the last sample is stale, every TICK seconds while an
    operation runs (from a timer signal, with the sample's own time left out
    of the operation's), and after a long operation.

    Each operation's time is also reported in multiples of the samples
    around it: each stretch between two samples is divided by their mean.
    A slowdown of the whole machine stretches both, so the ratio stays
    steady where the seconds do not.  The samples are local because the
    slowdowns come and go within seconds, also within one operation.  A
    sample is the fastest of three timings, because an interruption only
    ever lengthens one.  The keys are integer tuples, whose hashes, unlike
    those of strings, are the same in every process.
    """

    SIZE = 10_000
    REPEAT = 3
    INTERVAL = 0.2  # seconds after which the last sample is stale
    TICK = 0.5  # seconds between samples while an operation runs

    def __init__(self, during):
        self.taken = None
        self.samples = []
        self.during = during
        self.block = None  # [started, seconds spent sampling, marks] of the running operation
        if during:
            signal.signal(signal.SIGALRM, self._tick)

    def measure(self):
        timings = []
        for _ in range(self.REPEAT):
            started = time.perf_counter()
            table = {}
            for i in range(self.SIZE):
                key = (i % 97, i * 7 % 13)
                table[key] = table.get(key, 0) + 1
            for i in range(self.SIZE):
                table.get((i % 97, i * 7 % 13))
            sorted(table.items())
            self.taken = time.perf_counter()
            timings.append(self.taken - started)
        self.samples.append(min(timings))

    def sample(self):
        if self.taken is None or time.perf_counter() - self.taken > self.INTERVAL:
            self.measure()

    def _tick(self, _signum, _frame):
        block = self.block
        if block is None:
            return
        started = time.perf_counter()
        self.measure()
        block[2].append((started - block[0] - block[1], self.samples[-1]))
        block[1] += time.perf_counter() - started

    @contextlib.contextmanager
    def timing(self):
        """Times the block without the samples taken during it.  Yields a
        dict that receives `seconds` and `marks`: each sample taken during
        the block, with the block's own seconds when it was taken."""
        clock = {"marks": []}
        self.block = [time.perf_counter(), 0.0, clock["marks"]]
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, self.TICK, self.TICK)
        try:
            yield clock
        finally:
            if self.during:
                signal.setitimer(signal.ITIMER_REAL, 0)
            block, self.block = self.block, None
            clock["seconds"] = time.perf_counter() - block[0] - block[1]


def reference_over(seconds, points):
    """The reference that makes `seconds` its integral over the samples
    `points`, pairs of (seconds into the operation, sample)."""
    ratio = sum((t1 - t0) / ((r0 + r1) / 2) for (t0, r0), (t1, r1) in zip(points, points[1:]))
    return seconds / ratio if ratio > 0 else (points[0][1] + points[-1][1]) / 2


def run_rounds(ops, seed, rounds, seconds, answers, recorder, budget_error, during):
    """Run the operations round after round; return one record per execution.
    `during` says whether to sample the reference while an operation runs."""
    rng = random.Random(seed)
    reference = Reference(during)
    refused = set()
    pending = []
    started = time.perf_counter()
    done = 0
    while done < rounds or time.perf_counter() - started < seconds:
        order = list(range(len(ops)))
        rng.shuffle(order)
        for name, _quick, call in (ops[i] for i in order):
            if name not in refused:
                reference.sample()
                before = reference.samples[-1]
                execution, marks = execute(name, call, answers, recorder, budget_error,
                                           reference)
                if execution["seconds"] > reference.INTERVAL:
                    reference.measure()
                # The sample after the operation is the next one taken.
                pending.append((dict(execution, round=done), [(0.0, before)] + marks,
                                len(reference.samples)))
                if execution["status"] == "budget_exceeded":
                    refused.add(name)
        done += 1
    reference.measure()
    return [dict(execution, reference=reference_over(
                execution["seconds"],
                points + [(execution["seconds"], reference.samples[after])]))
            for execution, points, after in pending]


def execute(name, call, answers, recorder, budget_error, reference):
    # Every operation starts from a collected heap: garbage an earlier
    # operation left in reference cycles would otherwise be collected, and
    # held in memory, at a point that depends on the seed's order.
    gc.collect()
    error = None
    with reference.timing() as clock:
        try:
            if recorder is None:
                output = call()
            else:
                with recorder.span(f"op:{name}"):
                    output = call()
        except budget_error:
            output, status = None, "budget_exceeded"
        except Exception as exc:  # every other exception is a failed operation
            output, status, error = None, "error", f"{type(exc).__name__}: {exc}"
        else:
            status = "ok"
    if status == "ok":
        ok, output = check(name, output, answers)
        status = "ok" if ok else "wrong"
    elif status == "budget_exceeded" and name not in answers["exceeds_budget_at_seed"]:
        status = "unexpected_budget_exceeded"
    return {"name": name, "status": status, "seconds": clock["seconds"], "output": output,
            "error": error}, clock["marks"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--answers", default=str(ANSWERS))
    args = parser.parse_args(argv)

    if BUDGET_VARIABLE in os.environ:
        raise SystemExit(f"refusing to run: {BUDGET_VARIABLE} is set in this process")
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import dblnerve
    if args.workload == "cli-session":
        import dblnerve.cli  # noqa: F401  (the import is the cli-session set-up)
    if Path(dblnerve.__file__).resolve().parent != SRC / "dblnerve":
        raise SystemExit(f"imported dblnerve from {dblnerve.__file__}, not from {SRC}")
    from dblnerve.errors import BudgetExceeded
    from dblnerve.presentation import DEFAULT_BUDGET

    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Recorder()
        if args.workload != "cli-session":
            tracer.install(recorder)
    if recorder is None:
        fixtures = load_fixtures(args.workload)
    else:
        with recorder.span("setup"):
            fixtures = load_fixtures(args.workload)
    setup_s = time.perf_counter() - STARTED
    result = {"setup_s": setup_s, "budget": DEFAULT_BUDGET}
    if not args.setup_only:
        trace_dir = None
        if args.trace and args.workload == "cli-session":
            trace_dir = HERE / "results" / f"cli-spans-{os.getpid()}"
            trace_dir.mkdir(parents=True)
        ops = (cli_ops(fixtures, trace_dir) if args.workload == "cli-session"
               else OPS[args.workload](fixtures))
        if args.quick:
            ops = [op for op in ops if op[1]]
        # No reference samples while a traced operation runs, where they would
        # count in its spans, nor while a CLI child process runs, which goes
        # on working while the sample is timed.
        during = recorder is None and args.workload != "cli-session"
        result["executions"] = run_rounds(ops, args.seed, args.rounds, args.seconds,
                                          load_answers(args.answers), recorder, BudgetExceeded,
                                          during)
        if trace_dir is not None:
            result["children"] = []
            for path in sorted(trace_dir.iterdir()):
                result["children"].append(json.loads(path.read_text()))
                path.unlink()
            trace_dir.rmdir()
        elif recorder is not None:
            result["children"] = [{"spans": recorder.records(), "counts": recorder.counts}]
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    main()
