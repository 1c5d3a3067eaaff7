"""Benchmark harness for the tautilt CLI.

Run from the repository root:

    python3 perfbench/run.py --workload nak6-nu-stable --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, a table
    python3 perfbench/run.py --selfcheck --seed 1    # generator and determinism

One caller drives tautilt in a closed loop with one thread.  Every pass of a
workload is a fresh Python process (child.py) that calls
``tautilt.cli.main(argv)`` for each argv of the workload's plan; passes
repeat while the next one, taking as long as the last, still ends within
--seconds; there is always at least one.  Every output is checked
against an answer known in advance, and each miss counts as a failed
operation.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall time of one pass, process start to exit
  setup_s      median wall time of a fresh process that imports tautilt.cli
               and parses the workload's algebra file (7 processes)
  peak_rss_mb  peak resident memory of a pass process, largest over passes
  call_p50_ms  median in-process latency of one tautilt.cli.main call
  call_p90_ms  90th percentile of the same
--trace 1 runs one untraced pass and one traced pass, checks that their
stdout is byte-identical, and reports the per-layer metrics of tracer.py
plus trace.overhead_ratio (traced pass wall / untraced pass wall).
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import algebras  # noqa: E402
import tracer  # noqa: E402

DATA = Path("tests") / "data"
NAKAYAMA6 = DATA / "nakayama6.alg"
GOLDEN = DATA / "nakayama6_nu_stable_golden.json"
PREPROJ_A4 = WORK.relative_to(ROOT) / "preproj_a4.alg"
SETUP_PROCESSES = 7
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "call_p50_ms": "ms", "call_p90_ms": "ms"}


# algebra: the file set-up parses; plan(seed): [(argv, expected)];
# gate(call, expected): what is wrong with a call's output, or None
Workload = namedtuple("Workload", "algebra plan gate")


def _flag_and_entries(call):
    if call["exit"] != 0:
        return None, f"exit {call['exit']}: {call['stderr'].strip()[-200:]}"
    doc = json.loads(call["stdout"])
    if doc["flag"] != "COMPLETE":
        return None, f"flag {doc['flag']}"
    return doc["entries"], None


def _pair_key(entry):
    return (tuple(sorted(entry["modules"])),
            tuple(entry["projective_vertices"]))


def _nu_stable_plan(seed):
    return [(["enumerate", str(NAKAYAMA6), "--filter", "nu-stable",
              "--seed", str(seed)], None)]


def _nu_stable_gate(call, _expected):
    entries, why = _flag_and_entries(call)
    if why:
        return why
    golden = json.loads((ROOT / GOLDEN).read_text(encoding="utf-8"))
    if sorted(map(_pair_key, entries)) != sorted(map(_pair_key,
                                                     golden["entries"])):
        return "nu-stable pairs differ from the golden file"
    return None


def _preproj_plan(seed):
    return [(["enumerate", str(PREPROJ_A4), "--filter", "silting",
              "--seed", str(seed)], None)]


def _preproj_gate(call, _expected):
    entries, why = _flag_and_entries(call)
    if why:
        return why
    if len(entries) != 120:  # (4+1)! support tau-tilting modules (Mizuno)
        return f"{len(entries)} entries, expected 5! = 120"
    if any(e["tilting"] != e["nu_stable"] for e in entries):
        return "an entry has tilting != nu_stable"
    return None


def _turn(v):
    """Vertex v of nakayama6 turned three steps round the cycle; this is
    also its Nakayama permutation (1 4)(2 5)(3 6)."""
    return (v + 2) % 6 + 1


def _turn_expr(text):
    """A nakayama6 module expression turned three steps: P(i), S(i) and
    arrow ai go to P(i+3), S(i+3) and a(i+3)."""
    return re.sub(r"\d+", lambda m: str(_turn(int(m.group()))), text)


def _orbits(items, turn):
    """items as pairs {x, turn(x)}, in order of first appearance."""
    out = []
    for x in items:
        if turn(x) not in items:
            raise ValueError(f"golden pair not closed under the turn at {x}")
        if not any(x in orbit for orbit in out):
            out.append((x, turn(x)))
    return out


def sweep_calls(seed):
    """(argv, expected) for the check sweep over nakayama6: 125 calls.

    Each golden nu-stable pair is checked as given.  Its summands come in
    orbits of two under the turn.  For each orbit, one seeded member is
    dropped: the pair stays tau-rigid but is no longer support
    tau-tilting.  For each orbit of module summands, one seeded member is
    repeated: the module part is no longer basic.  The nu-stable flag is
    about the module part only, and no indecomposable is fixed by the
    turn, so it stays true exactly when a projective vertex was dropped.
    The turn is an automorphism of the algebra, so the seed changes which
    calls run but not how much work they do."""
    rng = random.Random(seed)
    golden = json.loads((ROOT / GOLDEN).read_text(encoding="utf-8"))
    calls = []

    def add(mods, pverts, basic, stt, stable):
        argv = ["check", str(NAKAYAMA6), "+".join(mods) or "0",
                "--pverts", ",".join(map(str, pverts)),
                "--require", "support-tau-tilting,nu-stable", "--json"]
        calls.append((argv, {"exit": 0 if stt and stable else 1,
                             "basic": basic, "tau-rigid": True,
                             "support-tau-tilting": stt,
                             "nu-stable": stable}))

    for entry in golden["entries"]:
        mods, pverts = entry["modules"], entry["projective_vertices"]
        add(mods, pverts, True, True, True)
        for orbit in _orbits(mods, _turn_expr):
            x = rng.choice(orbit)
            add([m for m in mods if m != x], pverts, True, False, False)
            add(mods + [rng.choice(orbit)], pverts, False, False, False)
        for orbit in _orbits(pverts, _turn):
            v = rng.choice(orbit)
            add(mods, [u for u in pverts if u != v], True, False, True)
    rng.shuffle(calls)
    return calls


def _sweep_gate(call, expected):
    if call["exit"] != expected["exit"]:
        return f"exit {call['exit']}, expected {expected['exit']}"
    doc = json.loads(call["stdout"])
    got = dict(doc["flags"], basic=doc["basic"])
    wrong = [k for k in expected if k != "exit" and got[k] != expected[k]]
    return f"flags {wrong} differ" if wrong else None


WORKLOADS = {
    "nak6-nu-stable": Workload(NAKAYAMA6, _nu_stable_plan, _nu_stable_gate),
    "preproj-a4-silting": Workload(PREPROJ_A4, _preproj_plan, _preproj_gate),
    "nak6-check-sweep": Workload(NAKAYAMA6, sweep_calls, _sweep_gate),
}


# -- processes -------------------------------------------------------------------


class SetupError(Exception):
    """A fresh process could not import tautilt and parse the algebra."""


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return max(1.0, self.end - time.monotonic())


def _child(args, deadline):
    """Run child.py; (wall seconds, report or None, error text)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return time.perf_counter() - start, None, "timed out"
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        return wall, None, f"child exit {proc.returncode}: {err.strip()[-300:]}"
    return wall, json.loads(out), ""


def run_pass(argvs, deadline, trace=False):
    fd, plan = tempfile.mkstemp(suffix=".json", dir=WORK)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(argvs, fh)
        args = ["calls", plan] + (["--trace"] if trace else [])
        return _child(args, deadline)
    finally:
        os.unlink(plan)


def gate_pass(workload, report, expected):
    """Messages for every call of a pass whose output is wrong."""
    misses = []
    for call, want in zip(report["calls"], expected):
        try:
            why = workload.gate(call, want)
        except (ValueError, KeyError, TypeError) as exc:
            why = f"unreadable output ({exc!r})"
        if why:
            misses.append(f"{' '.join(call['argv'][:3])}: {why}")
    return misses


def percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# -- inputs and environment ----------------------------------------------------


def preflight():
    """Names of inputs missing from this checkout."""
    needed = [Path("src") / "tautilt" / "cli.py", NAKAYAMA6, GOLDEN]
    return [str(p) for p in needed if not (ROOT / p).is_file()]


def prepare_inputs():
    WORK.mkdir(exist_ok=True)
    target = WORK / "preproj_a4.alg"
    text = algebras.preprojective(4)
    if not target.is_file() or target.read_text(encoding="utf-8") != text:
        tmp = target.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, target)


def environment(inputs):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "nproc": os.cpu_count(),
        "inputs_sha256": {str(p): hashlib.sha256(
            (ROOT / p).read_bytes()).hexdigest() for p in inputs},
    }


# -- runs ------------------------------------------------------------------------


def measure(workload, seed, seconds, deadline):
    """--trace 0: (attempted, failed, misses, metrics, samples)."""
    setups = []
    for _ in range(SETUP_PROCESSES):
        wall, report, err = _child(["setup", str(workload.algebra)], deadline)
        if report is None:
            raise SetupError(err)
        setups.append(wall)
    calls = workload.plan(seed)
    argvs = [argv for argv, _ in calls]
    expected = [want for _, want in calls]
    walls, latencies, rss, misses, attempted, failed = [], [], [], [], 0, 0
    start = time.monotonic()
    while not walls or time.monotonic() - start + walls[-1] <= seconds:
        wall, report, err = run_pass(argvs, deadline)
        attempted += len(argvs)
        if report is None:
            misses.append(f"pass failed: {err}")
            failed += len(argvs)
            break
        walls.append(wall)
        latencies += [c["seconds"] for c in report["calls"]]
        rss.append(report["peak_rss_mb"])
        pass_misses = gate_pass(workload, report, expected)
        misses += pass_misses
        failed += len(pass_misses)
    metrics = {}
    if walls:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(rss),
            "call_p50_ms": percentile(latencies, 0.5) * 1000,
            "call_p90_ms": percentile(latencies, 0.9) * 1000,
        }
    samples = {"passes": len(walls), "calls": len(latencies),
               "setup_processes": len(setups), "pass_walls_s": walls}
    return attempted, failed, misses, metrics, samples


def measure_traced(workload, seed, deadline):
    """--trace 1: (attempted, failed, misses, metrics, samples)."""
    calls = workload.plan(seed)
    argvs = [argv for argv, _ in calls]
    expected = [want for _, want in calls]
    plain_wall, plain, err = run_pass(argvs, deadline)
    if plain is None:
        return len(argvs), len(argvs), [f"untraced pass failed: {err}"], {}, {}
    traced_wall, traced, err = run_pass(argvs, deadline, trace=True)
    if traced is None:
        why = f"traced pass failed: {err}"
        return 2 * len(argvs), len(argvs), [why], {}, {}
    misses = gate_pass(workload, plain, expected)
    misses += gate_pass(workload, traced, expected)
    for a, b in zip(plain["calls"], traced["calls"]):
        if a["stdout"] != b["stdout"]:
            misses.append(f"{' '.join(a['argv'][:3])}: stdout changed "
                          "under tracing")
    metrics = dict(traced["trace"])
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    samples = {"passes": 2, "calls": 2 * len(argvs),
               "pass_walls_s": [plain_wall, traced_wall]}
    return 2 * len(argvs), len(misses), misses, metrics, samples


def per_layer_units():
    return {name: tracer.unit_of(name)
            for name in tracer.metric_names() + ["trace.overhead_ratio"]}


def run_workload(name, seed, seconds, trace):
    """(result line, details) for one run of one workload."""
    workload = WORKLOADS[name]
    deadline = Deadline(DEADLINE_S)
    prepare_inputs()
    if trace:
        attempted, failed, misses, values, samples = measure_traced(
            workload, seed, deadline)
        units = per_layer_units()
    else:
        attempted, failed, misses, values, samples = measure(
            workload, seed, seconds, deadline)
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]}
               for k in units if k in values}
    result = {"correct": failed == 0 and len(metrics) == len(units),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    details = {"workload": name, "seed": seed, "trace": trace,
               "samples": samples, "fail_ratio": failed / attempted,
               "misses": misses[:10],
               "env": environment([workload.algebra])}
    return result, details


def print_table(rows):
    """rows: (workload, details, result) for --all."""
    print(f"{'workload':<20} {'metric':<12} {'value':>12}  unit")
    for name, details, result in rows:
        for metric, m in result["metrics"].items():
            print(f"{name:<20} {metric:<12} {m['value']:>12.4f}  {m['unit']}")
        print(f"{name:<20} {'fail_ratio':<12} {details['fail_ratio']:>12.4f}"
              f"  {result['failed']}/{result['attempted']}")
        print(f"{name:<20} {'samples':<12} {json.dumps(details['samples'])}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload once and print a table")
    parser.add_argument("--selfcheck", action="store_true",
                        help="check the generator and the determinism gates")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = preflight()
    if missing:
        print("error: this checkout lacks " + ", ".join(missing),
              file=sys.stderr)
        return 2
    if args.selfcheck:
        import selfcheck

        return selfcheck.main(args.seed, args.workload)
    if not (args.all or args.workload):
        parser.error("give --workload, --all or --selfcheck")
    rows = []
    for name in WORKLOADS if args.all else [args.workload]:
        try:
            result, details = run_workload(name, args.seed, args.seconds,
                                           args.trace)
        except SetupError as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 3
        rows.append((name, details, result))
    if not args.all:
        print(json.dumps(details))
        print(json.dumps(result))
        return 0
    print_table(rows)
    print(json.dumps({"runs": [dict(d, result=r) for _, d, r in rows]}))
    return 0 if all(r["correct"] for _, _, r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
