"""Checks of the benchmark itself, run with ``python3 perfbench/run.py
--selfcheck [--seed N] [--workload NAME]``:

- the generated Pi(A3) gives the same ``info`` output and the same 24
  silting nodes as tests/data/preproj_a3.alg, and the generated N(6, 4)
  equals tests/data/nakayama6.alg apart from comments;
- ``enumerate`` on nakayama4.alg prints the same bytes for two seeds;
- two traced passes of each workload (or of --workload) report the same
  counts, every per-layer metric that is not a time.

Prints one line per check and exits 1 if any fails.
"""

import json
from pathlib import Path

import algebras
import run

PREPROJ_A3 = Path("tests") / "data" / "preproj_a3.alg"
NAKAYAMA4 = Path("tests") / "data" / "nakayama4.alg"


def _without_comments(text):
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [line for line in lines if line]


def generator_matches(seed, deadline):
    nakayama6 = (run.ROOT / run.NAKAYAMA6).read_text(encoding="utf-8")
    if _without_comments(nakayama6) != _without_comments(algebras.nakayama(6, 4)):
        return "generated N(6, 4) differs from nakayama6.alg"
    generated = run.WORK / "preproj_a3.alg"
    generated.write_text(algebras.preprojective(3), encoding="utf-8")
    argvs = []
    for path in (PREPROJ_A3, generated.relative_to(run.ROOT)):
        argvs += [["info", str(path)],
                  ["enumerate", str(path), "--filter", "silting",
                   "--seed", str(seed)]]
    _, report, err = run.run_pass(argvs, deadline)
    if report is None:
        return f"generator check failed: {err}"
    calls = report["calls"]
    if any(c["exit"] != 0 for c in calls):
        return "info or enumerate failed on Pi(A3)"
    if calls[0]["stdout"] != calls[2]["stdout"]:
        return "info output differs between file and generated Pi(A3)"
    nodes = [json.loads(c["stdout"])["entries"] for c in calls[1::2]]
    if len(nodes[0]) != 24 or nodes[0] != nodes[1]:
        return (f"silting nodes differ: {len(nodes[0])} from the file, "
                f"{len(nodes[1])} generated, 24 expected")
    return None


def seed_independence(seed, deadline):
    """enumerate on nakayama4 must print the same bytes for two seeds."""
    argvs = [["enumerate", str(NAKAYAMA4), "--seed", str(s)]
             for s in (seed, seed + 1)]
    _, report, err = run.run_pass(argvs, deadline)
    if report is None:
        return f"nakayama4 seed check failed: {err}"
    outs = [c["stdout"] for c in report["calls"]]
    if any(c["exit"] != 0 for c in report["calls"]) or outs[0] != outs[1]:
        return "nakayama4 enumerate output depends on --seed"
    return None


def counts_repeat(name, seed, deadline):
    argvs = [argv for argv, _ in run.WORKLOADS[name].plan(seed)]
    counts = []
    for _ in range(2):
        _, report, err = run.run_pass(argvs, deadline, trace=True)
        if report is None:
            return f"{name}: traced pass failed: {err}"
        counts.append({k: v for k, v in report["trace"].items()
                       if not k.endswith("_s")})
    diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
    if diff:
        return f"{name}: counts differ between traced passes: {diff}"
    mutations = counts[0]["mutation.mutate_summand.calls"]
    print(f"ok   {name}: counts repeat ({mutations} mutate_summand calls)")
    return None


def main(seed, workload=None) -> int:
    run.prepare_inputs()
    deadline = run.Deadline(3600)
    problems = []
    for label, check in (("generator", generator_matches),
                         ("seed independence", seed_independence)):
        why = check(seed, deadline)
        print(f"{'FAIL' if why else 'ok  '} {label}" + (f": {why}" if why else ""))
        problems.append(why)
    for name in [workload] if workload else run.WORKLOADS:
        why = counts_repeat(name, seed, deadline)
        if why:
            print(f"FAIL {why}")
        problems.append(why)
    return 1 if any(problems) else 0
