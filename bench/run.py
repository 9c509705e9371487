"""hadcensus benchmark: CLI workloads, checked against independent oracles.

    python3 bench/run.py --workload census-many-k --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the program is taken from its src/.
Each CLI command runs in a fresh Python process (bench/child.py).  A run
repeats whole rounds of its workload's commands until --seconds have
passed and reports, per round, the median of:

  setup_s      time importing hadcensus.cli, summed over the round's commands
  wall_s       time inside hadcensus.cli.main, summed over the round's commands
  peak_rss_mb  the largest peak resident set of any command in the run

With --trace 1 it alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones (see PER_LAYER and README.md).  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import statistics
import sys
import time

import oracles
import workloads

ROOT = os.path.dirname(workloads.BENCH_DIR)
OUT_DIR = os.path.join("bench", "out")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _get(name, key):
    return lambda summary, candidates: summary.get(name, {}).get(key, 0)


def _mb_per_s(name):
    def rate(summary, candidates):
        rec = summary.get(name, {})
        return rec["bytes"] / rec["s"] / 1e6 if rec.get("s") else 0.0
    return rate


def _per_candidate(summary, candidates):
    calls = summary.get("arith.is_prime", {}).get("calls", 0)
    return calls / candidates if candidates else 0.0


# name -> (unit, function of a round's merged trace summary and its number
# of window candidates)
PER_LAYER = {
    **{f"cli.{cmd}.s": ("s", _get(f"cli.{cmd}", "s"))
       for cmd in ("census", "build", "verify", "pi", "psi")},
    "arith.is_prime.calls": ("count", _get("arith.is_prime", "calls")),
    "arith.is_prime.s": ("s", _get("arith.is_prime", "s")),
    "arith.is_prime.probable": ("count", _get("arith.is_prime", "probable")),
    "arith.is_prime.calls_per_candidate": ("calls/candidate", _per_candidate),
    "arith.max_m_leq.calls": ("count", _get("arith.max_m_leq", "calls")),
    "arith.max_m_leq.s": ("s", _get("arith.max_m_leq", "s")),
    "census.density_report.s": ("s", _get("census.density_report", "s")),
    "census.density_report.self_s": ("s", _get("census.density_report", "self_s")),
    "census.pi_count.calls": ("count", _get("census.pi_count", "calls")),
    "census.pi_count.s": ("s", _get("census.pi_count", "s")),
    "census.N_eps.s": ("s", _get("census.N_eps", "s")),
    "census.property_p_census.s": ("s", _get("census.property_p_census", "s")),
    "census.psi_paths.s": ("s", _get("census.psi_paths", "s")),
    "solver.find_m.calls": ("count", _get("solver.find_m", "calls")),
    "solver.find_m.s": ("s", _get("solver.find_m", "s")),
    "construct.build_plan.s": ("s", _get("construct.build_plan", "s")),
    "construct.paley_I.s": ("s", _get("construct.paley_I", "s")),
    "construct.paley_II.s": ("s", _get("construct.paley_II", "s")),
    "matrix.write_matrix.s": ("s", _get("matrix.write_matrix", "s")),
    "matrix.write_matrix.mb_per_s": ("MB/s", _mb_per_s("matrix.write_matrix")),
    "matrix.read_matrix.s": ("s", _get("matrix.read_matrix", "s")),
    "matrix.read_matrix.mb_per_s": ("MB/s", _mb_per_s("matrix.read_matrix")),
    "matrix.is_hadamard.s": ("s", _get("matrix.is_hadamard", "s")),
    "matrix.is_hadamard.entries": ("count", _get("matrix.is_hadamard", "entries")),
    "jsonio.canonical_json.s": ("s", _get("jsonio.canonical_json", "s")),
}


def merge(summaries):
    """Sum the per-command trace summaries of one round."""
    total = {}
    for summary in summaries:
        for name, rec in summary.items():
            acc = total.setdefault(name, {})
            for key, value in rec.items():
                acc[key] = acc.get(key, 0) + value
    return total


def run_round(ops, traced, workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    rnd = {"traced": traced, "setup_s": 0.0, "wall_s": 0.0, "rss_mb": 0.0,
           "attempted": 0, "failed": 0, "problems": [], "summaries": [],
           "spans": [], "absent": set(), "env": None,
           "candidates": sum(op.candidates for op in ops)}
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        report = workloads.run_child(op.argv, traced)
        rnd["attempted"] += 1
        if report.get("error"):
            rnd["failed"] += 1
            rnd["problems"].append(f"{' '.join(op.argv)}: {report['error']}")
            continue
        rnd["setup_s"] += report["setup_s"]
        rnd["wall_s"] += report["wall_s"]
        rnd["rss_mb"] = max(rnd["rss_mb"], report["maxrss_mb"])
        rnd["env"] = report["env"]
        if not report["env"]["hadcensus_file"].startswith(os.path.join(ROOT, "src", "")):
            rnd["problems"].append(f"hadcensus imported from {report['env']['hadcensus_file']}")
        rnd["problems"] += [f"{' '.join(op.argv)}: {p}" for p in op.check(report)]
        if traced:
            rnd["summaries"].append(report["trace"]["summary"])
            rnd["spans"].append({"argv": op.argv, "spans": report["trace"]["spans"]})
            rnd["absent"].update(report["trace"]["absent"])
    return rnd


def layer_metrics(rnd):
    summary = merge(rnd["summaries"])
    return {name: fn(summary, rnd["candidates"]) for name, (_, fn) in PER_LAYER.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "hadcensus", "cli.py")):
        print(f"no hadcensus sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # Byte-compile once, so that no timed import pays for it.
    compileall.compile_dir(os.path.join("src", "hadcensus"), quiet=1)

    rng = random.Random(f"{args.workload}/{args.seed}")
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    ops = workloads.WORKLOADS[args.workload](rng, workdir)
    problems = oracles.check_hand_values()

    rounds = []
    start = time.monotonic()
    try:
        while True:
            for traced in (False, True) if args.trace else (False,):
                rounds.append(run_round(ops, traced, workdir))
            if time.monotonic() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    wall = statistics.median(r["wall_s"] for r in plain)
    if args.trace:
        layers = [layer_metrics(r) for r in traced]
        metrics = {name: {"value": statistics.median(m[name] for m in layers), "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
        overhead = statistics.median(r["wall_s"] for r in traced) - wall
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = {"setup_s": statistics.median(r["setup_s"] for r in plain),
                  "wall_s": wall,
                  "peak_rss_mb": max(r["rss_mb"] for r in plain)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    for rnd in rounds:
        problems += rnd["problems"]
    env = next((r["env"] for r in rounds if r["env"]), {})
    env.update(nproc=os.cpu_count(), sympy=oracles.SYMPY_VERSION)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "env": env,
        "absent": sorted(set().union(*(r["absent"] for r in rounds))),
        "problems": problems[:20],
        "samples": [{k: r[k] for k in ("traced", "setup_s", "wall_s", "rss_mb")} for r in rounds],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**record, "result": result,
                   "spans": traced[-1]["spans"] if traced else []}, fh, indent=1)
    for problem in problems[:20]:
        print(problem, file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
