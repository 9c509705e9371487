"""Planted-fault self-test of the benchmark's checkers (a few seconds).

    python3 bench/selftest.py

Runs the program at reduced sizes, confirms each checker accepts the real
output, then spoils that output and confirms the checker rejects it:
a census pi_terms entry off by one, a .pm file with one flipped entry
presented as a good build, and a psi value off by 1e-6 relative.  It also
checks the census oracle against the hand values x = 4, epsilon = 2 and
that BENCHMARK.json names exactly the metrics run.py reports.  Exits 1 if
any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction

import oracles
import run
import workloads


def planted(label, op, spoil):
    """Problems with the checker: it must pass the real output of op and
    fail the output that spoil(report) makes of it."""
    report = workloads.run_child(op.argv, False)
    if report.get("error"):
        return [f"{label}: the command failed: {report['error']}"]
    problems = [f"{label}: real output rejected: {p}" for p in op.check(report)]
    if not op.check(spoil(report)):
        problems.append(f"{label}: spoiled output accepted")
    return problems


def spoil_census(report):
    got = json.loads(report["stdout"])
    got["pi_terms"][0][1] += 1
    return dict(report, stdout=json.dumps(got))


def spoil_psi(report):
    return dict(report, stdout=f"{float(report['stdout']) * (1 + 1e-6):.9g}\n")


def metric_names():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    for key, emitted in (("end_to_end", set(run.END_TO_END)),
                         ("per_layer", set(run.PER_LAYER) | {"trace.overhead_s"})):
        listed = {m["name"] for m in spec[key]}
        if listed != emitted:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(listed ^ emitted)}")
    return problems


def main():
    os.chdir(run.ROOT)
    workdir = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        results = {"hand values": oracles.check_hand_values(),
                   "metric names": metric_names()}

        (census_op,) = workloads.census_round(2000, Fraction(1))
        results["census pi_terms off by one"] = planted("census", census_op, spoil_census)

        out = os.path.join(workdir, "build.json")
        build_op = workloads.MatrixChecks().build(125, out)

        def spoil_pm(report):
            workloads.flip_entry(out + ".pm", out + ".pm", 0.3, 0.7)
            return report

        results[".pm with one flipped entry"] = planted("build", build_op, spoil_pm)

        value = oracles.OddSieve(100_000).psi(100_000, 4, 1)
        psi_op = workloads.Op(["psi", "--x", "100000", "--q", "4", "--a", "1"],
                              lambda r: oracles.check_psi(r["stdout"], value))
        results["psi off by 1e-6"] = planted("psi", psi_op, spoil_psi)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label, problems in results.items():
        print(f"[selftest] {label}: {'FAIL' if problems else 'PASS'}")
        for problem in problems:
            print(f"    {problem}")
    return 1 if any(results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
