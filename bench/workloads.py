"""The four workloads: one round of hadcensus CLI commands each, with checks.

A workload function takes a seeded random.Random and a work directory and
returns the ops of one round.  Every round of a run repeats the same ops.
The expected outputs are computed here, once per run, by oracles.py.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracles

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "child.py")
CHILD_TIMEOUT_S = 150


@dataclass
class Op:
    argv: list
    check: Callable[[dict], list]  # child report -> problems
    candidates: int = 0  # (k, m) window pairs the command may test for primality
    prepare: Optional[Callable[[], None]] = None  # untimed step run first


def run_child(argv, trace):
    """Run one CLI command in a fresh interpreter; its report, or an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    spec = json.dumps({"argv": argv, "trace": trace})
    try:
        proc = subprocess.run([sys.executable, CHILD, spec], env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(proc.stdout.splitlines()[-1])


def expect(report, rc, stdout=None):
    problems = []
    if report["rc"] != rc:
        problems.append(f"exit {report['rc']}, expected {rc}: {report['stderr'][-300:]}")
    if stdout is not None and report["stdout"] != stdout:
        problems.append(f"printed {report['stdout']!r}, expected {stdout!r}")
    return problems


# --- census -------------------------------------------------------------------


def census_round(x, eps):
    expected = oracles.census_oracle(x, eps)

    def check(report):
        return expect(report, 0) or oracles.check_census(report["stdout"], expected)

    argv = ["census", "--x", str(x), "--epsilon", str(eps)]
    return [Op(argv, check, candidates=((x + 1) // 2) * expected["params"]["L"])]


def census_many_k(rng, workdir):
    # 50 000 odd k, window L = 15: all candidates below 2^64.
    return census_round(100_000 - rng.randrange(16), Fraction(1))


def census_long_window(rng, workdir):
    # 5 000 odd k, window L = 65: candidates cross 2^64 (probable primes).
    return census_round(10_000 - rng.randrange(16), Fraction(5))


# --- matrices -------------------------------------------------------------------

EPS_BUILD = Fraction(2)
# Each slot pins the plan type and the order to within 2%, so that the
# seed moves the inputs but not the amount of work.
PALEY_I_500 = (123, 125, 131)  # m = 2: orders 492, 500, 524
PALEY_II_2000 = (499, 505, 507)  # m = 1: orders 1996, 2020, 2028
PALEY_I_4000 = (1001, 1005, 1007)  # m = 2: orders 4004, 4020, 4028
NO_PRIME = (59, 127, 191, 247, 253, 311)  # no prime 2^m*k - 1 in the window


class MatrixChecks:
    """Checks of build and verify outputs; a .pm already proven Hadamard is
    recognised by its digest in later rounds."""

    def __init__(self):
        self.proven = {}  # sha256 -> (order, is Hadamard)

    def gram(self, path):
        with open(path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self.proven:
            H = oracles.parse_pm(data)
            self.proven[digest] = (H.shape[0], oracles.hadamard_exact(H))
        return self.proven[digest]

    def build(self, k, out):
        def check(report):
            problems = expect(report, 0)
            if problems:
                return problems
            with open(out) as fh:
                plan = json.load(fh)
            problems = oracles.check_plan(plan, k, EPS_BUILD)
            order = plan.get("claimed_order")
            e = (order // k).bit_length() - 1
            line = f"order {order} = 2^{e} * {k} (certified={plan.get('certified')})\n"
            if report["stdout"] != line:
                problems.append(f"printed {report['stdout']!r}, expected {line!r}")
            n, ok = self.gram(out + ".pm")
            if n != order or not ok:
                problems.append(f"{out}.pm: order {n}, Hadamard {ok}; plan order {order}")
            return problems

        return Op(["build", "--k", str(k), "--epsilon", str(EPS_BUILD), "--out", out], check,
                  candidates=oracles.floor_eps_log2(EPS_BUILD, k))

    def verify(self, path, hadamard=True, prepare=None):
        def check(report):
            n, ok = self.gram(path)
            if ok != hadamard:
                return [f"{path}: the oracle says Hadamard = {ok}"]
            if hadamard:
                return expect(report, 0, f"order {n}: Hadamard\n")
            return expect(report, 3, f"order {n}: NOT Hadamard\n")

        return Op(["verify", path], check, prepare=prepare)

    def no_prime(self, k, out):
        def check(report):
            m, window = oracles.smallest_window_prime(k, EPS_BUILD)
            problems = [] if m is None else [f"k = {k} has a prime at m = {m}"]
            if os.path.exists(out) or os.path.exists(out + ".pm"):
                problems.append(f"{out} written for a k without a window prime")
            return problems + expect(report, 2)

        return Op(["build", "--k", str(k), "--epsilon", str(EPS_BUILD), "--out", out], check,
                  candidates=oracles.floor_eps_log2(EPS_BUILD, k))


def flip_entry(src, dst, row_frac, col_frac):
    """Copy a .pm file with the sign of one entry changed."""
    with open(src, "rb") as fh:
        data = bytearray(fh.read())
    header = data.index(b"\n")
    n = int(data[:header])
    pos = header + 1 + int(row_frac * n) * (n + 1) + int(col_frac * n)
    data[pos] = ord("+") if data[pos] == ord("-") else ord("-")
    with open(dst, "wb") as fh:
        fh.write(data)


def matrices(rng, workdir):
    checks = MatrixChecks()
    ops = []
    for name, pool in (("small", PALEY_I_500), ("mid", PALEY_II_2000), ("large", PALEY_I_4000)):
        out = os.path.join(workdir, f"{name}.json")
        ops += [checks.build(rng.choice(pool), out), checks.verify(out + ".pm")]
    ops.append(checks.no_prime(rng.choice(NO_PRIME), os.path.join(workdir, "none.json")))
    good = os.path.join(workdir, "small.json.pm")
    bad = os.path.join(workdir, "flipped.pm")
    row, col = rng.random(), rng.random()
    ops.append(checks.verify(bad, hadamard=False,
                             prepare=lambda: flip_entry(good, bad, row, col)))
    return ops


# --- progressions -------------------------------------------------------------


def progressions(rng, workdir):
    x_pi = 10**8 - rng.randrange(1000)
    x_psi = 10**7 - rng.randrange(1000)
    sieve = oracles.OddSieve(x_pi)
    ops = []
    for l in sorted(rng.sample(range(1, 7), 3)):
        q, a = 1 << (l + 1), (1 << l) - 1
        count = sieve.pi(x_pi, q, a)
        ops.append(Op(["pi", "--x", str(x_pi), "--q", str(q), "--a", str(a)],
                      lambda r, c=count: expect(r, 0) or oracles.check_pi(r["stdout"], c)))
    for a in (1, 3):
        value = sieve.psi(x_psi, 4, a)
        ops.append(Op(["psi", "--x", str(x_psi), "--q", "4", "--a", str(a)],
                      lambda r, v=value: expect(r, 0) or oracles.check_psi(r["stdout"], v)))
    return ops


WORKLOADS = {
    "census-many-k": census_many_k,
    "census-long-window": census_long_window,
    "matrices": matrices,
    "progressions": progressions,
}
