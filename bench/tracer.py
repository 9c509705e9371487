"""Time hadcensus's public functions from outside the package.

`install` wraps each function in TARGETS and puts the wrapper under every
hadcensus module name bound to it (cli imports is_hadamard, read_matrix,
write_matrix and canonical_json by name).  Coarse functions record spans
(name, start, end, parent); per-number functions only add to a count and
a time, so 10^6 calls do not become 10^6 spans.  A span's self time is
its duration minus the wrapped calls made directly inside it.  A target
missing from the package is reported as absent.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

SPAN, TALLY = "span", "tally"

TARGETS = (
    ("arith", "is_prime", TALLY),
    ("arith", "max_m_leq", TALLY),
    ("census", "density_report", SPAN),
    ("census", "N_eps", SPAN),
    ("census", "property_p_census", SPAN),
    ("census", "pi_count", SPAN),
    ("census", "psi_paths", SPAN),
    ("solver", "find_m", SPAN),
    ("construct", "build_plan", SPAN),
    ("construct", "paley_I", SPAN),
    ("construct", "paley_II", SPAN),
    ("matrix", "write_matrix", SPAN),
    ("matrix", "read_matrix", SPAN),
    ("matrix", "is_hadamard", SPAN),
    ("jsonio", "canonical_json", SPAN),
)


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs.get("path", args[1] if len(args) > 1 else None))}


def _read_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs.get("path", args[0] if args else None))}


def _entries(args, kwargs, result):
    n = (args[0] if args else kwargs["M"]).n
    return {"entries": n * n}


# Extra work counters taken from a call's arguments and result.
COUNTERS = {
    "matrix.write_matrix": _written_bytes,
    "matrix.read_matrix": _read_bytes,
    "matrix.is_hadamard": _entries,
}


class Tracer:
    def __init__(self):
        self.spans = []  # {"name", "start", "end", "parent", "child_s", counters...}
        self.tallies = {}  # name -> [calls, seconds, probable verdicts]
        self.absent = []
        self._open = []  # indices of the spans now running, innermost last

    def span(self, name, fn):
        spans, open_ = self.spans, self._open
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            record = {"name": name, "parent": open_[-1] if open_ else None,
                      "child_s": 0.0}
            spans.append(record)
            open_.append(len(spans) - 1)
            record["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = end = perf_counter()
                open_.pop()
                if open_:
                    spans[open_[-1]]["child_s"] += end - record["start"]
            if counter is not None:
                record.update(counter(args, kwargs, result))
            return result

        return wrapper

    def tally(self, name, fn, probable=None):
        rec = self.tallies.setdefault(name, [0, 0.0, 0])
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            took = perf_counter() - start
            rec[0] += 1
            rec[1] += took
            if open_:
                spans[open_[-1]]["child_s"] += took
            if probable is not None and getattr(result, "method", None) is probable:
                rec[2] += 1
            return result

        return wrapper

    def summary(self):
        """{name: {"calls", "s", "self_s", counters...}} over all records."""
        out = {}
        for name, (calls, seconds, probable) in self.tallies.items():
            out[name] = {"calls": calls, "s": seconds, "probable": probable}
        for span in self.spans:
            rec = out.setdefault(span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
            took = span["end"] - span["start"]
            rec["calls"] += 1
            rec["s"] += took
            rec["self_s"] += took - span["child_s"]
            for key in ("bytes", "entries"):
                if key in span:
                    rec[key] = rec.get(key, 0) + span[key]
        return out


def install(tracer: Tracer):
    """Wrap every target that exists; list the missing ones in tracer.absent."""
    package = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "hadcensus" or name.startswith("hadcensus."))]
    for module_name, func_name, kind in TARGETS:
        name = f"{module_name}.{func_name}"
        module = sys.modules.get(f"hadcensus.{module_name}")
        original = getattr(module, func_name, None)
        if original is None:
            tracer.absent.append(name)
            continue
        if kind == SPAN:
            wrapper = tracer.span(name, original)
        else:
            method = getattr(module, "Method", None)
            probable = getattr(method, "PROBABLE_PRIME", None) if func_name == "is_prime" else None
            wrapper = tracer.tally(name, original, probable)
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
