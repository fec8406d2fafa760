"""Benchmark of the pipedreams package.

Run from the repository root:

    python3 bench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Workloads: enumerate, bijection, monk, verify (see bench/README.md).  The
run first times the workload's set-up three times, each in a fresh
interpreter that imports the package from src/ and generates the inputs
from the seed, and reports the median as setup_s.  The last set-up's plain
JSON data becomes the inputs of this process, so no cache the set-up filled
reaches the timed calls.  It then repeats whole passes over the inputs, one
op at a time on one thread, until --seconds have passed, checking every
op's output outside the timed span.

Every reported time is scaled to a reference machine speed (see speed.py);
the raw times are in the info line.  --trace 0 prints the end-to-end
metrics.  --trace 1 alternates untraced and traced passes and prints the
per-layer metrics, per pass over the inputs, with the tracing overhead.
The last line of standard output is the result object; the line before it
holds the inputs' properties.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from speed import REFERENCE_SECONDS, Speed
from tracer import TARGETS, Tracer
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)


def load_library():
    if not (SRC / "pipedreams" / "__init__.py").is_file():
        sys.exit("bench: the package source src/pipedreams is missing")
    sys.path.insert(0, str(SRC))
    import pipedreams

    return pipedreams


def library_caches(lib) -> list:
    """Every lru_cache in the package, found before any tracing rebinds names."""
    found = {
        id(value): value
        for name, mod in sorted(sys.modules.items())
        if name.split(".")[0] == "pipedreams"
        for value in vars(mod).values()
        if callable(getattr(value, "cache_clear", None))
    }
    return list(found.values())


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def timed_setups(args):
    """Run the set-up SETUP_REPEATS times in fresh interpreters.

    Returns the set-up times scaled to reference speed, the raw ones, and
    the inputs.  Each set-up samples the reference loop on a timer while it
    imports and generates, and its first output line holds the samples.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    scaled, raw, outputs = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=150)
        t1 = time.perf_counter()
        if proc.returncode != 0:
            sys.exit(f"bench: set-up of {args.workload} exited with {proc.returncode}")
        reference, _, data = proc.stdout.partition(b"\n")
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * REFERENCE_SECONDS / statistics.median(json.loads(reference)))
        outputs.append(data)
    if len(set(outputs)) != 1:
        sys.exit("bench: one seed gave different inputs in two set-ups")
    return scaled, raw, json.loads(outputs[-1])


class Record:
    """Timed op spans and failures of some passes."""

    def __init__(self, speed):
        self.speed = speed
        self.spans: list[tuple[float, float, str]] = []
        self.failed = 0
        self.passes = 0
        self.first_error = None

    def note_error(self, text):
        if self.first_error is None:
            self.first_error = text

    def latencies(self) -> list[float]:
        """Op times scaled to reference speed."""
        return [self.speed.scaled(t0, t1) for t0, t1, _ in self.spans]

    def raw_seconds(self) -> float:
        return sum(t1 - t0 - self.speed.spent_in(t0, t1) for t0, t1, _ in self.spans)


def run_pass(workload, record, counters, tracer, traced) -> None:
    clock = time.perf_counter
    for tag, ops, check, prepare in workload.groups(counters):
        if prepare is not None:
            prepare()
        results, raised = [], False
        for op in ops:
            tracer.on = traced
            t0 = clock()
            try:
                results.append(op())
            except Exception:
                raised = True
                record.note_error(traceback.format_exc())
            t1 = clock()
            tracer.on = False
            record.spans.append((t0, t1, tag))
        ok = not raised
        if ok:
            try:
                ok = bool(check(results))
            except Exception:
                ok = False
                record.note_error(traceback.format_exc())
            if not ok:
                record.note_error(f"check failed on a {tag} group")
        if not ok:
            record.failed += len(ops)
    record.passes += 1


def tail(latencies, per_pass):
    """Highest ladder percentile with at least ten ops of one pass beyond it.

    Taking the percentile from the pass size rather than the run's op count
    keeps it fixed when the program gets faster and completes more passes.
    The value is the nearest-rank percentile over every op of the run.
    """
    ordered = sorted(latencies)
    for pct in TAIL_LADDER:
        if per_pass * (100 - pct) / 100 >= 10:
            return pct, ordered[math.ceil(len(ordered) * pct / 100) - 1]
    return 100, ordered[-1]


def summary(workload, record, latencies):
    by_tag_ops, by_tag_seconds = Counter(), Counter()
    for (_, _, tag), dt in zip(record.spans, latencies):
        by_tag_ops[tag] += 1
        by_tag_seconds[tag] += dt
    total = sum(latencies)
    return {
        "inputs": workload.inputs,
        "passes": record.passes,
        "ops": len(latencies),
        "ops_by_tag": dict(by_tag_ops),
        "time_share_by_tag": {tag: sec / total for tag, sec in by_tag_seconds.items()},
        "failed": record.failed,
        "error_rate": record.failed / len(latencies),
        "op_seconds_scaled": total,
        "op_seconds_raw": record.raw_seconds(),
    }


def end_to_end(record, latencies, setup_scaled):
    per_pass = len(latencies) // record.passes
    pct, tail_s = tail(latencies, per_pass)
    metrics = {
        "ops_per_s": ((len(latencies) - record.failed) / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, {"tail_percentile": pct, "ops_per_pass": per_pass}


def per_layer(tracer, counters, passes, factor, overhead_s, check_groups):
    def ratio(a, b):
        return a / b if b else 0.0

    # Every span is reported as its busy time, named after it.
    spans = [name for *_, name in TARGETS] + ["verify." + g for g in check_groups]
    metrics = {
        span + "_ms": (1e3 * factor * tracer.busy[span] / passes, "ms") for span in spans
    }
    droops = tracer.calls["bumpless.droop"]
    metrics.update({
        "pipedream.word_yield": (ratio(counters["distinct_words"], counters["words"]), "ratio"),
        "bumpless.droop_yield": (ratio(droops - tracer.raised["bumpless.droop"], droops), "ratio"),
        "bumpless.pops": (tracer.calls["bumpless.bpd_pop"] / passes, "count"),
        "bijection.phi_overhead": (
            ratio(tracer.busy["bijection.phi"],
                  tracer.under[("bijection.phi", "bumpless.bpd_pop")]),
            "ratio",
        ),
        "monk.pd_steps": (counters["pd_steps"] / passes, "count"),
        "monk.bpd_steps": (counters["bpd_steps"] / passes, "count"),
        "trace.overhead_ms": (1e3 * overhead_s / passes, "ms"),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}")
    setup, make = WORKLOADS[args.workload]
    sizes = SIZES["smoke" if args.smoke else "full"][args.workload]

    if args.setup_only:
        with Speed() as speed:
            lib = load_library()
            data = setup(random.Random(args.seed), sizes, lib)
        print(json.dumps(speed.seconds))
        print(json.dumps(data))
        return 0

    setup_scaled, setup_raw, data = timed_setups(args)
    lib = load_library()
    tracer = Tracer()
    workload = make(data, lib, tracer, library_caches(lib))
    # The inputs and the benchmark's own objects move to the permanent
    # generation, so the collector's pauses inside ops scale with what the
    # package allocates, not with the size of the payloads held here.
    gc.collect()
    gc.freeze()

    speed = Speed()
    if args.trace == 0:
        record = Record(speed)
        with speed:
            start = time.perf_counter()
            while record.passes == 0 or time.perf_counter() - start < args.seconds:
                run_pass(workload, record, Counter(), tracer, traced=False)
        latencies = record.latencies()
        metrics, extra = end_to_end(record, latencies, setup_scaled)
        info = dict(summary(workload, record, latencies), **extra)
    else:
        # Untraced and traced passes alternate, so both see the same machine.
        plain, traced, counters = Record(speed), Record(speed), Counter()
        with speed:
            start = time.perf_counter()
            while traced.passes == 0 or time.perf_counter() - start < args.seconds:
                run_pass(workload, plain, Counter(), tracer, traced=False)
                tracer.install()
                try:
                    run_pass(workload, traced, counters, tracer, traced=True)
                finally:
                    tracer.uninstall()
        plain_s, traced_s = sum(plain.latencies()), sum(traced.latencies())
        # Busy times are scaled by the traced passes' mean speed factor.
        factor = traced_s / traced.raw_seconds()
        metrics = per_layer(tracer, counters, traced.passes, factor, traced_s - plain_s,
                            lib.verify.CHECK_GROUPS)
        info = dict(summary(workload, traced, traced.latencies()),
                    untraced_op_seconds_scaled=plain_s)
        record = Record(speed)
        for part in (plain, traced):
            record.spans += part.spans
            record.failed += part.failed
            record.note_error(part.first_error)

    info.update(workload=args.workload, seed=args.seed,
                setup_seconds_scaled=setup_scaled, setup_seconds_raw=setup_raw)
    if record.first_error:
        print(record.first_error, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": record.failed == 0,
        "attempted": len(record.spans),
        "failed": record.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
