"""Outside-in benchmark for expord.

Runs one workload against the library in ``src/`` of the checkout this file
sits in, checks every answer, and prints as its last stdout line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``::

    python3 benchmarks/run.py --workload corpus-order --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off over a closed loop (one client, no threads) that lasts
``--seconds``.  With ``--trace 1`` one pass over the items runs once
untraced and once with every layer's public functions wrapped, and the
metrics are the per-layer ones plus the tracing overhead; the spans are
written to ``.bench_out/``.  A line of run provenance precedes the result.

Workloads: corpus-order, value-bounds, cli-session (see ``workloads.py``).
Expected answers live in ``expected_answers.json``, written by
``make_expected.py``; ``smoke.py`` checks the benchmark itself.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
EXPECTED = HERE / "expected_answers.json"
OUT = ROOT / ".bench_out"

# Set-up runs at least SETUP_MIN_REPEATS times and, while the repeats have
# taken less than SETUP_BUDGET_S, up to SETUP_MAX_REPEATS times; setup_s is
# the median, so short set-ups get enough repeats to be steady.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 1.5
WARMUP_ITEMS = 2
# The timed loop runs past --seconds until this many items are done, so the
# 90th percentile always has at least ten samples beyond it.
MIN_ITEMS = 100
MAX_REPORTED_FAILURES = 5
HASH_SEED = "0"
# Latency percentiles come from a uniform sample of at most this many items
# (reservoir sampling), so memory does not grow with throughput.
LATENCY_SAMPLE = 50_000
OVERHEAD_CHUNKS = 20

END_TO_END_UNITS = {
    "throughput_per_s": "items/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "numerics.solve.calls": "count",
    "numerics.solve.self_s": "s",
    "numerics.solve.cells_mean": "cells",
    "numerics.solve.max_bits": "bits",
    "numerics.solve.infeasible": "count",
    "numerics.verify.calls": "count",
    "numerics.verify.s": "s",
    "order.check_weighted.calls": "count",
    "order.check_weighted.self_s": "s",
    "order.check_blackwell.calls": "count",
    "order.check_blackwell.self_s": "s",
    "order.min_size.calls": "count",
    "order.min_size.self_s": "s",
    "order.size_interval.calls": "count",
    "order.size_interval.self_s": "s",
    "order.verify_certificate.calls": "count",
    "order.verify_certificate.s": "s",
    "order.lps_per_pair": "LPs/item",
    "beliefs.hull_membership.calls": "count",
    "beliefs.separating_functional.calls": "count",
    "beliefs.check_weighted_beliefs.self_s": "s",
    "beliefs.posteriors.s": "s",
    "value.verify_bound.calls": "count",
    "value.verify_bound.self_s": "s",
    "value.value.self_s": "s",
    "value.falsify_bound.self_s": "s",
    "dynamics.stopping_value.calls": "count",
    "dynamics.stopping_value.self_s": "s",
    "dynamics.merging_horizon.self_s": "s",
    "dynamics.eta_limit.self_s": "s",
    "dynamics.eta_limit.iterations": "count",
    "dynamics.eta_limit.hull_points": "count",
    "dynamics.belief_set.calls": "count",
    "dynamics.belief_set.self_s": "s",
    "dynamics.counterexample.self_s": "s",
    "documents.load_document.s": "s",
    "documents.dump_document.s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.handler_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_pct": "%",
}


class BenchmarkError(Exception):
    """The benchmark cannot run or a traced layer recorded nothing."""


def _import_library():
    """Put the checkout's ``src`` first on the path and import expord from it."""
    if not (SOURCE / "expord" / "__init__.py").is_file():
        raise BenchmarkError(f"no expord sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import expord

    if Path(expord.__file__).resolve().parent != SOURCE / "expord":
        raise BenchmarkError(f"imported expord from {expord.__file__}, not from {SOURCE}")
    import workloads

    return workloads


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(args, plan, attempted: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "items_attempted": attempted,
        "items_in_plan": len(plan.items),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "optimize_flag": sys.flags.optimize,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        **plan.notes,
    }


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Checker:
    """Compares unique answers, re-verifies evidence, and counts failed items.

    Memory is bounded by the number of distinct inputs, not by the number of
    items run, so peak RSS does not grow with throughput.
    """

    def __init__(self, plan, verify) -> None:
        self.plan = plan
        self.verify = verify
        self.attempts: dict[str, int] = defaultdict(int)
        self.failures: dict[str, int] = defaultdict(int)
        # Inputs whose evidence or oracle check failed: every attempt fails.
        self.bad_keys: set[str] = set()
        self.unattributed = 0
        self.seen: dict[str, str] = {}
        self.evidence: dict[tuple, str] = {}
        self.messages: list[str] = []

    def _note(self, message: str) -> None:
        if len(self.messages) < MAX_REPORTED_FAILURES:
            self.messages.append(message)

    def record(self, item, result, error: BaseException | None) -> None:
        key = item.key
        self.attempts[key] += 1
        if error is not None:
            self.failures[key] += 1
            self._note(f"{key}: raised {type(error).__name__}: {error}")
            return
        answer = item.answer(result)
        expected = self.plan.expected.get(key)
        if answer != expected:
            self.failures[key] += 1
            self._note(f"{key}: answer {answer!r}, expected {expected!r}")
            return
        self.seen[key] = answer
        for evidence in item.evidence(result):
            self.evidence.setdefault(evidence, key)

    def finish(self, seed: int) -> None:
        """Re-verify each distinct piece of evidence, then run the oracles."""
        for evidence, key in self.evidence.items():
            try:
                ok = self.verify(evidence)
            except Exception as error:  # a crash in verification is a failure
                ok = False
                self._note(f"{key}: verifying {evidence[0]} raised {error!r}")
            if not ok:
                self.bad_keys.add(key)
                self._note(f"{key}: {evidence[0]} evidence does not re-verify")
        for key, message in self.plan.oracle(self.seen, random.Random(seed)):
            if key in self.attempts:
                self.bad_keys.add(key)
            else:
                self.unattributed += 1
            self._note(f"{key}: oracle: {message}")

    def failed_count(self) -> int:
        failed = self.unattributed
        for key, attempts in self.attempts.items():
            failed += attempts if key in self.bad_keys else self.failures.get(key, 0)
        return min(failed, sum(self.attempts.values()))


def _run_item(call):
    try:
        return call(), None
    except Exception as error:  # counted as a failed item
        return None, error


def timed_run(plan, args, checker: Checker) -> tuple[dict, int]:
    """Closed loop over whole passes of the plan until --seconds have passed.

    Stopping only at the end of a pass makes every run do the same mix of
    work whatever its length, so throughput (checked items over wall time)
    and the latency percentiles (over every item) compare across runs.
    """
    items = plan.items
    for item in items[:WARMUP_ITEMS]:
        item.run()
    latencies = array("d", bytes(8 * LATENCY_SAMPLE))
    sampler = random.Random(args.seed)
    passes = 0
    clock = time.perf_counter
    start = clock()
    deadline = start + args.seconds
    attempted = 0
    finished = False
    while not finished:
        for item in items:
            begin = clock()
            result, error = _run_item(item.run)
            elapsed = clock() - begin
            if attempted < LATENCY_SAMPLE:
                latencies[attempted] = elapsed
            else:
                slot = sampler.randrange(attempted + 1)
                if slot < LATENCY_SAMPLE:
                    latencies[slot] = elapsed
            checker.record(item, result, error)
            attempted += 1
            if attempted == args.max_items:
                finished = True
                break
        else:
            passes += 1
            finished = clock() >= deadline and attempted >= MIN_ITEMS
    wall = clock() - start
    checker.finish(args.seed)
    ok = attempted - checker.failed_count()
    latencies = latencies[: min(attempted, LATENCY_SAMPLE)]
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    metrics = {
        "throughput_per_s": ok / wall,
        "latency_ms_p50": statistics.median(latencies) * 1000.0,
        "latency_ms_p90": p90 * 1000.0,
        "peak_rss_mb": _peak_rss_mb(children=args.workload == "cli-session"),
        "ok_ratio": ok / attempted,
    }
    plan.notes["passes"] = passes
    return metrics, attempted


def traced_run(plan, lib, args, checker: Checker) -> tuple[dict, int]:
    from tracer import VERIFIERS, Tracer

    items = plan.items[: args.max_items]
    calls = [item.traced or item.run for item in items]
    for call in calls:  # warm-up pass, so neither side pays first-call costs
        call()
    # Untraced and traced runs alternate chunk by chunk, so that a change in
    # the machine's speed during the run falls on both sides of the overhead.
    clock = time.perf_counter
    tracer = Tracer(lib.layers())
    results = []
    untraced = traced = 0.0
    step = max(1, len(calls) // OVERHEAD_CHUNKS)
    for first in range(0, len(calls), step):
        chunk = calls[first : first + step]
        begin = clock()
        for call in chunk:
            call()
        untraced += clock() - begin
        tracer.install()
        try:
            begin = clock()
            for ordinal, call in enumerate(chunk, start=first):
                tracer.item = ordinal
                results.append(_run_item(call))
            traced += clock() - begin
        finally:
            tracer.uninstall()
    for item, (result, error) in zip(items, results):
        checker.record(item, result, error)
    checker.finish(args.seed)

    table = tracer.summary()
    counters = tracer.counters

    def field(name: str, key: str) -> float:
        return table[name][key] if name in table else 0

    solves = field("numerics.solve", "calls")
    metrics = {
        "numerics.solve.calls": solves,
        "numerics.solve.self_s": field("numerics.solve", "self_s"),
        "numerics.solve.cells_mean": counters["solve.cells"] / solves if solves else 0.0,
        "numerics.solve.max_bits": counters["solve.max_bits"],
        "numerics.solve.infeasible": counters["solve.infeasible"],
        "numerics.verify.calls": sum(field(f"numerics.{v}", "calls") for v in VERIFIERS),
        "numerics.verify.s": sum(field(f"numerics.{v}", "s") for v in VERIFIERS),
        "order.verify_certificate.calls": field("order.verify_certificate", "calls"),
        "order.verify_certificate.s": field("order.verify_certificate", "s"),
        "order.lps_per_pair": tracer.calls_beneath("numerics.solve", "order.") / len(items),
        "beliefs.hull_membership.calls": field("beliefs.hull_membership", "calls"),
        "beliefs.separating_functional.calls": field("beliefs.separating_functional", "calls"),
        "beliefs.check_weighted_beliefs.self_s": field("beliefs.check_weighted_beliefs", "self_s"),
        "beliefs.posteriors.s": field("beliefs.posteriors", "s"),
        "value.verify_bound.calls": field("value.verify_bound", "calls"),
        "value.verify_bound.self_s": field("value.verify_bound", "self_s"),
        "value.value.self_s": field("value.value", "self_s"),
        "value.falsify_bound.self_s": field("value.falsify_bound", "self_s"),
        "dynamics.stopping_value.calls": field("dynamics.stopping_value", "calls"),
        "dynamics.stopping_value.self_s": field("dynamics.stopping_value", "self_s"),
        "dynamics.merging_horizon.self_s": field("dynamics.merging_horizon", "self_s"),
        "dynamics.eta_limit.self_s": field("dynamics.eta_limit", "self_s"),
        "dynamics.eta_limit.iterations": counters["eta.iterations"],
        "dynamics.eta_limit.hull_points": counters["eta.hull_points"],
        "dynamics.belief_set.calls": field("dynamics.belief_set", "calls"),
        "dynamics.belief_set.self_s": field("dynamics.belief_set", "self_s"),
        "dynamics.counterexample.self_s": field("dynamics.counterexample", "self_s"),
        "documents.load_document.s": field("documents.load_document", "s"),
        "documents.dump_document.s": field("documents.dump_document", "s"),
        "cli.interpreter_s": 0.0,
        "cli.import_s": 0.0,
        "cli.handler_s": field("cli.run", "s") / max(field("cli.run", "calls"), 1),
        "trace.wall_s": traced,
        "trace.overhead_pct": (traced / untraced - 1.0) * 100.0,
    }
    for order_fn in ("check_weighted", "check_blackwell", "min_size", "size_interval"):
        metrics[f"order.{order_fn}.calls"] = field(f"order.{order_fn}", "calls")
        metrics[f"order.{order_fn}.self_s"] = field(f"order.{order_fn}", "self_s")
    metrics.update(plan.extra_trace_metrics())

    silent = [
        layer
        for layer in plan.layers
        if not any(name.startswith(layer + ".") for name in table)
    ]
    # A pass cut short by --max-items may legitimately miss a layer.
    if silent and len(items) == len(plan.items):
        raise BenchmarkError(
            f"traced run of {args.workload} recorded no calls in layer(s) {', '.join(silent)}"
        )
    OUT.mkdir(exist_ok=True)
    tracer.dump(str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"))
    return metrics, len(items)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("corpus-order", "value-bounds", "cli-session"),
    )
    parser.add_argument("--seed", type=int, default=20250814)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-items", type=int, default=None, help="stop after this many items (smoke runs)"
    )
    parser.add_argument(
        "--expected", default=str(EXPECTED), help="expected-answers file to check against"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if sys.flags.optimize:
        print(
            "refusing to run under python -O: the library's certificate checks "
            "are assert statements and would be stripped",
            file=sys.stderr,
        )
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomised per process, and processes doing
        # identical work spread further under random seeds than under one
        # fixed seed; the fixed seed is inherited by the CLI children too.
        os.execve(sys.executable, sys.orig_argv, {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    try:
        workloads = _import_library()
        with open(args.expected, encoding="utf-8") as handle:
            answers = json.load(handle)["answers"]
    except (BenchmarkError, OSError, KeyError, ValueError) as error:
        print(f"benchmark cannot start: {error}", file=sys.stderr)
        return 1

    lib = workloads.Library()
    build = workloads.WORKLOADS[args.workload]
    setup_times = []
    plan = None
    while len(setup_times) < SETUP_MIN_REPEATS or (
        len(setup_times) < SETUP_MAX_REPEATS and sum(setup_times) < SETUP_BUDGET_S
    ):
        if plan is not None:
            plan.cleanup()
            plan = None
        begin = time.perf_counter()
        plan = build(lib, args.seed, answers, str(ROOT))
        setup_times.append(time.perf_counter() - begin)

    # Long-lived set-up and harness objects are moved out of the collector's
    # reach, so garbage collection in the timed phase scans only what the
    # library itself allocates.
    gc.collect()
    gc.freeze()
    checker = Checker(plan, lambda evidence: workloads.verify_evidence(lib, evidence))
    try:
        if args.trace:
            metrics, attempted = traced_run(plan, lib, args, checker)
            units = PER_LAYER_UNITS
        else:
            metrics, attempted = timed_run(plan, args, checker)
            metrics["setup_s"] = statistics.median(setup_times)
            units = END_TO_END_UNITS
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        plan.cleanup()

    for message in checker.messages:
        print(f"FAILED {message}", file=sys.stderr)
    failed = checker.failed_count()
    print("provenance " + json.dumps(_provenance(args, plan, attempted), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
