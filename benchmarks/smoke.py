"""Smoke test of the benchmark itself.

    python3 benchmarks/smoke.py

Checks, at a tiny size, that every workload prints every metric named in
``BENCHMARK.json`` with its unit, that two traced runs report identical
counts, that a corrupted expected answer makes ``ok_ratio`` drop below 1
(the checker is live), that ``python -O`` is refused, and that the benchmark
fails without printing a result when the library sources are missing.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = 7
TINY = ["--seconds", "1", "--max-items", "12"]
COUNT_UNITS = {"count", "cells", "bits", "LPs/item"}


def _invoke(*args: str, python_flags: tuple[str, ...] = (), cwd: Path = run.ROOT):
    return subprocess.run(
        [sys.executable, *python_flags, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(workload: str, trace: int, *extra: str) -> dict:
    done = _invoke(
        "--workload", workload, "--seed", str(SEED), "--trace", str(trace), *TINY, *extra
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}: {done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: unexpected result keys {sorted(result)}")
    return result


def _check_metrics(workload: str, result: dict, declared: list[dict]) -> None:
    wanted = {metric["name"]: metric["unit"] for metric in declared}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if printed != wanted:
        raise AssertionError(f"{workload}: metrics {printed} differ from BENCHMARK.json {wanted}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            raise AssertionError(f"{workload}: {name} is not a number")


def check_workloads(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        plain = _result(workload, 0)
        _check_metrics(workload, plain, spec["end_to_end"])
        if not plain["correct"] or plain["failed"]:
            raise AssertionError(f"{workload}: failed items at this commit: {plain}")
        first, second = _result(workload, 1), _result(workload, 1)
        _check_metrics(workload, first, spec["per_layer"])
        for name, entry in first["metrics"].items():
            if entry["unit"] in COUNT_UNITS and entry["value"] != second["metrics"][name]["value"]:
                raise AssertionError(f"{workload}: traced count {name} differs between runs")
        print(f"ok   {workload}: metrics and units printed, traced counts repeat")


def check_corruption() -> None:
    workloads = run._import_library()
    answers = json.loads(run.EXPECTED.read_text())
    plan = workloads.corpus_order(workloads.Library(), SEED, answers["answers"], str(run.ROOT))
    first_key = plan.items[0].key
    answers["answers"]["corpus-order"][first_key] = "corrupted"
    run.OUT.mkdir(exist_ok=True)
    corrupt = run.OUT / "smoke-corrupt-expected.json"
    corrupt.write_text(json.dumps(answers))
    result = _result("corpus-order", 0, "--expected", str(corrupt))
    corrupt.unlink()
    ok_ratio = result["metrics"]["ok_ratio"]["value"]
    if result["correct"] or result["failed"] == 0 or ok_ratio >= 1:
        raise AssertionError(f"corrupted answer for pair {first_key} went unnoticed: {result}")
    print(f"ok   corrupted expected answer detected (ok_ratio {ok_ratio:.3f})")


def check_refusals() -> None:
    done = _invoke("--workload", "value-bounds", *TINY, python_flags=("-O",))
    if done.returncode == 0 or done.stdout.strip():
        raise AssertionError("the benchmark ran under python -O")
    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = _invoke("--workload", "corpus-order", *TINY, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        raise AssertionError("the benchmark ran without the library sources")
    print("ok   refuses python -O and a checkout without src/")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    try:
        check_refusals()
        check_corruption()
        check_workloads(spec)
    except AssertionError as error:
        print(f"FAIL {error}")
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
