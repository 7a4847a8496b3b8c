"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

1. Every workload runs at a tiny size, untraced and traced, with the
   default seed: the run must be correct, must match the pinned tiny
   digests, and must report every metric BENCHMARK.json names, with that
   metric's unit.
2. Deliberately corrupted outputs must be counted as failures: a written
   dialog file truncated after ``batch``, mock replies perturbed so the
   batch no longer hashes to its pinned digest, and a flow DOT file with
   one edge dropped.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark must exit non-zero without printing a result.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

ROOT = Path.cwd()
failures: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def tiny(name: str, trace: bool, configure=None) -> dict:
    return run.measure(name, run.DEFAULT_SEED, 0, trace, size="tiny", root=ROOT, configure=configure)


def metrics_reported() -> None:
    definitions = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in run.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            outcome = tiny(name, trace)
            result, lines = outcome["result"], outcome["lines"]
            label = f"{name} trace={int(trace)}"
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: correct, {result['failed']} of {result['attempted']} operations failed")
            if not result["correct"]:
                print("\n".join(lines))
            for metric in definitions[kind]:
                reported = result["metrics"].get(metric["name"])
                check(reported is not None and reported["unit"] == metric["unit"]
                      and isinstance(reported["value"], (int, float)),
                      f"{label}: {metric['name']} reported in {metric['unit']}")
                check(any(line.startswith(f"{metric['name']} = ") and f" {metric['unit']}" in line
                          for line in lines), f"{label}: {metric['name']} printed with its unit")
            if not trace:
                check(any(line.startswith("error_rate = ") for line in lines), f"{label}: error_rate printed")


def truncate_first_dialog(out: Path) -> None:
    victim = sorted(out.glob("*.json"))[0]
    victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])


def drop_one_edge(dot: Path) -> None:
    lines = dot.read_text(encoding="utf-8").splitlines(keepends=True)
    edge = next(i for i, line in enumerate(lines) if " -> " in line)
    dot.write_text("".join(lines[:edge] + lines[edge + 1:]), encoding="utf-8")


def corruption_caught() -> None:
    cases = {
        "truncated dialog file": ("engine-long", lambda w: setattr(w, "tamper", truncate_first_dialog)),
        "perturbed mock replies": ("wire-batch", lambda w: setattr(w, "salt", b"changed")),
        "edge dropped from the flow DOT": ("corpus-analyze", lambda w: setattr(w, "tamper", drop_one_edge)),
    }
    for what, (name, configure) in cases.items():
        result = tiny(name, False, configure)["result"]
        check(not result["correct"] and result["failed"] >= 1,
              f"{name}: {what} counted as {result['failed']} failed operation(s)")


def bare_directory_refused() -> None:
    bare = ROOT / run.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "engine-long", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          f"without src/ the benchmark exits {proc.returncode} and prints no result")


if __name__ == "__main__":
    problem = run.import_checkout(ROOT)
    if problem:
        sys.exit(f"error: {problem}")
    metrics_reported()
    corruption_caught()
    bare_directory_refused()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)
