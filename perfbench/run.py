"""dialogforge benchmark: one workload per run, metrics on the last line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {engine-long,wire-batch,corpus-analyze}
                             [--seed N] [--seconds S] [--trace 0|1]

The run sets its workload up several times (set-up time is the median),
then repeats the workload's timed command sequence until ``--seconds``
have passed, checking every output. With ``--trace 0`` it reports the
end-to-end metrics named in BENCHMARK.json, from untraced runs only. With
``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics: span statistics from the traced repetitions, the
mock server's view of the untraced ones, the tracing overhead (traced
minus untraced wall time), and the ROADMAP Baseline probes. The probes
count against ``--seconds``; a traced run makes at least one repetition
of each kind.

Human-readable lines (every metric with its unit, sample count and, where
there are enough samples, a high percentile) come first; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The CLI runs from ``src/`` of the checkout; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import baselines  # noqa: E402
import spans  # noqa: E402
from proc import Launcher  # noqa: E402
from workloads import WORKLOADS, SetupError, Workload  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 3
WORK_DIR = ".perfbench_work"
GOLDEN = HERE / "golden.json"
# printed in the report but not gated: the first four are defined on
# corpus-analyze only, the rest read 0 on every workload but engine-long,
# which BENCHMARK.json does not list (see README.md)
REPORT_ONLY_UNITS = {
    "flow_s": "s",
    "filter_s": "s",
    "print_s": "s",
    "utterances_per_s": "1/s",
    "orchestrators.simple_reflex.us_per_call": "us",
    "orchestrators.simple_response.us_per_call": "us",
    "orchestrators.instruction_list.us_per_call": "us",
    "orchestrators.instruction_list.growth": "ratio",
}


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, spans.percentile(values, p)
    return None


def describe(name: str, value: float, unit: str, samples: list[float]) -> str:
    line = f"{name} = {value:.6g} {unit} (n={len(samples)}"
    tail = high_percentile(samples)
    if tail is not None:
        line += f", p{tail[0]}={tail[1]:.6g}"
    return line + ")"


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]} if dicts else {}


def end_to_end(setup_s: list[float], reps: list) -> dict[str, tuple[float, list[float]]]:
    """Metric -> (value, samples) from the untraced repetitions."""
    walls = [r.wall_s for r in reps]
    dialogs = [r.dialogs / r.main_s for r in reps]
    turns = [r.turns / r.main_s for r in reps]
    rss = [r.rss_mb for r in reps]
    out = {
        "setup_s": (statistics.median(setup_s), setup_s),
        "wall_s": (statistics.median(walls), walls),
        "dialogs_per_s": (statistics.median(dialogs), dialogs),
        "turns_per_s": (statistics.median(turns), turns),
        "peak_rss_mb": (max(rss), rss),
    }
    for step in reps[0].steps:
        samples = [s for r in reps for s in r.steps[step]]
        out[step] = (statistics.median(samples), samples)
    if "flow_s" in out:
        out["utterances_per_s"] = out["turns_per_s"]
    return out


def per_layer(traced: list, plain: list, probes: dict[str, float]) -> dict[str, float]:
    analyzed = [spans.analyze(r.spans, r.requests) for r in traced]
    rows = median_of(analyzed)
    rows.update(median_of([spans.mock_metrics(r.requests) for r in plain]))
    covered = [sum(a[f"layer.{layer}.self_s"] for layer in spans.LAYERS) for a in analyzed]
    traced_wall = statistics.median(r.wall_s for r in traced)
    plain_wall = statistics.median(r.wall_s for r in plain)
    rows["trace.traced_wall_s"] = traced_wall
    rows["trace.untraced_wall_s"] = plain_wall
    rows["trace.overhead_s"] = traced_wall - plain_wall
    rows["trace.uncovered_s"] = statistics.median(r.wall_s - c for r, c in zip(traced, covered))
    rows["trace.covered_share"] = statistics.median(c / r.wall_s for r, c in zip(traced, covered))
    rows.update(probes)
    return rows


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    root: Path | None = None,
    configure: Callable[[Workload], None] | None = None,
) -> dict:
    """Run one workload and return its result object plus report lines.

    ``configure`` lets the self-test tamper with a workload before it runs.
    """
    root = root or Path.cwd()
    definitions = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = definitions["per_layer" if trace else "end_to_end"]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[size][name] if seed == DEFAULT_SEED else None
    work = root / WORK_DIR / f"{name}-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    launcher = Launcher(root, work)
    workload = WORKLOADS[name](size, seed, launcher, golden)
    if configure is not None:
        configure(workload)
    try:
        setup_s = []
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(work / f"setup{i}")
            setup_s.append(time.perf_counter() - start)
            if i:
                shutil.rmtree(work / f"setup{i - 1}")
        deadline = time.perf_counter() + seconds
        probes = baselines.run_all(seed, size, launcher) if trace else {}
        plain, traced = [], []
        while not plain or (trace and not traced) or time.perf_counter() < deadline:
            use_trace = trace and len(traced) < len(plain)
            rep_dir = work / f"rep{len(plain) + len(traced)}"
            rep_dir.mkdir()
            (traced if use_trace else plain).append(workload.rep(rep_dir, use_trace))
            shutil.rmtree(rep_dir)
        workload.final_check()
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    gate = workload.gate
    lines = [f"workload {name} seed={seed} size={size} trace={int(trace)}: "
             f"{len(plain)} untraced and {len(traced)} traced repetitions"]
    units = {m["name"]: m["unit"] for m in wanted} | REPORT_ONLY_UNITS
    if trace:
        values = per_layer(traced, plain, probes)
        lines += [f"{key} = {value:.6g} {units[key]}" for key, value in values.items()]
    else:
        measured = end_to_end(setup_s, plain)
        values = {key: value for key, (value, _) in measured.items()}
        lines += [describe(key, value, units[key], samples) for key, (value, samples) in measured.items()]
    error_rate = gate.failed / gate.attempted
    lines.append(f"error_rate = {error_rate:.6g} ratio (failed {gate.failed} of {gate.attempted} operations)")
    lines += [f"digest {key} = {digest}" for key, digest in sorted(workload.digests.items())]
    lines += [f"FAILED: {problem}" for problem in gate.problems]
    return {
        "lines": lines,
        "result": {
            "correct": gate.failed == 0,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        },
    }


def import_checkout(root: Path) -> str | None:
    """Put the checkout's ``src`` first on the import path and import
    dialogforge from it; return what went wrong, if anything."""
    if not (root / "src" / "dialogforge" / "cli.py").is_file():
        return f"no dialogforge sources under {root / 'src'}; run from a checkout's root"
    sys.path.insert(0, str(root / "src"))
    import dialogforge

    if not Path(dialogforge.__file__).resolve().is_relative_to((root / "src").resolve()):
        return f"imported dialogforge from {dialogforge.__file__}, not from the checkout"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=54.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    problem = import_checkout(root)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), root=root)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
