"""Layer probes that reproduce the ROADMAP Baseline table in a traced run.

Each probe calls one layer in-process at the sizes the Baseline rows
name (``dialog_with`` at 40/400/2,000 turns with and without the five
orchestrators, ``embed``, ``cluster`` at 2k and 20k utterances, one
``HttpBackend`` round trip) or times the CLI import against a bare
interpreter start. They run only with ``--trace 1`` and are not workloads.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from pathlib import Path

import inputs
from mockserver import MockServer
from proc import Launcher

DIALOG_TURNS = (40, 400, 2000)
CLUSTER_SIZES = {"n2k": 2_000, "n20k": 20_000}

# repetitions per probe; "tiny" is for the benchmark's self-test
REPEATS = {
    "full": {40: 15, 400: 5, 2000: 3, "embed": 3, "http": 100, "cli": 7},
    "tiny": {40: 1, 400: 1, 2000: 1, "embed": 1, "http": 5, "cli": 1},
}


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def dialog_with(seed: int, repeats: dict, scratch: Path) -> dict[str, float]:
    from dialogforge.cli import load_runspec, make_agents, make_backend

    rows = {}
    spec_path = scratch / "baseline-spec.json"
    for orchestrated, label in ((True, "orch"), (False, "plain")):
        for turns in DIALOG_TURNS:
            spec_path.write_text(json.dumps(inputs.engine_spec(seed, turns, orchestrated)), encoding="utf-8")
            spec = load_runspec(spec_path)
            first, second = make_agents(spec, make_backend(spec))
            run = lambda: first.dialog_with(second, id=0, seed=seed, max_turns=turns)  # noqa: E731
            rows[f"baseline.dialog_with.{label}.t{turns}.ms"] = _median_s(run, repeats[turns]) * 1e3
    return rows


def embed_and_cluster(seed: int, repeats: dict) -> dict[str, float]:
    import numpy as np

    from dialogforge.flow import cluster, embed

    texts = inputs.utterances(seed, max(CLUSTER_SIZES.values()))
    sample = texts[:2000]
    per_text = _median_s(lambda: [embed(t) for t in sample], repeats["embed"]) / len(sample)
    rows = {"baseline.embed.us_per_text": per_text * 1e6}
    vectors = list(np.asarray([embed(t) for t in texts]))
    for label, n in CLUSTER_SIZES.items():
        # one call each, timed under tracemalloc: at 20k it runs for seconds
        tracemalloc.start()
        try:
            rows[f"baseline.cluster.{label}.s"] = _median_s(lambda: cluster(vectors[:n], 8, seed=0), 1)
            rows[f"baseline.cluster.{label}.peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return rows


def http_round_trip(seed: int, repeats: dict) -> dict[str, float]:
    from dialogforge import HttpBackend, Message, SamplingParams

    with MockServer(inputs.vocabulary(seed)[:800], delay_s=0.0) as mock:
        backend = HttpBackend(mock.url, "mock-chat", api_key="bench")
        messages = [Message("system", "You are a store clerk."), Message("user", "Do you sell hinges?")]
        times = []
        for i in range(repeats["http"]):
            start = time.perf_counter()
            backend.complete(messages, SamplingParams(seed=i))
            times.append(time.perf_counter() - start)
    return {"baseline.http.complete_ms": statistics.median(times) * 1e3}


def cli_import(launcher: Launcher, repeats: dict) -> dict[str, float]:
    """``import dialogforge.cli`` minus a bare interpreter start, alternated."""
    bare, full = [], []
    for _ in range(repeats["cli"]):
        bare.append(launcher.python("pass").wall_s)
        full.append(launcher.python("import dialogforge.cli").wall_s)
    bare_s = statistics.median(bare)
    return {"cli.bare_python_s": bare_s, "cli.import_s": statistics.median(full) - bare_s}


def run_all(seed: int, size: str, launcher: Launcher) -> dict[str, float]:
    repeats = REPEATS[size]
    rows = {}
    rows.update(dialog_with(seed, repeats, launcher.scratch))
    rows.update(embed_and_cluster(seed, repeats))
    rows.update(http_round_trip(seed, repeats))
    rows.update(cli_import(launcher, repeats))
    return rows
