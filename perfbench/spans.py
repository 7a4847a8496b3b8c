"""In-memory spans around calls into dialogforge's layers, and their analysis.

A span is ``(id, parent, trace, name, start_ns, end_ns, note)``: ``parent``
is the id of the span that was open when it started (0 for a root),
``trace`` groups the spans of one dialog (or of one CLI command), and
``note`` is a number the wrapper records about the call (a message count,
a byte count, whether an orchestrator fired; -1 when the call raised).
Spans are kept in a list and written out once, when the traced process
ends.

The layer of a span is the first component of its name, except that time
inside the HTTP client call is its own ``wire`` layer, so that waiting on
the server does not read as work in ``backends``.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = ("cli", "agents", "orchestrators", "dialog", "backends", "wire", "flow")
ORCHESTRATOR_KINDS = ("length", "change_mind", "simple_reflex", "simple_response", "instruction_list")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._trace = 0
        self._next_id = 1

    def wrap(
        self,
        name: str,
        fn: Callable,
        note: Callable[[tuple, dict, Any], float] | None = None,
        new_trace: bool = False,
    ) -> Callable:
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else 0
            if new_trace:
                self._trace += 1
            trace = self._trace
            stack.append(span_id)
            value = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                end = clock()
                if note is not None:
                    value = note(args, kwargs, result)
                return result
            except BaseException:
                end = clock()
                value = -1
                raise
            finally:
                stack.pop()
                spans.append((span_id, parent, trace, name, start, end, value))

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def load(path: str, id_offset: int, trace_offset: int) -> list[tuple]:
    """Read spans written by ``Tracer.dump``, shifting span and trace ids so
    that the spans of several processes can be pooled."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return [
        (i + id_offset, p + id_offset if p else 0, t + trace_offset, n, s, e, v)
        for i, p, t, n, s, e, v in raw
    ]


def layer_of(name: str) -> str:
    return "wire" if name.startswith("backends.http") else name.split(".", 1)[0]


def self_ns(spans: list[tuple]) -> dict[int, int]:
    """Span id -> its duration minus the time its direct children cover.

    Spans of one process never overlap except by nesting, so summing the
    children's durations gives the covered time."""
    covered: dict[int, int] = defaultdict(int)
    for _, parent, _, _, start, end, _ in spans:
        if parent:
            covered[parent] += end - start
    return {s[0]: s[5] - s[4] - covered[s[0]] for s in spans}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def growth(spans: list[tuple], own: dict[int, int]) -> float:
    """Mean self time of the last tenth of calls over that of the first
    tenth, per trace (one dialog), averaged over traces."""
    by_trace: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        by_trace[span[2]].append(span)
    ratios = []
    for calls in by_trace.values():
        calls.sort(key=lambda s: s[4])
        tenth = math.ceil(len(calls) / 10)
        first = mean(own[s[0]] for s in calls[:tenth])
        if first > 0:
            ratios.append(mean(own[s[0]] for s in calls[-tenth:]) / first)
    return mean(ratios)


def analyze(spans: list[tuple], requests: list | None = None) -> dict[str, float]:
    """Per-layer metrics of one traced repetition of a workload.

    ``requests`` are the mock server's records of the same repetition, if
    it talked to one. A layer the workload does not exercise reads 0.
    """
    own = self_ns(spans)
    named: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        named[span[3]].append(span)

    def durations(name: str, scale: float) -> list[float]:
        return [(s[5] - s[4]) / scale for s in named[name]]

    def own_of(name: str, scale: float) -> list[float]:
        return [own[s[0]] / scale for s in named[name]]

    def throughput_mb_s(name: str) -> float:
        seconds = sum(durations(name, 1e9))
        return sum(s[6] for s in named[name]) / 1e6 / seconds if seconds else 0.0

    m: dict[str, float] = {}
    respond = own_of("agents.respond", 1e3)
    m["agents.respond.calls"] = len(respond)
    m["agents.respond.self_us.p50"] = percentile(respond, 50)
    m["agents.respond.self_us.p95"] = percentile(respond, 95)
    m["agents.respond.growth"] = growth(named["agents.respond"], own)
    m["agents.prompt_messages.mean"] = mean(s[6] for s in named["backends.complete"])

    instructs = [s for kind in ORCHESTRATOR_KINDS for s in named[f"orchestrators.{kind}.instruct"]]
    m["orchestrators.instruct.calls"] = len(instructs)
    m["orchestrators.fired_ratio"] = mean(s[6] for s in instructs)
    for kind in ORCHESTRATOR_KINDS:
        m[f"orchestrators.{kind}.us_per_call"] = mean(own_of(f"orchestrators.{kind}.instruct", 1e3))
    m["orchestrators.instruction_list.growth"] = growth(named["orchestrators.instruction_list.instruct"], own)

    appends = named["dialog.append_utterance"] + named["dialog.append_event"]
    m["dialog.append.us_per_call"] = mean(own[s[0]] / 1e3 for s in appends)
    m["dialog.append.growth"] = growth(appends, own)
    m["dialog.serialize.ms_per_dialog"] = mean(durations("dialog.serialize", 1e6))
    m["dialog.serialize.mb_per_s"] = throughput_mb_s("dialog.serialize")
    m["dialog.write.ms_per_file"] = mean(durations("dialog.write", 1e6))
    m["dialog.parse.ms_per_file"] = mean(durations("dialog.parse", 1e6))
    m["dialog.parse.mb_per_s"] = throughput_mb_s("dialog.parse")
    m["dialog.render.ms_per_file"] = mean(durations("dialog.render", 1e6))

    complete_ms = durations("backends.complete", 1e6)
    posts = named["backends.http.post"]
    requests = requests or []
    m["backends.complete.calls"] = len(complete_ms)
    m["backends.complete.ms.p50"] = percentile(complete_ms, 50)
    m["backends.complete.ms.p95"] = percentile(complete_ms, 95)
    if posts and requests:
        handled_ms = mean((r.sent - r.arrival) * 1e3 for r in requests)
        m["backends.http.overhead_ms"] = mean(complete_ms) - handled_ms
        m["backends.http.connections_per_call"] = len({r.connection for r in requests}) / len(complete_ms)
        m["backends.http.request_kb.mean"] = mean(r.body_bytes / 1024 for r in requests)
    else:
        m["backends.http.overhead_ms"] = 0.0
        m["backends.http.connections_per_call"] = 0.0
        m["backends.http.request_kb.mean"] = 0.0
    m["backends.http.retries"] = max(0, len(posts) - len(complete_ms)) if posts else 0
    m["backends.http.failures"] = sum(s[6] == -1 for s in named["backends.complete"]) + sum(
        r.status != 200 for r in requests
    )

    m["flow.embed.calls"] = len(named["flow.embed"])
    m["flow.embed.us_per_text"] = mean(durations("flow.embed", 1e3))
    m["flow.cluster.s"] = sum(durations("flow.cluster", 1e9))
    m["flow.cluster.peak_mb"] = max((s[6] for s in named["flow.cluster"]), default=0.0)
    m["flow.build_flow_graph.self_s"] = sum(own_of("flow.build_flow_graph", 1e9))
    m["flow.to_dot.ms"] = mean(durations("flow.to_dot", 1e6))

    by_layer: dict[str, int] = defaultdict(int)
    for span in spans:
        by_layer[layer_of(span[3])] += own[span[0]]
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = by_layer[layer] / 1e9
    return m


def mock_metrics(requests: list) -> dict[str, float]:
    """The mock server's view of one untraced repetition."""
    if not requests:
        return {"mock.inflight.max": 0, "mock.queue_wait_ms": 0.0, "mock.client_gap_ms": 0.0}
    ordered = sorted(requests, key=lambda r: r.arrival)
    gaps = [(b.arrival - a.sent) * 1e3 for a, b in zip(ordered, ordered[1:])]
    return {
        "mock.inflight.max": max(r.inflight for r in requests),
        "mock.queue_wait_ms": percentile([(r.arrival - r.accepted) * 1e3 for r in requests], 50),
        "mock.client_gap_ms": percentile(gaps, 50),
    }
