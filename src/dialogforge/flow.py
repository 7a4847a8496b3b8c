"""Action-transition graph extraction from dialogue corpora.

Utterances are embedded with a deterministic hashed term-frequency
embedder (a pluggable stand-in for a learned sentence encoder), clustered
per speaker side with seeded k-means, and each dialog contributes a path
START -> node(turn_0) -> ... -> node(turn_last) -> END. Edge weights are
transition counts with per-source-node probabilities.

The embedder contract: pass any ``text -> vector`` callable to
``build_flow_graph(embedder=...)`` to slot in a different encoder.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dialog import Dialog
from .errors import ConfigError

EMBED_DIM = 256

START_NODE = "START"
END_NODE = "END"

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# FNV-1a, 32-bit
_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193


def _fnv1a(token: str) -> int:
    value = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFF
    return value


def embed(text: str) -> np.ndarray:
    """Hashed term-frequency embedding: 256 buckets, L2-normalized.

    Lowercases, splits on non-alphanumeric characters, hashes each token
    with FNV-1a into one of 256 buckets, and normalizes the resulting
    term-frequency vector to unit length. Texts with no tokens map to the
    zero vector.
    """
    vector = np.zeros(EMBED_DIM, dtype=np.float64)
    for token in _TOKEN_RE.findall(text.lower()):
        vector[_fnv1a(token) % EMBED_DIM] += 1.0
    norm = math.sqrt(float(vector @ vector))
    if norm > 0.0:
        vector /= norm
    return vector


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; zero vectors compare as 0.0."""
    nu = math.sqrt(float(u @ u))
    nv = math.sqrt(float(v @ v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


@dataclass(frozen=True)
class ClusterModel:
    """Result of k-means over utterance vectors."""

    k: int
    centroids: np.ndarray
    assignments: tuple[int, ...]
    seed: int


def cluster(vectors: Sequence[np.ndarray], k: int, seed: int) -> ClusterModel:
    """Seeded Lloyd k-means with deterministic tie-breaking.

    Initial centroids are drawn without replacement from the distinct
    input vectors; assignment ties break toward the lowest cluster index;
    iteration stops when assignments stabilize or after 100 rounds. An
    empty cluster is repaired by stealing the point farthest from its own
    centroid.
    """
    if k <= 0:
        raise ConfigError("k must be positive")
    points = np.asarray(list(vectors), dtype=np.float64)
    if points.ndim != 2 or len(points) == 0:
        raise ConfigError("cluster() needs a non-empty list of vectors")

    distinct_index: dict[bytes, int] = {}
    for i, row in enumerate(points):
        distinct_index.setdefault(row.tobytes(), i)
    distinct_rows = list(distinct_index.values())
    if k > len(distinct_rows):
        raise ConfigError(
            f"k={k} exceeds the {len(distinct_rows)} distinct input vectors"
        )

    rng = random.Random(seed)
    chosen = rng.sample(range(len(distinct_rows)), k)
    centroids = points[[distinct_rows[c] for c in chosen]].copy()

    assignments = np.full(len(points), -1, dtype=np.int64)
    for _ in range(100):
        # squared distances, n x k; argmin ties go to the lowest index
        deltas = points[:, None, :] - centroids[None, :, :]
        distances = np.einsum("nkd,nkd->nk", deltas, deltas)
        new_assignments = distances.argmin(axis=1)

        for empty in range(k):
            if np.any(new_assignments == empty):
                continue
            counts = np.bincount(new_assignments, minlength=k)
            own_distance = distances[np.arange(len(points)), new_assignments]
            # only steal from clusters that keep at least one member
            stealable = counts[new_assignments] >= 2
            if not np.any(stealable):
                continue
            candidates = np.where(stealable, own_distance, -np.inf)
            new_assignments[int(candidates.argmax())] = empty

        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for c in range(k):
            members = points[assignments == c]
            if len(members):
                centroids[c] = members.mean(axis=0)

    return ClusterModel(
        k=k,
        centroids=centroids,
        assignments=tuple(int(a) for a in assignments),
        seed=seed,
    )


@dataclass(frozen=True)
class FlowNode:
    id: str
    speaker_side: str
    label: str
    size: int


@dataclass(frozen=True)
class FlowEdge:
    source: str
    target: str
    count: int
    probability: float


@dataclass(frozen=True)
class FlowGraph:
    """Action-transition graph: clustered utterance nodes, weighted edges,
    plus synthetic START and END nodes."""

    nodes: tuple[FlowNode, ...]
    edges: tuple[FlowEdge, ...]


# largest accepted |sum - 1| of a node's outgoing edge probabilities
_PROBABILITY_TOLERANCE = 1e-9


def validate_flow_graph(graph: FlowGraph) -> None:
    """Check per-source probability normalization; raise ConfigError on breach."""
    totals: dict[str, float] = {}
    for edge in graph.edges:
        if edge.count <= 0 or not 0.0 < edge.probability <= 1.0:
            raise ConfigError(f"invalid edge weight on {edge.source}->{edge.target}")
        totals[edge.source] = totals.get(edge.source, 0.0) + edge.probability
    for source, total in totals.items():
        if abs(total - 1.0) > _PROBABILITY_TOLERANCE:
            raise ConfigError(f"outgoing probabilities of {source} sum to {total}")


def _medoid(indices: list[int], vectors: np.ndarray) -> int:
    """Member index with maximal mean cosine to the cluster (ties: first)."""
    members = vectors[indices]
    mean_vector = members.mean(axis=0)
    scores = [cosine(vectors[i], mean_vector) for i in indices]
    best = max(range(len(indices)), key=lambda j: (scores[j], -j))
    return indices[best]


def build_flow_graph(
    dialogs: Sequence[Dialog],
    k: int,
    seed: int,
    embedder: Callable[[str], np.ndarray] = embed,
) -> FlowGraph:
    """Extract the action-transition graph of a corpus.

    Utterances are partitioned by speaker side (the corpus must contain at
    most two speaker names) and clustered separately: the first-appearing
    side receives ceil(k/2) clusters and the other floor(k/2). ``k`` is
    the abstraction knob: higher k, finer-grained action nodes.
    """
    if not dialogs:
        raise ConfigError("corpus is empty")

    sides: list[str] = []
    utterances: list[tuple[int, int, str]] = []  # (side_index, global_index, text)
    for dialog in dialogs:
        for turn in dialog.turns:
            if turn.speaker not in sides:
                sides.append(turn.speaker)
            utterances.append((sides.index(turn.speaker), len(utterances), turn.text))
    if len(sides) > 2:
        raise ConfigError(f"corpus has {len(sides)} speaker names; at most 2 supported")
    if not utterances:
        raise ConfigError("corpus has no turns")
    if k < len(sides):
        raise ConfigError(f"k={k} is below the number of speaker sides ({len(sides)})")

    if len(sides) == 1:
        side_ks = [k]
    else:
        side_ks = [math.ceil(k / 2), math.floor(k / 2)]

    vectors = np.asarray([embedder(text) for _, _, text in utterances])
    texts = [text for _, _, text in utterances]

    node_of: dict[int, str] = {}  # global utterance index -> node id
    nodes: list[FlowNode] = []
    for side_index, side in enumerate(sides):
        member_indices = [g for s, g, _ in utterances if s == side_index]
        try:
            model = cluster([vectors[g] for g in member_indices], side_ks[side_index],
                            seed=seed + side_index)
        except ConfigError as exc:
            distinct = [
                len({vectors[g].tobytes() for s, g, _ in utterances if s == i})
                for i in range(len(sides))
            ]
            largest = distinct[0]
            if len(sides) == 2:  # sides get ceil(k/2) and floor(k/2) clusters
                largest = min(2 * distinct[0], 2 * distinct[1] + 1)
            raise ConfigError(
                f"k={k} gives speaker side {side!r} {side_ks[side_index]} clusters, but it "
                f"has only {distinct[side_index]} distinct utterance vectors; "
                f"the largest usable k is {largest}"
            ) from exc
        groups: dict[int, list[int]] = {}
        for local, g in enumerate(member_indices):
            cluster_id = model.assignments[local]
            node_of[g] = f"s{side_index}c{cluster_id}"
            groups.setdefault(cluster_id, []).append(g)
        for cluster_id in sorted(groups):
            medoid = _medoid(groups[cluster_id], vectors)
            nodes.append(
                FlowNode(
                    id=f"s{side_index}c{cluster_id}",
                    speaker_side=side,
                    label=texts[medoid][:40],
                    size=len(groups[cluster_id]),
                )
            )

    counts: Counter[tuple[str, str]] = Counter()
    cursor = 0
    for dialog in dialogs:
        path = [START_NODE]
        path += [node_of[cursor + i] for i in range(len(dialog.turns))]
        path.append(END_NODE)
        cursor += len(dialog.turns)
        for source, target in zip(path, path[1:]):
            counts[(source, target)] += 1

    outgoing: Counter[str] = Counter()
    for (source, _), count in counts.items():
        outgoing[source] += count
    edges = tuple(
        FlowEdge(source=source, target=target, count=count,
                 probability=count / outgoing[source])
        for (source, target), count in sorted(counts.items())
    )

    nodes.append(FlowNode(id=START_NODE, speaker_side="", label=START_NODE,
                          size=len(dialogs)))
    nodes.append(FlowNode(id=END_NODE, speaker_side="", label=END_NODE,
                          size=len(dialogs)))
    return FlowGraph(nodes=tuple(sorted(nodes, key=lambda n: n.id)), edges=edges)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def flow_to_dot(graph: FlowGraph) -> str:
    """Render a flow graph as deterministic DOT text.

    Node shape encodes the speaker side; edges carry "count (probability)"
    labels; nodes and edges are emitted in sorted order so equal graphs
    produce byte-identical output.
    """
    shapes = ("box", "ellipse", "hexagon", "diamond")
    side_shape: dict[str, str] = {}
    for side in sorted({n.speaker_side for n in graph.nodes if n.speaker_side}):
        side_shape[side] = shapes[len(side_shape) % len(shapes)]

    lines = ["digraph dialog_flow {", "  rankdir=LR;"]
    for node in sorted(graph.nodes, key=lambda n: n.id):
        if node.id in (START_NODE, END_NODE):
            lines.append(f'  "{node.id}" [shape=doublecircle, label="{node.id}"];')
        else:
            shape = side_shape.get(node.speaker_side, "box")
            label = _dot_escape(f"{node.label} ({node.size})")
            lines.append(f'  "{node.id}" [shape={shape}, label="{label}"];')
    for edge in sorted(graph.edges, key=lambda e: (e.source, e.target)):
        label = f"{edge.count} ({edge.probability:.2f})"
        lines.append(
            f'  "{_dot_escape(edge.source)}" -> "{_dot_escape(edge.target)}" '
            f'[label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
