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
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .dialog import Dialog, Turn
from .errors import ConfigError

# the functions that use numpy import it, so commands that embed nothing
# (print, filter, scripted runs) start without it
if TYPE_CHECKING:
    import numpy as np

EMBED_DIM = 256

START_NODE = "START"
END_NODE = "END"

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# FNV-1a, 32-bit
_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193

# elements of a row block in cluster(), as (rows, k, d) differences or as
# member rows to sum: 512 KB of float64 whatever n and k are, small enough
# to stay in a core's L2 cache between the subtraction that writes it and
# the einsum that reads it (1 << 20 elements ran 20-30% slower on 10k-20k rows)
_BLOCK_ELEMENTS = 1 << 16


@lru_cache(maxsize=1 << 16)
def _bucket(token: str) -> int:
    value = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFF
    return value % EMBED_DIM


def _embed_rows(texts: Sequence[str]) -> np.ndarray:
    """The ``(len(texts), EMBED_DIM)`` matrix of the texts' embeddings, row by row.

    A block of texts at a time: one ``np.bincount`` counts the tokens of the
    whole block, each text's counts kept to its own row, and each row is
    divided by the norm of its integer counts, whose sum of squares is
    exact, so no row depends on its block. Texts without tokens give zeros.
    """
    import numpy as np

    out = np.empty((len(texts), EMBED_DIM))
    step = max(1, _BLOCK_ELEMENTS // EMBED_DIM)
    for start in range(0, len(texts), step):
        lengths: list[int] = []
        buckets: list[int] = []
        for text in texts[start:start + step]:
            tokens = _TOKEN_RE.findall(text.lower())
            lengths.append(len(tokens))
            buckets.extend(map(_bucket, tokens))
        offsets = np.arange(0, len(lengths) * EMBED_DIM, EMBED_DIM).repeat(lengths)
        counts = np.bincount(offsets + np.array(buckets, dtype=np.intp),
                             minlength=len(lengths) * EMBED_DIM).reshape(-1, EMBED_DIM)
        # a row with a token has a norm of at least 1; a row without one is 0 / 1
        norms = np.sqrt(np.maximum(np.add.reduce(counts * counts, axis=1, keepdims=True), 1))
        np.divide(counts, norms, out=out[start:start + step])
    return out


def embed(text: str) -> np.ndarray:
    """Hashed term-frequency embedding: 256 buckets, L2-normalized.

    Lowercases, takes each run of ASCII letters and digits as a token (so
    "café naïve" yields "caf", "na", "ve"), hashes each token with FNV-1a
    into one of 256 buckets, and normalizes the resulting term-frequency
    vector to unit length. Texts with no tokens map to the zero vector.
    """
    return _embed_rows([text])[0]


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

    centroids: np.ndarray
    assignments: tuple[int, ...]


def _first_occurrences(points: np.ndarray) -> np.ndarray:
    """Index of the first occurrence of each distinct row, in input order.

    Rows are equal when their bytes are (a -0.0 row differs from a 0.0 row). Each is
    checked against the first row of its 64-bit hash; a dict of row bytes decides
    if two distinct rows share a hash."""
    import numpy as np

    hashes = np.fromiter((hash(row.tobytes()) for row in points), np.int64, len(points))
    _, first, group = np.unique(hashes, return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[group] != np.arange(len(points)))
    step = max(1, _BLOCK_ELEMENTS // max(1, points.shape[1]))
    blocks = (repeats[start:start + step] for start in range(0, len(repeats), step))
    if all(points[rows].tobytes() == points[first[group[rows]]].tobytes() for rows in blocks):
        return np.sort(first)
    first_of: dict[bytes, int] = {}
    for i, row in enumerate(points):
        first_of.setdefault(row.tobytes(), i)
    return np.fromiter(first_of.values(), np.intp)


def _mean_of_rows(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``points[rows].mean(axis=0)`` to the bit, gathering a block of rows at a time
    into a buffer below the sum so far: numpy sums the rows of a matrix two or more
    columns wide in order, so the sum so far put above the next block continues it.
    One column, summed pairwise, is one block."""
    import numpy as np

    d = points.shape[1]
    step = max(1, _BLOCK_ELEMENTS // d) if d > 1 else len(rows)
    buffer = np.empty((min(step, len(rows) - 1) + 1, d))
    buffer[0] = points[rows[0]]
    for start in range(1, len(rows), step):
        block = rows[start:start + step]
        # the rows are valid indices; "clip" lets take() write to the buffer unbuffered
        np.take(points, block, axis=0, out=buffer[1:len(block) + 1], mode="clip")
        buffer[0] = np.add.reduce(buffer[:len(block) + 1], axis=0)
    return buffer[0] / len(rows)


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff of float64.

    A sum of n products computed in float64, in any order and with or without
    fused multiply-adds, is within gamma_n times the sum of the products'
    magnitudes of its exact value (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., section 3.1)."""
    nu = n * 2.0**-53
    return nu / (1.0 - nu)


def _recheck_tolerance(d: int, row_sq: float, centroid_sq: float) -> float:
    """The gap between a row's two smallest product-form squared distances
    above which their argmin is that of the exact form, given the largest
    computed squared norm of a row and of a centroid.

    With R and C bounds on the exact row and centroid norms, the product
    form sq - 2 x.c + csq and the exact form sum((x - c)**2) are each within
    gamma_{d+2} (R + C)**2 of the exact squared distance: a d-term dot
    product, and two further roundings. If the smallest product-form value
    is below every other by more than twice the two errors combined, it is
    the unique smallest exact-form value too. Below, the computed norms are
    raised by 1 / (1 - gamma) to bound the exact ones, and the result is
    doubled to cover its own rounding, the rounding of the gap and underflow
    (at most the smallest normal float, 2**-1022, per operation). An
    overflow makes it infinite or NaN, so every row is rechecked.
    """
    gamma = _gamma(d + 2)
    reach = math.sqrt(row_sq / (1.0 - gamma)) + math.sqrt(centroid_sq / (1.0 - gamma))
    return 2.0 * (4.0 * gamma * reach * reach + 4.0 * (d + 4) * 2.0**-1022)


def _products(points: np.ndarray, others: np.ndarray) -> np.ndarray:
    """``points @ others.T``, a block of rows at a time: one product over
    every row lets a threaded BLAS allocate buffers that raise the peak RSS
    of ``flow`` by a fifth."""
    import numpy as np

    out = np.empty((len(points), len(others)))
    step = max(1, _BLOCK_ELEMENTS // max(1, points.shape[1]))
    for start in range(0, len(points), step):
        np.matmul(points[start:start + step], others.T, out=out[start:start + step])
    return out


def cluster(vectors: Sequence[np.ndarray], k: int, seed: int) -> ClusterModel:
    """Seeded Lloyd k-means with deterministic tie-breaking.

    ``vectors`` is an (n, d) array or a sequence of n vectors of equal
    length, all finite; a float64 array is used as it is, not copied. Initial
    centroids are drawn without replacement from the distinct input vectors;
    assignment ties break toward the lowest cluster index; iteration stops
    when assignments stabilize or after 100 rounds. An empty cluster is
    repaired by stealing the point farthest from its own centroid.

    Each round computes every squared distance as ||x||^2 - 2 x.c + ||c||^2,
    with one matrix product a block of rows at a time and einsum norms. A
    row keeps the argmin of those only when its two smallest are further
    apart than their rounding error, summed in any order, can explain
    (``_recheck_tolerance``); every other row, and
    every row of a round that repairs an empty cluster, gets the sums of
    squared differences, a block of rows at a time. The assignments and
    centroids are those of sums of squared differences for every row, bit
    for bit, and memory grows with n*(d + k), not n*k*d.
    """
    import numpy as np

    if k <= 0:
        raise ConfigError("k must be positive")
    try:
        points = np.asarray(vectors, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cluster() needs numeric vectors of one length: {exc}") from exc
    if points.ndim != 2 or len(points) == 0:
        raise ConfigError("cluster() needs a non-empty list of vectors")
    # min and max are NaN if any entry is, so max() keeps it
    magnitude = max(-float(points.min(initial=0.0)), float(points.max(initial=0.0)))
    if not math.isfinite(magnitude):
        raise ConfigError("cluster() needs finite vectors; got NaN or infinity")

    distinct_rows = _first_occurrences(points)
    if k > len(distinct_rows):
        raise ConfigError(f"k={k} exceeds the {len(distinct_rows)} distinct input vectors")

    rng = random.Random(seed)
    chosen = rng.sample(range(len(distinct_rows)), k)
    centroids = points[[distinct_rows[c] for c in chosen]].copy()

    n, d = points.shape
    block = max(1, _BLOCK_ELEMENTS // max(1, k * d))
    row_sq = np.einsum("ij,ij->i", points, points)
    largest_row_sq = float(row_sq.max())

    def exact_argmin(distances: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # rewrites the rows' squared distances as sums of squared differences;
        # ties go to the lowest index
        for start in range(0, len(rows), block):
            chunk = rows[start:start + block]
            deltas = points[chunk, None, :] - centroids[None, :, :]
            distances[chunk] = np.einsum("nkd,nkd->nk", deltas, deltas)
        return distances[rows].argmin(axis=1)

    assignments = np.full(n, -1, dtype=np.int64)
    for _ in range(100):
        centroid_sq = np.einsum("ij,ij->i", centroids, centroids)
        distances = _products(points, centroids)
        distances *= -2.0
        distances += row_sq[:, None]
        distances += centroid_sq
        new_assignments = distances.argmin(axis=1)
        if k > 1:
            nearest = np.partition(distances, 1, axis=1)
            gap = nearest[:, 1] - nearest[:, 0]
            tolerance = _recheck_tolerance(d, largest_row_sq, float(centroid_sq.max()))
            # so is a NaN gap, and a row with an infinite or NaN product-form value
            unsure = np.flatnonzero(~(gap > tolerance) | ~np.isfinite(distances.sum(axis=1)))
            new_assignments[unsure] = exact_argmin(distances, unsure)

        if not np.bincount(new_assignments, minlength=k).all():
            # the repair reads every row's distance
            new_assignments = exact_argmin(distances, np.arange(n))
        # k <= distinct rows <= n, so while a cluster is empty another has two members
        for empty in range(k):
            if np.any(new_assignments == empty):
                continue
            counts = np.bincount(new_assignments, minlength=k)
            own_distance = distances[np.arange(n), new_assignments]
            # only steal from clusters that keep at least one member
            stealable = counts[new_assignments] >= 2
            candidates = np.where(stealable, own_distance, -np.inf)
            new_assignments[int(candidates.argmax())] = empty

        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for c in range(k):
            centroids[c] = _mean_of_rows(points, np.flatnonzero(assignments == c))

    return ClusterModel(centroids=centroids, assignments=tuple(int(a) for a in assignments))


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
    """Check unique node ids, edges between nodes and per-source probability
    normalization; raise ConfigError on breach."""
    ids = {node.id for node in graph.nodes}
    if len(ids) != len(graph.nodes):
        raise ConfigError("flow graph node ids must be unique")
    totals: dict[str, float] = {}
    for edge in graph.edges:
        if edge.source not in ids or edge.target not in ids:
            raise ConfigError(f"edge {edge.source}->{edge.target} references a missing node")
        if edge.count <= 0 or not 0.0 < edge.probability <= 1.0:
            raise ConfigError(f"invalid edge weight on {edge.source}->{edge.target}")
        totals[edge.source] = totals.get(edge.source, 0.0) + edge.probability
    for source, total in totals.items():
        if abs(total - 1.0) > _PROBABILITY_TOLERANCE:
            raise ConfigError(f"outgoing probabilities of {source} sum to {total}")


def _medoid(indices: list[int], vectors: np.ndarray, mean_vector: np.ndarray,
            dots: np.ndarray, squared_norms: np.ndarray) -> int:
    """Member index with maximal ``cosine`` to the cluster mean (ties: first).

    ``dots`` and ``squared_norms`` hold each member's product with the mean
    and its squared norm, computed over many rows at once. The cosine they
    give is within rounding of the member's ``cosine``, so only the members
    that could be the best by it are scored with it. A member or mean whose
    norm is outside [1e-140, 1e140], where underflow or overflow could break
    that bound, is always scored; so is every member of a zero mean.
    """
    import numpy as np

    norms = np.sqrt(squared_norms)
    mean_norm = math.sqrt(float(mean_vector @ mean_vector))
    # each cosine computed either way is within 4 gamma_{d+4} of the exact one
    slack = 8.0 * _gamma(len(mean_vector) + 4)
    scale = norms * mean_norm
    scores = np.divide(dots, scale, out=np.zeros(len(dots)), where=scale > 0.0)
    bounded = (norms == 0.0) | ((norms >= 1e-140) & (norms <= 1e140))
    if not 1e-140 <= mean_norm <= 1e140:
        bounded[:] = False
    best = float(scores[bounded].max(initial=-np.inf))
    candidates = np.flatnonzero(~bounded | (scores >= best - 2.0 * slack))
    return max((indices[i] for i in candidates),
               key=lambda i: cosine(vectors[i], mean_vector))


def _transition_graph(
    nodes: Iterable[FlowNode], paths: Iterable[Sequence[str]], end_size: int
) -> FlowGraph:
    """Graph over ``nodes`` whose edges count the consecutive pairs of ``paths``.

    An edge's probability is its count over the total count leaving its
    source. START and END join the nodes with size ``end_size``; nodes are
    sorted by id and edges by (source, target).
    """
    counts = Counter(pair for path in paths for pair in zip(path, path[1:]))
    outgoing: Counter[str] = Counter()
    for (source, _), count in counts.items():
        outgoing[source] += count
    edges = tuple(
        FlowEdge(source=source, target=target, count=count,
                 probability=count / outgoing[source])
        for (source, target), count in sorted(counts.items())
    )
    ends = [FlowNode(id=end, speaker_side="", label=end, size=end_size)
            for end in (START_NODE, END_NODE)]
    return FlowGraph(nodes=tuple(sorted([*nodes, *ends], key=lambda n: n.id)), edges=edges)


def _embed_turns(turns: Sequence[Turn], indices: Sequence[int],
                 embedder: Callable[[str], np.ndarray], shape: tuple | None) -> np.ndarray:
    """Row j is turn ``indices[j]``'s vector; ``shape``, turn 0's, is None if turn 0 is first."""
    import numpy as np

    if embedder is embed:
        return _embed_rows([turns[i].text for i in indices])
    for row, i in enumerate(indices):
        vector = np.asarray(embedder(turns[i].text))
        shape = shape or vector.shape
        if len(shape) != 1:
            raise ConfigError(f"embedder returned shape {shape} for turn 0; "
                              "a vector must be 1-D")
        if vector.shape != shape:
            raise ConfigError(f"embedder returned shape {vector.shape} for turn {i} "
                              f"but {shape} for turn 0")
        if not np.isfinite(vector).all():
            raise ConfigError(f"embedder returned NaN or infinity for turn {i}")
        if row == 0:
            vectors = np.empty((len(indices), *shape))
        vectors[row] = vector
    return vectors


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
    import numpy as np

    if not dialogs:
        raise ConfigError("corpus is empty")

    turns = [turn for dialog in dialogs for turn in dialog.turns]
    sides = list(dict.fromkeys(turn.speaker for turn in turns))
    if len(sides) > 2:
        raise ConfigError(f"corpus has {len(sides)} speaker names; at most 2 supported")
    if not turns:
        raise ConfigError("corpus has no turns")
    if k < len(sides):
        raise ConfigError(f"k={k} is below the number of speaker sides ({len(sides)})")
    side_ks = [k] if len(sides) == 1 else [math.ceil(k / 2), math.floor(k / 2)]

    members = [[i for i, turn in enumerate(turns) if turn.speaker == side] for side in sides]
    node_of = [""] * len(turns)
    nodes: list[FlowNode] = []
    shape = None
    for side_index, (side, indices) in enumerate(zip(sides, members)):
        vectors = _embed_turns(turns, indices, embedder, shape)
        shape = vectors.shape[1:]
        try:
            model = cluster(vectors, side_ks[side_index], seed=seed + side_index)
        except ConfigError as exc:
            distinct = [len(_first_occurrences(_embed_turns(turns, rows, embedder, shape)))
                        for rows in members]
            largest = distinct[0]
            if len(sides) == 2:  # sides get ceil(k/2) and floor(k/2) clusters
                largest = min(2 * distinct[0], 2 * distinct[1] + 1)
            raise ConfigError(
                f"k={k} gives speaker side {side!r} {side_ks[side_index]} clusters, but it "
                f"has only {distinct[side_index]} distinct utterance vectors; "
                f"the largest usable k is {largest}"
            ) from exc
        groups: dict[int, list[int]] = {}
        for j, cluster_id in enumerate(model.assignments):
            node_of[indices[j]] = f"s{side_index}c{cluster_id}"
            groups.setdefault(cluster_id, []).append(j)
        # each final centroid is its members' mean, bit for bit
        dots = _products(vectors, model.centroids)
        squared_norms = np.einsum("ij,ij->i", vectors, vectors)
        for cluster_id, group in sorted(groups.items()):
            medoid = _medoid(group, vectors, model.centroids[cluster_id],
                             dots[group, cluster_id], squared_norms[group])
            nodes.append(FlowNode(id=f"s{side_index}c{cluster_id}", speaker_side=side,
                                  label=turns[indices[medoid]].text[:40], size=len(group)))
        del vectors, dots  # freed before the next side's matrix is built

    bounds = list(accumulate((len(dialog.turns) for dialog in dialogs), initial=0))
    paths = [[START_NODE, *node_of[a:b], END_NODE] for a, b in zip(bounds, bounds[1:])]
    return _transition_graph(nodes, paths, end_size=len(dialogs))


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
            lines.append(f'  "{_dot_escape(node.id)}" [shape={shape}, label="{label}"];')
    for edge in sorted(graph.edges, key=lambda e: (e.source, e.target)):
        label = f"{edge.count} ({edge.probability:.2f})"
        lines.append(
            f'  "{_dot_escape(edge.source)}" -> "{_dot_escape(edge.target)}" '
            f'[label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
