"""Action-transition graph extraction from dialogue corpora.

Utterances are embedded with a deterministic hashed term-frequency
embedder (a pluggable stand-in for a learned sentence encoder), clustered
per speaker side with seeded k-means, and each dialog contributes a path
START -> node(turn_0) -> ... -> node(turn_last) -> END. Edge weights are
transition counts with per-source-node probabilities.

``build_flow_graph`` reads its dialogs once, from any iterable, keeping each
turn's speaker and text and each dialog's turn count. A side's vectors are
held as compressed sparse rows, one entry per non-zero; k-means sums them
entry by entry, and every dense step reads its rows from one generator,
``_dense_rows``, a block of a few rows at a time. So memory grows with the
larger side's token entries, not with its utterances times the 256 buckets.

The embedder contract: pass any ``text -> vector`` callable to
``build_flow_graph(embedder=...)`` to slot in a different encoder.
"""

from __future__ import annotations

import math
import numbers
import random
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .dialog import Dialog
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

# elements of a dense block: rows filled from the sparse rows or (rows, k, d)
# differences. 512 KB of float64 whatever n and k are, small enough to stay
# in a core's L2 cache between the step that writes it and the one that reads
# it (1 << 20 elements ran 20-30% slower on 10k-20k rows)
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class _Rows:
    """An (n, d) float64 matrix as compressed sparse rows.

    Row i's entries are ``indices[offsets[i]:offsets[i + 1]]`` (ascending
    column numbers, in the smallest unsigned type that holds d - 1) and the
    ``values`` at the same places. An entry is stored exactly when its bits
    are not those of +0.0, so -0.0 is kept and rows are equal exactly when
    their dense bytes are.
    """

    offsets: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    d: int

    def __len__(self) -> int:
        return len(self.offsets) - 1


def _join(blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]], d: int) -> _Rows:
    """The rows of consecutive blocks, each given as (row lengths, indices, values)."""
    import numpy as np

    # a first block of the 0 that starts the offsets, and no entries
    empty = np.zeros(1, np.int64), np.zeros(0, np.min_scalar_type(max(d - 1, 0))), np.zeros(0)
    lengths, indices, values = zip(empty, *blocks)
    return _Rows(offsets=np.concatenate(lengths).cumsum(), indices=np.concatenate(indices),
                 values=np.concatenate(values), d=d)


def _sparse(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row lengths, indices, values) of a dense float64 block's entries that are not +0.0."""
    import numpy as np

    block = np.ascontiguousarray(block)
    stored = block.view(np.uint64) != 0
    columns = np.nonzero(stored)[1].astype(np.min_scalar_type(max(block.shape[1] - 1, 0)))
    return np.count_nonzero(stored, axis=1), columns, block[stored]


def _height(width: int) -> int:
    """Rows in a block of ``width`` elements a row, at least one."""
    return max(1, _BLOCK_ELEMENTS // max(1, width))


def _as_rows(vectors: np.ndarray) -> _Rows:
    """A 2-D float64 array as sparse rows, converted a block at a time."""
    step = _height(vectors.shape[1])
    return _join([_sparse(vectors[start:start + step])
                  for start in range(0, len(vectors), step)], vectors.shape[1])


def _dense_rows(rows: _Rows, chosen: range | np.ndarray, width: int) -> Iterator[tuple]:
    """Yield ``(chunk, dense)`` for the rows ``chosen`` (a range of step 1 or an
    index array), ``_height(width)`` at a time: ``dense`` holds the rows of
    ``chunk`` as the dense matrix has them, bit for bit. Every block is a view
    of one zeroed buffer, and zeroes only the entries the previous one wrote,
    so it costs its rows' entries, not its rows times d."""
    import numpy as np

    height = _height(width)
    buffer = np.zeros((min(height, len(chosen)), rows.d))
    flat = buffer.reshape(-1)
    written = np.zeros(0, np.intp)
    for start in range(0, len(chosen), height):
        chunk = chosen[start:start + height]
        flat[written] = 0.0
        if isinstance(chunk, range):  # consecutive rows, whose entries are consecutive too
            lengths = np.diff(rows.offsets[chunk.start:chunk.stop + 1])
            at = slice(rows.offsets[chunk.start], rows.offsets[chunk.stop])
        else:
            starts = rows.offsets[chunk]
            lengths = rows.offsets[chunk + 1] - starts
            # each entry's place in the store: its row's start plus its rank in the row
            before = lengths.cumsum() - lengths
            at = np.arange(int(lengths.sum())) + (starts - before).repeat(lengths)
        written = rows.indices[at] + np.repeat(np.arange(len(chunk)) * rows.d, lengths)
        flat[written] = rows.values[at]
        yield chunk, buffer[:len(chunk)]


def _squared_norms(rows: _Rows) -> np.ndarray:
    """Each row's sum of squares over its stored values; every use of it
    allows for the rounding of a sum in any order."""
    import numpy as np

    owners = np.repeat(np.arange(len(rows)), np.diff(rows.offsets))
    return np.bincount(owners, weights=rows.values * rows.values, minlength=len(rows))


@lru_cache(maxsize=1 << 16)
def _bucket(token: str) -> int:
    value = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFF
    return value % EMBED_DIM


def _embed_rows(texts: Sequence[str]) -> _Rows:
    """The texts' embeddings as sparse rows, row by row.

    A block of texts at a time: each token's key, its text's row times
    ``EMBED_DIM`` plus its bucket, is sorted and counted, which gives each
    row's bucket counts in ascending bucket order. A row's values are its
    counts over the square root of their sum of squares, an exact integer,
    so no row depends on its block and each value has the bits of the dense
    ``counts / norm``. Texts without tokens give empty rows.
    """
    import numpy as np

    blocks = []
    step = _height(EMBED_DIM)
    for start in range(0, len(texts), step):
        lengths: list[int] = []
        buckets: list[int] = []
        for text in texts[start:start + step]:
            tokens = _TOKEN_RE.findall(text.lower())
            lengths.append(len(tokens))
            buckets.extend(map(_bucket, tokens))
        keys = np.arange(0, len(lengths) * EMBED_DIM, EMBED_DIM).repeat(lengths)
        keys += np.array(buckets, dtype=np.intp)
        keys.sort()
        # the end of each run of equal keys, and the run's length
        last = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=last[:-1])
        ends = np.flatnonzero(last) + 1
        counts = ends.copy()
        counts[1:] -= ends[:-1]
        rows, columns = np.divmod(keys[ends - 1], EMBED_DIM)
        squares = np.bincount(rows, weights=counts * counts, minlength=len(lengths))
        # a row with a token has a norm of at least 1; a row without one has no entries
        norms = np.sqrt(np.maximum(squares, 1))
        blocks.append((np.bincount(rows, minlength=len(lengths)), columns.astype(np.uint8),
                       counts / norms[rows]))
    return _join(blocks, EMBED_DIM)


def embed(text: str) -> np.ndarray:
    """Hashed term-frequency embedding: 256 buckets, L2-normalized.

    Lowercases, takes each run of ASCII letters and digits as a token (so
    "café naïve" yields "caf", "na", "ve"), hashes each token with FNV-1a
    into one of 256 buckets, and normalizes the resulting term-frequency
    vector to unit length. Texts with no tokens map to the zero vector.
    """
    import numpy as np

    # one text's few buckets, counted without numpy's per-call cost; the
    # integer sum of squares, its sqrt and each division round as in
    # _embed_rows, so the bits are the same
    counts = Counter(map(_bucket, _TOKEN_RE.findall(text.lower())))
    norm = math.sqrt(max(sum(count * count for count in counts.values()), 1))
    vector = np.zeros(EMBED_DIM)
    for bucket, count in counts.items():
        vector[bucket] = count / norm
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

    centroids: np.ndarray
    assignments: tuple[int, ...]


def _first_occurrences(rows: _Rows) -> np.ndarray:
    """Index of the first occurrence of each distinct row, in input order.

    Rows are equal when their dense bytes are (a -0.0 row differs from a 0.0
    row), which is when their index and value bytes are. Each row is checked
    against the first row of its 64-bit hash; a dict of row bytes decides if
    two distinct rows share a hash."""
    import numpy as np

    offsets = rows.offsets.tolist()
    width = rows.indices.itemsize
    index_bytes = memoryview(rows.indices).cast("B")
    value_bytes = memoryview(rows.values).cast("B")

    def key(i: int) -> bytes:  # a row's m entries give m * width + 8 * m bytes
        a, b = offsets[i], offsets[i + 1]
        return index_bytes[a * width:b * width].tobytes() + value_bytes[8 * a:8 * b].tobytes()

    n = len(rows)
    hashes = np.fromiter((hash(key(i)) for i in range(n)), np.int64, n)
    _, first, group = np.unique(hashes, return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[group] != np.arange(n))
    if all(key(i) == key(j) for i, j in zip(repeats.tolist(), first[group[repeats]].tolist())):
        return np.sort(first)
    first_of: dict[bytes, int] = {}
    for i in range(n):
        first_of.setdefault(key(i), i)
    return np.fromiter(first_of.values(), np.intp)


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


def _products(rows: _Rows, others: np.ndarray) -> np.ndarray:
    """The dense rows times ``others.T``, one filled block of rows at a time:
    one product over every row would also let a threaded BLAS allocate
    buffers that raise the peak RSS of ``flow`` by a fifth."""
    import numpy as np

    out = np.empty((len(rows), len(others)))
    for chunk, dense in _dense_rows(rows, range(len(rows)), rows.d):
        np.matmul(dense, others.T, out=out[chunk.start:chunk.stop])
    return out


def cluster(vectors: Sequence[np.ndarray], k: int, seed: int) -> ClusterModel:
    """Seeded Lloyd k-means with deterministic tie-breaking.

    ``vectors`` is an (n, d) array or a sequence of n vectors of equal
    length, all finite; it is held as sparse rows, so memory grows with its
    non-zero entries. Initial centroids are drawn without replacement from
    the distinct input vectors; assignment ties break toward the lowest
    cluster index; iteration stops when assignments stabilize or after 100
    rounds. An empty cluster is repaired by stealing the point farthest
    from its own centroid.

    Each round computes every squared distance as ||x||^2 - 2 x.c + ||c||^2,
    with one matrix product a block of rows at a time. A row keeps the
    argmin of those only when its two smallest are further apart than their
    rounding error, summed in any order, can explain
    (``_recheck_tolerance``); every other row, and every row of a round that
    repairs an empty cluster, gets the sums of squared differences, a block
    of rows at a time. The assignments and centroids are those of sums of
    squared differences for every dense row, bit for bit, and memory beyond
    the rows grows with n*k, not n*k*d.

    Each centroid is its members' ``mean(axis=0)``, bit for bit: numpy sums
    rows two or more columns wide in order from +0.0, as one ``np.bincount``
    of the stored entries by (cluster, bucket) does, and an absent +0.0
    entry changes no such sum. One column numpy sums pairwise, as at d = 1.
    """
    import numpy as np

    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ConfigError(f"k must be an integer, got {k!r}")
    if k <= 0:
        raise ConfigError("k must be positive")
    if isinstance(vectors, _Rows):
        points = vectors
    else:
        try:
            dense = np.asarray(vectors)
            if dense.dtype.kind == "c":
                raise TypeError("complex values are not real")
            dense = dense.astype(np.float64, copy=False)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"cluster() needs numeric vectors of one length: {exc}") from exc
        if dense.ndim != 2 or len(dense) == 0:
            raise ConfigError("cluster() needs a non-empty list of vectors")
        points = _as_rows(dense)
    # min and max are NaN if any entry is, so max() keeps it
    values = points.values
    magnitude = max(-float(values.min(initial=0.0)), float(values.max(initial=0.0)))
    if not math.isfinite(magnitude):
        raise ConfigError("cluster() needs finite vectors; got NaN or infinity")

    distinct_rows = _first_occurrences(points)
    if k > len(distinct_rows):
        raise ConfigError(f"k={k} exceeds the {len(distinct_rows)} distinct input vectors")

    n, d = len(points), points.d
    rng = random.Random(seed)
    chosen = rng.sample(range(len(distinct_rows)), k)
    centroids = np.concatenate([block.copy() for _, block
                                in _dense_rows(points, distinct_rows[chosen], d)])
    row_sq = _squared_norms(points)
    largest_row_sq = float(row_sq.max())

    def exact_argmin(distances: np.ndarray, rows: range | np.ndarray) -> np.ndarray:
        # rewrites the rows' squared distances as sums of squared differences;
        # ties go to the lowest index
        for chunk, dense in _dense_rows(points, rows, k * d):
            deltas = dense[:, None, :] - centroids[None, :, :]
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
            new_assignments = exact_argmin(distances, range(n))
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
        if d == 1:  # numpy sums one column pairwise; a row has at most one entry
            column = np.zeros((n, 1))
            column[np.diff(points.offsets) > 0, 0] = points.values
            for c in range(k):
                centroids[c] = np.add.reduce(column[assignments == c], axis=0)
        else:
            # each (cluster, bucket) sum adds its stored entries in row order
            keys = np.repeat(assignments * d, np.diff(points.offsets))
            keys += points.indices
            centroids[:] = np.bincount(keys, weights=points.values,
                                       minlength=k * d).reshape(k, d)
            del keys  # not held through the next round's products
        centroids /= np.bincount(assignments, minlength=k)[:, None]

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


def _medoid(indices: list[int], rows: _Rows, mean_vector: np.ndarray,
            dots: np.ndarray, squared_norms: np.ndarray) -> int:
    """Member index with maximal ``cosine`` to the cluster mean (ties: first).

    ``dots`` and ``squared_norms`` hold each member's product with the mean
    and its squared norm, computed over many rows at once. The cosine they
    give is within rounding of the member's ``cosine``, so only the members
    that could be the best by it are scored with it, on dense rows filled a
    block at a time. A member or mean whose norm is outside [1e-140, 1e140],
    where underflow or overflow could break that bound, is always scored; so
    is every member of a zero mean.
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
    members = np.asarray(indices)[np.flatnonzero(~bounded | (scores >= best - 2.0 * slack))]
    scored = ((cosine(row, mean_vector), member)
              for chunk, dense in _dense_rows(rows, members, rows.d)
              for member, row in zip(chunk.tolist(), dense))
    return max(scored, key=itemgetter(0))[1]


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


def _embed_side(texts: Sequence[str], embedder: Callable[[str], np.ndarray],
                shape: tuple | None, turn_of: Callable[[int], int]) -> _Rows:
    """The texts' vectors as sparse rows; a custom embedder's go in a block at a time.

    ``shape`` is turn 0's, None if turn 0 is the first text; ``turn_of(j)``
    is the corpus turn number of text j, for messages."""
    import numpy as np

    if embedder is embed:
        return _embed_rows(texts)
    blocks, pending = [], []
    for j, text in enumerate(texts):
        vector = np.asarray(embedder(text))
        if vector.dtype.kind not in "biuf":
            raise ConfigError(f"embedder returned non-real values for turn {turn_of(j)}")
        shape = shape or vector.shape
        if len(shape) != 1:
            raise ConfigError(f"embedder returned shape {shape} for turn 0; "
                              "a vector must be 1-D")
        if vector.shape != shape:
            raise ConfigError(f"embedder returned shape {vector.shape} for turn {turn_of(j)} "
                              f"but {shape} for turn 0")
        if not np.isfinite(vector).all():
            raise ConfigError(f"embedder returned NaN or infinity for turn {turn_of(j)}")
        pending.append(vector.astype(np.float64))  # a copy: the embedder may reuse its array
        if len(pending) == _height(shape[0]) or j == len(texts) - 1:
            blocks.append(_sparse(np.array(pending)))
            pending.clear()
    return _join(blocks, shape[0])


def build_flow_graph(
    dialogs: Iterable[Dialog],
    k: int,
    seed: int,
    embedder: Callable[[str], np.ndarray] = embed,
) -> FlowGraph:
    """Extract the action-transition graph of a corpus.

    ``dialogs`` is read once, in order. Utterances are partitioned by
    speaker side (the corpus must contain at most two speaker names) and
    clustered separately: the first-appearing side receives ceil(k/2)
    clusters and the other floor(k/2). ``k`` is the abstraction knob:
    higher k, finer-grained action nodes.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ConfigError(f"k must be an integer, got {k!r}")
    side_of: dict[str, int] = {}
    texts: tuple[list[str], list[str]] = ([], [])
    order = bytearray()  # each turn's side
    lengths: list[int] = []  # each dialog's turn count
    for dialog in dialogs:
        lengths.append(len(dialog.turns))
        for turn in dialog.turns:
            side = side_of.setdefault(turn.speaker, len(side_of))
            if side < 2:  # a third speaker is refused below
                texts[side].append(turn.text)
                order.append(side)

    if not lengths:
        raise ConfigError("corpus is empty")
    sides = list(side_of)
    if len(sides) > 2:
        raise ConfigError(f"corpus has {len(sides)} speaker names; at most 2 supported")
    if not order:
        raise ConfigError("corpus has no turns")
    if k < len(sides):
        raise ConfigError(f"k={k} is below the number of speaker sides ({len(sides)})")
    side_ks = [k] if len(sides) == 1 else [math.ceil(k / 2), math.floor(k / 2)]

    def turn_of(side_index: int) -> Callable[[int], int]:
        return lambda j: [i for i, s in enumerate(order) if s == side_index][j]

    assignments: list[tuple[int, ...]] = []
    nodes: list[FlowNode] = []
    shape = None
    for side_index, side in enumerate(sides):
        rows = _embed_side(texts[side_index], embedder, shape, turn_of(side_index))
        shape = (rows.d,)
        try:
            model = cluster(rows, side_ks[side_index], seed=seed + side_index)
        except ConfigError as exc:
            distinct = [len(_first_occurrences(_embed_side(texts[s], embedder, shape, turn_of(s))))
                        for s in range(len(sides))]
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
            groups.setdefault(cluster_id, []).append(j)
        # each final centroid is its members' mean, bit for bit
        dots = _products(rows, model.centroids)
        squared_norms = _squared_norms(rows)
        for cluster_id, group in sorted(groups.items()):
            medoid = _medoid(group, rows, model.centroids[cluster_id],
                             dots[group, cluster_id], squared_norms[group])
            nodes.append(FlowNode(id=f"s{side_index}c{cluster_id}", speaker_side=side,
                                  label=texts[side_index][medoid][:40], size=len(group)))
        assignments.append(model.assignments)
        del rows, dots  # freed before the next side's rows are built

    # each turn's node id, taking each side's assignments in turn order
    ids = [map([f"s{s}c{c}" for c in range(side_k)].__getitem__, side_assignments)
           for s, (side_k, side_assignments) in enumerate(zip(side_ks, assignments))]
    node_of = [next(ids[side]) for side in order]
    bounds = list(accumulate(lengths, initial=0))
    paths = [[START_NODE, *node_of[a:b], END_NODE] for a, b in zip(bounds, bounds[1:])]
    return _transition_graph(nodes, paths, end_size=len(lengths))


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
