"""Tests for the embedder, clustering, and transition-graph extraction.

The expected values here come from independent oracles: a from-scratch
hashed-TF embedding in helpers.py and plain string-bigram counting over
the fixture corpus.
"""

from __future__ import annotations

import math
import random
import re
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dialogforge import ConfigError, Dialog, Turn, build_flow_graph, cluster, cosine, embed
from dialogforge import flow
from dialogforge.flow import (
    EMBED_DIM,
    END_NODE,
    START_NODE,
    FlowEdge,
    FlowGraph,
    FlowNode,
    flow_to_dot,
    validate_flow_graph,
)
from helpers import (
    AGENT_PHRASES,
    CLIENT_PHRASES,
    bigram_transition_counts,
    build_action_corpus,
    dialog_from,
    oracle_cosine,
    oracle_embed,
)


class TestEmbed:
    def test_empty_text_is_zero_vector(self):
        assert not embed("").any()
        assert not embed("!!! ???").any()

    def test_deterministic(self):
        assert np.array_equal(embed("open account"), embed("open account"))

    def test_unit_norm(self):
        assert math.isclose(float(np.linalg.norm(embed("open a new account"))), 1.0,
                            abs_tol=1e-9)

    def test_dimension(self):
        assert embed("x").shape == (EMBED_DIM,)

    def test_matches_independent_oracle(self):
        for text in ["open a new account", "Close Account!", "précisément 42 fois"]:
            vector = embed(text)
            expected = oracle_embed(text)
            for bucket in range(EMBED_DIM):
                assert math.isclose(vector[bucket], expected.get(bucket, 0.0),
                                    abs_tol=1e-12)

    def test_similarity_ordering_matches_oracle(self):
        near = cosine(embed("open account"), embed("open a new account"))
        far = cosine(embed("open account"), embed("close account"))
        assert near > far
        oracle_near = oracle_cosine(oracle_embed("open account"),
                                    oracle_embed("open a new account"))
        oracle_far = oracle_cosine(oracle_embed("open account"),
                                   oracle_embed("close account"))
        assert math.isclose(near, oracle_near, abs_tol=1e-12)
        assert math.isclose(far, oracle_far, abs_tol=1e-12)

    def test_cosine_properties(self):
        u, v = embed("alpha beta"), embed("beta gamma")
        assert math.isclose(cosine(u, v), cosine(v, u), abs_tol=1e-12)
        assert -1.0 <= cosine(u, v) <= 1.0
        assert math.isclose(cosine(u, u), 1.0, abs_tol=1e-9)
        assert cosine(u, embed("")) == 0.0


def embed_one_add_per_token(text):
    """embed() as it was before bincount: a numpy scalar += per token."""
    vector = np.zeros(EMBED_DIM, dtype=np.float64)
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        value = 0x811C9DC5
        for byte in token.encode("utf-8"):
            value = ((value ^ byte) * 0x01000193) & 0xFFFFFFFF
        vector[value % EMBED_DIM] += 1.0
    norm = math.sqrt(float(vector @ vector))
    if norm > 0.0:
        vector /= norm
    return vector


# mixed case, digits, punctuation, and characters that lowercase to ASCII
# letters (the Kelvin sign to "k") or to more than one character ("İ")
EMBED_ALPHABET = st.sampled_from(list("aAbBzZ09 7.,!?-'\t\n") + ["\u212a", "\u0130", "ß", "é"])


EMBED_WORDS = st.one_of(st.text(EMBED_ALPHABET, max_size=12),
                        st.sampled_from(["", "open", "OPEN", "café"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(EMBED_WORDS, max_size=30).map(" ".join))
@example("")
@example("café \u212aelvin \u0130stanbul 42 OPEN open, open!")
def test_embed_equals_one_add_per_token(text):
    vector = embed(text)
    assert vector.dtype == np.float64 and vector.shape == (EMBED_DIM,)
    assert vector.tobytes() == embed_one_add_per_token(text).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(EMBED_WORDS, max_size=6).map(" ".join), min_size=1, max_size=24),
       st.integers(1, 3 * EMBED_DIM), st.randoms(use_true_random=False))
# adjacent texts that end and start with token characters, which one
# tokenization of the block as a whole would join into one token
@example(["open", "account", "\u212a", "\u0130", "", "42"], EMBED_DIM, random.Random(0))
@example(["café\u212a", "\u0130stanbul", "!!!", "ok ok"], 1, random.Random(1))
def test_embedding_rows_equal_embed_of_each_text(texts, budget, rng):
    # the texts in a shuffled order, a few to a block
    texts = rng.sample(texts, len(texts))
    with mock.patch.object(flow, "_BLOCK_ELEMENTS", budget):
        matrix = dense(flow._embed_rows(texts))
    assert matrix.dtype == np.float64 and matrix.shape == (len(texts), EMBED_DIM)
    for text, row in zip(texts, matrix):
        assert row.tobytes() == embed_one_add_per_token(text).tobytes()


# the tokenizer and hash of the str reference embedders below
def tokens_before(text):
    return re.findall(r"[a-z0-9]+", text.lower())


def bucket_before(token):
    value = 0x811C9DC5
    for byte in token.encode("utf-8"):
        value = ((value ^ byte) * 0x01000193) & 0xFFFFFFFF
    return value % EMBED_DIM


def embed_before(text):
    """embed() as it was before the bytes tokenizer: a regex over str and a Counter."""
    counts = Counter(map(bucket_before, tokens_before(text)))
    norm = math.sqrt(max(sum(count * count for count in counts.values()), 1))
    vector = np.zeros(EMBED_DIM)
    for bucket, count in counts.items():
        vector[bucket] = count / norm
    return vector


# the characters that make lowercasing and UTF-8 differ from ASCII: the Kelvin
# sign lowercases to "k", "İ" to "i" and a combining dot, "ß" stays itself;
# combining marks, a lone surrogate, and anything else Unicode has
TOKEN_TEXT = st.text(st.one_of(
    st.sampled_from(list("aAzZ09 _-.\n") + ["\u212a", "\u0130", "ß", "\u0301", "\u0307"]),
    st.integers(0xD800, 0xDFFF).map(chr),
    st.characters()), max_size=40)


@settings(max_examples=500, deadline=None)
@given(TOKEN_TEXT)
@example("\u212aelvin \u0130stanbul STRASSE stra\u00dfe cafe\u0301 \ud800x\udfff9 A1_b2")
def test_tokens_are_the_runs_of_ascii_letters_and_digits(text):
    assert [token.decode("ascii") for token in flow._tokens(text)] == tokens_before(text)
    assert list(map(flow._bucket, flow._tokens(text))) == list(map(bucket_before, tokens_before(text)))
    assert embed(text).tobytes() == embed_before(text).tobytes()


def dense_embed_rows_before(texts):
    """_embed_rows as it was before sparse rows: one dense bincount block of texts at a time."""
    out = np.empty((len(texts), EMBED_DIM))
    step = max(1, flow._BLOCK_ELEMENTS // EMBED_DIM)
    for start in range(0, len(texts), step):
        lengths, buckets = [], []
        for text in texts[start:start + step]:
            tokens = tokens_before(text)
            lengths.append(len(tokens))
            buckets.extend(map(bucket_before, tokens))
        offsets = np.arange(0, len(lengths) * EMBED_DIM, EMBED_DIM).repeat(lengths)
        counts = np.bincount(offsets + np.array(buckets, dtype=np.intp),
                             minlength=len(lengths) * EMBED_DIM).reshape(-1, EMBED_DIM)
        norms = np.sqrt(np.maximum(np.add.reduce(counts * counts, axis=1, keepdims=True), 1))
        np.divide(counts, norms, out=out[start:start + step])
    return out


def dense(rows):
    """The sparse rows expanded, through the block generator every dense step uses."""
    blocks = [block.copy() for _, block in flow._dense_rows(rows, range(len(rows)), rows.d)]
    return np.concatenate([np.zeros((0, rows.d)), *blocks])


@st.composite
def dense_rows_inputs(draw):
    """Sparse rows with -0.0 entries, the rows to expand, a block width and
    a block budget. At d=300 the column numbers take two bytes."""
    d = draw(st.sampled_from([0, 1, 2, 300]))
    n = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.integers(-3, 4, size=(n, d)).astype(np.float64)
    matrix[rng.random((n, d)) < (0.98 if d == 300 else 0.5)] = 0.0
    matrix[(matrix == 0.0) & (rng.random((n, d)) < 0.05)] = -0.0
    if draw(st.booleans()):
        start = draw(st.integers(0, n))
        chosen = range(start, draw(st.integers(start, n)))
    else:  # repeats, any order, or none
        picks = draw(st.lists(st.integers(0, n - 1), max_size=40)) if n else []
        chosen = np.array(picks, dtype=np.intp)
    width = draw(st.sampled_from([0, 1, d, 3 * d, 4096]))
    return matrix, chosen, width, draw(st.one_of(st.integers(1, 64), st.integers(1, 1 << 16)))


@settings(max_examples=300, deadline=None)
@given(dense_rows_inputs())
@example((np.array([[-0.0, 1.0], [0.0, 0.0], [2.0, -0.0]]), np.array([2, 0, 2, 1]), 2, 3))
@example((np.eye(300)[[0, 299, 5]] * -1.0, range(1, 3), 300, 1 << 16))
def test_dense_rows_equal_the_chosen_rows_of_the_dense_matrix(case):
    matrix, chosen, width, budget = case
    with mock.patch.object(flow, "_BLOCK_ELEMENTS", budget):
        rows = flow._as_rows(matrix)
        chunks, blocks = [], []
        for chunk, block in flow._dense_rows(rows, chosen, width):
            assert len(block) == len(chunk) <= max(1, budget // max(1, width))
            chunks.extend(chunk)
            blocks.append(block.copy())
    assert chunks == list(chosen)
    expanded = np.concatenate([np.zeros((0, matrix.shape[1])), *blocks])
    assert expanded.tobytes() == matrix[np.asarray(chosen, dtype=np.intp)].tobytes()


def assert_well_formed(rows, matrix):
    """``rows`` holds exactly the entries of ``matrix`` that are not +0.0,
    in ascending column order, with indices of the smallest unsigned type
    that holds d - 1 (one byte at d=256)."""
    assert rows.offsets.dtype == np.int64 and rows.values.dtype == np.float64
    assert rows.indices.dtype == np.min_scalar_type(max(rows.d - 1, 0))
    assert rows.offsets[0] == 0 and rows.offsets[-1] == len(rows.values) == len(rows.indices)
    for i in range(len(rows)):
        columns = rows.indices[rows.offsets[i]:rows.offsets[i + 1]]
        assert np.all(np.diff(columns.astype(np.int64)) > 0)
        assert list(columns) == list(np.flatnonzero(matrix[i].view(np.uint64)))
    assert dense(rows).tobytes() == matrix.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(EMBED_WORDS, max_size=8).map(" ".join), min_size=1, max_size=40))
@example(["\u0130", "\u212a", "\u212aelvin \u0130stanbul", "", "open OPEN open", "!!!"])
def test_embedding_store_expands_to_the_dense_rows_before(texts):
    rows = flow._embed_rows(texts)
    assert len(rows) == len(texts) and rows.d == EMBED_DIM
    assert_well_formed(rows, dense_embed_rows_before(texts))


class TestCluster:
    def test_two_duplicated_groups_become_pure_clusters(self):
        vectors = [embed("open a new account")] * 5 + [embed("close my account")] * 5
        model = cluster(vectors, k=2, seed=0)
        first, second = model.assignments[:5], model.assignments[5:]
        assert len(set(first)) == 1
        assert len(set(second)) == 1
        assert set(first) != set(second)

    def test_k_one_assigns_everything_to_zero(self):
        vectors = [embed(t) for t in ["a b", "c d", "e f"]]
        model = cluster(vectors, k=1, seed=7)
        assert set(model.assignments) == {0}

    def test_deterministic_under_seed(self):
        vectors = [embed(t) for t in AGENT_PHRASES + CLIENT_PHRASES] * 3
        a = cluster(vectors, k=4, seed=11)
        b = cluster(vectors, k=4, seed=11)
        assert a.assignments == b.assignments
        assert np.array_equal(a.centroids, b.centroids)

    def test_k_above_distinct_vectors_rejected(self):
        vectors = [embed("same text")] * 4
        with pytest.raises(ConfigError):
            cluster(vectors, k=2, seed=0)

    def test_assignments_in_range(self):
        vectors = [embed(t) for t in AGENT_PHRASES + CLIENT_PHRASES]
        model = cluster(vectors, k=3, seed=5)
        assert all(0 <= a < 3 for a in model.assignments)
        assert np.isfinite(model.centroids).all()

    @pytest.mark.parametrize("vectors", [
        [[0, 0], [1, 1], [math.nan, 0], [5, 5], [math.inf, 1]],
        [[0, 0], [1, 1], [-math.inf, 0]],
        [[0, 0], [1, 1, 1]],
        [[0, 0], ["a", "b"]],
        [[0, 0], [object(), 1]],
        [[0, 0], [1j, 1]],
        np.array([[0, 0], [1j, 1]]),
    ])
    def test_bad_vectors_rejected(self, vectors):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError):
                cluster(vectors, k=2, seed=0)

    @pytest.mark.parametrize("vectors, k, message", [
        ([[0, 0], [1, 1]], 0, "k must be positive"),
        ([[0, 0], [1, 1]], -1, "k must be positive"),
        ([], 1, "non-empty list of vectors"),
        (np.zeros((0, 2)), 1, "non-empty list of vectors"),
        ([[0, 0], [1, 1]], True, "k must be an integer, got True"),
        ([[0, 0], [1, 1]], 2.0, "k must be an integer, got 2.0"),
        ([[0, 0], [1, 1]], 2.5, "k must be an integer, got 2.5"),
        ([[0, 0], [1, 1]], np.float64(1.0), "k must be an integer"),
    ], ids=["k-zero", "k-negative", "no-vectors", "no-rows", "k-bool", "k-float-integral",
            "k-float", "k-numpy-float"])
    def test_bad_k_or_no_vectors_rejected(self, vectors, k, message):
        with pytest.raises(ConfigError, match=message):
            cluster(vectors, k=k, seed=0)

    def test_numpy_integer_k_accepted(self):
        vectors = [embed(t) for t in AGENT_PHRASES + CLIENT_PHRASES]
        model, expected = cluster(vectors, k=np.int64(3), seed=5), cluster(vectors, k=3, seed=5)
        assert model.assignments == expected.assignments
        assert model.centroids.tobytes() == expected.centroids.tobytes()

    def test_zero_width_vectors(self):
        model = cluster(np.zeros((3, 0)), k=1, seed=0)
        assert model.centroids.shape == (1, 0)
        assert model.assignments == (0, 0, 0)

    def test_empty_cluster_repaired(self):
        # with this seed one of the four clusters loses every point to its
        # neighbours during the Lloyd rounds; the repair hands it the point
        # farthest from its own centroid. A rewrite of cluster() must keep
        # these assignments.
        points = [[8.9, 8.3], [6.9, 0.9], [9.9, 4.7], [0.5, 4.4], [9.0, 7.9],
                  [8.8, 7.9], [0.4, 7.1]]
        model = cluster([np.array(p) for p in points], k=4, seed=2133)
        assert model.assignments == (0, 3, 1, 2, 0, 0, 2)
        assert set(model.assignments) == {0, 1, 2, 3}

    def test_peak_memory_does_not_grow_with_k(self):
        # one n x k x d difference tensor at n=2000, k=32 is 125 MB
        rng = random.Random(0)
        words = [f"w{i}" for i in range(300)]
        texts = [" ".join(rng.choices(words, k=rng.randint(1, 8))) for _ in range(2000)]
        vectors = np.array([embed(t) for t in texts])
        tracemalloc.start()
        try:
            cluster(vectors, k=32, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def reference_cluster(vectors, k, seed):
    """cluster() as it was before row blocks: one n x k x d tensor per round."""
    points = np.asarray(list(vectors), dtype=np.float64)
    distinct_index = {}
    for i, row in enumerate(points):
        distinct_index.setdefault(row.tobytes(), i)
    distinct_rows = list(distinct_index.values())
    rng = random.Random(seed)
    chosen = rng.sample(range(len(distinct_rows)), k)
    centroids = points[[distinct_rows[c] for c in chosen]].copy()
    assignments = np.full(len(points), -1, dtype=np.int64)
    for _ in range(100):
        deltas = points[:, None, :] - centroids[None, :, :]
        distances = np.einsum("nkd,nkd->nk", deltas, deltas)
        new_assignments = distances.argmin(axis=1)
        for empty in range(k):
            if np.any(new_assignments == empty):
                continue
            counts = np.bincount(new_assignments, minlength=k)
            own_distance = distances[np.arange(len(points)), new_assignments]
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
    return tuple(int(a) for a in assignments), centroids


TINY_VOCABULARY = ["open", "close", "account", "new", "my", "please"]


@st.composite
def cluster_inputs(draw):
    """Points with many duplicate rows and exact distance ties: hashed
    embeddings of texts over a six-word vocabulary, or small-integer points.
    Or up to 300 normal points, each row scaled by 10**U(-8, 8), whose member
    sums round differently in another order (one column, summed in order
    rather than pairwise, gives other bits in about a fifth of them)."""
    kind = draw(st.sampled_from(["embedded", "integers", "scaled"]))
    n = draw(st.integers(1, 300) if kind == "scaled"
             else st.one_of(st.integers(1, 64), st.integers(1000, 1500)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    if kind == "embedded":
        points = np.array([embed(" ".join(rng.choices(TINY_VOCABULARY, k=rng.randint(0, 3))))
                           for _ in range(n)])
    elif kind == "integers":
        d = draw(st.integers(1, 4))
        points = np.array([[rng.randint(-3, 3) for _ in range(d)] for _ in range(n)],
                          dtype=np.float64)
    else:
        normal = np.random.default_rng(seed)
        points = normal.normal(size=(n, draw(st.integers(1, 4))))
        points *= 10.0 ** normal.uniform(-8, 8, size=(n, 1))
    distinct = len(np.unique(points, axis=0))
    k = min(draw(st.integers(1, 4) if kind == "scaled"
                 else st.one_of(st.integers(1, 4), st.integers(12, 16))), distinct)
    # None keeps the module's block budget; small budgets give blocks of a few rows
    budget = draw(st.one_of(st.none(), st.integers(1, 1 << 16)))
    return points, k, draw(st.integers(0, 1000)), budget


@settings(max_examples=40, deadline=None)
@given(cluster_inputs())
def test_cluster_in_row_blocks_equals_one_shot_reference(case):
    points, k, seed, budget = case
    expected_assignments, expected_centroids = reference_cluster(points, k, seed)
    with mock.patch.object(flow, "_BLOCK_ELEMENTS", budget or flow._BLOCK_ELEMENTS):
        model = cluster(points, k, seed=seed)
    assert model.assignments == expected_assignments
    assert np.array_equal(model.centroids, expected_centroids)


def distance_rows(function, *args):
    """``function(*args)`` and, in call order, the number of rows passed to
    each ``np.einsum`` (distances) and a None for each ``np.bincount``
    (which reference_cluster calls only to repair an empty cluster)."""
    calls = []
    real_einsum, real_bincount = np.einsum, np.bincount

    def einsum(subscripts, *operands, **kwargs):
        calls.append(len(operands[0]))
        return real_einsum(subscripts, *operands, **kwargs)

    def bincount(*args, **kwargs):
        calls.append(None)
        return real_bincount(*args, **kwargs)

    with mock.patch("numpy.einsum", einsum), mock.patch("numpy.bincount", bincount):
        return function(*args), calls


def assert_equals_reference(points, k, seed):
    expected_assignments, expected_centroids = reference_cluster(points, k, seed)
    model = cluster(points, k, seed=seed)
    assert model.assignments == expected_assignments
    assert model.centroids.tobytes() == expected_centroids.tobytes()


# each reaches an empty-cluster repair in a round after the first
LATE_REPAIRS = [
    ([[7.0, 7.8], [0.3, 9.5], [6.0, 9.9], [6.9, 7.3], [1.5, 7.3], [4.7, 4.4], [6.2, 7.7],
      [6.0, 3.0], [5.2, 4.9], [4.5, 3.7]], 5, 763),
    ([[7.1, 5.3], [6.2, 6.3], [8.2, 4.8], [3.3, 7.6], [3.8, 2.2], [4.5, 6.7], [2.8, 3.9],
      [1.6, 0.4], [7.3, 5.7]], 5, 762),
    ([[9.0, 2.8], [9.3, 3.4], [1.3, 7.2], [8.3, 0.3], [10.0, 9.7], [2.4, 4.4]], 4, 888),
    ([[5.2, 5.2], [7.4, 1.2], [0.7, 3.0], [6.6, 5.1], [5.2, 3.7], [1.0, 1.1], [5.4, 0.3]], 4, 224),
    ([[6.4, 1.9], [8.2, 6.9], [3.2, 5.2], [8.6, 7.0], [9.1, 6.0], [1.0, 6.7], [0.2, 8.7],
      [9.3, 4.6]], 3, 922),
    # its repair steals a row whose distances the bounds would have skipped
    ([[4.5, 0.1], [7.9, 3.1], [7.0, 4.8], [9.6, 0.8], [0.1, 8.8], [6.3, 9.4], [6.5, 5.2],
      [5.5, 8.8], [9.4, 3.6], [7.3, 1.6], [2.5, 9.1], [2.8, 9.6], [7.9, 5.8], [6.1, 9.0],
      [6.9, 9.2], [5.6, 2.8], [0.7, 8.6]], 4, 86),
]


@pytest.mark.parametrize("points, k, seed", LATE_REPAIRS)
def test_late_repair_examples_reach_a_repair_after_round_one(points, k, seed):
    # reference_cluster computes its distances once a round
    _, calls = distance_rows(reference_cluster, np.array(points), k, seed)
    repairs = [i for i, call in enumerate(calls) if call is None]
    assert any(sum(c is not None for c in calls[:i]) >= 2 for i in repairs)


@st.composite
def decimal_points(draw):
    """Up to 12 points of one or two decimal coordinates, often exactly
    equidistant from two centroids, with k up to 5 or k the number of
    distinct rows."""
    d = draw(st.integers(1, 2))
    scale = draw(st.sampled_from([1, 3, 10]))
    rows = draw(st.lists(st.lists(st.integers(-30, 30), min_size=d, max_size=d),
                         min_size=2, max_size=12))
    points = np.array(rows, dtype=np.float64) / scale
    distinct = len(np.unique(points, axis=0))
    k = draw(st.one_of(st.integers(1, min(5, distinct)), st.just(distinct)))
    return points, k, draw(st.integers(0, 1000))


@settings(max_examples=300, deadline=None)
@given(decimal_points())
# k is the number of distinct rows, and 0.0 and -0.0 are distinct rows at
# distance 0: the first round leaves a cluster empty, and the repair needs
# the only cluster with two members
@example((np.array([[0.0, 1.0], [-0.0, 1.0], [5.0, 5.0], [0.0, 1.0]]), 3, 0))
@example((np.array([[0.0], [-0.0], [0.0], [-0.0], [2.0]]), 3, 1))
@example((np.array(LATE_REPAIRS[0][0]), *LATE_REPAIRS[0][1:]))
@example((np.array(LATE_REPAIRS[2][0]), *LATE_REPAIRS[2][1:]))
@example((np.array(LATE_REPAIRS[4][0]), *LATE_REPAIRS[4][1:]))
@example((np.array(LATE_REPAIRS[5][0]), *LATE_REPAIRS[5][1:]))
def test_pruned_rounds_equal_reference_through_late_repairs(case):
    assert_equals_reference(*case)


@st.composite
def symmetric_points(draw):
    """1-D points symmetric about 0, so 0 and many other points are exactly
    equidistant from two centroids, with k up to 3."""
    values = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=8))
    points = np.array([[v] for v in values + [-v for v in values]], dtype=np.float64) / 3
    k = draw(st.integers(1, min(3, len(np.unique(points)))))
    return points, k, draw(st.integers(0, 1000))


def column(*values):
    return np.array([[v] for v in values])


@settings(max_examples=200, deadline=None)
@given(symmetric_points())
# in a later round each of these has a point exactly between two centroids
# whose bounds, with no margin for rounding, would keep it in its cluster
@example((column(-1.9, 0.3, 0.8, -1.4, 0.7, -1.1, -0.3, -1.3), 2, 5))
@example((column(-0.9, 0.6, -1.3, 0.9, 1.0, -0.6, 0.3, -0.2, 0.6), 2, 18))
@example((column(5 / 3, -7 / 3, -11 / 3, -20 / 3, 4.0, -4 / 3), 2, 12))
def test_pruned_rounds_equal_reference_on_exact_ties(case):
    assert_equals_reference(*case)


@st.composite
def blobs(draw):
    """1,500 to 3,000 points around a few well-separated centres."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, centres = draw(st.integers(2, 8)), draw(st.integers(2, 6))
    n = draw(st.integers(1500, 3000))
    points = (rng.normal(size=(centres, d)) * 10)[rng.integers(0, centres, n)]
    return points + rng.normal(size=(n, d)), draw(st.integers(2, 8)), draw(st.integers(0, 1000))


@settings(max_examples=10, deadline=None)
@given(blobs())
def test_pruned_rounds_skip_rows_and_equal_reference(case):
    points, k, seed = case
    (expected_assignments, expected_centroids), full = distance_rows(
        reference_cluster, points, k, seed)
    model, pruned = distance_rows(cluster, points, k, seed)
    assert model.assignments == expected_assignments
    assert model.centroids.tobytes() == expected_centroids.tobytes()
    # the round that finds no change computes only rows the bounds left open
    assert sum(filter(None, pruned)) < sum(filter(None, full))


@settings(max_examples=40, deadline=None)
@given(cluster_inputs())
def test_cluster_with_every_row_rechecked_equals_reference(case):
    # an infinite tolerance sends every row of every round to the exact form
    points, k, seed, _ = case
    (expected_assignments, expected_centroids), full = distance_rows(
        reference_cluster, points, k, seed)
    with mock.patch.object(flow, "_recheck_tolerance", lambda *bounds: math.inf):
        model, exact = distance_rows(cluster, points, k, seed)
    assert model.assignments == expected_assignments
    assert model.centroids.tobytes() == expected_centroids.tobytes()
    if k > 1:  # one cluster needs no distances
        assert sum(filter(None, exact)) >= sum(filter(None, full))


@st.composite
def huge_points(draw):
    """Finite points of magnitude 1e154 to 1e300, whose squared norms and
    products overflow to infinity, and whose sums can overflow to NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(2, 30)), draw(st.integers(1, 4))
    points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(154, 301, size=(n, d))
    if draw(st.booleans()):  # duplicate rows and rows mirrored through the origin
        points = np.concatenate([points, points[: n // 2], -points[: n // 3]])
    k = draw(st.integers(1, min(5, len(np.unique(points, axis=0)))))
    return points, k, draw(st.integers(0, 1000))


@settings(max_examples=100, deadline=None)
@given(huge_points())
def test_cluster_equals_reference_where_the_product_form_overflows(case):
    points, k, seed = case
    with np.errstate(all="ignore"):
        expected_assignments, expected_centroids = reference_cluster(points, k, seed)
        model = cluster(points, k, seed=seed)
    assert model.assignments == expected_assignments
    np.testing.assert_array_equal(model.centroids, expected_centroids)


@pytest.mark.parametrize("points", [
    np.array([[1.0, 2.0], [1.0, 2.0], [-3.0, 0.5]]),
    np.array([[0.0], [-0.0], [5.0]]),
    np.array([[1e300, -1e300], [-1e300, 1e300], [1e300, 1e300]]),
    np.array([embed(t) for t in AGENT_PHRASES + CLIENT_PHRASES + [""]]),
])
def test_cluster_at_k_one_equals_reference(points):
    with np.errstate(all="ignore"):
        expected_assignments, expected_centroids = reference_cluster(points, 1, 3)
        model = cluster(points, 1, seed=3)
    assert model.assignments == expected_assignments == (0,) * len(points)
    np.testing.assert_array_equal(model.centroids, expected_centroids)


@st.composite
def inexact_points(draw):
    """Up to 18 points in tenths, divided by 7 or mirrored through a point:
    distances the two forms round differently, rows equidistant from their
    centroid, and k up to 6, which often empties a cluster."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(5, 12)), draw(st.integers(1, 2))
    points = np.round(rng.uniform(0, 10, size=(n, d)), 1)
    shape = draw(st.sampled_from(["tenths", "mirrored", "sevenths"]))
    if shape == "mirrored":
        points = np.concatenate([points, 2 * np.round(rng.uniform(0, 10, size=d), 1) - points[: n // 2]])
    elif shape == "sevenths":
        points = points / 7.0
    k = draw(st.integers(2, min(6, len(np.unique(points, axis=0)))))
    return points, k, draw(st.integers(0, 1000))


@settings(max_examples=300, deadline=None)
@given(inexact_points())
# the repair of each steals the farthest row, which only the exact form finds
@example((np.array([[4.9, 8.8], [9.4, 2.5], [1.5, 0.9], [1.6, 2.2], [8.5, 2.5],
                    [14.299999999999999, 2.5999999999999996], [9.799999999999999, 8.9]]), 3, 242))
@example((np.array([[1.4], [4.9], [5.8], [9.6], [0.8], [0.4], [9.8], [0.3]]) / 7.0, 4, 510))
@example((np.array([[1.2, 0.1], [5.8, 4.3], [8.7, 3.1], [5.7, 5.2], [2.7, 1.9], [1.9, 6.1],
                    [9.0, 3.1], [9.6, 0.7]]) / 7.0, 6, 471))
def test_repairs_read_exact_distances(case):
    assert_equals_reference(*case)


@st.composite
def sparse_points(draw):
    """Small-integer rows that are mostly zeros, as the sparse store sees
    them: rows of +0.0 only, duplicate rows, and -0.0 entries, which the
    store keeps and a row of +0.0 does not have."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    points = rng.integers(-3, 4, size=(n, d)).astype(np.float64)
    points[rng.random((n, d)) < 0.6] = 0.0
    points[(points == 0.0) & (rng.random((n, d)) < 0.3)] = -0.0
    points[rng.random(n) < 0.2] = 0.0
    points = np.concatenate([points, points[rng.integers(0, n, size=n // 2)]])
    k = draw(st.integers(1, min(6, len({row.tobytes() for row in points}))))
    # None keeps the module's block budget; small budgets give blocks of a few rows
    return points, k, draw(st.integers(0, 1000)), draw(st.one_of(st.none(), st.integers(1, 64)))


@settings(max_examples=300, deadline=None)
@given(sparse_points())
@example((np.array([[0.0, 1.0], [-0.0, 1.0], [5.0, 5.0], [0.0, 1.0]]), 3, 0, None))
@example((np.array([[0.0], [-0.0], [0.0], [-0.0], [2.0]]), 3, 1, 1))
@example((np.array([[0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), 4, 2, 2))
@example((np.array(LATE_REPAIRS[0][0]), *LATE_REPAIRS[0][1:], 2))
@example((np.array(LATE_REPAIRS[5][0]), *LATE_REPAIRS[5][1:], None))
@example((np.eye(300)[[0, 299, 299, 5]], 3, 0, None))  # two-byte column numbers
def test_cluster_on_sparse_rows_equals_dense_reference(case):
    points, k, seed, budget = case
    expected_assignments, expected_centroids = reference_cluster(points, k, seed)
    with mock.patch.object(flow, "_BLOCK_ELEMENTS", budget or flow._BLOCK_ELEMENTS):
        rows = flow._as_rows(points)
        assert_well_formed(rows, points)
        model = cluster(rows, k, seed=seed)
    assert model.assignments == expected_assignments
    assert model.centroids.tobytes() == expected_centroids.tobytes()


def test_numpy_sums_the_rows_of_a_block_in_order_and_one_column_pairwise():
    # cluster's member sums rely on this: in order, 1e16 absorbs each 1.0
    # until -1e16 cancels it, leaving the last 1.0; pairwise, the 1.0s are
    # summed apart from 1e16
    column = [1e16] + [1.0] * 7 + [-1e16, 1.0]
    block = np.array([column, column]).T.copy()
    assert block.flags.c_contiguous
    assert np.add.reduce(block, axis=0).tolist() == [1.0, 1.0]
    assert np.add.reduce(np.array(column)) == 7.0
    assert np.add.reduce(np.array(column)[:, None], axis=0).tolist() == [7.0]
    # bincount adds its weights in input order too
    assert np.bincount(np.zeros(len(column), np.intp), weights=column).tolist() == [1.0]
    # and every sum starts from +0.0, as mean() does: a column of -0.0 sums to +0.0
    for zeros in (np.full((1, 2), -0.0), np.full((3, 2), -0.0), np.full((3, 1), -0.0)):
        assert np.add.reduce(zeros, axis=0).tobytes() == zeros.mean(axis=0).tobytes()
        assert zeros.mean(axis=0).tobytes() == np.zeros(zeros.shape[1]).tobytes()
    assert np.bincount([0], weights=[-0.0]).tobytes() == np.zeros(1).tobytes()


def test_first_occurrences_keep_order_and_sign_of_zero():
    points = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [-0.0, 0.0], [0.0, 0.0], [2.0, 2.0]])
    assert list(flow._first_occurrences(flow._as_rows(points))) == [0, 1, 3, 5]


def test_first_occurrences_fall_back_on_a_hash_collision():
    points = np.array([[3.0], [1.0], [3.0], [-0.0], [0.0], [1.0]])
    # every row hashes alike, so only the byte comparison can tell them apart
    with mock.patch.object(flow, "hash", lambda data: 0, create=True):
        assert list(flow._first_occurrences(flow._as_rows(points))) == [0, 1, 3, 4]


def medoid_labels_before(dialogs, k, seed, embedder=embed):
    """Node id -> label as build_flow_graph gave them before its medoids came
    from the centroids: the member with the largest ``cosine`` to
    ``vectors[indices].mean(axis=0)``, the first on ties."""
    turns = [turn for dialog in dialogs for turn in dialog.turns]
    sides = list(dict.fromkeys(turn.speaker for turn in turns))
    side_ks = [k] if len(sides) == 1 else [math.ceil(k / 2), k // 2]
    labels, zero_means = {}, 0
    for side_index, (side, side_k) in enumerate(zip(sides, side_ks)):
        texts = [turn.text for turn in turns if turn.speaker == side]
        vectors = np.array([embedder(text) for text in texts], dtype=np.float64)
        model = cluster(vectors, side_k, seed=seed + side_index)
        for cluster_id in set(model.assignments):
            indices = [j for j, a in enumerate(model.assignments) if a == cluster_id]
            mean_vector = vectors[indices].mean(axis=0)
            zero_means += not mean_vector.any()
            best = max(indices, key=lambda i: cosine(vectors[i], mean_vector))
            labels[f"s{side_index}c{cluster_id}"] = texts[best][:40]
    return labels, zero_means


def labels_of(graph):
    return {n.id: n.label for n in graph.nodes if n.id not in (START_NODE, END_NODE)}


# texts with equal embeddings but different labels (word order, case,
# punctuation), and texts without tokens, whose embedding is zero
TIED_TEXTS = ["open account", "account open", "Open Account!", "close my account",
              "my account, close", "account", "!!!", "", "?", "new account please",
              "please account new", "open open account"]


def corpus_of(turn_texts, per_dialog):
    dialogs = []
    for start in range(0, len(turn_texts), per_dialog):
        texts = turn_texts[start:start + per_dialog]
        dialogs.append(dialog_from(*(("AB"[t % 2], text) for t, text in enumerate(texts)),
                                   id=len(dialogs)))
    return dialogs


def largest_k(dialogs):
    turns = [turn for dialog in dialogs for turn in dialog.turns]
    distinct = [len({embed(t.text).tobytes() for t in turns if t.speaker == side})
                for side in dict.fromkeys(t.speaker for t in turns)]
    return distinct[0] if len(distinct) == 1 else min(2 * distinct[0], 2 * distinct[1] + 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(TIED_TEXTS), min_size=1, max_size=60), st.integers(1, 7),
       st.integers(0, 2**16), st.data())
def test_medoid_labels_equal_those_of_the_mean_and_cosine(texts, per_dialog, seed, data):
    dialogs = corpus_of(texts, per_dialog)
    sides = len({t.speaker for d in dialogs for t in d.turns})
    k = data.draw(st.integers(sides, largest_k(dialogs)))
    assert labels_of(build_flow_graph(dialogs, k=k, seed=seed)) == \
        medoid_labels_before(dialogs, k, seed)[0]


@pytest.mark.parametrize("scale", [1.0, 3.0, 1e-200, 1e200])
def test_medoid_labels_with_a_zero_mean_cluster_and_scaled_vectors(scale):
    # one cluster per distinct vector: every member of a cluster ties, and the
    # texts without tokens form a cluster whose mean is zero; norms beyond
    # 1e140 either way are scored with cosine() alone
    rng = random.Random(5)
    dialogs = corpus_of([rng.choice(TIED_TEXTS) for _ in range(120)], 6)
    k = largest_k(dialogs)

    def scaled(text):
        return embed(text) * scale

    with np.errstate(all="ignore"):
        expected, zero_means = medoid_labels_before(dialogs, k, 0, scaled)
        assert zero_means >= 1
        assert labels_of(build_flow_graph(dialogs, k=k, seed=0, embedder=scaled)) == expected
        for smaller_k in (2, 5):
            expected = medoid_labels_before(dialogs, smaller_k, 0, scaled)[0]
            graph = build_flow_graph(dialogs, k=smaller_k, seed=0, embedder=scaled)
            assert labels_of(graph) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.integers(1, 8), st.integers(-16, -12))
def test_medoid_labels_among_nearly_parallel_vectors(seed, n, d, exponent):
    # cosines to the mean that differ in their last bits, where a product
    # over the side and cosine() can rank two members differently
    rng = np.random.default_rng(seed)
    base = rng.normal(size=d)
    table = {f"t{i}": base + 10.0**exponent * rng.integers(-2, 3, size=d) * np.abs(base)
             for i in range(n)}
    dialogs = corpus_of(list(table), 1)
    graph = build_flow_graph(dialogs, k=1, seed=0, embedder=table.__getitem__)
    assert labels_of(graph) == medoid_labels_before(dialogs, 1, 0, table.__getitem__)[0]


def counts_by_label(graph):
    """Edge counts keyed like ``bigram_transition_counts``: (side, label) pairs."""
    key = {n.id: (n.speaker_side, n.label) for n in graph.nodes}
    return {(key[e.source], key[e.target]): e.count for e in graph.edges}


class TestBuildFlowGraph:
    def test_k_above_side_distinct_names_side_and_largest_k(self):
        d = dialog_from(("A", "hello there"), ("B", "same"), ("A", "goodbye now"), ("B", "same"))
        # k=4 asks for 2 B-clusters, but B has one distinct utterance
        with pytest.raises(ConfigError, match=r"side 'B'.*largest usable k is 3$"):
            build_flow_graph([d], k=4, seed=0)
        build_flow_graph([d], k=3, seed=0)

    def test_single_dialog_is_a_path(self):
        d = dialog_from(("A", "hello there"), ("B", "hi yourself"), ("A", "goodbye now"))
        graph = build_flow_graph([d], k=3, seed=0)  # 2 A-clusters, 1 B-cluster
        assert all(e.probability == 1.0 for e in graph.edges)
        validate_flow_graph(graph)
        start_out = [e for e in graph.edges if e.source == START_NODE]
        assert len(start_out) == 1 and start_out[0].count == 1

    def test_fixture_corpus_counts_match_bigram_oracle(self):
        corpus = build_action_corpus(10, seed=42)
        # one cluster per distinct utterance string per side: labels are exact
        graph = build_flow_graph(corpus, k=6, seed=3)
        assert counts_by_label(graph) == bigram_transition_counts(corpus)

    def test_empty_dialog_contributes_start_to_end(self):
        corpus = build_action_corpus(10, seed=42) + [Dialog(id=10)]
        graph = build_flow_graph(corpus, k=6, seed=3)
        assert counts_by_label(graph) == bigram_transition_counts(corpus)
        assert [e.count for e in graph.edges
                if (e.source, e.target) == (START_NODE, END_NODE)] == [1]
        validate_flow_graph(graph)

    def test_start_out_count_equals_corpus_size(self):
        corpus = build_action_corpus(10, seed=42)
        graph = build_flow_graph(corpus, k=6, seed=3)
        assert sum(e.count for e in graph.edges if e.source == START_NODE) == 10

    def test_probabilities_normalized(self):
        corpus = build_action_corpus(10, seed=42)
        graph = build_flow_graph(corpus, k=4, seed=3)
        validate_flow_graph(graph)

    def test_node_sizes_sum_to_turn_count(self):
        corpus = build_action_corpus(8, seed=1)
        graph = build_flow_graph(corpus, k=4, seed=0)
        total_turns = sum(len(d) for d in corpus)
        content = [n for n in graph.nodes if n.id not in (START_NODE, END_NODE)]
        assert sum(n.size for n in content) == total_turns

    def test_medoid_labels_are_member_utterances(self):
        corpus = build_action_corpus(10, seed=42)
        graph = build_flow_graph(corpus, k=6, seed=3)
        phrases = set(AGENT_PHRASES + CLIENT_PHRASES)
        for node in graph.nodes:
            if node.id in (START_NODE, END_NODE):
                continue
            assert node.label in phrases

    def test_three_speaker_corpus_rejected(self):
        d = dialog_from(("A", "x"), ("B", "y"), ("C", "z"))
        with pytest.raises(ConfigError):
            build_flow_graph([d], k=3, seed=0)

    def test_infeasible_k_rejected(self):
        d = dialog_from(("A", "x"), ("B", "y"))
        with pytest.raises(ConfigError):
            build_flow_graph([d], k=6, seed=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            build_flow_graph([], k=2, seed=0)

    def test_corpus_without_turns_rejected(self):
        with pytest.raises(ConfigError, match="corpus has no turns"):
            build_flow_graph([Dialog(), Dialog(id=1)], k=2, seed=0)

    @pytest.mark.parametrize("k", [True, 2.0, 2.5, np.float64(2.0)],
                             ids=["bool", "float-integral", "float", "numpy-float"])
    def test_k_that_is_not_an_integer_rejected(self, k):
        corpus = build_action_corpus(4, seed=42)
        with pytest.raises(ConfigError, match=r"^k must be an integer, got "):
            build_flow_graph(corpus, k=k, seed=0)

    def test_numpy_integer_k_accepted(self):
        corpus = build_action_corpus(10, seed=42)
        graph = build_flow_graph(corpus, k=np.int64(6), seed=3)
        assert flow_to_dot(graph) == flow_to_dot(build_flow_graph(corpus, k=6, seed=3))

    def test_k_below_sides_rejected(self):
        d = dialog_from(("A", "x"), ("B", "y"))
        with pytest.raises(ConfigError, match=r"k=1 is below the number of speaker sides \(2\)"):
            build_flow_graph([d], k=1, seed=0)

    def test_three_dimensional_embedder(self):
        def one_hot(text):
            phrases = AGENT_PHRASES if text in AGENT_PHRASES else CLIENT_PHRASES
            return np.eye(3)[phrases.index(text)]

        corpus = build_action_corpus(10, seed=42)
        graph = build_flow_graph(corpus, k=6, seed=3, embedder=one_hot)
        assert counts_by_label(graph) == bigram_transition_counts(corpus)

    def test_ragged_embedder_names_turn_and_shapes(self):
        def ragged(text):
            return np.ones(2) if text == "short" else np.ones(3)

        d = dialog_from(("A", "one"), ("B", "two"), ("A", "short"))
        with pytest.raises(ConfigError,
                           match=r"shape \(2,\) for turn 2 but \(3,\) for turn 0$"):
            build_flow_graph([d], k=2, seed=0, embedder=ragged)

    def test_non_finite_embedding_names_turn(self):
        d = dialog_from(("A", "one"), ("B", "two"), ("A", "bad"))

        def embedder(text):
            return np.array([math.nan, 1.0]) if text == "bad" else np.ones(2)

        with pytest.raises(ConfigError, match=r"NaN or infinity for turn 2$"):
            build_flow_graph([d], k=2, seed=0, embedder=embedder)

    @pytest.mark.parametrize("bad", [["a", "b"], [None, None], [1j, 1.0]],
                             ids=["str", "None", "complex"])
    def test_non_real_embedding_names_turn(self, bad):
        d = dialog_from(("A", "one"), ("B", "two"), ("A", "bad"))

        def embedder(text):
            return np.array(bad) if text == "bad" else np.ones(2)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"non-real values for turn 2$"):
                build_flow_graph([d], k=2, seed=0, embedder=embedder)

    def test_zero_width_embedder(self):
        corpus = build_action_corpus(10, seed=42)
        graph = build_flow_graph(corpus, k=2, seed=0, embedder=lambda text: np.zeros(0))
        validate_flow_graph(graph)
        sizes = sorted(node.size for node in graph.nodes if node.speaker_side)
        assert len(sizes) == 2 and sum(sizes) == sum(len(d.turns) for d in corpus)

    def test_peak_memory_stays_below_one_corpus_matrix(self):
        # 10,400 utterances on two sides: one n x 256 float64 matrix of the
        # whole corpus is 21 MB; one side's at a time is half of that
        rng = random.Random(4)
        words = [f"w{i}" for i in range(500)]
        dialogs = [Dialog(id=i, turns=[
            Turn("AB"[t % 2], " ".join(rng.choices(words, k=rng.randint(3, 12))))
            for t in range(20)]) for i in range(520)]
        n = sum(len(dialog.turns) for dialog in dialogs)
        tracemalloc.start()
        try:
            build_flow_graph(dialogs, k=8, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * EMBED_DIM * 8

    def test_peak_memory_follows_the_token_entries(self):
        # the same corpus: 76k token entries (a text's distinct buckets) on
        # its two sides. The sparse rows take 9 bytes an entry and twice that
        # while built; each turn, with 3 to 12 tokens, adds its text's place
        # in a side list, its side, its node id and its place in a path. The
        # fixed part is at most two block buffers at once: the one buffer of
        # the block generator in use (product, exact distance or medoid rows)
        # and, for exact distances, its rows' differences from the centroids.
        rng = random.Random(4)
        words = [f"w{i}" for i in range(500)]
        dialogs = [Dialog(id=i, turns=[
            Turn("AB"[t % 2], " ".join(rng.choices(words, k=rng.randint(3, 12))))
            for t in range(20)]) for i in range(520)]
        texts = [turn.text for dialog in dialogs for turn in dialog.turns]
        entries = len(flow._embed_rows(texts).values)
        tracemalloc.start()
        try:
            build_flow_graph(dialogs, k=8, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * entries + 4 * flow._BLOCK_ELEMENTS * 8

    def test_a_generator_of_dialogs_is_read_once(self):
        corpus = build_action_corpus(10, seed=42)
        read = []

        def stream():
            for dialog in corpus:
                read.append(dialog)
                yield dialog

        dialogs = stream()
        graph = build_flow_graph(dialogs, k=6, seed=3)
        assert read == corpus and next(dialogs, None) is None
        assert flow_to_dot(graph) == flow_to_dot(build_flow_graph(corpus, k=6, seed=3))
        with pytest.raises(ConfigError, match="corpus is empty"):
            build_flow_graph(iter([]), k=2, seed=0)

    def test_custom_embedder_sees_each_turn_once_side_by_side(self):
        corpus = build_action_corpus(10, seed=42)
        seen = []

        def counting(text):
            seen.append(text)
            return embed(text)

        graph = build_flow_graph(corpus, k=6, seed=3, embedder=counting)
        assert graph == build_flow_graph(corpus, k=6, seed=3)
        turns = [turn for dialog in corpus for turn in dialog.turns]
        assert seen == ([t.text for t in turns if t.speaker == "Agent"]
                        + [t.text for t in turns if t.speaker == "Client"])

    def test_embedder_may_reuse_its_array(self):
        corpus = build_action_corpus(10, seed=42)
        out = np.zeros(EMBED_DIM)

        def reusing(text):
            out[:] = embed(text)
            return out

        graph = build_flow_graph(corpus, k=6, seed=3, embedder=reusing)
        assert graph == build_flow_graph(corpus, k=6, seed=3)

    def test_ragged_embedder_across_sides(self):
        def by_side(text):
            return np.ones(2) if text == "two" else np.ones(3)

        d = dialog_from(("A", "one"), ("B", "two"), ("A", "three"))
        with pytest.raises(ConfigError,
                           match=r"shape \(2,\) for turn 1 but \(3,\) for turn 0$"):
            build_flow_graph([d], k=2, seed=0, embedder=by_side)

    def test_embedder_must_return_a_vector(self):
        d = dialog_from(("A", "one"))
        with pytest.raises(ConfigError, match=r"shape \(\) for turn 0"):
            build_flow_graph([d], k=1, seed=0, embedder=lambda text: np.float64(1.0))


class TestValidateFlowGraph:
    NODES = tuple(FlowNode(id=i, speaker_side="", label=i, size=1)
                  for i in (START_NODE, "a", END_NODE))

    def edges(self, *pairs):
        return tuple(FlowEdge(source=s, target=t, count=1, probability=1.0) for s, t in pairs)

    def test_path_accepted(self):
        validate_flow_graph(FlowGraph(self.NODES, self.edges((START_NODE, "a"), ("a", END_NODE))))

    def test_duplicate_node_id_rejected(self):
        graph = FlowGraph((*self.NODES, self.NODES[1]),
                          self.edges((START_NODE, "a"), ("a", END_NODE)))
        with pytest.raises(ConfigError, match="unique"):
            validate_flow_graph(graph)

    @pytest.mark.parametrize("pair", [("a", "zzz"), ("zzz", END_NODE)])
    def test_edge_to_missing_node_rejected(self, pair):
        graph = FlowGraph(self.NODES, self.edges((START_NODE, "a"), pair))
        with pytest.raises(ConfigError, match="missing node"):
            validate_flow_graph(graph)

    @pytest.mark.parametrize("count, probability", [(0, 1.0), (1, 0.0), (1, 1.5)])
    def test_bad_edge_weight_rejected(self, count, probability):
        bad = FlowEdge(source="a", target=END_NODE, count=count, probability=probability)
        graph = FlowGraph(self.NODES, (*self.edges((START_NODE, "a")), bad))
        with pytest.raises(ConfigError, match="invalid edge weight on a->END"):
            validate_flow_graph(graph)

    def test_unnormalized_probabilities_rejected(self):
        half = FlowEdge(source=START_NODE, target="a", count=1, probability=0.5)
        graph = FlowGraph(self.NODES, (half, *self.edges(("a", END_NODE))))
        with pytest.raises(ConfigError, match="outgoing probabilities of START sum to 0.5"):
            validate_flow_graph(graph)


class TestFlowToDot:
    def graph(self):
        return build_flow_graph(build_action_corpus(5, seed=2), k=4, seed=1)

    def test_start_and_end_present(self):
        dot = flow_to_dot(self.graph())
        assert '"START"' in dot and '"END"' in dot

    def test_path_graph_edge_count(self):
        d = dialog_from(("A", "one"), ("B", "two"), ("A", "three"))
        dot = flow_to_dot(build_flow_graph([d], k=3, seed=0))
        assert dot.count("->") == 4  # START, two internal, END

    def test_deterministic_output(self):
        assert flow_to_dot(self.graph()) == flow_to_dot(self.graph())

    def test_edge_labels_carry_count_and_probability(self):
        dot = flow_to_dot(self.graph())
        assert 'label="5 (1.00)"' in dot  # START fan-out of the 5-dialog corpus

    def test_speaker_sides_get_distinct_shapes(self):
        dot = flow_to_dot(self.graph())
        assert "shape=box" in dot and "shape=ellipse" in dot
        assert "shape=doublecircle" in dot

    def test_quotes_escaped(self):
        d = dialog_from(("A", 'say "hi" now'))
        dot = flow_to_dot(build_flow_graph([d], k=1, seed=0))
        assert '\\"hi\\"' in dot
