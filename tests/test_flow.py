"""Tests for the embedder, clustering, and transition-graph extraction.

The expected values here come from independent oracles: a from-scratch
hashed-TF embedding in helpers.py and plain string-bigram counting over
the fixture corpus.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from dialogforge import ConfigError, Dialog, build_flow_graph, cluster, cosine, embed
from dialogforge.flow import EMBED_DIM, END_NODE, START_NODE, flow_to_dot, validate_flow_graph
from helpers import (
    AGENT_PHRASES,
    CLIENT_PHRASES,
    bigram_transition_counts,
    build_action_corpus,
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


class TestBuildFlowGraph:
    def test_k_above_side_distinct_names_side_and_largest_k(self):
        d = (Dialog()
             .append_utterance("A", "hello there", 0)
             .append_utterance("B", "same", 1)
             .append_utterance("A", "goodbye now", 2)
             .append_utterance("B", "same", 3))
        # k=4 asks for 2 B-clusters, but B has one distinct utterance
        with pytest.raises(ConfigError, match=r"side 'B'.*largest usable k is 3$"):
            build_flow_graph([d], k=4, seed=0)
        build_flow_graph([d], k=3, seed=0)

    def test_single_dialog_is_a_path(self):
        d = (Dialog()
             .append_utterance("A", "hello there", 0)
             .append_utterance("B", "hi yourself", 1)
             .append_utterance("A", "goodbye now", 2))
        graph = build_flow_graph([d], k=3, seed=0)  # 2 A-clusters, 1 B-cluster
        assert all(e.probability == 1.0 for e in graph.edges)
        validate_flow_graph(graph)
        start_out = [e for e in graph.edges if e.source == START_NODE]
        assert len(start_out) == 1 and start_out[0].count == 1

    def test_fixture_corpus_counts_match_bigram_oracle(self):
        corpus = build_action_corpus(10, seed=42)
        # one cluster per distinct utterance string per side: labels are exact
        graph = build_flow_graph(corpus, k=6, seed=3)
        by_id = {n.id: n for n in graph.nodes}

        def key(node_id):
            node = by_id[node_id]
            return (node.speaker_side, node.label)

        got = {(key(e.source), key(e.target)): e.count for e in graph.edges}
        expected = bigram_transition_counts(corpus)
        assert got == expected

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
        d = (Dialog()
             .append_utterance("A", "x", 0)
             .append_utterance("B", "y", 1)
             .append_utterance("C", "z", 2))
        with pytest.raises(ConfigError):
            build_flow_graph([d], k=3, seed=0)

    def test_infeasible_k_rejected(self):
        d = Dialog().append_utterance("A", "x", 0).append_utterance("B", "y", 1)
        with pytest.raises(ConfigError):
            build_flow_graph([d], k=6, seed=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            build_flow_graph([], k=2, seed=0)


class TestFlowToDot:
    def graph(self):
        return build_flow_graph(build_action_corpus(5, seed=2), k=4, seed=1)

    def test_start_and_end_present(self):
        dot = flow_to_dot(self.graph())
        assert '"START"' in dot and '"END"' in dot

    def test_path_graph_edge_count(self):
        d = (Dialog()
             .append_utterance("A", "one", 0)
             .append_utterance("B", "two", 1)
             .append_utterance("A", "three", 2))
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
        d = Dialog().append_utterance("A", 'say "hi" now', 0)
        dot = flow_to_dot(build_flow_graph([d], k=1, seed=0))
        assert '\\"hi\\"' in dot
