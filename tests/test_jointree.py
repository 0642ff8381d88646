"""Tests for Join Tree construction: grouping, priorities, ordering."""
from __future__ import annotations

import pytest

from repro.core.jointree import (
    LITERAL_BONUS,
    PTNode,
    VPNode,
    build_join_tree,
    group_patterns,
    node_priority,
)
from repro.sparql.parser import parse
from repro.sparql.watdiv_queries import QUERIES


def q(text: str):
    return parse(text)


class TestGrouping:
    def test_star_becomes_single_pt_node(self):
        nodes = group_patterns(q(QUERIES["C3"]), "mixed")
        assert len(nodes) == 1 and isinstance(nodes[0], PTNode)
        assert len(nodes[0].patterns) == 6

    def test_single_patterns_become_vp_nodes(self):
        query = q("SELECT ?a ?c WHERE { ?a wsdbm:likes ?b . ?b rev:hasReview ?c . }")
        nodes = group_patterns(query, "mixed")
        assert all(isinstance(n, VPNode) for n in nodes)
        assert len(nodes) == 2

    def test_mixed_query_mixes_node_kinds(self):
        query = q(QUERIES["F5"])  # star on ?v0 + patterns on ?v1
        kinds = {type(n) for n in group_patterns(query, "mixed")}
        assert kinds == {PTNode, VPNode}

    def test_vp_mode_never_builds_pt_nodes(self):
        for name in ("C3", "S1", "F2"):
            nodes = group_patterns(q(QUERIES[name]), "vp")
            assert all(isinstance(n, VPNode) for n in nodes)
            assert len(nodes) == len(q(QUERIES[name]).patterns)

    def test_constant_subject_grouping(self):
        query = q(
            "SELECT ?a ?b WHERE { wsdbm:User0 wsdbm:likes ?a . wsdbm:User0 foaf:age ?b . }"
        )
        nodes = group_patterns(query, "mixed")
        assert len(nodes) == 1 and isinstance(nodes[0], PTNode)
        assert nodes[0].subject_key == "<wsdbm:User0>"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            group_patterns(q(QUERIES["C3"]), "hybrid")

    def test_pattern_order_preserved_within_group(self):
        query = q(QUERIES["S1"])
        nodes = group_patterns(query, "mixed")
        pt = next(n for n in nodes if isinstance(n, PTNode))
        preds = [tp.predicate for tp in pt.patterns]
        assert preds[0] == "gr:includes" and "gr:price" in preds

    def test_node_variables(self):
        query = q("SELECT ?a ?b WHERE { ?a wsdbm:likes ?b . ?a foaf:age ?c . }")
        nodes = group_patterns(query, "mixed")
        assert nodes[0].variables() == {"a", "b", "c"}


class TestPriorities:
    def test_literal_pattern_scores_highest(self, graph_stats):
        with_lit = VPNode(q("SELECT ?a WHERE { ?a foaf:age 26 . }").patterns[0])
        without = VPNode(q("SELECT ?a ?b WHERE { ?a foaf:age ?b . }").patterns[0])
        assert node_priority(with_lit, graph_stats) > node_priority(without, graph_stats)
        assert node_priority(with_lit, graph_stats) >= LITERAL_BONUS / 2

    def test_bigger_predicate_scores_lower(self, graph_stats):
        big = VPNode(q("SELECT ?a ?b WHERE { ?a wsdbm:friendOf ?b . }").patterns[0])
        small = VPNode(q("SELECT ?a ?b WHERE { ?a gn:parentCountry ?b . }").patterns[0])
        assert node_priority(small, graph_stats) > node_priority(big, graph_stats)

    def test_bound_subject_adjusted_by_distinct_subjects(self, graph_stats):
        bound = VPNode(q("SELECT ?b WHERE { wsdbm:User0 wsdbm:friendOf ?b . }").patterns[0])
        free = VPNode(q("SELECT ?a ?b WHERE { ?a wsdbm:friendOf ?b . }").patterns[0])
        # the literal bonus aside, the bound-subject estimate is smaller
        assert node_priority(bound, graph_stats) - LITERAL_BONUS > node_priority(
            free, graph_stats
        )

    def test_pt_node_literal_weighted(self, graph_stats):
        query = q(QUERIES["S2"])  # star with two constants
        node = group_patterns(query, "mixed")[0]
        assert node_priority(node, graph_stats) >= 2 * LITERAL_BONUS - 1e9

    def test_unused_predicate_no_crash(self, graph_stats):
        node = VPNode(q("SELECT ?a ?b WHERE { ?a wsdbm:neverUsedPred ?b . }").patterns[0])
        assert node_priority(node, graph_stats) == 0.0


class TestTreeConstruction:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_order_covers_all_nodes(self, graph_stats, name):
        query = q(QUERIES[name])
        tree = build_join_tree(query, graph_stats, "mixed")
        n_groups = len(group_patterns(query, "mixed"))
        assert len(tree.execution_order) == n_groups

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_order_is_connected(self, graph_stats, name):
        """After the first node, every node shares a variable with the
        already-joined prefix (the bundled queries are all connected)."""
        tree = build_join_tree(q(QUERIES[name]), graph_stats, "mixed")
        seen = set(tree.execution_order[0].variables())
        for node in tree.execution_order[1:]:
            assert node.variables() & seen
            seen |= node.variables()

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_first_node_is_highest_priority(self, graph_stats, name):
        tree = build_join_tree(q(QUERIES[name]), graph_stats, "mixed")
        first = tree.execution_order[0]
        assert tree.priority_of(first) == max(
            tree.priority_of(n) for n in tree.execution_order
        )

    def test_literal_node_executed_before_free_nodes(self, graph_stats):
        """§3.3: push literal-constrained nodes down (execute early).
        L1 mixed = PT(subscribes Website0, likes) + free VP(caption)."""
        tree = build_join_tree(q(QUERIES["L1"]), graph_stats, "mixed")
        free_idx = next(
            i for i, n in enumerate(tree.execution_order)
            if not any(tp.has_literal() for tp in n.patterns)
        )
        lit_idx = [
            i for i, n in enumerate(tree.execution_order)
            if any(tp.has_literal() for tp in n.patterns)
        ]
        assert lit_idx and min(lit_idx) < free_idx

    def test_node_labels_readable(self, graph_stats):
        tree = build_join_tree(q(QUERIES["F5"]), graph_stats, "mixed")
        labels = tree.node_labels()
        assert any(lbl.startswith("PT[") for lbl in labels)
        assert any(lbl.startswith("VP[") for lbl in labels)

    def test_figure1_example_shape(self, graph_stats):
        """The paper's Figure 1: a star + two chained patterns →
        one PT node and two VP nodes."""
        query = q(
            """
            SELECT ?a WHERE {
              ?a wsdbm:likes ?b .
              ?a wsdbm:friendOf ?c .
              ?b rev:hasReview ?d .
              ?d rev:reviewer ?e .
            }
            """
        )
        tree = build_join_tree(query, graph_stats, "mixed")
        kinds = sorted(type(n).__name__ for n in tree.execution_order)
        assert kinds == ["PTNode", "VPNode", "VPNode"]
