"""Tests for Join Tree construction: grouping, priorities, ordering."""
from __future__ import annotations

import re

import pytest

from repro.core.executor import compile_statement
from repro.core.jointree import (
    LITERAL_BONUS,
    PTNode,
    VPNode,
    build_join_tree,
    group_patterns,
    node_priority,
)
from repro.core.stats import GraphStats, PredicateStats
from repro.sparql.parser import parse
from repro.sparql.watdiv_queries import QUERIES


def q(text: str):
    return parse(text)


def has_literal(node) -> bool:
    return any(tp.has_literal() for tp in node.patterns)


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
        """Every join of the tree is connected: each input after the
        first shares a variable with the inputs before it (the bundled
        queries are all connected)."""
        tree = build_join_tree(q(QUERIES[name]), graph_stats, "mixed")
        for _depth, sub in tree.walk():
            first, *rest = sub.join_order()
            seen = set(first.variables())
            for item in rest:
                assert item.variables() & seen
                seen |= item.variables()

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_first_node_is_highest_priority(self, graph_stats, name):
        """Every join starts with its highest-priority input."""
        tree = build_join_tree(q(QUERIES[name]), graph_stats, "mixed")
        for _depth, sub in tree.walk():
            inputs = sub.join_order()
            assert inputs[0].priority == max(t.priority for t in inputs)

    def test_literal_node_executed_before_free_nodes(self, graph_stats):
        """§3.3: push literal-constrained nodes down (execute early).
        L1 mixed = PT(subscribes Website0, likes) + free VP(caption): the
        literal node is never an ancestor of a free node, and the root's
        join reads it first."""
        tree = build_join_tree(q(QUERIES["L1"]), graph_stats, "mixed")
        for _depth, sub in tree.walk():
            if has_literal(sub.node):
                assert all(has_literal(d.node) for _d, d in sub.walk())
        assert not has_literal(tree.node)
        assert has_literal(tree.join_order()[0].node)

    def test_node_labels_readable(self, graph_stats):
        tree = build_join_tree(q(QUERIES["F5"]), graph_stats, "mixed")
        labels = [line.lstrip() for line in tree.render().splitlines()]
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


#: toy statistics, Spark-free: predicate -> (triples, distinct subjects)
TOY = GraphStats(
    {
        p: PredicateStats(n, ds)
        for p, n, ds in [
            ("wsdbm:big", 1000, 500),
            ("wsdbm:mid", 100, 100),
            ("wsdbm:small", 10, 10),
            ("wsdbm:knows", 50, 40),
        ]
    }
)

#: queries over TOY with their shapes: chains, stars, a cycle, two
#: components, constant-only patterns and no variables at all
SHAPES = {
    "chain": "SELECT * WHERE { ?a wsdbm:big ?b . ?b wsdbm:mid ?c . ?c wsdbm:small ?d . }",
    "star_and_chain": "SELECT * WHERE { ?a wsdbm:big ?b . ?a wsdbm:mid ?c . "
    "?a wsdbm:small ?d . ?d wsdbm:knows ?e . }",
    "cycle": "SELECT * WHERE { ?x wsdbm:big ?y . ?y wsdbm:mid ?z . ?z wsdbm:small ?x . }",
    "two_components": "SELECT * WHERE { ?a wsdbm:big ?b . ?b wsdbm:mid ?c . "
    "?x wsdbm:small ?y . ?y wsdbm:knows ?z . }",
    "constant_patterns": "SELECT * WHERE { ?a wsdbm:big ?b . <u1> wsdbm:mid <u2> . "
    "?b wsdbm:small ?c . <u3> wsdbm:knows <u4> . }",
    "no_variables": "SELECT * WHERE { <u1> wsdbm:big <u2> . <u3> wsdbm:mid <u4> . "
    "<u5> wsdbm:small <u6> . }",
}


def toy_statement(query, tree, stats=TOY) -> str:
    """The tree's statement text, each node standing in as one view."""

    def node_sql(node, _param):
        cols = sorted(node.variables())
        return f"SELECT {', '.join(cols) or 1} FROM v", cols

    return compile_statement(query, tree, stats, node_sql).text


def components(nodes) -> int:
    """The number of connected components of *nodes*, linked by shared
    variables."""
    parts: list[set[str]] = []
    for node in nodes:
        joined = [c for c in parts if c & node.variables()]
        parts = [c for c in parts if c not in joined] + [set(node.variables()).union(*joined)]
    return len(parts)


class TestTreeShape:
    """The Join Tree's shape (§3.2–3.3), on every bundled query and
    every toy shape, in both modes."""

    CASES = [(n, m) for n in sorted(QUERIES) + list(SHAPES) for m in ("mixed", "vp")]

    @pytest.fixture(params=CASES, ids=[f"{n}-{m}" for n, m in CASES])
    def planned(self, request):
        name, mode = request.param
        stats = TOY if name in SHAPES else request.getfixturevalue("graph_stats")
        query = q(SHAPES.get(name) or QUERIES[name])
        return query, mode, stats, build_join_tree(query, stats, mode)

    def test_root_has_lowest_priority(self, planned):
        *_, tree = planned
        assert tree.priority == min(sub.priority for _d, sub in tree.walk())

    def test_children_share_a_variable_with_their_parent(self, planned):
        """A child that shares no variable with its parent is the top of
        another connected component, hung under the root."""
        *_, tree = planned
        for _depth, sub in tree.walk():
            for child in sub.children:
                if sub.node.variables() & child.node.variables():
                    continue
                inside = {id(d) for _d, d in child.walk()}
                outside = set().union(
                    *(d.node.variables() for _d, d in tree.walk() if id(d) not in inside)
                )
                assert sub is tree and not child.variables() & outside

    def test_one_cross_join_per_extra_component(self, planned):
        """A connected query has no cross join, a disconnected one
        exactly one per component after the first."""
        query, _mode, stats, tree = planned
        crosses = toy_statement(query, tree, stats).count("CROSS JOIN")
        assert crosses == components(tree.execution_order) - 1

    def test_each_node_appears_once(self, planned):
        query, mode, _stats, tree = planned
        nodes = tree.execution_order
        assert len({id(n) for n in nodes}) == len(nodes) == len(group_patterns(query, mode))
        assert sorted(map(str, (tp for n in nodes for tp in n.patterns))) == sorted(
            map(str, query.patterns)
        )
        assert nodes[-1] is tree.node

    def test_children_in_descending_priority(self, planned):
        *_, tree = planned
        for _depth, sub in tree.walk():
            prios = [c.priority for c in sub.children]
            assert prios == sorted(prios, reverse=True)


@pytest.mark.parametrize("mode", ["mixed", "vp"])
def test_cycle_children_join_on_a_variable_their_parent_lacks(mode):
    """In the triangle both other nodes hang under the root and share
    the one variable the root lacks; having the higher priorities, they
    are joined on it before the root joins them."""
    query = q(SHAPES["cycle"])
    tree = build_join_tree(query, TOY, mode)
    a, b = tree.children
    assert a.variables() & b.variables() == {"z"}
    assert "z" not in tree.node.variables()
    assert "USING (`z`)" in toy_statement(query, tree)


def test_render_indents_children_under_their_parent():
    mixed = build_join_tree(q(SHAPES["star_and_chain"]), TOY, "mixed")
    assert mixed.render().splitlines() == [
        "VP[?d wsdbm:knows ?e]  priority -50.0",
        "  PT[?a;wsdbm:big,wsdbm:mid,wsdbm:small]  priority -10.0",
    ]
    vp = build_join_tree(q(SHAPES["star_and_chain"]), TOY, "vp")
    assert vp.render().splitlines() == [
        "VP[?a wsdbm:big ?b]  priority -1,000.0",
        "  VP[?a wsdbm:small ?d]  priority -10.0",
        "    VP[?d wsdbm:knows ?e]  priority -50.0",
        "  VP[?a wsdbm:mid ?c]  priority -100.0",
    ]


def test_render_tells_apart_patterns_of_one_predicate():
    """A triangle over one predicate renders three distinct lines."""
    query = q("SELECT * WHERE { ?x wsdbm:knows ?y . ?y wsdbm:knows ?z . ?z wsdbm:knows ?x . }")
    lines = build_join_tree(query, TOY, "vp").render().splitlines()
    assert sorted(line.split("  priority")[0].strip() for line in lines) == [
        "VP[?x wsdbm:knows ?y]",
        "VP[?y wsdbm:knows ?z]",
        "VP[?z wsdbm:knows ?x]",
    ]


def top_level_joins(text: str) -> list[str]:
    """The joins of *text* outside every parenthesised part, in order:
    ``CROSS JOIN`` or ``JOIN``."""
    depth, top = 0, []
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and ch != ")":
            top.append(ch)
    return re.findall(r"CROSS JOIN|JOIN", "".join(top))


@pytest.mark.parametrize("name", ["two_components", "constant_patterns"])
@pytest.mark.parametrize("mode", ["mixed", "vp"])
def test_cross_joins_come_after_the_roots_component(name, mode):
    """The root's own component is joined before another component
    enters by a cross join, so no later join carries the product."""
    query = q(SHAPES[name])
    joins = top_level_joins(toy_statement(query, build_join_tree(query, TOY, mode)))
    first = joins.index("CROSS JOIN")
    assert joins[first:] == ["CROSS JOIN"] * (len(joins) - first)
