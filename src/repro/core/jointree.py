"""Join Tree construction (paper §3.2–§3.3).

A SPARQL BGP becomes a tree whose nodes are sub-queries answered either
from the Property Table (all patterns sharing one subject — "star"
groups of size ≥ 2) or from a Vertical Partitioning table (single
patterns). The tree's structure encodes the join order: leaves are
computed first, the root last.

Priorities follow §3.3 exactly:

1. patterns containing literals (any bound subject/object) score the
   highest priority — they are pushed down (executed first);
2. a pattern whose predicate holds many tuples scores proportionally
   lower, adjusted by the number of distinct subjects (a bound subject
   divides the estimate by the distinct-subject count);
3. a PT node is scored over all its patterns (we take the most
   selective estimate), with literal patterns weighted heavily.

The node with the *lowest* priority becomes the root. Ordering is
greedy-connected (:func:`~repro.sparql.algebra.connected_order`, the
walk SPARQLGX and Rya also use): after the first (highest-priority)
node, the next node is always the highest-priority one sharing a
variable with the already-joined set, so cartesian products only
happen for genuinely disconnected queries.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.stats import GraphStats
from repro.sparql.algebra import Query, TriplePattern, connected_order, is_const

#: priority bonus per literal-bearing pattern (dominates any size term)
LITERAL_BONUS = 1e12

#: minimum patterns sharing a subject for a PT node in mixed mode
MIN_GROUP_SIZE = 2


@dataclass
class VPNode:
    """A single triple pattern, answered from one VP table."""

    pattern: TriplePattern

    @property
    def patterns(self) -> tuple[TriplePattern, ...]:
        return (self.pattern,)

    def variables(self) -> frozenset[str]:
        return frozenset(self.pattern.variables())

    def label(self) -> str:
        return f"VP[{self.pattern.predicate}]"


@dataclass
class PTNode:
    """A subject-star group, answered from the Property Table."""

    subject_key: str
    _patterns: tuple[TriplePattern, ...]

    @property
    def patterns(self) -> tuple[TriplePattern, ...]:
        return self._patterns

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for tp in self._patterns:
            out.update(tp.variables())
        return frozenset(out)

    def label(self) -> str:
        preds = ",".join(tp.predicate for tp in self._patterns)
        return f"PT[{self.subject_key};{preds}]"


Node = VPNode | PTNode


@dataclass
class JoinTree:
    """The planned query: its nodes in execution order.

    ``execution_order`` lists the nodes from first-executed (deepest,
    highest priority) to last (the root). The executor joins the nodes
    in this order in one SQL statement.
    """

    execution_order: list[Node]
    priorities: dict[int, float]  # id(node) -> priority score

    def priority_of(self, node: Node) -> float:
        return self.priorities[id(node)]

    def node_labels(self) -> list[str]:
        return [n.label() for n in self.execution_order]


def group_patterns(query: Query, mode: str) -> list[Node]:
    """§3.2 grouping: same-subject patterns → one PT node (mixed mode);
    everything else → VP nodes. ``mode="vp"`` forces all-VP (the
    baseline of Figure 2)."""
    if mode not in ("mixed", "vp"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "vp":
        return [VPNode(tp) for tp in query.patterns]
    groups: dict[str, list[TriplePattern]] = {}
    order: list[str] = []
    for tp in query.patterns:
        key = tp.subject_key()
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(tp)
    nodes: list[Node] = []
    for key in order:
        pats = groups[key]
        if len(pats) >= MIN_GROUP_SIZE:
            nodes.append(PTNode(key, tuple(pats)))
        else:
            nodes.append(VPNode(pats[0]))
    return nodes


def _pattern_estimate(tp: TriplePattern, stats: GraphStats) -> float:
    """Expected tuples the pattern selects, from the two §3.3 statistics."""
    n = stats.n_triples(tp.predicate)
    if n == 0:
        return 0.0
    if is_const(tp.s):
        # bound subject: tuples per distinct subject
        return n / max(1, stats.n_distinct_subjects(tp.predicate))
    return float(n)


def node_priority(node: Node, stats: GraphStats) -> float:
    """Higher priority = executed earlier (deeper in the tree)."""
    ests = [_pattern_estimate(tp, stats) for tp in node.patterns]
    n_literals = sum(1 for tp in node.patterns if tp.has_literal())
    return LITERAL_BONUS * n_literals - min(ests)


def build_join_tree(query: Query, stats: GraphStats, mode: str = "mixed") -> JoinTree:
    """Group, score and order the query's patterns into a Join Tree."""
    query.validate()
    nodes = group_patterns(query, mode)
    prio = {id(n): node_priority(n, stats) for n in nodes}
    order = connected_order(nodes, key=lambda n: -prio[id(n)])
    return JoinTree(execution_order=order, priorities=prio)
