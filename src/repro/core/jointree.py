"""Join Tree construction (paper §3.2–§3.3).

A SPARQL BGP becomes a tree whose nodes are sub-queries answered either
from the Property Table (all patterns sharing one subject — "star"
groups of size ≥ 2) or from a Vertical Partitioning table (single
patterns). The tree's structure encodes the join order: subtrees are
joined bottom-up, and the root is joined last.

Priorities follow §3.3 exactly:

1. patterns containing literals (any bound subject/object) score the
   highest priority — they are pushed down (executed first);
2. a pattern whose predicate holds many tuples scores proportionally
   lower, adjusted by the number of distinct subjects (a bound subject
   divides the estimate by the distinct-subject count);
3. a PT node is scored over all its patterns (we take the most
   selective estimate), with literal patterns weighted heavily.

The node with the *lowest* priority becomes the root (on a tie, the
later one in the greedy walk below). Every other node is placed
breadth-first: it hangs under the first tree node it shares a variable
with, and each node keeps its children in descending priority. A node
of another connected component hangs under the root. Each inner node
joins its own subquery and its children's subtrees in the greedy
connected order (:func:`~repro.sparql.algebra.connected_order`, the
walk SPARQLGX and Rya also use) keyed by each input's top-node
priority, with the subtrees of other components last. So a cartesian
product happens only between the components of a disconnected query,
once the root's own component is joined.

The tree is one recursive :class:`JoinTree`: a node, its priority and
its child subtrees; :func:`build_join_tree` returns the root.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

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
        tp = self.pattern
        return f"VP[{tp.s} {tp.p} {tp.o}]"


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
    """A Join Tree node, its §3.3 priority and the subtrees hung under
    it, in descending priority. The root is the planned query, and the
    executor compiles the whole tree into one SQL statement."""

    node: Node
    priority: float
    children: list[JoinTree] = field(default_factory=list)

    def variables(self) -> frozenset[str]:
        out = set(self.node.variables())
        for child in self.children:
            out |= child.variables()
        return frozenset(out)

    def join_order(self) -> list[JoinTree]:
        """The inputs this node joins, in join order: its own node (as a
        leaf) and its children's subtrees, greedy-connected by top-node
        priority, the subtrees of other connected components (sharing no
        variable with the node) last. A leaf's one input is itself."""
        if not self.children:
            return [self]
        own = self.node.variables()
        inputs = [JoinTree(self.node, self.priority), *self.children]
        return connected_order(inputs, key=lambda t: (not own & t.node.variables(), -t.priority))

    def walk(self, depth: int = 0) -> Iterator[tuple[int, JoinTree]]:
        """``(depth, subtree)`` of this subtree and every one under it,
        parents first."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    @property
    def execution_order(self) -> list[Node]:
        """Every node once, each after the nodes of its subtree: leaves
        first, this node last."""
        return [sub.node for _depth, sub in reversed(list(self.walk()))]

    def render(self) -> str:
        """The tree as indented text, this node first: one line per node
        with its label (its kind, PT or VP, first) and its §3.3 priority."""
        return "\n".join(
            f"{'  ' * depth}{sub.node.label()}  priority {sub.priority:,.1f}"
            for depth, sub in self.walk()
        )


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
    """Group and score the query's patterns and hang them into a Join
    Tree; return its root."""
    query.validate()
    nodes = group_patterns(query, mode)
    prio = {id(n): node_priority(n, stats) for n in nodes}
    walk = connected_order(nodes, key=lambda n: -prio[id(n)])
    top = min(reversed(walk), key=lambda n: prio[id(n)])
    root = JoinTree(top, prio[id(top)])
    rest = sorted((n for n in walk if n is not top), key=lambda n: -prio[id(n)])
    placed = [root]  # breadth-first
    done = 0
    while rest:
        if done == len(placed):  # the next connected component
            parent, kids = root, rest[:1]
        else:
            parent = placed[done]
            done += 1
            kids = [n for n in rest if parent.node.variables() & n.variables()]
        for n in kids:
            rest.remove(n)
            placed.append(JoinTree(n, prio[id(n)]))
            parent.children.append(placed[-1])
        parent.children.sort(key=lambda t: -t.priority)
    return root
