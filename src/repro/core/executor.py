"""Join Tree execution as one Spark SQL statement (paper §3.2–3.3).

The executor compiles a whole Join Tree into one parameterised Spark
SQL statement and runs it with a single ``spark.sql`` call, leaving the
physical plan to Catalyst — exactly the division of labour the paper
describes (§3.3: "Spark intervenes in producing optimized physical
plans"):

- a VP node is a subquery over the store's VP view narrowed by
  ``pred = :p`` (the S2RDF baseline passes its ExtVP view and
  equality filters instead);
- a PT node is a subquery over the Property Table view, with one
  ``LATERAL VIEW explode`` per unbound multi-valued pattern and
  ``IS NOT NULL``, ``=`` and ``array_contains`` predicates — no joins,
  the whole point of the PT;
- the nodes are joined in ``execution_order`` with ``JOIN … USING``
  their shared variables (``CROSS JOIN`` when they share none), and the
  outer SELECT applies the projection and DISTINCT.

Every constant is bound as a named parameter, never spliced into the
text, and every identifier is backtick-quoted. Patterns binding no
variables (fully constant) compile to a 0/1-row existence relation
that enters the statement as a cross join.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

from pyspark.sql import DataFrame, SparkSession

from repro.core.jointree import JoinTree, Node, PTNode, VPNode, build_join_tree
from repro.core.loader import ProstStore, Relation, vp_relation
from repro.core.stats import GraphStats
from repro.rdf.triples import safe_name
from repro.sparql.algebra import Query, Term, TriplePattern, is_const

#: column of a variable-free node's existence relation
_EXISTS_COL = "__exists__"


def quote(name: str) -> str:
    """*name* as a backtick-quoted Spark SQL identifier."""
    return "`" + name.replace("`", "``") + "`"


@dataclass(frozen=True)
class Statement:
    """A compiled SQL statement and the values of its named parameters."""

    text: str
    args: dict[str, str]

    def run(self, spark: SparkSession) -> DataFrame:
        return spark.sql(self.text, args=self.args)


class _Params:
    """The named parameters of one statement: each call binds a value
    and returns its marker."""

    def __init__(self) -> None:
        self.args: dict[str, str] = {}

    def __call__(self, value: str) -> str:
        name = f"c{len(self.args)}"
        self.args[name] = value
        return f":{name}"


#: builds one node's subquery: (node, params) -> (SQL, output variables)
NodeSql = Callable[[Node, _Params], tuple[str, list[str]]]


class _Select:
    """One node's subquery under construction: variable → column
    bindings and WHERE predicates."""

    def __init__(self, param: _Params) -> None:
        self.param = param
        self.columns: dict[str, str] = {}  # variable name -> quoted column
        self.where: list[str] = []

    def match(self, term: Term, column: str) -> None:
        """A constant becomes an equality parameter; a variable's first
        occurrence names *column*, repeats become column equalities."""
        if is_const(term):
            self.where.append(f"{column} = {self.param(term.value)}")
        elif term.name in self.columns:
            self.where.append(f"{column} = {self.columns[term.name]}")
        else:
            self.columns[term.name] = column

    def sql(self, source: str) -> tuple[str, list[str]]:
        if self.columns:
            select = ", ".join(f"{c} AS {quote(v)}" for v, c in self.columns.items())
            limit = ""
        else:
            select, limit = f"1 AS {quote(_EXISTS_COL)}", " LIMIT 1"
        text = f"SELECT {select} FROM {source}"
        if self.where:
            text += " WHERE " + " AND ".join(self.where)
        return text + limit, list(self.columns)


def vp_node_sql(rel: Relation, tp: TriplePattern, param: _Params) -> tuple[str, list[str]]:
    """One triple pattern over an ``(s, o)`` relation.

    Shared by PRoST's VP nodes and by the S2RDF baseline (which passes
    an ExtVP relation).
    """
    pattern = _Select(param)
    pattern.where += [f"{quote(c)} = {param(v)}" for c, v in rel.where]
    pattern.match(tp.s, "`s`")
    pattern.match(tp.o, "`o`")
    return pattern.sql(quote(rel.view))


def pt_node_sql(store: ProstStore, node: PTNode, param: _Params) -> tuple[str, list[str]]:
    """A subject-star group over the Property Table.

    Multi-valued columns are arrays of the subject's *distinct* objects
    (the graph is a set), so ``array_contains`` is an exact constant
    match and nested explodes reproduce the bag product SPARQL
    semantics requires.
    """
    star = _Select(param)
    star.match(node.patterns[0].s, "`s`")  # every pattern shares it
    explodes = ""
    for i, tp in enumerate(node.patterns):
        col = quote(safe_name(tp.predicate))
        if store.is_multi_valued(tp.predicate):
            if is_const(tp.o):
                star.where.append(f"array_contains({col}, {param(tp.o.value)})")
            else:
                out = quote(f"__x{i}__")
                explodes += f" LATERAL VIEW explode({col}) AS {out}"
                star.match(tp.o, out)
        else:
            star.where.append(f"{col} IS NOT NULL")
            star.match(tp.o, col)
    return star.sql(quote(store.pt_view) + explodes)


def _empty_sql(node: Node) -> tuple[str, list[str]]:
    """No rows, typed like the node's result: a pattern's predicate is
    not in the graph (and so has no VP partition or PT column)."""
    variables = sorted(node.variables())
    cols = ", ".join(f"CAST(NULL AS STRING) AS {quote(c)}" for c in variables or [_EXISTS_COL])
    return f"SELECT {cols} WHERE false", variables


def _node_sql(stats: GraphStats, node_sql: NodeSql, node: Node, param: _Params):
    if any(tp.predicate not in stats for tp in node.patterns):
        return _empty_sql(node)
    return node_sql(node, param)


def compile_statement(
    query: Query, nodes: Iterable[Node], stats: GraphStats, node_sql: NodeSql
) -> Statement:
    """Join the nodes' subqueries, in order, under one outer SELECT.

    The ``USING`` columns are the shared variables in the column order
    of the relation built so far; that order is the join's shuffle
    hash key.
    """
    param = _Params()
    parts = [_node_sql(stats, node_sql, n, param) for n in nodes]
    text = ""
    cols: list[str] = []  # output variables of the relation built so far
    for i, (sql, node_cols) in enumerate(parts):
        rel = f"({sql}) AS `n{i}`"
        shared = [c for c in cols if c in node_cols]
        if i == 0:
            text = rel
        elif shared:
            text += f" JOIN {rel} USING ({', '.join(map(quote, shared))})"
        else:
            text += f" CROSS JOIN {rel}"
        cols = shared + [c for c in cols + node_cols if c not in shared]
    projection = query.projection()
    if projection:
        select = ", ".join(map(quote, projection))
    else:  # no variables: every node is an existence relation
        exists = (f"`n{i}`.{quote(_EXISTS_COL)}" for i in range(len(parts)))
        select = f"* EXCEPT ({', '.join(exists)})"
    distinct = "DISTINCT " if query.distinct else ""
    return Statement(f"SELECT {distinct}{select} FROM {text}", param.args)


def _prost_node_sql(store: ProstStore, node: Node, param: _Params) -> tuple[str, list[str]]:
    if isinstance(node, VPNode):
        return vp_node_sql(vp_relation(store.vp_view, node.pattern.predicate), node.pattern, param)
    return pt_node_sql(store, node, param)


def compile_node(store: ProstStore, node: Node) -> DataFrame:
    """One node's result on its own, from the subquery the statement
    of its query inlines."""
    param = _Params()
    sql, _cols = _node_sql(store.stats, partial(_prost_node_sql, store), node, param)
    return Statement(sql, param.args).run(store.spark)


def compile_tree(store: ProstStore, tree: JoinTree, query: Query) -> Statement:
    """The one SQL statement that answers *query* with *tree*."""
    return compile_statement(
        query, tree.execution_order, store.stats, partial(_prost_node_sql, store)
    )


def execute_tree(store: ProstStore, tree: JoinTree, query: Query) -> DataFrame:
    return compile_tree(store, tree, query).run(store.spark)


def execute(store: ProstStore, query: Query, mode: str = "mixed") -> DataFrame:
    """Plan and run *query*; returns a DataFrame with one column per
    projected variable."""
    tree = build_join_tree(query, store.stats, mode=mode)
    return execute_tree(store, tree, query)
