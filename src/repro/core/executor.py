"""Join Tree execution as one Spark SQL statement (paper §3.2–3.3).

The executor compiles a whole Join Tree into one parameterised Spark
SQL statement and runs it with a single ``spark.sql`` call, leaving the
physical plan to Catalyst — exactly the division of labour the paper
describes (§3.3: "Spark intervenes in producing optimized physical
plans"):

- a VP node is a subquery over the store's VP table (a catalog table
  bucketed on the subject) narrowed by ``pred = :p`` (the S2RDF
  baseline passes its ExtVP view and equality filters instead);
- a PT node is a subquery over the bucketed Property Table, with one
  ``LATERAL VIEW explode`` per unbound multi-valued pattern and
  ``IS NOT NULL``, ``=`` and ``array_contains`` predicates — no joins,
  the whole point of the PT;
- the tree is joined bottom-up: each inner node joins its own subquery
  and its children's subtrees, in the node's join order, with
  ``JOIN … USING`` their shared variables (``CROSS JOIN`` when they
  share none); a subtree enters its parent's join as a nested
  ``SELECT *``, and the outer SELECT over the root's join applies the
  projection and DISTINCT.

Every constant is bound as a named parameter, never spliced into the
text, and every identifier is backtick-quoted. Patterns binding no
variables (fully constant) compile to a 0/1-row existence relation
that enters the root's join as a cross join. :func:`execute_tree` runs
the statement of a planned tree (``Prost.query`` plans and calls it).

:func:`executed_plan` runs a statement's own physical plan and returns
the plan that ran; :func:`plan_nodes` walks it, so a caller can count
the shuffles (``Exchange`` operators) the subject buckets saved.
:func:`compiled_classes` counts the generated classes Spark has
compiled, so a caller can see what a run spent compiling.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import Callable, Iterator

from py4j.java_gateway import JavaObject
from pyspark.sql import DataFrame, SparkSession

from repro.core.jointree import JoinTree, Node, PTNode, VPNode
from repro.core.loader import ProstStore, Relation, vp_relation
from repro.core.stats import GraphStats
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
        col = quote(store.stats.column(tp.predicate))
        if tp.predicate in store.multi_valued:
            if is_const(tp.o):
                star.where.append(f"array_contains({col}, {param(tp.o.value)})")
            else:
                out = quote(f"__x{i}__")
                explodes += f" LATERAL VIEW explode({col}) AS {out}"
                star.match(tp.o, out)
        else:
            star.where.append(f"{col} IS NOT NULL")
            star.match(tp.o, col)
    return star.sql(quote(store.pt_name) + explodes)


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
    query: Query, tree: JoinTree, stats: GraphStats, node_sql: NodeSql
) -> Statement:
    """Join the tree's subqueries bottom-up under one outer SELECT.

    The ``USING`` columns of each join are the shared variables in the
    column order of the relation built so far; that order is the
    join's shuffle hash key.
    """
    param = _Params()
    aliases = (f"`n{i}`" for i in count())
    exists: list[str] = []  # aliases of the variable-free nodes

    def relation(sub: JoinTree) -> tuple[str, list[str]]:
        alias = next(aliases)
        if sub.children:
            text, cols = join(sub)
            return f"(SELECT * FROM {text}) AS {alias}", cols
        sql, cols = _node_sql(stats, node_sql, sub.node, param)
        if not cols:
            exists.append(alias)
        return f"({sql}) AS {alias}", cols

    def join(sub: JoinTree) -> tuple[str, list[str]]:
        text = ""
        cols: list[str] = []  # output variables of the relation built so far
        for item in sub.join_order():
            rel, item_cols = relation(item)
            shared = [c for c in cols if c in item_cols]
            if not text:
                text = rel
            elif shared:
                text += f" JOIN {rel} USING ({', '.join(map(quote, shared))})"
            else:
                text += f" CROSS JOIN {rel}"
            cols = shared + [c for c in cols + item_cols if c not in shared]
        return text, cols

    text, _cols = join(tree)
    projection = query.projection()
    if projection:
        select = ", ".join(map(quote, projection))
    else:  # no variables: every node is an existence relation
        select = f"* EXCEPT ({', '.join(f'{a}.{quote(_EXISTS_COL)}' for a in exists)})"
    distinct = "DISTINCT " if query.distinct else ""
    return Statement(f"SELECT {distinct}{select} FROM {text}", param.args)


def _prost_node_sql(store: ProstStore, node: Node, param: _Params) -> tuple[str, list[str]]:
    if isinstance(node, VPNode):
        rel = vp_relation(store.vp_name, store.stats, node.pattern.predicate)
        return vp_node_sql(rel, node.pattern, param)
    return pt_node_sql(store, node, param)


def compile_node(store: ProstStore, node: Node) -> DataFrame:
    """One node's result on its own, from the subquery the statement
    of its query inlines."""
    param = _Params()
    sql, _cols = _node_sql(store.stats, partial(_prost_node_sql, store), node, param)
    return Statement(sql, param.args).run(store.spark)


def compile_tree(store: ProstStore, tree: JoinTree, query: Query) -> Statement:
    """The one SQL statement that answers *query* with *tree*."""
    return compile_statement(query, tree, store.stats, partial(_prost_node_sql, store))


def execute_tree(store: ProstStore, tree: JoinTree, query: Query) -> DataFrame:
    """Run *query* planned as *tree*: a DataFrame with one column per
    projected variable."""
    return compile_tree(store, tree, query).run(store.spark)


def executed_plan(df: DataFrame) -> tuple[int, JavaObject]:
    """Run *df*'s own physical plan once (a ``count()`` would plan an
    aggregate on top); return its row count and the plan that ran, the
    final one under adaptive execution."""
    qe = df._jdf.queryExecution()
    rows = qe.toRdd().count()
    return rows, qe.executedPlan()


def plan_nodes(plan: JavaObject) -> Iterator[JavaObject]:
    """The operators of a physical *plan*, parents first, seen through
    adaptive plans and query stages."""
    yield plan
    name = plan.nodeName()
    if name == "AdaptiveSparkPlan":
        children = [plan.executedPlan()]
    elif name.endswith("QueryStage"):
        children = [plan.plan()]
    else:
        seq = plan.children()
        children = [seq.apply(i) for i in range(seq.size())]
    for child in children:
        yield from plan_nodes(child)


def count_exchanges(plan: JavaObject) -> int:
    """The shuffles in *plan* (reused ones not counted again)."""
    return sum(node.nodeName() == "Exchange" for node in plan_nodes(plan))


def compiled_classes(spark: SparkSession) -> int:
    """Generated classes this JVM has compiled so far. Spark compiles a
    class only when its codegen cache misses, so the difference over a
    run is the number of compilations that run paid for."""
    metrics = spark._jvm.org.apache.spark.metrics.source.CodegenMetrics
    return metrics.METRIC_SOURCE_CODE_SIZE().getCount()
