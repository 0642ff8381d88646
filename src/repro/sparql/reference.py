"""Reference semantics: BGP → SQL self-joins over ``triples(s, p, o)``.

This is the correctness anchor of the whole reproduction. Any engine's
answer for a query must equal the result of :func:`bgp_to_sql` executed
over the raw triple table (the DuckDB oracle runs it via
``repro.oracle.assert_equivalent``). SPARQL BGP matching under bag
semantics is exactly the relational self-join this module emits, so a
wrong join order, a broken Property-Table explode or a bad ExtVP table
shows up as a row diff.
"""
from __future__ import annotations

from repro.sparql.algebra import Query, Variable, is_const

#: the one column the reference selects for a query with no variables:
#: SQL has no zero-column rows, so each solution (the empty mapping)
#: becomes a row holding 1 here
SOLUTION_COLUMN = "__solution__"


def _sql_quote(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def bgp_to_sql(query: Query, table: str = "triples") -> str:
    """Translate *query* to a SQL SELECT over one ``(s, p, o)`` table.

    Each triple pattern becomes one alias ``t{i}``; constants become
    equality predicates, repeated variables become join predicates, and
    the projection aliases each selected variable by its name (a query
    with no variables selects :data:`SOLUTION_COLUMN`). The SQL is
    engine-neutral (runs on both DuckDB and Spark SQL).
    """
    query.validate()
    binding: dict[str, str] = {}  # variable name -> first column that binds it
    where: list[str] = []
    for i, tp in enumerate(query.patterns):
        for pos, term in (("s", tp.s), ("p", tp.p), ("o", tp.o)):
            col = f"t{i}.{pos}"
            if is_const(term):
                where.append(f"{col} = {_sql_quote(term.value)}")
            else:
                assert isinstance(term, Variable)
                if term.name in binding:
                    where.append(f"{col} = {binding[term.name]}")
                else:
                    binding[term.name] = col

    select = ", ".join(f"{binding[v]} AS {v}" for v in query.projection())
    select = select or f'1 AS "{SOLUTION_COLUMN}"'
    if query.distinct:
        select = "DISTINCT " + select
    from_clause = ", ".join(f"{table} t{i}" for i in range(len(query.patterns)))
    sql = f"SELECT {select} FROM {from_clause}"
    if where:
        sql += " WHERE " + " AND ".join(where)
    return sql
