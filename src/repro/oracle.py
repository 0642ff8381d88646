"""DuckDB correctness oracle.

``assert_equivalent_pd(result_pd, sql, **tables)`` runs ``sql`` in
DuckDB over ``tables`` and asserts that its rows are the rows of
``result_pd``, as a bag: row order and column order do not matter, but
a missing row, an extra copy of a row or a NULL in place of a value
does. An engine that answers with a Spark DataFrame passes
``df.toPandas()``. This catches wrong results from a rewritten plan or
a custom operator — "it ran" is not "it is correct".

``tables`` may be Spark or pandas DataFrames; Spark inputs are
collected via ``.toPandas()``. Alias every output column identically
on both sides (Spark names ``count(*)`` as ``count(1)``, DuckDB as
``count_star()``) and project to scalar columns — array/map/struct
columns are not orderable so cannot be compared here.
"""
import duckdb
import pandas as pd
from pyspark.sql import DataFrame


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    # Every missing value (NaN or None) becomes None.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    pdf = pdf.astype(object).where(pd.notna(pdf), None)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def _expected(sql: str, tables: dict) -> pd.DataFrame:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        return con.execute(sql).fetchdf()
    finally:
        con.close()


def assert_equivalent_pd(result_pd: pd.DataFrame, sql: str, **tables) -> None:
    expected = _expected(sql, tables)
    assert set(expected.columns) == set(result_pd.columns), (
        f"column mismatch: {sorted(result_pd.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(_canon(result_pd), _canon(expected), check_dtype=False)
