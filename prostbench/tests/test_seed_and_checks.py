"""Seed plumbing and failure counting of the run itself (no Spark)."""
from types import SimpleNamespace

import pyarrow as pa
import pytest

import run
import workload
from measure import Tally
from repro.rdf.watdiv import watdiv_pandas


def test_cli_passes_seed_and_rejects_unknown_workloads():
    args = run.parse_args(
        ["--workload", "watdiv-vp", "--seed", "7", "--seconds", "5", "--trace", "1"]
    )
    assert (args.workload, args.seed, args.seconds, args.trace) == ("watdiv-vp", 7, 5.0, 1)
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "nope", "--seed", "1", "--seconds", "5"])


def test_same_seed_same_graph_other_seed_other_graph():
    a = watdiv_pandas(scale=workload.SCALE, seed=3)
    assert a.equals(watdiv_pandas(scale=workload.SCALE, seed=3))
    assert not a.equals(watdiv_pandas(scale=workload.SCALE, seed=4))


def _fake_run():
    return SimpleNamespace(tally=Tally(), counts={"Q": 5})


def _boom():
    raise RuntimeError("query failed")


def test_wrong_count_and_exception_are_failures():
    fake = _fake_run()
    assert workload.Run._check(fake, "Q", lambda: 5) == 5
    assert workload.Run._check(fake, "Q", lambda: 4) is None
    assert workload.Run._check(fake, "Q", _boom) is None
    assert (fake.tally.attempted, fake.tally.failed) == (3, 2)


def test_passes_run_whole_passes_at_least_the_minimum():
    done = []
    walls = workload.timed_passes(0.0, 2, done.append)
    assert done == [0, 1] and len(walls) == 2


def test_full_result_diff_is_a_multiset_comparison():
    expected = pa.table({"v0": ["a", "a", "b"], "v1": ["1", "1", "2"]})
    got = pa.table({"v1": ["2", "1", "1"], "v0": ["b", "a", "a"]})
    workload.assert_same_rows(got, expected)  # row and column order do not matter
    for wrong in (
        got.slice(1),  # a row missing
        pa.concat_tables([got, got.slice(0, 1)]),  # a row too many
        got.rename_columns(["v2", "v0"]),  # a column misnamed
        pa.table({"v1": ["2", "1", "2"], "v0": ["b", "a", "b"]}),  # same distinct rows
    ):
        with pytest.raises(AssertionError):
            workload.assert_same_rows(wrong, expected)
