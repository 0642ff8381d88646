from tracing import Span, Tracer, self_times


def test_spans_nest_and_inherit_the_query_id():
    tr = Tracer()
    with tr.span("query", qid="C1"):
        with tr.span("sparql.parser"):
            pass
        with tr.span("core.executor.exec"):
            pass
    names = [(s.name, s.parent, s.qid) for s in tr.spans]
    assert names == [
        ("query", None, "C1"),
        ("sparql.parser", 0, "C1"),
        ("core.executor.exec", 0, "C1"),
    ]
    assert all(s.end >= s.start for s in tr.spans)
    assert tr.total("query", {"C1"}) >= tr.total("sparql.parser")
    assert tr.total("query", {"C2"}) == 0


def test_self_time_subtracts_children():
    spans = [
        Span("load", 0.0, 10.0, None, "load"),
        Span("core.stats", 1.0, 4.0, 0, "load"),
        Span("core.loader.vp_write", 4.0, 9.0, 0, "load"),
        Span("core.loader.readback", 5.0, 6.0, 2, "load"),
    ]
    assert self_times(spans) == {
        "load": 2.0,
        "core.stats": 3.0,
        "core.loader.vp_write": 4.0,
        "core.loader.readback": 1.0,
    }
