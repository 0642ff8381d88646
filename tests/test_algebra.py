"""Unit tests for the SPARQL algebra term model."""
from __future__ import annotations

import pytest

from repro.sparql.algebra import (
    IRI,
    Literal,
    Query,
    TriplePattern,
    Variable,
    is_const,
    is_var,
    most_bound_first,
)

V = Variable
I = IRI
L = Literal


def tp(s, p, o) -> TriplePattern:
    return TriplePattern(s, p, o)


class TestTerms:
    def test_variable_is_var(self):
        assert is_var(V("x")) and not is_const(V("x"))

    def test_iri_is_const(self):
        assert is_const(I("wsdbm:User1")) and not is_var(I("wsdbm:User1"))

    def test_literal_is_const(self):
        assert is_const(L("male"))

    def test_equality_by_value(self):
        assert V("x") == V("x") and I("a:b") == I("a:b") and L("1") == L("1")

    def test_inequality_across_kinds(self):
        assert I("male") != L("male")

    def test_terms_hashable(self):
        assert len({V("x"), V("x"), I("a:b"), L("z")}) == 3


class TestTriplePattern:
    def test_variables_order_and_dedup(self):
        assert tp(V("a"), I("p:q"), V("b")).variables() == ("a", "b")
        assert tp(V("a"), I("p:q"), V("a")).variables() == ("a",)

    def test_variables_empty_for_ground_triple(self):
        assert tp(I("s:s"), I("p:p"), L("o")).variables() == ()

    def test_predicate_property(self):
        assert tp(V("a"), I("wsdbm:likes"), V("b")).predicate == "wsdbm:likes"

    def test_predicate_raises_on_variable(self):
        with pytest.raises(ValueError):
            _ = tp(V("a"), V("p"), V("b")).predicate

    def test_subject_key_variable(self):
        assert tp(V("v0"), I("p:p"), V("o")).subject_key() == "?v0"

    def test_subject_key_constant(self):
        assert tp(I("wsdbm:User1"), I("p:p"), V("o")).subject_key() == "<wsdbm:User1>"

    def test_same_subject_same_key(self):
        a = tp(V("v0"), I("p:a"), V("x"))
        b = tp(V("v0"), I("p:b"), V("y"))
        assert a.subject_key() == b.subject_key()

    def test_has_literal_bound_object(self):
        assert tp(V("a"), I("p:p"), L("male")).has_literal()
        assert tp(V("a"), I("p:p"), I("wsdbm:City0")).has_literal()

    def test_has_literal_bound_subject(self):
        assert tp(I("wsdbm:User1"), I("p:p"), V("o")).has_literal()

    def test_has_literal_false_for_all_vars(self):
        assert not tp(V("a"), I("p:p"), V("b")).has_literal()


class TestQuery:
    def q(self, select=("a",), pats=None, distinct=False) -> Query:
        pats = pats or (tp(V("a"), I("p:p"), V("b")),)
        return Query(tuple(select), tuple(pats), distinct)

    def test_all_variables_ordered(self):
        q = self.q(pats=(tp(V("b"), I("p:p"), V("a")), tp(V("a"), I("p:q"), V("c"))))
        assert q.all_variables() == ("b", "a", "c")

    def test_projection_named(self):
        assert self.q(select=("b", "a"), pats=(tp(V("a"), I("p:p"), V("b")),)).projection() == ("b", "a")

    def test_projection_star_sorted(self):
        q = self.q(select=("*",), pats=(tp(V("z"), I("p:p"), V("a")),))
        assert q.projection() == ("a", "z")

    def test_validate_ok(self):
        self.q().validate()

    def test_validate_rejects_empty_bgp(self):
        with pytest.raises(ValueError, match="empty"):
            Query(("a",), ()).validate()

    def test_validate_rejects_variable_predicate(self):
        q = self.q(pats=(tp(V("a"), V("p"), V("b")),))
        with pytest.raises(ValueError, match="predicate"):
            q.validate()

    def test_validate_rejects_unknown_projection(self):
        q = self.q(select=("zz",))
        with pytest.raises(ValueError, match="zz"):
            q.validate()

    def test_distinct_flag(self):
        assert self.q(distinct=True).distinct


class TestMostBoundFirst:
    """The join order SPARQLGX and Rya share."""

    EXTENT = {"p:big": 1000, "p:mid": 100, "p:small": 10}

    def order(self, *patterns):
        return [t.predicate for t in most_bound_first(patterns, self.EXTENT.__getitem__)]

    def test_constants_first(self):
        assert self.order(
            tp(V("a"), I("p:small"), V("b")),
            tp(V("a"), I("p:big"), L("x")),
            tp(I("s:s"), I("p:mid"), L("y")),
        ) == ["p:mid", "p:big", "p:small"]

    def test_smaller_extent_first_among_equals(self):
        assert self.order(
            tp(V("a"), I("p:big"), V("b")),
            tp(V("a"), I("p:small"), V("c")),
            tp(V("a"), I("p:mid"), V("d")),
        ) == ["p:small", "p:mid", "p:big"]

    def test_every_pattern_after_the_first_shares_a_variable(self):
        """After ``?a big "k"``, ``?c small ?d`` has the smallest extent,
        but ``?a big ?b`` is the pattern connected to it."""
        patterns = (
            tp(V("c"), I("p:small"), V("d")),
            tp(V("a"), I("p:big"), L("k")),
            tp(V("b"), I("p:mid"), V("c")),
            tp(V("a"), I("p:big"), V("b")),
        )
        ordered = most_bound_first(patterns, self.EXTENT.__getitem__)
        assert [str(t) for t in ordered] == [
            '?a p:big "k" .',
            "?a p:big ?b .",
            "?b p:mid ?c .",
            "?c p:small ?d .",
        ]
        bound = set(ordered[0].variables())
        for t in ordered[1:]:
            assert bound & set(t.variables())
            bound |= set(t.variables())
