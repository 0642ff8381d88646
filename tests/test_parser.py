"""Unit tests for the SPARQL subset parser."""
from __future__ import annotations

import pytest

from repro.sparql.algebra import IRI, Literal, Variable
from repro.sparql.parser import DEFAULT_PREFIXES, ParseError, parse


class TestBasics:
    def test_single_pattern(self):
        q = parse("SELECT ?a WHERE { ?a wsdbm:likes ?b . }")
        assert q.select_vars == ("a",)
        assert len(q.patterns) == 1
        tp = q.patterns[0]
        assert tp.s == Variable("a")
        assert tp.p == IRI("wsdbm:likes")
        assert tp.o == Variable("b")

    def test_multiple_patterns(self):
        q = parse(
            "SELECT ?a ?c WHERE { ?a wsdbm:likes ?b . ?b rev:hasReview ?c . }"
        )
        assert len(q.patterns) == 2
        assert q.select_vars == ("a", "c")

    def test_trailing_dot_optional(self):
        q = parse("SELECT ?a WHERE { ?a wsdbm:likes ?b }")
        assert len(q.patterns) == 1

    def test_case_insensitive_keywords(self):
        q = parse("select ?a where { ?a wsdbm:likes ?b . }")
        assert q.select_vars == ("a",)

    def test_whitespace_and_newlines(self):
        q = parse("SELECT ?a\nWHERE {\n  ?a wsdbm:likes ?b .\n}")
        assert len(q.patterns) == 1

    def test_comments_skipped(self):
        q = parse("# a comment\nSELECT ?a WHERE { ?a wsdbm:likes ?b . # end\n }")
        assert len(q.patterns) == 1

    def test_star_projection(self):
        q = parse("SELECT * WHERE { ?z wsdbm:likes ?a . }")
        assert q.select_vars == ("*",)
        assert q.projection() == ("a", "z")

    def test_distinct(self):
        assert parse("SELECT DISTINCT ?a WHERE { ?a wsdbm:likes ?b . }").distinct

    def test_no_distinct_by_default(self):
        assert not parse("SELECT ?a WHERE { ?a wsdbm:likes ?b . }").distinct


class TestTerms:
    def test_iri_object(self):
        q = parse("SELECT ?a WHERE { ?a wsdbm:likes wsdbm:Product0 . }")
        assert q.patterns[0].o == IRI("wsdbm:Product0")

    def test_iri_subject(self):
        q = parse("SELECT ?a WHERE { wsdbm:User3 wsdbm:likes ?a . }")
        assert q.patterns[0].s == IRI("wsdbm:User3")

    def test_quoted_literal(self):
        q = parse('SELECT ?a WHERE { ?a wsdbm:gender "male" . }')
        assert q.patterns[0].o == Literal("male")

    def test_escaped_quote_in_literal(self):
        q = parse('SELECT ?a WHERE { ?a sorg:text "a\\"b" . }')
        assert q.patterns[0].o == Literal('a"b')

    @pytest.mark.parametrize(
        "escaped,value",
        [
            (r"a\tb", "a\tb"),
            (r"a\nb", "a\nb"),
            (r"a\rb", "a\rb"),
            (r"a\bb", "a\bb"),
            (r"a\fb", "a\fb"),
            (r'a\"b', 'a"b'),
            (r"a\'b", "a'b"),
            (r"a\\b", "a\\b"),
            (r"a\\tb", "a\\tb"),  # an escaped backslash, then a plain t
        ],
    )
    def test_literal_escapes_decoded(self, escaped, value):
        q = parse(f'SELECT ?a WHERE {{ ?a sorg:text "{escaped}" . }}')
        assert q.patterns[0].o == Literal(value)

    def test_prefixed_name_does_not_end_with_dot(self):
        q = parse("SELECT ?a WHERE { ?a wsdbm:likes wsdbm:Product0. }")
        assert q.patterns[0].o == IRI("wsdbm:Product0")

    def test_prefixed_name_keeps_inner_dots(self):
        q = parse("PREFIX ex: <http://example.org/> SELECT ?a WHERE { ?a ex:x.y ex:a.b. }")
        assert q.patterns[0].p == IRI("ex:x.y")
        assert q.patterns[0].o == IRI("ex:a.b")

    def test_bare_number_literal(self):
        q = parse("SELECT ?a WHERE { ?a foaf:age 26 . }")
        assert q.patterns[0].o == Literal("26")

    def test_negative_number_literal(self):
        q = parse("SELECT ?a WHERE { ?a foaf:age -3 . }")
        assert q.patterns[0].o == Literal("-3")

    def test_variable_predicate_parses(self):
        q = parse("SELECT ?a WHERE { ?a ?p ?b . }")
        assert q.patterns[0].p == Variable("p")

    def test_full_iri_canonicalised_to_prefix(self):
        ns = DEFAULT_PREFIXES["wsdbm"]
        q = parse(f"SELECT ?a WHERE {{ ?a <{ns}likes> ?b . }}")
        assert q.patterns[0].p == IRI("wsdbm:likes")

    def test_unknown_full_iri_kept_verbatim(self):
        q = parse("SELECT ?a WHERE { ?a <http://example.org/p> ?b . }")
        assert q.patterns[0].p == IRI("http://example.org/p")


class TestPrefixes:
    def test_custom_prefix_declaration(self):
        q = parse(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?a WHERE { ?a ex:knows ?b . }"
        )
        assert q.patterns[0].p == IRI("ex:knows")
        assert q.prefixes["ex"] == "http://example.org/"

    def test_custom_prefix_canonicalises_full_iris(self):
        q = parse(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?a WHERE { ?a <http://example.org/knows> ?b . }"
        )
        assert q.patterns[0].p == IRI("ex:knows")

    def test_default_prefixes_available(self):
        for pfx in ("wsdbm", "sorg", "foaf", "rev", "gr", "gn", "mo", "og", "dc", "rdf"):
            parse(f"SELECT ?a WHERE {{ ?a {pfx}:x ?b . }}")

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(ParseError, match="undeclared prefix"):
            parse("SELECT ?a WHERE { ?a nope:p ?b . }")


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "SELECT",
        "SELECT ?a",
        "SELECT ?a WHERE",
        "SELECT ?a WHERE {",
        "SELECT ?a WHERE { }",
        "SELECT WHERE { ?a wsdbm:likes ?b . }",
        "SELECT * ?a WHERE { ?a wsdbm:likes ?b . }",
        "SELECT ?a ?b * WHERE { ?a wsdbm:likes ?b . }",
        "WHERE { ?a wsdbm:likes ?b . }",
        "SELECT ?a WHERE { ?a wsdbm:likes . }",
        "SELECT ?a WHERE { ?a wsdbm:likes ?b . } trailing",
        "SELECT ?a WHERE { ?a wsdbm:likes ?b . FILTER(?b > 1) }",
        "SELECT ?a WHERE { OPTIONAL { ?a wsdbm:likes ?b } }",
        "SELECT ?a WHERE { ?a wsdbm:likes ?b @bad }",
        r'SELECT ?a WHERE { ?a sorg:text "a\qb" . }',
    ],
)
def test_syntax_errors_raise(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_parse_error_is_value_error():
    assert issubclass(ParseError, ValueError)
