"""Parser for the SPARQL subset the paper evaluates.

Grammar (case-insensitive keywords)::

    [PREFIX pfx: <iri>]*
    SELECT [DISTINCT] (?var+ | *)
    WHERE { triple ("." triple)* ["."] }

where each triple term is a variable (``?v0``), a prefixed name
(``wsdbm:likes``), a full IRI (``<http://...>``), a quoted literal
(``"male"``, with SPARQL's backslash escapes such as ``\\t``) or a
bare number (``42`` — WatDiv uses plain integers for ages/ratings).

Full IRIs whose namespace matches a declared prefix are canonicalised
to the prefixed form, so the parser output is independent of which
spelling the query used — the stores index predicates by prefixed name.
"""
from __future__ import annotations

import re

from repro.sparql.algebra import IRI, Literal, Query, Term, TriplePattern, Variable

#: Namespaces of the WatDiv vocabulary; used when a query does not
#: declare its own prefixes (the bundled queries rely on these).
DEFAULT_PREFIXES: dict[str, str] = {
    "wsdbm": "http://db.uwaterloo.ca/~galuc/wsdbm/",
    "sorg": "http://schema.org/",
    "foaf": "http://xmlns.com/foaf/",
    "og": "http://ogp.me/ns#",
    "rev": "http://purl.org/stuff/rev#",
    "gr": "http://purl.org/goodrelations/",
    "gn": "http://www.geonames.org/ontology#",
    "mo": "http://purl.org/ontology/mo/",
    "dc": "http://purl.org/dc/terms/",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
}

# A prefixed name's local part may hold dots but not end with one: the
# "." after ``wsdbm:Product0.`` ends the triple pattern.
_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<iri><[^<>\s]*>)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<literal>"(?:[^"\\]|\\.)*")
  | (?P<pname>[A-Za-z][A-Za-z0-9_-]*:(?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)
  | (?P<number>[+-]?\d+(?:\.\d+)?)
  | (?P<keyword>[A-Za-z][A-Za-z0-9_]*)
  | (?P<punct>[{}().*;,])
    """,
    re.VERBOSE,
)

#: SPARQL's escapes in a quoted literal (ECHAR), decoded in one pass so
#: that ``\\t`` stays a backslash followed by ``t``
_ESCAPE = re.compile(r"\\(.)")
_UNESCAPES = dict(zip("tnrbf\"'\\", "\t\n\r\b\f\"'\\"))


class ParseError(ValueError):
    """Raised on any syntactic problem; message carries position info."""


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            continue
        tokens.append((kind, m.group()))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of query")
        self.i += 1
        return tok

    def expect_keyword(self, word: str) -> None:
        kind, val = self.next()
        if kind != "keyword" or val.upper() != word:
            raise ParseError(f"expected {word}, got {val!r}")

    def expect_punct(self, ch: str) -> None:
        kind, val = self.next()
        if val != ch:
            raise ParseError(f"expected {ch!r}, got {val!r}")


def _canonical_iri(raw: str, prefixes: dict[str, str]) -> str:
    """``<full>`` → prefixed form when a declared namespace matches."""
    full = raw[1:-1]
    for pfx, ns in prefixes.items():
        if full.startswith(ns) and len(full) > len(ns):
            return f"{pfx}:{full[len(ns):]}"
    return full


def _unescape(m: re.Match) -> str:
    if m.group(1) not in _UNESCAPES:
        raise ParseError(f"invalid escape \\{m.group(1)} in a literal")
    return _UNESCAPES[m.group(1)]


def _term(cur: _Cursor, prefixes: dict[str, str]) -> Term:
    kind, val = cur.next()
    if kind == "var":
        return Variable(val[1:])
    if kind == "pname":
        pfx = val.split(":", 1)[0]
        if pfx not in prefixes:
            raise ParseError(f"undeclared prefix {pfx!r} in {val!r}")
        return IRI(val)
    if kind == "iri":
        return IRI(_canonical_iri(val, prefixes))
    if kind == "literal":
        return Literal(_ESCAPE.sub(_unescape, val[1:-1]))
    if kind == "number":
        return Literal(val)
    raise ParseError(f"expected a term, got {val!r}")


def parse(text: str) -> Query:
    """Parse a SPARQL SELECT query into a :class:`~repro.sparql.algebra.Query`.

    Raises :class:`ParseError` on syntax errors and on features outside
    the supported subset (FILTER, OPTIONAL, UNION, multiple BGPs).
    """
    cur = _Cursor(_tokenize(text))
    prefixes = dict(DEFAULT_PREFIXES)

    while (tok := cur.peek()) and tok[0] == "keyword" and tok[1].upper() == "PREFIX":
        cur.next()
        kind, pname = cur.next()
        if kind != "pname" or not pname.endswith(":"):
            # "pfx:" tokenises as pname with empty local part
            raise ParseError(f"expected prefix declaration, got {pname!r}")
        kind, iri = cur.next()
        if kind != "iri":
            raise ParseError(f"expected <iri> after PREFIX, got {iri!r}")
        prefixes[pname[:-1]] = iri[1:-1]

    cur.expect_keyword("SELECT")
    distinct = False
    tok = cur.peek()
    if tok and tok[0] == "keyword" and tok[1].upper() == "DISTINCT":
        distinct = True
        cur.next()

    select_vars: list[str] = []
    while (tok := cur.peek()) is not None:
        if tok[1] == "*":
            if select_vars:
                raise ParseError("cannot mix * with named variables")
            cur.next()
            select_vars = ["*"]
            break
        if tok[0] == "var":
            cur.next()
            select_vars.append(tok[1][1:])
            continue
        break
    if not select_vars:
        raise ParseError("SELECT clause names no variables")

    cur.expect_keyword("WHERE")
    cur.expect_punct("{")

    patterns: list[TriplePattern] = []
    while True:
        tok = cur.peek()
        if tok is None:
            raise ParseError("unterminated group graph pattern")
        if tok[1] == "}":
            cur.next()
            break
        if tok[0] == "keyword" and tok[1].upper() in ("FILTER", "OPTIONAL", "UNION"):
            raise ParseError(f"{tok[1].upper()} is outside the supported subset")
        s = _term(cur, prefixes)
        p = _term(cur, prefixes)
        o = _term(cur, prefixes)
        patterns.append(TriplePattern(s, p, o))
        tok = cur.peek()
        if tok and tok[1] == ".":
            cur.next()

    if cur.peek() is not None:
        raise ParseError(f"trailing tokens after query: {cur.peek()[1]!r}")
    if not patterns:
        raise ParseError("empty basic graph pattern")

    return Query(
        select_vars=tuple(select_vars),
        patterns=tuple(patterns),
        distinct=distinct,
        prefixes=prefixes,
    )
