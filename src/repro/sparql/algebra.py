"""SPARQL algebra subset: terms, triple patterns and queries.

The paper evaluates "queries with a unique basic graph pattern without
filter" — pure conjunctions of triple patterns. That is exactly the
algebra modelled here. Terms are kept as plain strings internally
(IRIs in prefixed canonical form such as ``wsdbm:likes``, literals as
their lexical value); the dataclasses only tag which kind a term is,
which the Join Tree priority heuristic needs (literals score highest).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar


@dataclass(frozen=True)
class Variable:
    """A SPARQL variable, e.g. ``?v0`` — stored without the ``?``."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class IRI:
    """An IRI in prefixed canonical form (``wsdbm:User3``)."""

    value: str

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Literal:
    """An RDF literal; only the lexical form matters for matching."""

    value: str

    def __str__(self) -> str:
        return f'"{self.value}"'


Term = Variable | IRI | Literal
Constant = IRI | Literal


def is_var(t: Term) -> bool:
    """True iff *t* is a :class:`Variable`."""
    return isinstance(t, Variable)


def is_const(t: Term) -> bool:
    """True iff *t* is bound (an IRI or a literal)."""
    return isinstance(t, (IRI, Literal))


T = TypeVar("T")


def connected_order(items: Sequence[T], key: Callable[[T], object]) -> list[T]:
    """Greedy connected join order, shared by every planner here.

    Sort *items* (anything with ``variables()``) by *key*, then take the
    first remaining item that shares a variable with those already
    placed, or the first remaining one if none does — so a cartesian
    product happens only for a genuinely disconnected query.
    """
    remaining = sorted(items, key=key)
    ordered = [remaining.pop(0)]
    bound = set(ordered[0].variables())
    while remaining:
        nxt = next((x for x in remaining if bound.intersection(x.variables())), remaining[0])
        remaining.remove(nxt)
        ordered.append(nxt)
        bound.update(nxt.variables())
    return ordered


def most_bound_first(
    patterns: Sequence[TriplePattern], extent: Callable[[str], int]
) -> list[TriplePattern]:
    """The join order of SPARQLGX and Rya: patterns with more constants
    first, then the smaller ``extent(predicate)``, kept connected by
    :func:`connected_order`."""
    return connected_order(
        patterns,
        key=lambda tp: (-sum(map(is_const, (tp.s, tp.o))), extent(tp.predicate)),
    )


@dataclass(frozen=True)
class TriplePattern:
    """One triple pattern ``s p o``.

    The predicate must be constant for all engines in this repo (the
    WatDiv basic queries never use variable predicates); the parser
    still accepts variable predicates so that the rejection is tested
    at the engine layer.
    """

    s: Term
    p: Term
    o: Term

    def variables(self) -> tuple[str, ...]:
        """Variable names used by this pattern, in s,p,o order, deduped."""
        seen: list[str] = []
        for t in (self.s, self.p, self.o):
            if is_var(t) and t.name not in seen:
                seen.append(t.name)
        return tuple(seen)

    @property
    def predicate(self) -> str:
        """The constant predicate IRI. Raises if the predicate is a variable."""
        if not isinstance(self.p, IRI):
            raise ValueError(f"variable predicate not supported: {self}")
        return self.p.value

    def subject_key(self) -> str:
        """Grouping key for the subject-star detection of §3.2.

        Patterns share a PT node iff they have the same subject term —
        either the same variable or the same constant IRI.
        """
        return f"?{self.s.name}" if is_var(self.s) else f"<{self.s.value}>"

    def has_literal(self) -> bool:
        """Paper §3.3: a pattern "containing literals" — i.e. any bound
        subject or object — is a strong constraint and scores highest."""
        return is_const(self.s) or is_const(self.o)

    def __str__(self) -> str:  # pragma: no cover
        return f"{self.s} {self.p} {self.o} ."


@dataclass(frozen=True)
class Query:
    """A SELECT query over one basic graph pattern.

    ``select_vars`` is the projection in query order; ``("*",)`` means
    project every variable (sorted by name, for determinism).
    """

    select_vars: tuple[str, ...]
    patterns: tuple[TriplePattern, ...]
    distinct: bool = False
    prefixes: dict[str, str] = field(default_factory=dict, compare=False, hash=False)

    def all_variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for tp in self.patterns:
            for v in tp.variables():
                if v not in seen:
                    seen.append(v)
        return tuple(seen)

    def projection(self) -> tuple[str, ...]:
        """The concrete output column list (resolves ``*``)."""
        if self.select_vars == ("*",):
            return tuple(sorted(self.all_variables()))
        return self.select_vars

    def validate(self) -> None:
        """Raise ValueError on queries no engine here can answer."""
        if not self.patterns:
            raise ValueError("empty basic graph pattern")
        for tp in self.patterns:
            if is_var(tp.p):
                raise ValueError(f"variable predicate not supported: {tp}")
        known = set(self.all_variables())
        missing = [v for v in self.projection() if v not in known]
        if missing:
            raise ValueError(f"projected variables not in BGP: {missing}")
