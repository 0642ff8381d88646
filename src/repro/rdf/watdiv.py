"""WatDiv-lite: a deterministic synthetic RDF graph generator.

The paper evaluates on the Waterloo SPARQL Diversity Test Suite
(WatDiv) at 100M triples. WatDiv models an e-commerce domain — users,
products, offers, retailers, reviews, purchases — whose predicates have
very different coverage and multiplicity, which is exactly what makes
the Property-Table-vs-Vertical-Partitioning trade-off interesting.

This module regenerates that *shape* at laptop scale (``scale=1.0`` is
roughly 35–40 K triples):

- every predicate used by the 20 WatDiv basic-testing query templates
  exists with a sensible domain/range;
- multi-valued predicates (``wsdbm:likes``, ``wsdbm:friendOf``,
  ``wsdbm:hasGenre``, ``og:tag``, ...) really are multi-valued, so the
  PT stores them as lists;
- coverage is *prefix-correlated*: a predicate with coverage ``c`` is
  attached to the first ``c·n`` entities of its type, mimicking real
  graphs where popular entities are richly described and guaranteeing
  that star-query conjunctions are non-empty even at test scale;
- object links are sampled with a Zipf-ish skew toward low entity ids,
  so the constants the bundled queries use (``wsdbm:Topic0``,
  ``wsdbm:City0``, ...) occur frequently.

Everything is deterministic in ``seed``: the DuckDB oracle and every
engine see byte-identical input.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

RDF_TYPE = "rdf:type"

#: entity kind -> (count at scale=1.0, minimum count at any scale)
ENTITY_BASE: dict[str, tuple[int, int]] = {
    "User": (1000, 40),
    "Product": (250, 16),
    "Offer": (900, 30),
    "Retailer": (30, 6),
    "Review": (1500, 40),
    "Website": (80, 6),
    "City": (40, 6),
    "Country": (25, 8),
    "Genre": (21, 6),
    "Language": (10, 3),
    "Purchase": (1500, 40),
    "Topic": (50, 6),
    "ProductCategory": (15, 4),
    "Role": (3, 3),
}


@dataclass(frozen=True)
class PredicateSpec:
    """Metadata about one generated predicate (used by tests)."""

    name: str
    domain: str  # entity kind of the subjects
    range_kind: str  # entity kind for IRI objects, or "literal"
    multi: bool  # can one subject carry several objects?
    coverage: float  # fraction of domain entities carrying it


#: All generated predicates; filled in by the module-level spec table.
PREDICATES: dict[str, PredicateSpec] = {}


def _spec(name: str, domain: str, range_kind: str, multi: bool, cov: float) -> PredicateSpec:
    spec = PredicateSpec(name, domain, range_kind, multi, cov)
    PREDICATES[name] = spec
    return spec


# --- user predicates -------------------------------------------------------
_spec("dc:Location", "User", "City", False, 0.75)
_spec("sorg:nationality", "User", "Country", False, 0.70)
_spec("wsdbm:gender", "User", "literal", False, 0.85)
_spec("foaf:age", "User", "literal", False, 0.60)
_spec("foaf:familyName", "User", "literal", False, 0.75)
_spec("foaf:givenName", "User", "literal", False, 0.75)
_spec("foaf:homepage", "User", "Website", False, 0.45)
_spec("sorg:jobTitle", "User", "literal", False, 0.40)
_spec("wsdbm:userId", "User", "literal", False, 1.0)
_spec("wsdbm:likes", "User", "Product", True, 0.55)
_spec("wsdbm:friendOf", "User", "User", True, 0.60)
_spec("wsdbm:follows", "User", "User", True, 0.60)
_spec("wsdbm:subscribes", "User", "Website", True, 0.45)
# --- product predicates ----------------------------------------------------
_spec("sorg:caption", "Product", "literal", False, 0.85)
_spec("sorg:description", "Product", "literal", False, 0.75)
_spec("sorg:contentRating", "Product", "literal", False, 0.65)
_spec("sorg:contentSize", "Product", "literal", False, 0.60)
_spec("sorg:keywords", "Product", "literal", False, 0.70)
_spec("sorg:text", "Product", "literal", False, 0.55)
_spec("sorg:trailer", "Product", "literal", False, 0.35)
_spec("sorg:publisher", "Product", "literal", False, 0.55)
_spec("sorg:language", "Product", "Language", False, 0.50)
_spec("og:title", "Product", "literal", False, 0.85)
_spec("og:tag", "Product", "Topic", True, 0.65)
_spec("wsdbm:hasGenre", "Product", "Genre", True, 0.90)
_spec("mo:artist", "Product", "User", False, 0.45)
_spec("mo:conductor", "Product", "User", False, 0.25)
_spec("sorg:actor", "Product", "User", True, 0.35)
# --- review predicates -----------------------------------------------------
_spec("rev:rating", "Review", "literal", False, 1.0)
_spec("rev:title", "Review", "literal", False, 0.90)
_spec("rev:text", "Review", "literal", False, 0.80)
_spec("rev:reviewer", "Review", "User", False, 1.0)
_spec("rev:totalVotes", "Review", "literal", False, 0.70)
# --- offer predicates ------------------------------------------------------
_spec("gr:includes", "Offer", "Product", False, 1.0)
_spec("gr:price", "Offer", "literal", False, 1.0)
_spec("gr:serialNumber", "Offer", "literal", False, 0.90)
_spec("gr:validFrom", "Offer", "literal", False, 0.85)
_spec("gr:validThrough", "Offer", "literal", False, 0.85)
_spec("sorg:eligibleQuantity", "Offer", "literal", False, 0.75)
_spec("sorg:eligibleRegion", "Offer", "Country", True, 0.75)
_spec("sorg:priceValidUntil", "Offer", "literal", False, 0.50)
# --- retailer predicates ---------------------------------------------------
_spec("sorg:legalName", "Retailer", "literal", False, 0.95)
# gr:offers is derived from the offer→retailer assignment (multi-valued).
_spec("gr:offers", "Retailer", "Offer", True, 1.0)
# --- purchase predicates ---------------------------------------------------
_spec("wsdbm:purchaseDate", "Purchase", "literal", False, 1.0)
_spec("wsdbm:purchaseFor", "Purchase", "Product", False, 1.0)
# wsdbm:makesPurchase is derived from the purchase→user assignment.
_spec("wsdbm:makesPurchase", "User", "Purchase", True, 1.0)
# rev:hasReview is derived from the review→product assignment.
_spec("rev:hasReview", "Product", "Review", True, 1.0)
# --- website predicates ----------------------------------------------------
_spec("sorg:url", "Website", "literal", False, 1.0)
_spec("wsdbm:hits", "Website", "literal", False, 0.90)
# Website language shares the sorg:language predicate with products; the
# generator emits it separately for the Website domain.
# --- city / genre ----------------------------------------------------------
_spec("gn:parentCountry", "City", "Country", False, 1.0)
_spec("wsdbm:subGenreOf", "Genre", "Genre", False, 0.35)
# Genres carry og:tag too (same predicate as products, Genre domain) and
# rdf:type wsdbm:Genre — emitted by the generator directly.

#: average multiplicity for multi-valued predicates
_MULTI_AVG: dict[str, float] = {
    "wsdbm:likes": 3.0,
    "wsdbm:friendOf": 5.0,
    "wsdbm:follows": 3.0,
    "wsdbm:subscribes": 2.0,
    "og:tag": 2.0,
    "wsdbm:hasGenre": 2.0,
    "sorg:actor": 2.0,
    "sorg:eligibleRegion": 1.5,
}


def entity_counts(scale: float) -> dict[str, int]:
    """Number of entities of each kind at the given scale factor."""
    return {
        kind: max(floor, int(base * scale)) for kind, (base, floor) in ENTITY_BASE.items()
    }


def _iri(kind: str, ids: np.ndarray) -> np.ndarray:
    return np.char.add(f"wsdbm:{kind}", ids.astype(str))


def _zipf_ids(rng: np.random.Generator, n_pool: int, size: int, alpha: float = 1.0) -> np.ndarray:
    """Skewed entity ids in ``[0, n_pool)`` — low ids are popular."""
    ranks = np.arange(1, n_pool + 1, dtype=np.float64)
    w = ranks**-alpha
    w /= w.sum()
    return rng.choice(n_pool, size=size, p=w)


def _covered(n: int, coverage: float) -> np.ndarray:
    """Prefix-coverage subject ids: the first ``coverage*n`` entities."""
    k = max(1, int(round(n * coverage))) if coverage > 0 else 0
    return np.arange(min(k, n))


def _frame(s: np.ndarray, p: str, o: np.ndarray) -> pd.DataFrame:
    return pd.DataFrame({"s": s, "p": p, "o": o})


def _literal_objects(rng: np.random.Generator, pred: str, subject_ids: np.ndarray) -> np.ndarray:
    """Lexical values for literal-range predicates.

    Predicates used as query constants draw from small value domains so
    equality filters are selective but non-empty; identifier-like
    predicates are unique per subject.
    """
    n = len(subject_ids)
    if pred == "wsdbm:gender":
        return rng.choice(["male", "female"], n)
    if pred == "foaf:age":
        return rng.choice([str(18 + 8 * k) for k in range(10)], n)
    if pred == "rev:rating":
        return rng.integers(1, 11, n).astype(str)
    if pred == "sorg:contentRating":
        return rng.choice(["G", "PG", "PG-13", "R", "NC-17"], n)
    if pred == "sorg:contentSize":
        return rng.choice([str(100 * k) for k in range(1, 9)], n)
    if pred == "foaf:familyName":
        return rng.choice([f"Family{k}" for k in range(25)], n)
    if pred == "foaf:givenName":
        return rng.choice([f"Given{k}" for k in range(25)], n)
    if pred == "sorg:jobTitle":
        return rng.choice([f"Job{k}" for k in range(12)], n)
    if pred == "sorg:publisher":
        return rng.choice([f"Publisher{k}" for k in range(15)], n)
    if pred == "rev:totalVotes":
        return rng.integers(0, 500, n).astype(str)
    if pred == "gr:price":
        return np.char.add((rng.integers(100, 100000, n) / 100.0).astype(str), "")
    if pred in ("gr:validFrom", "gr:validThrough", "sorg:priceValidUntil", "wsdbm:purchaseDate"):
        days = rng.integers(0, 3650, n)
        base = np.datetime64("2010-01-01")
        return (base + days.astype("timedelta64[D]")).astype(str)
    if pred == "sorg:eligibleQuantity":
        return rng.integers(1, 10, n).astype(str)
    if pred == "wsdbm:hits":
        return rng.integers(1, 1_000_000, n).astype(str)
    # identifier-ish defaults: unique per subject
    tag = pred.split(":", 1)[1]
    return np.array([f"{tag}_{i}" for i in subject_ids])


def watdiv_pandas(*, scale: float = 1.0, seed: int = 42) -> pd.DataFrame:
    """Generate the WatDiv-lite graph as a pandas ``(s,p,o)`` frame.

    Deterministic in ``(scale, seed)``. Duplicate triples produced by
    multi-valued sampling are dropped, so the result is a set.
    """
    rng = np.random.default_rng(seed)
    n = entity_counts(scale)
    frames: list[pd.DataFrame] = []

    # rdf:type for the typed entity kinds the queries touch.
    users = np.arange(n["User"])
    frames.append(
        _frame(_iri("User", users), RDF_TYPE, _iri("Role", users % n["Role"]))
    )
    products = np.arange(n["Product"])
    frames.append(
        _frame(
            _iri("Product", products),
            RDF_TYPE,
            _iri("ProductCategory", products % n["ProductCategory"]),
        )
    )
    genres = np.arange(n["Genre"])
    frames.append(_frame(_iri("Genre", genres), RDF_TYPE, np.full(len(genres), "wsdbm:Genre")))
    reviews = np.arange(n["Review"])
    frames.append(_frame(_iri("Review", reviews), RDF_TYPE, np.full(len(reviews), "wsdbm:Review")))
    offers = np.arange(n["Offer"])
    frames.append(_frame(_iri("Offer", offers), RDF_TYPE, np.full(len(offers), "wsdbm:Offer")))

    # Attribute predicates from the spec table (skip the derived ones).
    derived = {"gr:offers", "wsdbm:makesPurchase", "rev:hasReview"}
    for pred, spec in PREDICATES.items():
        if pred in derived:
            continue
        dom_n = n[spec.domain]
        subj_ids = _covered(dom_n, spec.coverage)
        if len(subj_ids) == 0:
            continue
        if spec.multi:
            avg = _MULTI_AVG.get(pred, 2.0)
            counts = 1 + rng.poisson(avg - 1.0, len(subj_ids))
            rep_subj = np.repeat(subj_ids, counts)
            if spec.range_kind == "literal":
                objs = _literal_objects(rng, pred, rep_subj)
            else:
                objs = _iri(spec.range_kind, _zipf_ids(rng, n[spec.range_kind], len(rep_subj)))
            frames.append(_frame(_iri(spec.domain, rep_subj), pred, objs))
        else:
            if spec.range_kind == "literal":
                objs = _literal_objects(rng, pred, subj_ids)
            else:
                objs = _iri(spec.range_kind, _zipf_ids(rng, n[spec.range_kind], len(subj_ids)))
            frames.append(_frame(_iri(spec.domain, subj_ids), pred, objs))

    # Derived link predicates (child assigned to exactly one parent).
    retailer_of_offer = offers % n["Retailer"]
    frames.append(_frame(_iri("Retailer", retailer_of_offer), "gr:offers", _iri("Offer", offers)))

    purchases = np.arange(n["Purchase"])
    user_of_purchase = _zipf_ids(rng, n["User"], len(purchases))
    frames.append(
        _frame(_iri("User", user_of_purchase), "wsdbm:makesPurchase", _iri("Purchase", purchases))
    )

    product_of_review = _zipf_ids(rng, n["Product"], len(reviews))
    frames.append(
        _frame(_iri("Product", product_of_review), "rev:hasReview", _iri("Review", reviews))
    )

    # Products also carry foaf:homepage (shared predicate with users,
    # different domain) — F2/F4 navigate product → homepage → website.
    phome_ids = _covered(n["Product"], 0.45)
    frames.append(
        _frame(
            _iri("Product", phome_ids),
            "foaf:homepage",
            _iri("Website", _zipf_ids(rng, n["Website"], len(phome_ids))),
        )
    )
    # Websites share sorg:language with products (different domain).
    web_ids = _covered(n["Website"], 0.5)
    frames.append(
        _frame(
            _iri("Website", web_ids),
            "sorg:language",
            _iri("Language", _zipf_ids(rng, n["Language"], len(web_ids))),
        )
    )
    # Genres carry og:tag as well (F1 navigates hasGenre → og:tag).
    gtag_ids = _covered(n["Genre"], 0.85)
    gtag_counts = 1 + rng.poisson(1.0, len(gtag_ids))
    gtag_rep = np.repeat(gtag_ids, gtag_counts)
    frames.append(
        _frame(
            _iri("Genre", gtag_rep),
            "og:tag",
            _iri("Topic", _zipf_ids(rng, n["Topic"], len(gtag_rep))),
        )
    )

    out = pd.concat(frames, ignore_index=True)
    out = out.drop_duplicates(["s", "p", "o"]).reset_index(drop=True)
    return out

