"""Text pre-processing for graph creation (paper §II).

The paper tokenizes cell values and text, removes stop-words, stems, and
builds n-gram *terms* (n = 1..3 by default, chosen by profiling Wikipedia
titles). A *term* is one-or-more stemmed tokens joined by ``_`` and becomes a
data node in the graph.

Everything here is pure Python and runs on the driver:
``graph.tokenize_corpus`` selects each corpus's document ids and text in
Spark SQL, collects them once and calls :func:`terms` per text, and
``build_graph`` builds Algorithm 1's rows from that output, so no Spark
Python worker tokenizes anything. No NLTK offline, so the stemmer is a
compact suffix-stripping stemmer covering the inflections our corpora
generate (plural/-ing/-ed/-ly/-tion/...); it is deterministic and
idempotent on its own output for the suffixes it strips, which is all
graph merging needs.
"""
from __future__ import annotations

import re
from typing import Iterable, List

# A standard English stop-word list (small on purpose: these are the words
# the paper's examples drop, e.g. "The" in "The Sixth Sense").
STOPWORDS = frozenset(
    """a an the and or but if then else when while of at by for with about
    against between into through during before after above below to from up
    down in out on off over under again further once here there all any both
    each few more most other some such no nor not only own same so than too
    very s t can will just don should now is are was were be been being have
    has had having do does did doing would could i me my we our you your he
    him his she her it its they them their what which who whom this that
    these those as until because during""".split()
)

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:\.[0-9]+)?")
_NUMERIC_RE = re.compile(r"^[0-9]+(?:\.[0-9]+)?$")

TERM_SEP = "_"


def normalize(text: str) -> str:
    """Lower-case and collapse whitespace; keep digits and letters."""
    return " ".join((text or "").lower().split())


def tokenize(text: str) -> List[str]:
    """Split normalized text into alphanumeric tokens.

    ``"B. Willis"`` -> ``["b", "willis"]``; ``"3.5 stars"`` -> ``["3.5",
    "stars"]`` (decimals survive so numeric bucketing sees real values).
    """
    return _TOKEN_RE.findall(normalize(text))


def is_numeric(term: str) -> bool:
    """True for terms that are plain integers or decimals (bucketing targets)."""
    return bool(_NUMERIC_RE.match(term))


_STEM_RULES = (
    # (suffix, replacement, min stem length left after stripping)
    ("ational", "ate", 3),
    ("ization", "ize", 3),
    ("fulness", "ful", 3),
    ("ousness", "ous", 3),
    ("iveness", "ive", 3),
    ("tional", "tion", 3),
    ("biliti", "ble", 3),
    ("ements", "ement", 3),
    ("ations", "ate", 3),
    ("ingly", "", 4),
    ("edly", "", 4),
    ("ation", "ate", 3),
    ("ments", "ment", 3),
    ("ness", "", 3),
    ("ings", "", 3),
    ("ing", "", 3),
    ("ies", "y", 2),
    ("ied", "y", 2),
    ("est", "", 3),
    ("ly", "", 3),
    ("ed", "", 3),
    ("s", "", 3),
)


def stem(token: str) -> str:
    """Light suffix-stripping stemmer.

    Merges inflected forms onto a shared stem — e.g. ``planning``/``plans``/
    ``planned`` -> ``plann``/``plan``/``plann`` -> after the doubled-consonant
    fixup all -> ``plan`` — which is what the paper uses stemming for
    (merging data nodes, §II-C). Numeric tokens pass through untouched.
    """
    if is_numeric(token) or len(token) <= 3:
        return token
    for suffix, repl, min_len in _STEM_RULES:
        if token.endswith(suffix):
            stripped = token[: len(token) - len(suffix)] + repl
            if len(stripped) >= min_len:
                # undo consonant doubling: plann -> plan, stopp -> stop
                if (
                    len(stripped) >= 2
                    and stripped[-1] == stripped[-2]
                    and stripped[-1] not in "aeiouls"
                ):
                    stripped = stripped[:-1]
                return stripped
            return token
    return token


def content_tokens(text: str, *, do_stem: bool = True) -> List[str]:
    """Tokenize, drop stop-words, stem. The unit the graph's n-grams run over."""
    toks = [t for t in tokenize(text) if t not in STOPWORDS]
    if do_stem:
        toks = [stem(t) for t in toks]
    return toks


def ngrams(tokens: Iterable[str], max_n: int) -> List[str]:
    """All n-gram terms for n = 1..max_n, joined with ``_``, in order.

    For ``["the", "six", "sense"]`` (post-stopword: ``["six", "sense"]``)
    and max_n=2 -> ``["six", "sense", "six_sense"]``.
    """
    toks = list(tokens)
    out: List[str] = []
    for n in range(1, max_n + 1):
        out.extend(TERM_SEP.join(toks[i : i + n]) for i in range(len(toks) - n + 1))
    return out


def terms(text: str, *, max_n: int = 3, do_stem: bool = True) -> List[str]:
    """Distinct terms (data-node labels) for a piece of text, order-preserving."""
    seen: dict = {}
    for t in ngrams(content_tokens(text, do_stem=do_stem), max_n):
        seen.setdefault(t, None)
    return list(seen)

