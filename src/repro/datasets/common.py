"""Shared vocabulary machinery for the synthetic corpora.

Two disjoint vocabularies drive every scenario:

* ``GENERAL_WORDS`` — common English content words. The "pre-trained"
  background model (``repro.baselines.pretrained``) is trained on a corpus
  over these words only, mirroring a model pre-trained on generic text.
* domain words — pseudo-words built from syllables (:func:`make_words`),
  guaranteed absent from the background model's vocabulary. This reproduces
  the paper's central observation that pre-trained resources do not cover
  domain-specific terms (Challenge 1).

``SYNONYM_GROUPS`` are general-word groups treated as interchangeable by the
paraphraser and co-trained into the background model, so known synonyms
land close in its space; the text datasets' synonym dictionaries list the
same groups.
"""
from __future__ import annotations

from typing import List, Sequence

import numpy as np

GENERAL_WORDS: List[str] = """
report say claim state number people group leader country city party
member week month year time day record total figure level rate amount
result study survey poll vote election campaign policy plan law bill
rule court case charge trial judge police officer agency department
office budget fund money cost price tax income job worker company
business market trade deal product service industry sector growth
economy bank loan debt rise fall increase decrease drop gain change
share percent point half quarter majority minority public private
national local federal state official government president minister
senator governor mayor council board committee school student teacher
university hospital doctor patient health disease virus vaccine drug
treatment death birth family child parent woman man person home house
road bridge water power energy oil gas climate weather storm flood
fire forest land farm food crop animal science research data evidence
fact source news story article paper page photo video speech statement
comment question answer issue problem crisis war peace attack defense
army soldier weapon border travel flight train car driver accident
safety security crime prison sentence rights freedom protest movement
history event moment period future past start end begin finish win
lose lead follow support oppose agree deny confirm reject approve
announce reveal show find prove suggest believe think know tell ask
call meet visit leave return send receive build destroy open close
buy sell pay spend save cut raise lower sign pass fail vote count
""".split()

# interchangeable general words: the paraphraser swaps within a group, the
# background corpus trains members in identical contexts
SYNONYM_GROUPS: List[List[str]] = [
    ["big", "large", "huge"],
    ["small", "little", "tiny"],
    ["fast", "quick", "rapid"],
    ["rise", "increase", "gain"],
    ["fall", "decrease", "drop"],
    ["say", "state", "declare"],
    ["show", "reveal", "display"],
    ["start", "begin"],
    ["end", "finish"],
    ["buy", "purchase"],
    ["job", "work"],
    ["money", "cash"],
    ["people", "citizens"],
    ["doctor", "physician"],
    ["illness", "disease"],
    ["car", "automobile"],
    ["house", "home"],
    ["road", "street"],
    ["storm", "tempest"],
    ["fight", "battle"],
    ["law", "statute"],
    ["error", "mistake"],
    ["aid", "assistance"],
    ["danger", "hazard"],
    ["famous", "renowned"],
    ["old", "ancient"],
    ["new", "recent"],
    ["true", "accurate"],
    ["false", "untrue"],
    ["leader", "chief"],
]

SYNONYM_WORDS: List[str] = sorted({w for g in SYNONYM_GROUPS for w in g})

_ONSETS = "b br c ch d dr f g gr k kl l m n p pr r s st t tr v z".split()
_NUCLEI = "a e i o u ai ea ou".split()
_CODAS = ["", "n", "r", "s", "l", "x", "m", "nd", "rk"]


def make_words(rng: np.random.Generator, n: int, *, syllables: int = 2, prefix: str = "") -> List[str]:
    """``n`` distinct pronounceable pseudo-words, deterministic in ``rng``.

    Pseudo-words are ≥6 chars and built from syllables, so they collide with
    neither ``GENERAL_WORDS`` nor each other's stems under the light stemmer.
    """
    out: List[str] = []
    seen = set(GENERAL_WORDS)
    while len(out) < n:
        w = prefix + "".join(
            _ONSETS[rng.integers(len(_ONSETS))]
            + _NUCLEI[rng.integers(len(_NUCLEI))]
            + _CODAS[rng.integers(len(_CODAS))]
            for _ in range(syllables)
        )
        if len(w) < 6 or w in seen:
            continue
        seen.add(w)
        out.append(w)
    return out


def make_names(rng: np.random.Generator, n: int) -> List[str]:
    """Capitalized surname-like pseudo-words (entity vocabulary)."""
    return [w.capitalize() for w in make_words(rng, n, syllables=2)]


def pick(rng: np.random.Generator, seq: Sequence):
    return seq[int(rng.integers(len(seq)))]


def sample_k(rng: np.random.Generator, seq: Sequence, k: int) -> list:
    idx = rng.choice(len(seq), size=min(k, len(seq)), replace=False)
    return [seq[int(i)] for i in idx]


def synonym_of(rng: np.random.Generator, word: str) -> str:
    """A random synonym of ``word`` (possibly itself) per SYNONYM_GROUPS."""
    for g in SYNONYM_GROUPS:
        if word in g:
            return pick(rng, g)
    return word


def paraphrase(
    rng: np.random.Generator,
    tokens: Sequence[str],
    *,
    drop_prob: float = 0.15,
    swap_prob: float = 0.5,
    shuffle: bool = False,
    filler: Sequence[str] = (),
    n_filler: int = 0,
) -> List[str]:
    """Paraphrase a token sequence: synonym swaps, dropout, optional
    reordering and filler injection — the claims/STS pair generator."""
    out: List[str] = []
    for t in tokens:
        if rng.random() < drop_prob:
            continue
        out.append(synonym_of(rng, t) if rng.random() < swap_prob else t)
    if not out:
        out = [tokens[0]]
    if shuffle and len(out) > 2:
        i, j = sorted(rng.choice(len(out), size=2, replace=False))
        out[i], out[j] = out[j], out[i]
    for _ in range(n_filler):
        if filler:
            out.insert(int(rng.integers(len(out) + 1)), pick(rng, filler))
    return out
