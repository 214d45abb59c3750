"""Set similarity measures (§4.3).

The paper evaluates the Jaccard coefficient and the overlap coefficient;
Dice and cosine are included as registered extensions (the pipeline's
classification step "can easily be used with different similarity or
distance measures").

Every set-overlap measure is a function of three numbers: the size of
the intersection ``|A ∩ B|`` and the sizes ``|A|`` and ``|B|``.  So a
measure here takes ``(shared, len_a, len_b)`` rather than the two sets:
Fig. 5 retrieval counts each candidate's shared features while it
unions the posting lists
(:meth:`repro.knowledge.FrozenKnowledgeView.candidates`), and scoring
never intersects a set.

All measures map to [0, 1]; two empty sets are defined to have
similarity 0 (such pairs never reach scoring anyway, because candidate
selection requires at least one shared feature).
"""

from __future__ import annotations

import math
from typing import Callable

#: ``(shared, len_a, len_b) -> similarity`` with ``shared = |A ∩ B|``.
SimilarityFn = Callable[[int, int, int], float]


def jaccard(shared: int, len_a: int, len_b: int) -> float:
    """|A ∩ B| / |A ∪ B| — the paper's primary measure."""
    if not shared:
        return 0.0
    return shared / (len_a + len_b - shared)


def overlap(shared: int, len_a: int, len_b: int) -> float:
    """|A ∩ B| / min(|A|, |B|) — the paper's secondary measure."""
    if not len_a or not len_b:
        return 0.0
    return shared / min(len_a, len_b)


def dice(shared: int, len_a: int, len_b: int) -> float:
    """2·|A ∩ B| / (|A| + |B|) — extension measure."""
    if not len_a and not len_b:
        return 0.0
    return 2.0 * shared / (len_a + len_b)


def cosine(shared: int, len_a: int, len_b: int) -> float:
    """|A ∩ B| / sqrt(|A|·|B|) — set cosine, extension measure."""
    if not len_a or not len_b:
        return 0.0
    return shared / math.sqrt(len_a * len_b)


#: Registry used by experiment configs ("jaccard", "overlap", ...).
SIMILARITIES: dict[str, SimilarityFn] = {
    "jaccard": jaccard,
    "overlap": overlap,
    "dice": dice,
    "cosine": cosine,
}


def get_similarity(name_or_fn: str | SimilarityFn) -> SimilarityFn:
    """Resolve a similarity by registry name, passing callables through.

    Raises:
        KeyError: on unknown names.
    """
    if callable(name_or_fn):
        return name_or_fn
    try:
        return SIMILARITIES[name_or_fn]
    except KeyError:
        known = ", ".join(sorted(SIMILARITIES))
        raise KeyError(f"unknown similarity {name_or_fn!r}; known: {known}") from None
