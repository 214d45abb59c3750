"""Confidence scoring for ranked error-code lists.

The classifier's raw similarity scores are not comparable across bundles
(a 0.4 Jaccard against a rich candidate pool means something very
different from a 0.4 against two nodes), so triage scores each
:class:`~repro.classify.results.Recommendation` from *observable*
signals instead:

* **agreement** — the fraction of the top-25 candidate nodes voting for
  the winning code.  A pool that concurs is the strongest signal the
  bundle sits in well-charted territory.
* **margin** — the relative gap between the top-1 and top-2 code scores.
  A razor-thin margin means the ranked list's head is effectively a coin
  toss between neighbours.
* **pool size** — how many candidate nodes were scored at all; very few
  candidates means the part/feature combination is thinly covered.
* **part known** — whether the bundle's part ID was in the knowledge
  base.  When it is not, candidate retrieval falls back to *all* nodes
  (Fig. 5), and the pool's agreement is cross-part noise, so the whole
  score is discounted.

The combination is a weighted sum, deliberately simple and fully
deterministic — the calibration report in :mod:`repro.evaluate` is the
check that the weights earn their keep (accuracy@1 must rise with the
confidence decile).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..classify.results import Recommendation

#: Suggestions scoring below this enter the review queue (configurable
#: per service; this default keeps healthy, well-supported suggestions
#: out of engineers' way while catching thin-pool and coin-toss cases).
DEFAULT_REVIEW_THRESHOLD = 0.35

#: Pool size at which the pool-coverage factor saturates.
FULL_POOL = 10

_AGREEMENT_WEIGHT = 0.5
_MARGIN_WEIGHT = 0.3
_POOL_WEIGHT = 0.2
_UNKNOWN_PART_FACTOR = 0.5


@dataclass(frozen=True)
class Confidence:
    """Calibrated confidence for one suggest response."""

    #: The combined score in [0, 1]; higher means more trustworthy.
    score: float
    #: Relative top-1/top-2 score gap in [0, 1] (1.0 when unrivalled).
    margin: float
    #: Fraction of scored candidate nodes voting for the winner.
    agreement: float
    #: Number of candidate nodes that were scored.
    pool_size: int
    #: Whether the part ID was known (False: global fallback fired).
    part_known: bool

    def to_payload(self) -> dict:
        """A JSON-ready mapping (webapp / API responses)."""
        return {
            "score": self.score,
            "margin": self.margin,
            "agreement": self.agreement,
            "pool_size": self.pool_size,
            "part_known": self.part_known,
        }


#: The confidence attached to an engineer's override: a pin is a human
#: decision, trusted absolutely — it never re-enters the review queue.
OVERRIDE_CONFIDENCE = Confidence(score=1.0, margin=1.0, agreement=1.0,
                                 pool_size=0, part_known=True)


def score_confidence(recommendation: Recommendation) -> Confidence:
    """Score one ranked list from its observable signals.

    Pure in the recommendation (same input, same output, on every
    executor), which is what lets the cross-executor parity suite demand
    byte-identical confidence across in-process and gateway serving.
    """
    codes = recommendation.codes
    pool_size = recommendation.pool_size
    part_known = recommendation.part_known
    if not codes:
        return Confidence(score=0.0, margin=0.0, agreement=0.0,
                          pool_size=pool_size, part_known=part_known)
    top_score = codes[0].score
    if len(codes) == 1:
        margin = 1.0
    elif top_score <= 0.0:
        margin = 0.0
    else:
        margin = max(0.0, min(1.0, (top_score - codes[1].score) / top_score))
    agreement = (recommendation.winner_nodes / pool_size
                 if pool_size > 0 else 0.0)
    pool_factor = min(1.0, pool_size / FULL_POOL)
    score = (_AGREEMENT_WEIGHT * agreement
             + _MARGIN_WEIGHT * margin
             + _POOL_WEIGHT * pool_factor)
    if not part_known:
        score *= _UNKNOWN_PART_FACTOR
    return Confidence(score=round(score, 6), margin=round(margin, 6),
                      agreement=round(agreement, 6), pool_size=pool_size,
                      part_known=part_known)
