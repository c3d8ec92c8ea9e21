"""Evaluation harness kernels (reference operators E2/E3).

Ports EvaluationScoreCalculator (java :52-152): true positives, TPR, FPR and
the F-beta score, including the NaN / zero-safety corner cases — these are
replicated, not "fixed".
"""

from __future__ import annotations

import math


def true_positives(assigned: set[str], reference: set[str]) -> float:
    """E2 — EvaluationScoreCalculator.truePositives (java :52-62)."""
    if not assigned:
        return 0.0
    return float(sum(1 for t in assigned if t in reference))


def true_positives_rate(assigned: set[str], reference: set[str]) -> float:
    """E2 — TPR = TP / #reference (java :64-76).  Raises ZeroDivisionError on
    an empty reference just as Java would yield NaN/inf — callers guard."""
    return true_positives(assigned, reference) / len(reference)


def false_positives_rate(
    assigned: set[str], reference: set[str], all_candidate_tokens: set[str]
) -> float:
    """E2 — FPR (java :78-104): #(assigned not in reference) /
    #(all candidate tokens minus reference), 0-safe."""
    fp = float(sum(1 for t in assigned if t not in reference))
    an = float(len(all_candidate_tokens))
    for t in all_candidate_tokens:
        if t in reference:
            an -= 1
    return 0.0 if an == 0 else fp / an


def f_beta_score(assigned: set[str], reference: set[str], beta: float = 1.0) -> float:
    """E3 — fBetaScore (java :133-152).

    NaN when the reference is empty; 0 when there are no true positives.
    """
    if not reference:
        return math.nan
    score = 0.0
    if assigned:
        tp = true_positives(assigned, reference)
        if tp > 0.0:
            pr = tp / len(assigned)
            rc = tp / len(reference)
            b2 = beta * beta
            score = (1 + b2) * (pr * rc) / (b2 * pr + rc)
    return score
