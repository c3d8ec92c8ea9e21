"""Tokenizer + patternize (reference operators M3/M5).

Contract (TokenScoreCalculator.java:54-64, BlastResult.java:29, :391-401):
split the description on ``TOKEN_SPLITTER_REGEX``, lowercase each token, drop
empties, drop tokens failing the token blacklist; the result is a SET.
``patternize`` is the sorted unique tokens concatenated (description identity
key used for near-duplicate description detection).
"""

from __future__ import annotations

import re

from ahrd_ray.config import TOKEN_SPLITTER_REGEX
from ahrd_ray.functions.regexes import token_passes_blacklist

_SPLITTER = re.compile(TOKEN_SPLITTER_REGEX)


def tokenize(description: str, token_blacklist: list) -> set[str]:
    """M3 — TokenScoreCalculator.tokenize (java :54-64).

    An empty ``token_blacklist`` reproduces evaluation-tokenization
    (BlastResult.tokenizeForEvaluation, java :450-455).
    """
    out: set[str] = set()
    for tok in set(_SPLITTER.split(description)):
        tok = tok.lower()
        if tok and token_passes_blacklist(tok, token_blacklist):
            out.add(tok)
    return out


def patternize(tokens: set[str]) -> str:
    """M5 — BlastResult.patternize (java :391-401)."""
    return "".join(sorted(tokens))
