"""Answer values and normalization of raw model output."""

from __future__ import annotations

import enum


class Answer(str, enum.Enum):
    """Normalized answer space; Other covers everything that is not a
    leading yes or no."""

    YES = "yes"
    NO = "no"
    OTHER = "other"


_STRIP = " \t\r\n.,;:!?\"'`()[]*"


def _by_leading_token(raw: str) -> Answer:
    first = ""
    for token in raw.split():
        first = token.strip(_STRIP).casefold()
        if first:
            break
    if first == "yes":
        return Answer.YES
    if first == "no":
        return Answer.NO
    return Answer.OTHER


# The bare spellings that oracles and most models give, each classified by
# the token loop itself, so the table cannot disagree with it. A fixed table,
# not a cache: it never grows with the answers a run sees.
_BARE = {raw: _by_leading_token(raw) for raw in ("yes", "no", "Yes", "No", "Yes.", "No.", "YES", "NO")}


def normalize_answer(raw: str) -> Answer:
    """Classify by the leading token: yes, no, or Other.

    Surrounding whitespace and punctuation are ignored, so "Yes.",
    "no, not every one" and " NO " all normalize cleanly; a hedged
    paragraph that never leads with yes/no is Other. Idempotent over its
    own yes/no outputs. A bare "yes", "No." or "YES" costs one dict lookup.
    """
    answer = _BARE.get(raw)
    return answer if answer is not None else _by_leading_token(raw)
