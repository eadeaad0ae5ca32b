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


def normalize_answer(raw: str) -> Answer:
    """Classify by the leading token: yes, no, or Other.

    Surrounding whitespace and punctuation are ignored, so "Yes.",
    "no, not every one" and " NO " all normalize cleanly; a hedged
    paragraph that never leads with yes/no is Other. Idempotent over its
    own yes/no outputs.
    """
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
