"""Attachment-score evaluation and the filter oracle metric."""

from __future__ import annotations

from .conllu import Sentence

# classic evaluation punctuation tag set (PTB-style tags plus UPOS PUNCT)
PUNCT_POS_SET = {"``", "''", ":", ",", ".", "PU", "PUNCT"}

PUNCT_POLICIES = ("keep", "upos", "pos-set")


def _counted(upos: str, policy: str) -> bool:
    if policy == "keep":
        return True
    if policy == "upos":
        return upos != "PUNCT"
    return upos not in PUNCT_POS_SET  # "pos-set"


def uas_las(predictions: list[tuple[list[int], list[str]]],
            gold_sentences: list[Sentence],
            punct_policy: str = "keep") -> tuple[float, float]:
    """Percent of tokens with the correct head (UAS) and with the correct
    head and label (LAS). Tokens dropped by the punctuation policy count
    in neither numerator nor denominator.
    """
    if punct_policy not in PUNCT_POLICIES:
        raise ValueError(f"unknown punctuation policy {punct_policy!r}; expected one of {PUNCT_POLICIES}")
    if len(predictions) != len(gold_sentences):
        raise ValueError(f"{len(predictions)} predictions for {len(gold_sentences)} gold sentences")
    total = correct_heads = correct_both = 0
    for (heads, labels), gold in zip(predictions, gold_sentences):
        if len(heads) != len(gold) or len(labels) != len(gold):
            raise ValueError(f"prediction length {len(heads)}/{len(labels)} vs sentence length {len(gold)}")
        for j, tok in enumerate(gold.tokens):
            if not _counted(tok.upos, punct_policy):
                continue
            total += 1
            if heads[j] == tok.gold_head:
                correct_heads += 1
                if labels[j] == tok.gold_label:
                    correct_both += 1
    if total == 0:
        return 0.0, 0.0
    return 100.0 * correct_heads / total, 100.0 * correct_both / total


def filter_oracle_uas(kept_lists: list[list[list[int]]],
                      gold_sentences: list[Sentence]) -> float:
    """Percent of tokens whose gold head survives the top-k filter.

    kept_lists[s][j-1] is the ordered kept-head list for modifier j of
    sentence s.
    """
    if len(kept_lists) != len(gold_sentences):
        raise ValueError(f"{len(kept_lists)} filter outputs for {len(gold_sentences)} sentences")
    total = hit = 0
    for kept, gold in zip(kept_lists, gold_sentences):
        if len(kept) != len(gold):
            raise ValueError(f"filter output covers {len(kept)} modifiers, sentence has {len(gold)}")
        for j, tok in enumerate(gold.tokens):
            total += 1
            if tok.gold_head in kept[j]:
                hit += 1
    return 100.0 * hit / total if total else 0.0
