"""Seeded synthetic CoNLL-U for the benchmark workloads.

Every corpus is a sequence of blocks of ``BLOCK`` sentences. Each block
holds the same sentence lengths: the mid-point quantiles of one fixed
skewed (log-normal) length distribution with median 18 tokens and one
sentence in ten above 35, capped at 80. The workload seed draws
everything else: word forms, 6 UPOS tags, 12 dependency labels, a random
single-root gold tree per sentence, and the order of sentences within
each block. Because every block has the same length mix, a run that
stops on a block boundary does the same kind of work whatever the seed,
so runs with different seeds can be compared.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics

UPOS = ("NOUN", "VERB", "ADJ", "ADV", "DET", "ADP")
LABELS = ("root", "nsubj", "obj", "iobj", "obl", "amod", "advmod", "det",
          "case", "nmod", "conj", "punct")
FORMS = tuple(f"w{i}" for i in range(1000))

BLOCK = 40
MEDIAN_LEN = 18
TAIL_LEN = 35       # one sentence in ten is longer than this
TAIL_SHARE = 0.10
MAX_LEN = 80


def block_lengths() -> list[int]:
    """Sentence lengths of one block, shortest first."""
    dist = statistics.NormalDist()
    sigma = math.log(TAIL_LEN / MEDIAN_LEN) / dist.inv_cdf(1.0 - TAIL_SHARE)
    return [
        min(MAX_LEN, max(2, round(MEDIAN_LEN * math.exp(sigma * dist.inv_cdf((i + 0.5) / BLOCK)))))
        for i in range(BLOCK)
    ]


def _sentence_lines(rng: random.Random, n: int) -> list[str]:
    """CoNLL-U token lines of one sentence with a random single-root tree.

    Tokens are attached in a random order, each to a token attached
    before it; the first one attaches to the root.
    """
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = [0] * (n + 1)
    for pos, tok in enumerate(order[1:], start=1):
        heads[tok] = order[rng.randrange(pos)]
    lines = []
    for i in range(1, n + 1):
        label = "root" if heads[i] == 0 else rng.choice(LABELS[1:])
        lines.append(f"{i}\t{rng.choice(FORMS)}\t_\t{rng.choice(UPOS)}\t_\t_\t{heads[i]}\t{label}\t_\t_")
    return lines


def generate(seed: int, n_sentences: int) -> str:
    """CoNLL-U text of ``n_sentences`` sentences, a multiple of ``BLOCK``."""
    if n_sentences < BLOCK or n_sentences % BLOCK:
        raise ValueError(f"sentence count must be a positive multiple of {BLOCK}, got {n_sentences}")
    rng = random.Random(seed)
    lengths = block_lengths()
    blocks = []
    for _ in range(n_sentences // BLOCK):
        order = list(lengths)
        rng.shuffle(order)
        blocks.extend("\n".join(_sentence_lines(rng, n)) for n in order)
    return "\n\n".join(blocks) + "\n"


def describe(text: str) -> dict:
    """Digest, counts and length quartiles of a generated corpus."""
    lengths = [len(block.splitlines()) for block in text.strip("\n").split("\n\n")]
    q1, q2, q3 = statistics.quantiles(lengths, n=4)
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest()[:16],
        "sentences": len(lengths),
        "tokens": sum(lengths),
        "length_quartiles": [q1, q2, q3],
        "length_max": max(lengths),
    }


def vocab_tables() -> dict:
    """Keyword arguments for ``arcforge.Vocab`` covering every generated
    form, tag and label, so the model does not depend on the seed."""
    return {
        "form_to_id": {f: i + 2 for i, f in enumerate(FORMS)},
        "upos_to_id": {u: i + 2 for i, u in enumerate(UPOS)},
        "label_to_id": {lab: i for i, lab in enumerate(LABELS)},
    }
