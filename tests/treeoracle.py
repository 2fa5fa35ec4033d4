"""Exhaustive tree search and tree scores: the oracles the decoder tests
compare against.

No prediction or training path calls them, so they live with the tests.
"""

import itertools
from functools import lru_cache

import numpy as np

from arcforge.decoders import check_tree, is_projective


def tree_score(scores: np.ndarray, heads: list[int]) -> float:
    """Sum of arc scores of the tree given as a 1-indexed head array,
    added in float64 whatever the scores' dtype."""
    return float(sum(scores[heads, np.arange(1, len(heads) + 1)].tolist()))


def is_single_root_tree(heads: list[int]) -> bool:
    """A tree rooted at 0 in which the root heads exactly one word."""
    return heads.count(0) == 1 and check_tree(heads)


@lru_cache(maxsize=32)
def candidate_trees(n: int, projective: bool) -> tuple[tuple[int, ...], ...]:
    no_self_loop = [[h for h in range(n + 1) if h != j] for j in range(1, n + 1)]
    return tuple(
        heads
        for heads in itertools.product(*no_self_loop)
        if is_single_root_tree(list(heads)) and (not projective or is_projective(list(heads)))
    )


def brute_force_best_tree(scores: np.ndarray, projective: bool) -> tuple[list[int], float]:
    """Exhaustive argmax over single-root trees."""
    n = scores.shape[0] - 1
    if n > 7:
        raise ValueError(f"brute force refuses n={n} > 7")
    if n == 0:
        return [], 0.0
    trees = np.array(candidate_trees(n, projective))
    best = trees[int(np.argmax(scores[trees, np.arange(1, n + 1)].sum(axis=1)))].tolist()
    return best, tree_score(scores, best)
