"""Exact tree inference over arc score matrices.

Score matrices are plain (n+1) x (n+1) float arrays with S[i][j] the
score of the arc i -> j; the diagonal and column 0 are ignored (they
may hold -inf). All decoders enforce the single-root constraint: token
0 is the dummy root and heads exactly one word.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

NEG_INF = float("-inf")


def tree_score(scores: np.ndarray, heads: list[int]) -> float:
    """Sum of arc scores of the tree given as a 1-indexed head array."""
    n = len(heads)
    return float(sum(scores[heads[j - 1], j] for j in range(1, n + 1)))


def check_tree(heads: list[int]) -> bool:
    """True iff heads (1-indexed positions, 0 = root) form a tree rooted at 0.

    Walks up from each word once. ``walk[v]`` is 0 while v is unseen and
    then the word whose walk first reached it: a walk that meets its own
    mark has closed a cycle, and one that meets an earlier walk's mark (or
    the root) reaches the root, since that walk did.
    """
    n = len(heads)
    walk = [0] * (n + 1)
    walk[0] = -1
    for start in range(1, n + 1):
        v = start
        while not walk[v]:
            walk[v] = start
            v = heads[v - 1]
            if not 0 <= v <= n:
                return False
        if walk[v] == start:
            return False
    return True


def is_single_root_tree(heads: list[int]) -> bool:
    """A tree rooted at 0 in which the root heads exactly one word."""
    return heads.count(0) == 1 and check_tree(heads)


def is_projective(heads: list[int]) -> bool:
    """No two arcs cross (root arcs included; root sits at position 0)."""
    arcs = [(min(h, j), max(h, j)) for j, h in enumerate(heads, start=1)]
    for (a1, b1), (a2, b2) in itertools.combinations(arcs, 2):
        if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
            return False
    return True


def _stripe(chart: np.ndarray, row: int, col: int, w: int, down: bool) -> np.ndarray:
    """The (n - w) x w view of an (n+1) x (n+1) chart whose row i holds the w
    cells that start at chart[row + i, col + i] and run along that row, or
    down that column if ``down``: the split candidates of every width-w span
    at once (Zhang, Li & Zhang 2020)."""
    rows, cols = chart.strides
    return np.ndarray((chart.shape[0] - 1 - w, w), chart.dtype, chart, row * rows + col * cols,
                      (rows + cols, rows if down else cols))


def eisner(scores: np.ndarray) -> list[int]:
    """Maximum projective single-root tree in O(n^3) time, O(n^2) space.

    The chart runs over word positions 1..n and is filled one span width
    at a time, each width with whole-matrix ops; the root arc is attached
    afterwards, once, to the best chart decomposition, which enforces the
    single-root constraint exactly. Ties go to the first split and the
    first root child.
    """
    n = scores.shape[0] - 1
    if n == 0:
        return []
    if n == 1:
        return [0]
    # complete/incomplete spans over [s, t], 1 <= s <= t <= n
    c_left = np.zeros((n + 1, n + 1))    # headed at t
    c_right = np.zeros((n + 1, n + 1))   # headed at s
    i_left = np.zeros((n + 1, n + 1))    # arc t -> s
    i_right = np.zeros((n + 1, n + 1))   # arc s -> t
    bp_cl = np.zeros((n + 1, n + 1), dtype=int)
    bp_cr = np.zeros((n + 1, n + 1), dtype=int)
    bp_i = np.zeros((n + 1, n + 1), dtype=int)  # shared by both incomplete spans

    for w in range(1, n):
        # every span [s, t] of width w; row s - 1 of each stripe holds its splits
        s = np.arange(1, n - w + 1)
        t = s + w
        at = s - 1
        # incomplete: c_right[s, q] + c_left[q + 1, t] for split q in [s, t)
        combo = _stripe(c_right, 1, 1, w, down=False) + _stripe(c_left, 2, 1 + w, w, down=True)
        q = combo.argmax(axis=1)
        best = combo[at, q]
        i_left[s, t] = scores[t, s] + best
        i_right[s, t] = scores[s, t] + best
        bp_i[s, t] = s + q
        # complete headed at t: c_left[s, q] + i_left[q, t] for q in [s, t);
        # reads the incomplete spans of width w filled just above
        combo = _stripe(c_left, 1, 1, w, down=False) + _stripe(i_left, 1, 1 + w, w, down=True)
        q = combo.argmax(axis=1)
        c_left[s, t] = combo[at, q]
        bp_cl[s, t] = s + q
        # complete headed at s: i_right[s, q] + c_right[q, t] for q in (s, t]
        combo = _stripe(i_right, 1, 2, w, down=False) + _stripe(c_right, 2, 1 + w, w, down=True)
        q = combo.argmax(axis=1)
        c_right[s, t] = combo[at, q]
        bp_cr[s, t] = s + 1 + q

    best_c = 1 + int(np.argmax(scores[0, 1:] + c_left[1, 1:] + c_right[1:, n]))

    heads = [0] * (n + 1)
    stack = [("cl", 1, best_c), ("cr", best_c, n)]
    heads[best_c] = 0
    while stack:
        kind, s, t = stack.pop()
        if s == t:
            continue
        if kind == "cl":
            q = bp_cl[s, t]
            stack.append(("cl", s, q))
            stack.append(("il", q, t))
        elif kind == "cr":
            q = bp_cr[s, t]
            stack.append(("ir", s, q))
            stack.append(("cr", q, t))
        elif kind == "il":
            heads[s] = t
            q = bp_i[s, t]
            stack.append(("cr", s, q))
            stack.append(("cl", q + 1, t))
        else:  # ir
            heads[t] = s
            q = bp_i[s, t]
            stack.append(("cr", s, q))
            stack.append(("cl", q + 1, t))
    return heads[1:]


def _masked(scores: np.ndarray) -> np.ndarray:
    """A float copy with the diagonal and column 0 at -inf, and any other
    -inf arc raised to a finite floor that no tree avoiding such arcs can
    lose to, so that contraction never subtracts one infinity from another."""
    s = np.array(scores, dtype=float)
    np.fill_diagonal(s, NEG_INF)
    s[:, 0] = NEG_INF
    arc = ~np.eye(len(s), dtype=bool)
    arc[:, 0] = False
    missing = arc & np.isneginf(s)
    if missing.any():
        present = s[arc & ~missing]
        lo, hi = (present.min(), present.max()) if present.size else (0.0, 0.0)
        s[missing] = lo - len(s) * (hi - lo) - 1.0
    return s


def _find_cycle(best: list[int]) -> np.ndarray:
    """Sorted nodes of a cycle of best, a map from each word to another word."""
    path, pos = [1], {1: 0}
    while (v := best[path[-1]]) not in pos:
        pos[v] = len(path)
        path.append(v)
    return np.sort(path[pos[v]:])


def cle(scores: np.ndarray) -> list[int]:
    """Maximum spanning arborescence with exactly one root child.

    Every word takes its best non-root head; those arcs close a cycle C,
    which is contracted, level by level, until one word is left to take
    the root. Exact: an optimal single-root tree with fewer than |C| - 1
    arcs of C has a cycle word whose non-root tree arc its cycle arc can
    replace at no loss. At most n - 1 levels of numpy calls, no recursion.
    """
    s = _masked(scores)
    levels = []
    while len(s) > 2:
        best = np.concatenate(([0], 1 + np.argmax(s[1:, 1:], axis=0)))
        cyc = _find_cycle(best.tolist())
        keep = np.ones(len(s), dtype=bool)
        keep[cyc] = False
        rest = np.flatnonzero(keep)  # rest[0] is the root
        enter = s[rest[:, None], cyc] - s[best[cyc], cyc]
        leave = s[cyc[:, None], rest]
        k = len(rest)
        t = np.full((k + 1, k + 1), NEG_INF)
        t[:k, :k] = s[rest[:, None], rest]
        t[:k, k] = enter.max(axis=1)
        t[k, 1:k] = leave[:, 1:].max(axis=0)
        levels.append((best, cyc, rest, enter.argmax(axis=1), leave.argmax(axis=0)))
        s = t
    heads = np.zeros(len(s), dtype=int)  # node 0's entry is a placeholder
    for best, cyc, rest, enter_at, leave_from in reversed(levels):
        k = len(rest)
        up = best.copy()  # cycle words keep their cycle arcs ...
        up[rest] = np.append(rest, -1)[heads[:k]]
        from_cycle = heads[:k] == k  # words hung from the contracted node
        up[rest[from_cycle]] = cyc[leave_from[from_cycle]]
        up[cyc[enter_at[heads[k]]]] = rest[heads[k]]  # ... but one, replaced by the entering arc
        heads = up
    return heads[1:].tolist()


@lru_cache(maxsize=32)
def _candidate_trees(n: int, projective: bool) -> tuple[tuple[int, ...], ...]:
    no_self_loop = [[h for h in range(n + 1) if h != j] for j in range(1, n + 1)]
    return tuple(
        heads
        for heads in itertools.product(*no_self_loop)
        if is_single_root_tree(list(heads)) and (not projective or is_projective(list(heads)))
    )


def brute_force_best_tree(scores: np.ndarray, projective: bool) -> tuple[list[int], float]:
    """Exhaustive argmax over single-root trees; the test oracle."""
    n = scores.shape[0] - 1
    if n > 7:
        raise ValueError(f"brute force refuses n={n} > 7")
    if n == 0:
        return [], 0.0
    trees = np.array(_candidate_trees(n, projective))
    best = trees[int(np.argmax(scores[trees, np.arange(1, n + 1)].sum(axis=1)))].tolist()
    return best, tree_score(scores, best)
