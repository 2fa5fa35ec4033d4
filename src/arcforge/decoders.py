"""Exact tree inference over arc score matrices.

Score matrices are plain (n+1) x (n+1) float arrays with S[i][j] the
score of the arc i -> j; the diagonal and column 0 are ignored (they
may hold -inf or NaN), and a NaN arc score raises ValueError. All
decoders enforce the single-root constraint: token 0 is the dummy root
and heads exactly one word.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

NEG_INF = float("-inf")


def tree_score(scores: np.ndarray, heads: list[int]) -> float:
    """Sum of arc scores of the tree given as a 1-indexed head array,
    added in float64 whatever the scores' dtype."""
    return float(sum(scores[heads, np.arange(1, len(heads) + 1)].tolist()))


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


def _strided(buf: np.ndarray, offset: int, shape: tuple, strides: tuple) -> np.ndarray:
    """The view of the flat array ``buf`` that starts ``offset`` items in
    and steps ``strides`` items along each axis; numpy checks that it fits."""
    size = buf.itemsize
    return np.ndarray(shape, buf.dtype, buf, offset * size, tuple(size * st for st in strides))


def _reject_nan(scores: np.ndarray) -> None:
    """Raise ValueError at the first NaN arc score; the diagonal and
    column 0 are ignored."""
    nan = np.isnan(scores)
    np.fill_diagonal(nan, False)
    nan[:, 0] = False
    if nan.any():
        i, j = np.argwhere(nan)[0]
        raise ValueError(f"NaN score for arc {i} -> {j}")


def eisner(scores: np.ndarray) -> list[int]:
    """Maximum projective single-root tree in O(n^3) time, O(n^2) space.

    The chart runs over word positions 1..n and is filled one span width
    at a time, each width with whole-matrix ops; the root arc is attached
    afterwards, once, to the best chart decomposition, which enforces the
    single-root constraint exactly. Ties go to the first split and the
    first root child.
    """
    _reject_nan(scores)
    n = scores.shape[0] - 1
    if n == 0:
        return []
    if n == 1:
        return [0]
    # Every operand of a width w is a slice of one view built here: span
    # [s, t] = [1 + i, 1 + i + w] is row i, and its split candidates run
    # along the last axis (Zhang, Li & Zhang 2020). The charts sit at fixed
    # distances in one buffer, so a pair of them is one view with a slot
    # axis. Charts over [s, t], 1 <= s <= t <= n, in this order:
    # c_left (complete, headed at t), i_right (arc s -> t), i_left (arc
    # t -> s), c_right (complete, headed at s); the widest view of the
    # complete spans' second operand reads up to n*n - 4 items past them.
    N = n + 1
    NN = N * N
    chart = np.zeros(4 * NN + n * n)
    c_left = chart[:NN].reshape(N, N)
    c_right = chart[3 * NN:4 * NN].reshape(N, N)
    # scores.T and scores: the incomplete spans' arc scores, i_left then i_right
    arcs = np.empty((2, N, N))
    arcs[0] = scores.T
    arcs[1] = scores
    # back-pointers: bp_cl, bp_cr, bp_i
    bp = np.zeros((3, N, N), dtype=np.intp)
    ar = np.arange(N)
    diag = (1, N + 1)  # [w, i] -> cell [1 + i, 1 + i + w]
    # incomplete: c_right[s, q] + c_left[q + 1, t] for split q = s + k in [s, t)
    inc_a = _strided(chart, 3 * NN + N + 1, (n - 1, n - 1), (N + 1, 1))
    inc_b = _strided(chart, 2 * N + 1, (n, n - 1, n - 1), (1, N + 1, N))
    inc_arc = _strided(arcs, N + 1, (2, n, n - 1), (NN,) + diag)
    inc_out = _strided(chart, 2 * NN + N + 1, (2, n, n - 1), (-NN,) + diag)  # i_left, i_right
    inc_bp = _strided(bp, 2 * NN + N + 1, (n, n - 1), diag)
    # complete, slot 0 headed at t: c_left[s, q] + i_left[q, t], q = s + k in [s, t);
    # slot 1 headed at s: i_right[s, q] + c_right[q, t], q = s + 1 + k in (s, t]
    com_a = _strided(chart, N + 1, (2, n - 1, n - 1), (NN + 1, N + 1, 1))
    com_b = _strided(chart, 2 * NN + N + 1, (2, n, n - 1, n - 1), (NN + N, 1, N + 1, N))
    com_out = _strided(chart, N + 1, (2, n, n - 1), (3 * NN,) + diag)  # c_left, c_right
    com_bp = _strided(bp, N + 1, (2, n, n - 1), (NN,) + diag)
    com_at = _strided(ar, 1, (2, n - 1), (1, 1))  # s and s + 1 for row i

    for w in range(1, n):
        m = n - w
        combo = inc_a[:m, :w] + inc_b[w, :m, :w]
        q = combo.argmax(axis=1)
        np.add(inc_arc[:, w, :m], combo.max(axis=1), out=inc_out[:, w, :m])
        np.add(q, ar[1:m + 1], out=inc_bp[w, :m])
        # reads the incomplete spans of width w filled just above
        combo = com_a[:, :m, :w] + com_b[:, w, :m, :w]
        q = combo.argmax(axis=2)
        combo.max(axis=2, out=com_out[:, w, :m])
        np.add(q, com_at[:, :m], out=com_bp[:, w, :m])

    best_c = 1 + int(np.argmax(arcs[1, 0, 1:] + c_left[1, 1:] + c_right[1:, n]))

    bp_cl, bp_cr, bp_i = bp.tolist()
    heads = [0] * (n + 1)
    stack = [("cl", 1, best_c), ("cr", best_c, n)]
    while stack:
        kind, s, t = stack.pop()
        if s == t:
            continue
        if kind == "cl":
            q = bp_cl[s][t]
            stack.append(("cl", s, q))
            stack.append(("il", q, t))
        elif kind == "cr":
            q = bp_cr[s][t]
            stack.append(("ir", s, q))
            stack.append(("cr", q, t))
        else:
            if kind == "il":
                heads[s] = t
            else:
                heads[t] = s
            q = bp_i[s][t]
            stack.append(("cr", s, q))
            stack.append(("cl", q + 1, t))
    return heads[1:]


def _masked(scores: np.ndarray) -> np.ndarray:
    """A float copy with the diagonal and column 0 at -inf, and any other
    -inf arc raised to a finite floor that no tree avoiding such arcs can
    lose to, so that contraction never subtracts one infinity from another.
    Raises ValueError if an arc score is NaN."""
    s = np.array(scores, dtype=float)
    np.fill_diagonal(s, NEG_INF)
    s[:, 0] = NEG_INF
    if np.isfinite(s).sum() == (len(s) - 1) ** 2:  # every arc score is finite
        return s
    _reject_nan(s)
    arc = ~np.eye(len(s), dtype=bool)
    arc[:, 0] = False
    missing = arc & np.isneginf(s)
    if missing.any():
        present = s[arc & ~missing]
        lo, hi = (present.min(), present.max()) if present.size else (0.0, 0.0)
        s[missing] = lo - len(s) * (hi - lo) - 1.0
    return s


def cle(scores: np.ndarray) -> list[int]:
    """Maximum spanning arborescence with exactly one root child.

    Every word takes its best non-root head; those arcs close a cycle C,
    which is contracted into a new node, level by level, until one word is
    left to take the root (Zmigrod, Vieira & Cotterell 2020). Exact: an
    optimal single-root tree with fewer than |C| - 1 arcs of C has a cycle
    word whose non-root tree arc its cycle arc can replace at no loss.

    O(n^2) in all (Tarjan 1977): a contraction writes only the new node's
    row and column and picks a best head for it alone. Every other node
    keeps its best head, which a union-find maps to the node now holding
    it. No score is written twice, so the expansion, which works from the
    last contraction back, reads each level's scores as they were. No
    numpy call inside the loop, and no recursion.
    """
    m = _masked(scores)
    n = len(m) - 1
    if n < 2:
        return [0] * n
    # Node ids: the root, the words, then the contracted nodes in the order
    # they are made, so the newer of two nodes has the larger id. s[i][j] is
    # the score of arc i -> j while both are alive; a node's row and column
    # stop growing once it is contracted.
    s = m.tolist()
    best = [0, *(1 + np.argmax(m[1:, 1:], axis=0)).tolist()]
    up = list(range(n + 1))  # union-find: up[v] == v while v is alive
    # per contracted node: its members, their heads and their cycle arc scores
    cycles = [None] * (n + 1)
    # per contracted node: the member its arc to each older node leaves from
    wins = [None] * (n + 1)
    live = list(range(n + 1))  # the root first
    rows = s[:]  # the rows of the live nodes
    path = [1]  # a walk along best heads; what leads into a cycle leads into its new node
    while len(live) > 2:
        v = best[path[-1]]
        while up[v] != v:
            up[v] = up[up[v]]
            v = up[v]
        if v not in path:
            path.append(v)
            continue
        i = path.index(v)
        cyc = path[i:]  # each member's head is the next one
        del path[i:]
        c = len(s)
        for x in cyc:
            up[x] = c
            i = live.index(x)
            del live[i], rows[i]
        up.append(c)
        ring = cyc[1:] + cyc[:1]
        d = [s[g][x] for x, g in zip(cyc, ring)]
        # A cycle has two members or more. Arcs into C, each relative to
        # the cycle arc it would replace:
        (x, y), (dx, dy) = cyc[:2], d[:2]
        col = [a if (a := r[x] - dx) >= (b := r[y] - dy) else b for r in rows]
        for z, dz in zip(cyc[2:], d[2:]):
            col = [a if a >= (b := r[z] - dz) else b for a, r in zip(col, rows)]
        # arcs out of C, and the member each leaves from:
        win = [x if a >= b else y for a, b in zip(s[x], s[y])]
        row = [a if a >= b else b for a, b in zip(s[x], s[y])]
        for z in cyc[2:]:
            win = [w if a >= b else z for w, a, b in zip(win, row, s[z])]
            row = [a if a >= b else b for a, b in zip(row, s[z])]
        row.append(NEG_INF)
        for r, a in zip(rows, col):
            r.append(a)
        s.append(row)
        wins.append(win)
        cycles.append((cyc, ring, d))
        # the new node's best word head, past the root's row; none if no word is left
        best.append(live[col.index(max(col[1:]), 1)] if len(col) > 1 else 0)
        live.append(c)
        rows.append(row)
        path.append(c)

    # Expand. Of an arc's two ends, the newer one, while it is a contracted
    # node, gives way to the member the arc leaves or enters; entering a
    # cycle brings in the cycle arcs of its other members.
    heads = [0] * (n + 1)
    todo = [(0, live[1])]
    while todo:
        h, v = todo.pop()
        while True:
            while h > v and h > n:
                h = wins[h][v]
            if v <= n:
                break
            cyc, ring, d = cycles[v]
            r = s[h]
            gain = [r[x] - dx for x, dx in zip(cyc, d)]
            v = cyc[gain.index(max(gain))]
            todo.extend((g, x) for x, g in zip(cyc, ring) if x != v)
        heads[v] = h
    return heads[1:]


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
