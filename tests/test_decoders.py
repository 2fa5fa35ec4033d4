"""Decoder tests: hand cases, oracles, and structural invariants."""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcforge.decoders import (
    _masked,
    brute_force_best_tree,
    cle,
    eisner,
    is_projective,
    is_single_root_tree,
    tree_score,
)


def random_scores(n, rng, lo=-5.0, hi=5.0):
    s = rng.uniform(lo, hi, size=(n + 1, n + 1))
    np.fill_diagonal(s, -np.inf)
    s[:, 0] = -np.inf
    return s


def root_heavy_scores(n, rng):
    """Uniform scores with the root row shifted up, so that the best head of
    most words is the root and the single-root constraint binds."""
    s = random_scores(n, rng)
    s[0, 1:] += rng.uniform(2.0, 10.0)
    return s


# The contraction-per-forced-root-child decoder that cle replaced, kept
# as a reference: greedy contraction, then one re-decode per word when
# the greedy tree has several root children.


def _reference_find_cycle(best, m):
    color = [0] * m
    color[0] = 2
    for start in range(1, m):
        if color[start] != 0:
            continue
        path = [start]
        color[start] = 1
        while True:
            nxt = int(best[path[-1]])
            if nxt == 0 or color[nxt] == 2:
                break
            if color[nxt] == 1:
                return path[path.index(nxt):]
            color[nxt] = 1
            path.append(nxt)
        for v in path:
            color[v] = 2
    return None


def _greedy_arborescence(scores):
    m = scores.shape[0]
    best = np.full(m, -1, dtype=int)
    for j in range(1, m):
        col = scores[:, j].copy()
        col[j] = -np.inf
        best[j] = int(np.argmax(col))
    cycle = _reference_find_cycle(best, m)
    if cycle is None:
        return best

    cyc = sorted(cycle)
    cyc_set = set(cyc)
    rest = [v for v in range(m) if v not in cyc_set]
    new_index = {v: i for i, v in enumerate(rest)}
    c_star = len(rest)
    m2 = len(rest) + 1
    contracted = np.full((m2, m2), -np.inf)
    for i_old in rest:
        for j_old in rest:
            if i_old != j_old:
                contracted[new_index[i_old], new_index[j_old]] = scores[i_old, j_old]
    enter_choice = {}
    for i_old in rest:
        best_val, best_v = -np.inf, cyc[0]
        for v in cyc:
            val = scores[i_old, v] - scores[best[v], v]
            if val > best_val:
                best_val, best_v = val, v
        contracted[new_index[i_old], c_star] = best_val
        enter_choice[new_index[i_old]] = (i_old, best_v)
    exit_choice = {}
    for j_old in rest:
        if j_old == 0:
            continue
        best_val, best_v = -np.inf, cyc[0]
        for v in cyc:
            if scores[v, j_old] > best_val:
                best_val, best_v = scores[v, j_old], v
        contracted[c_star, new_index[j_old]] = best_val
        exit_choice[new_index[j_old]] = best_v

    sub = _greedy_arborescence(contracted)
    heads = np.full(m, -1, dtype=int)
    for v in cyc:
        heads[v] = best[v]
    for j_old in rest:
        if j_old == 0:
            continue
        j_new = new_index[j_old]
        if sub[j_new] == c_star:
            heads[j_old] = exit_choice[j_new]
        else:
            heads[j_old] = rest[sub[j_new]]
    entering_i, entering_v = enter_choice[int(sub[c_star])]
    heads[entering_v] = entering_i
    return heads


def reference_cle(scores):
    n = scores.shape[0] - 1
    if n == 0:
        return []
    if n == 1:
        return [0]
    s = scores.astype(float).copy()
    np.fill_diagonal(s, -np.inf)
    s[:, 0] = -np.inf
    heads = _greedy_arborescence(s)
    if int(np.sum(heads[1:] == 0)) == 1:
        return heads[1:].tolist()
    best_heads, best_val = None, -np.inf
    for c in range(1, n + 1):
        forced = s.copy()
        forced[0, :] = -np.inf
        forced[0, c] = s[0, c]
        cand = _greedy_arborescence(forced)
        val = tree_score(s, cand[1:].tolist())
        if val > best_val:
            best_val, best_heads = val, cand
    return best_heads[1:].tolist()


# The level-by-level contraction that cle's O(n^2) one replaced, kept as a
# reference: each level re-picks every word's best head and rebuilds the
# contracted matrix. Both are exact, so on scores whose best tree is
# unique the heads must be identical, not just equal in score.


def reference_cle_levels(scores):
    s = _masked(scores)
    levels = []
    while len(s) > 2:
        best = np.concatenate(([0], 1 + np.argmax(s[1:, 1:], axis=0)))
        path, pos = [1], {1: 0}
        while (v := int(best[path[-1]])) not in pos:
            pos[v] = len(path)
            path.append(v)
        cyc = np.sort(path[pos[v]:])
        keep = np.ones(len(s), dtype=bool)
        keep[cyc] = False
        rest = np.flatnonzero(keep)  # rest[0] is the root
        enter = s[rest[:, None], cyc] - s[best[cyc], cyc]
        leave = s[cyc[:, None], rest]
        k = len(rest)
        t = np.full((k + 1, k + 1), -np.inf)
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


# The cell-by-cell chart loop that eisner's width-at-a-time fill replaced,
# kept as a reference: the same additions and first-max tie-breaking, so
# the heads must be identical, not just equal in score.


def reference_eisner(scores):
    n = scores.shape[0] - 1
    if n == 0:
        return []
    if n == 1:
        return [0]
    c_left = np.zeros((n + 1, n + 1))
    c_right = np.zeros((n + 1, n + 1))
    i_left = np.zeros((n + 1, n + 1))
    i_right = np.zeros((n + 1, n + 1))
    bp_cl = np.zeros((n + 1, n + 1), dtype=int)
    bp_cr = np.zeros((n + 1, n + 1), dtype=int)
    bp_i = np.zeros((n + 1, n + 1), dtype=int)

    for length in range(1, n):
        for s in range(1, n - length + 1):
            t = s + length
            combo = c_right[s, s:t] + c_left[s + 1:t + 1, t]
            q = int(np.argmax(combo))
            i_left[s, t] = scores[t, s] + combo[q]
            i_right[s, t] = scores[s, t] + combo[q]
            bp_i[s, t] = s + q
            combo = c_left[s, s:t] + i_left[s:t, t]
            q = int(np.argmax(combo))
            c_left[s, t] = combo[q]
            bp_cl[s, t] = s + q
            combo = i_right[s, s + 1:t + 1] + c_right[s + 1:t + 1, t]
            q = int(np.argmax(combo))
            c_right[s, t] = combo[q]
            bp_cr[s, t] = s + 1 + q

    best_c, best_val = 1, -np.inf
    for c in range(1, n + 1):
        val = scores[0, c] + c_left[1, c] + c_right[c, n]
        if val > best_val:
            best_val, best_c = val, c

    heads = [0] * (n + 1)
    stack = [("cl", 1, best_c), ("cr", best_c, n)]
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
        else:
            if kind == "il":
                heads[s] = t
            else:
                heads[t] = s
            q = bp_i[s, t]
            stack.append(("cr", s, q))
            stack.append(("cl", q + 1, t))
    return heads[1:]


def random_projective_tree(n, rng):
    """Heads of a random projective tree: every subtree covers a span."""
    heads = [0] * n

    def attach(lo, hi, head):
        # cut lo..hi into consecutive spans, each a subtree hung from head
        while lo <= hi:
            end = int(rng.integers(lo, hi + 1))
            r = int(rng.integers(lo, end + 1))
            heads[r - 1] = head
            attach(lo, r - 1, r)
            attach(r + 1, end, r)
            lo = end + 1

    r = int(rng.integers(1, n + 1))
    attach(1, r - 1, r)
    attach(r + 1, n, r)
    return heads


@st.composite
def score_matrices(draw, max_n=60, missing_arcs=False):
    """Uniform, root-heavy or tied scores; with ``missing_arcs``, some of
    them also get arcs at -inf."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = random_scores(n, rng)
    kind = draw(st.sampled_from(["uniform", "root-heavy", "ties"]))
    if kind == "root-heavy":
        s[0, 1:] += draw(st.floats(0.0, 20.0))
    elif kind == "ties":
        s = np.round(s * 2) / 2
    if missing_arcs and draw(st.booleans()):
        s[rng.random(s.shape) < draw(st.floats(0.0, 0.5))] = -np.inf
    return s


@st.composite
def tie_free_matrices(draw, max_n=80):
    """Uniform or root-heavy scores; some also get arcs at -inf that spare
    the chain 0 -> 1 -> ... -> n, so that the best tree avoids them. The
    best tree is unique (with probability one)."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = root_heavy_scores(n, rng) if draw(st.booleans()) else random_scores(n, rng)
    if draw(st.booleans()):
        chain = s[np.arange(n), np.arange(1, n + 1)]
        s[rng.random(s.shape) < draw(st.floats(0.0, 0.5))] = -np.inf
        s[np.arange(n), np.arange(1, n + 1)] = chain
    return s


def layouts(s):
    """float32, Fortran-order and strided copies of s."""
    every_other = np.full((2 * len(s) - 1,) * 2, 7.0)
    every_other[::2, ::2] = s
    return s.astype(np.float32), np.asfortranarray(s), every_other[::2, ::2]


class TestEisner:
    def test_single_token(self):
        s = np.zeros((2, 2))
        assert eisner(s) == [0]

    def test_two_token_hand_case(self):
        s = np.full((3, 3), -np.inf)
        s[0, 1] = 1.0
        s[0, 2] = 1.0
        s[1, 2] = 5.0
        s[2, 1] = 0.0
        heads = eisner(s)
        assert heads == [0, 1]
        assert tree_score(s, heads) == pytest.approx(6.0)

    def test_empty(self):
        assert eisner(np.zeros((1, 1))) == []

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5 if n == 7 else 50):
            s = random_scores(n, rng)
            heads = eisner(s)
            _, best = brute_force_best_tree(s, projective=True)
            assert is_single_root_tree(heads)
            assert is_projective(heads)
            assert tree_score(s, heads) == pytest.approx(best, abs=1e-9)

    def test_output_always_projective_single_root(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            heads = eisner(random_scores(n, rng))
            assert is_single_root_tree(heads)
            assert is_projective(heads)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            s = random_scores(n, rng)
            shifted = s.copy()
            valid = np.isfinite(s)
            shifted[valid] += 13.7
            assert eisner(s) == eisner(shifted)

    @settings(max_examples=80, deadline=None)
    @given(score_matrices(max_n=80, missing_arcs=True))
    @example(np.zeros((7, 7)))  # every split and root child tied
    @example(np.full((6, 6), -np.inf))
    def test_same_heads_as_reference(self, s):
        assert eisner(s) == reference_eisner(s)

    @settings(max_examples=30, deadline=None)
    @given(score_matrices(max_n=40, missing_arcs=True))
    def test_any_dtype_and_layout_same_heads_as_reference(self, s):
        # eisner copies its scores into float64; the reference reads them as given
        for view in layouts(s):
            assert eisner(view) == reference_eisner(view)

    @pytest.mark.parametrize("ties", [False, True])
    def test_long_sentence_same_heads_as_reference(self, ties):
        # longer than the default max_train_len of 128
        s = random_scores(150, np.random.default_rng(15 + ties))
        if ties:
            s = np.round(s * 2) / 2
        assert eisner(s) == reference_eisner(s)


class TestCle:
    def test_single_token(self):
        assert cle(np.zeros((2, 2))) == [0]

    def test_two_cycle_resolved(self):
        # tokens 1 and 2 prefer each other; contraction must break the cycle
        s = np.full((4, 4), -np.inf)
        s[0, 1] = 0.1
        s[0, 2] = 0.2
        s[0, 3] = 0.1
        s[1, 2] = 10.0
        s[2, 1] = 10.0
        s[1, 3] = 2.0
        s[2, 3] = 1.0
        s[3, 1] = 0.0
        s[3, 2] = 0.0
        heads = cle(s)
        bf_heads, bf = brute_force_best_tree(s, projective=False)
        assert is_single_root_tree(heads)
        assert tree_score(s, heads) == pytest.approx(bf, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(5 if n == 7 else 50):
            s = random_scores(n, rng)
            heads = cle(s)
            _, best = brute_force_best_tree(s, projective=False)
            assert is_single_root_tree(heads)
            assert tree_score(s, heads) == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_root_heavy_matches_brute_force(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(5 if n == 7 else 50):
            s = root_heavy_scores(n, rng)
            heads = cle(s)
            _, best = brute_force_best_tree(s, projective=False)
            assert is_single_root_tree(heads)
            assert tree_score(s, heads) == pytest.approx(best, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_missing_arcs_match_brute_force(self):
        # -inf arcs other than the diagonal and column 0 are arcs no tree may
        # use; contraction must not subtract -inf from -inf on the way
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            s = random_scores(n, rng)
            s[rng.random(s.shape) < 0.4] = -np.inf
            _, best = brute_force_best_tree(s, projective=False)
            if best == -np.inf:
                continue
            heads = cle(s)
            assert is_single_root_tree(heads)
            assert tree_score(s, heads) == pytest.approx(best, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(score_matrices())
    def test_same_score_as_reference(self, s):
        heads = cle(s)
        assert is_single_root_tree(heads)
        assert tree_score(s, heads) == pytest.approx(tree_score(s, reference_cle(s)), abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(tie_free_matrices())
    def test_tie_free_same_heads_as_level_reference(self, s):
        for view in (s, *layouts(s)):
            assert cle(view) == reference_cle_levels(view)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 80), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 4.0]))
    @example(7, 0, 1e9)  # every arc tied
    def test_tied_same_score_as_level_reference(self, n, seed, step):
        s = np.round(random_scores(n, np.random.default_rng(seed)) / step) * step
        heads = cle(s)
        want = tree_score(s, reference_cle_levels(s))
        assert is_single_root_tree(heads)
        assert tree_score(s, heads) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 5, 12, 25, 40])
    def test_agrees_with_eisner_on_projective_optimum(self, n):
        rng = np.random.default_rng(400 + n)
        for _ in range(10):
            tree = random_projective_tree(n, rng)
            assert is_single_root_tree(tree) and is_projective(tree)
            # noise in [-1, 1]: any other tree loses a margin of 4n and gains less than 2n
            s = random_scores(n, rng, lo=-1.0, hi=1.0)
            s[tree, np.arange(1, n + 1)] += 4.0 * n
            assert cle(s) == tree
            assert eisner(s) == tree

    def test_long_sentence_needs_no_recursion(self):
        # a 300-word random matrix takes about 150 contraction levels
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        s = random_scores(300, np.random.default_rng(13))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            heads = cle(s)
        finally:
            sys.setrecursionlimit(limit)
        assert is_single_root_tree(heads)

    def test_never_worse_than_eisner(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            s = random_scores(n, rng)
            assert tree_score(s, cle(s)) >= tree_score(s, eisner(s)) - 1e-9

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            s = random_scores(n, rng)
            shifted = s.copy()
            valid = np.isfinite(s)
            shifted[valid] += 4.25
            assert cle(s) == cle(shifted)

    def test_multi_root_tempting_case(self):
        # root offers two huge arcs; only one may be used
        s = np.full((3, 3), -np.inf)
        s[0, 1] = 100.0
        s[0, 2] = 100.0
        s[1, 2] = 1.0
        s[2, 1] = 50.0
        heads = cle(s)
        assert heads == [2, 0]
        assert tree_score(s, heads) == pytest.approx(150.0)


class TestTreeScore:
    def test_float32_scores_summed_in_float64(self):
        s = np.zeros((4, 4), dtype=np.float32)
        s[0, 1], s[1, 2], s[1, 3] = 2.0 ** 24, 1.0, 1.0  # float32 drops each added 1
        score = tree_score(s, [0, 1, 1])
        assert type(score) is float
        assert score == float(s[0, 1]) + float(s[1, 2]) + float(s[1, 3]) == 2.0 ** 24 + 2


class TestNaN:
    @pytest.mark.parametrize("decoder", [cle, eisner])
    @pytest.mark.parametrize("arc", [(2, 4), (4, 2), (0, 3)])
    def test_nan_arc_rejected(self, decoder, arc):
        s = random_scores(5, np.random.default_rng(14))
        s[arc] = np.nan
        with pytest.raises(ValueError, match=f"NaN score for arc {arc[0]} -> {arc[1]}"):
            decoder(s)

    @pytest.mark.parametrize("decoder", [cle, eisner])
    def test_single_word_nan_arc_rejected(self, decoder):
        with pytest.raises(ValueError, match="NaN"):
            decoder(np.array([[0.0, np.nan], [0.0, 0.0]]))

    @pytest.mark.parametrize("decoder", [cle, eisner])
    def test_nan_on_diagonal_and_root_column_ignored(self, decoder):
        s = random_scores(5, np.random.default_rng(14))
        noisy = s.copy()
        np.fill_diagonal(noisy, np.nan)
        noisy[:, 0] = np.nan
        assert decoder(noisy) == decoder(s)


class TestBruteForce:
    def test_two_token_candidates(self):
        from arcforge.decoders import _candidate_trees

        assert set(_candidate_trees(2, False)) == {(0, 1), (2, 0)}

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            brute_force_best_tree(np.zeros((9, 9)), projective=False)

    def test_projective_subset_of_nonprojective(self):
        from arcforge.decoders import _candidate_trees

        for n in (2, 3, 4):
            proj = set(_candidate_trees(n, True))
            nonproj = set(_candidate_trees(n, False))
            assert proj <= nonproj

    def test_crossing_definition_matches_descendant_definition(self):
        # projectivity: every word between h and m descends from h
        def projective_by_descendants(heads):
            n = len(heads)
            for j, h in enumerate(heads, start=1):
                lo, hi = min(h, j), max(h, j)
                for w in range(lo + 1, hi):
                    v = w
                    while v != 0 and v != h:
                        v = heads[v - 1]
                    if v != h:
                        return False
            return True

        from arcforge.decoders import _candidate_trees

        for n in (2, 3, 4, 5):
            for heads in _candidate_trees(n, False):
                assert is_projective(list(heads)) == projective_by_descendants(list(heads))

    def test_score_is_exact_sum(self):
        rng = np.random.default_rng(11)
        s = random_scores(4, rng)
        heads, val = brute_force_best_tree(s, projective=False)
        assert val == tree_score(s, heads)
