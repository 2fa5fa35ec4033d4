"""Decoder tests: hand cases, oracles, and structural invariants."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcforge.decoders import (
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
def score_matrices(draw):
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = random_scores(n, rng)
    kind = draw(st.sampled_from(["uniform", "root-heavy", "ties"]))
    if kind == "root-heavy":
        s[0, 1:] += draw(st.floats(0.0, 20.0))
    elif kind == "ties":
        s = np.round(s * 2) / 2
    return s


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(50):
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
