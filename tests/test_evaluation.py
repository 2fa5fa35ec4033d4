"""UAS/LAS and filter-oracle metric tests."""

import pytest

from arcforge.conllu import parse_conllu
from arcforge.evaluation import filter_oracle_uas, uas_las

THREE_TOKENS = """1\tbig\t_\tADJ\t_\t_\t2\tamod\t_\t_
2\tdogs\t_\tNOUN\t_\t_\t3\tnsubj\t_\t_
3\trun\t_\tVERB\t_\t_\t0\troot\t_\t_
"""

WITH_PUNCT = """1\tdogs\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\trun\t_\tVERB\t_\t_\t0\troot\t_\t_
3\t!\t_\tPUNCT\t_\t_\t2\tpunct\t_\t_
"""


class TestUasLas:
    def test_two_heads_one_label_correct(self):
        gold = parse_conllu(THREE_TOKENS)
        # heads: token1 wrong, tokens 2-3 right; labels: only token3 of those right
        pred = [([3, 3, 0], ["amod", "bad", "root"])]
        uas, las = uas_las(pred, gold)
        assert uas == pytest.approx(66.6667, abs=1e-3)
        assert las == pytest.approx(33.3333, abs=1e-3)

    def test_all_correct(self):
        gold = parse_conllu(THREE_TOKENS)
        pred = [(gold[0].gold_heads, gold[0].gold_labels)]
        assert uas_las(pred, gold) == (100.0, 100.0)

    def test_label_only_counts_with_correct_head(self):
        gold = parse_conllu(THREE_TOKENS)
        pred = [([2, 1, 0], ["amod", "nsubj", "root"])]  # token2 head wrong, label right
        uas, las = uas_las(pred, gold)
        assert uas == pytest.approx(66.6667, abs=1e-3)
        assert las == pytest.approx(66.6667, abs=1e-3)

    def test_punct_drop_excludes_token_entirely(self):
        gold = parse_conllu(WITH_PUNCT)
        # punctuation head wrong: hurts "keep", invisible under both drop policies
        pred = [([2, 0, 1], ["nsubj", "root", "punct"])]
        uas_keep, _ = uas_las(pred, gold, "keep")
        uas_upos, las_upos = uas_las(pred, gold, "upos")
        uas_set, _ = uas_las(pred, gold, "pos-set")
        assert uas_keep == pytest.approx(66.6667, abs=1e-3)
        assert uas_upos == 100.0
        assert las_upos == 100.0
        assert uas_set == 100.0

    def test_policy_changes_denominator(self):
        gold = parse_conllu(WITH_PUNCT)
        pred = [([0, 2, 2], ["root", "bad", "punct"])]  # all heads wrong except punct
        uas_keep, _ = uas_las(pred, gold, "keep")
        uas_drop, _ = uas_las(pred, gold, "upos")
        assert uas_keep == pytest.approx(33.3333, abs=1e-3)
        assert uas_drop == 0.0

    def test_no_counted_token_scores_zero(self):
        gold = parse_conllu("1\t!\t_\tPUNCT\t_\t_\t0\troot\t_\t_\n")
        assert uas_las([([0], ["root"])], gold, "upos") == (0.0, 0.0)

    def test_permutation_invariant_over_sentences(self):
        gold = parse_conllu(THREE_TOKENS + "\n" + WITH_PUNCT)
        preds = [([3, 3, 0], ["amod", "bad", "root"]), ([2, 0, 2], ["nsubj", "root", "punct"])]
        fwd = uas_las(preds, gold)
        rev = uas_las(list(reversed(preds)), list(reversed(gold)))
        assert fwd == rev

    def test_length_mismatch_rejected(self):
        gold = parse_conllu(THREE_TOKENS)
        with pytest.raises(ValueError):
            uas_las([([0], ["root"])], gold)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            uas_las([], parse_conllu(THREE_TOKENS))

    def test_unknown_policy_rejected(self):
        gold = parse_conllu(THREE_TOKENS)
        pred = [(gold[0].gold_heads, gold[0].gold_labels)]
        with pytest.raises(ValueError, match="policy"):
            uas_las(pred, gold, "discard")


class TestFilterOracle:
    def test_everything_kept_is_100(self):
        gold = parse_conllu(THREE_TOKENS)
        kept = [[[0, 2, 3], [0, 1, 3], [0, 1, 2]]]
        assert filter_oracle_uas(kept, gold) == 100.0

    def test_gold_always_rank_two_with_k1(self):
        gold = parse_conllu(THREE_TOKENS)
        # k=1 lists that never include the gold head
        kept = [[[3], [1], [1]]]
        assert filter_oracle_uas(kept, gold) == 0.0

    def test_hand_counted_fixture(self):
        text = THREE_TOKENS + "\n" + WITH_PUNCT
        gold = parse_conllu(text)
        kept = [
            [[2, 0], [3, 0], [1, 2]],   # gold 2, 3, 0: hits for tokens 1 and 2
            [[2, 3], [0, 1], [1, 2]],   # gold 2, 0, 2: hits for tokens 1, 2, 3
        ]
        assert filter_oracle_uas(kept, gold) == pytest.approx(100.0 * 5 / 6)

    def test_mismatched_lengths_rejected(self):
        gold = parse_conllu(THREE_TOKENS)
        with pytest.raises(ValueError):
            filter_oracle_uas([[[0]]], gold)

    def test_sentence_count_mismatch_rejected(self):
        gold = parse_conllu(THREE_TOKENS)
        with pytest.raises(ValueError, match="2 filter outputs for 1 sentences"):
            filter_oracle_uas([[[2], [3], [0]]] * 2, gold)
