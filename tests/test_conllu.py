"""CoNLL-U parsing, writing, and vocabulary tests."""

import gc
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

# The tree check and the line loop as they were before the reader took a
# fast path for ordinary word lines, kept as references: the reader must
# return the same tokens, or raise the same error at the same line.


def reference_check_tree(heads):
    n = len(heads)
    if any(not 0 <= h <= n for h in heads):
        return False
    if any(heads[j - 1] == j for j in range(1, n + 1)):
        return False
    children = [[] for _ in range(n + 1)]
    for j in range(1, n + 1):
        children[heads[j - 1]].append(j)
    seen = set()
    stack = [0]
    while stack:
        v = stack.pop()
        if v in seen:
            return False
        seen.add(v)
        stack.extend(children[v])
    return len(seen) == n + 1


_REFERENCE_SKIPPED_ID = re.compile(r"\d+-\d+|\d+\.\d+")


def reference_parse_conllu(text):
    sentences = []
    tokens = []
    token_lines = []

    def flush():
        nonlocal tokens, token_lines
        if not tokens:
            return
        heads = [t.gold_head for t in tokens]
        for j, (h, lineno) in enumerate(zip(heads, token_lines), start=1):
            if h > len(tokens):
                raise ConlluError(f"HEAD {h} out of range for a {len(tokens)}-token sentence", lineno)
            if h == j:
                raise ConlluError(f"token {j} is its own head", lineno)
        if not reference_check_tree(heads):
            raise ConlluError("gold heads do not form a tree rooted at 0", token_lines[0])
        sentences.append(Sentence(tokens))
        tokens, token_lines = [], []

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip("\r")
        if not line.strip():
            flush()
            continue
        if line.lstrip().startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < 8:
            cols = line.split()
        if len(cols) < 8:
            raise ConlluError(f"expected at least 8 columns, got {len(cols)}", lineno)
        tok_id = cols[0]
        if _REFERENCE_SKIPPED_ID.fullmatch(tok_id):
            continue
        try:
            tok_id = int(tok_id)
        except ValueError:
            raise ConlluError(f"bad token id {tok_id!r}", lineno) from None
        if tok_id != len(tokens) + 1:
            raise ConlluError(f"token id {tok_id} where {len(tokens) + 1} was expected", lineno)
        try:
            head = int(cols[6])
        except ValueError:
            raise ConlluError(f"non-integer HEAD {cols[6]!r}", lineno) from None
        if head < 0:
            raise ConlluError(f"negative HEAD {head}", lineno)
        tokens.append(Token(form=cols[1], upos=cols[3], gold_head=head, gold_label=cols[7]))
        token_lines.append(lineno)
    flush()
    return sentences


TWO_TOKENS = "1\tdog\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n2\truns\t_\tVERB\t_\t_\t0\troot\t_\t_\n"

FRENCH_MWT = """# a multiword-token line must be skipped
1\tAller\t_\tVERB\t_\t_\t0\troot\t_\t_
2\tjusqu'\t_\tADP\t_\t_\t4\tcase\t_\t_
3-4\tdu\t_\t_\t_\t_\t_\t_\t_\t_
3\tde\t_\tADP\t_\t_\t4\tcase\t_\t_
4\tbout\t_\tNOUN\t_\t_\t1\tobl\t_\t_
"""


def _tree_heads(draw, n):
    """Heads of a random forest over 0: each word attaches to the root or to
    a word attached before it."""
    order = draw(st.permutations(range(1, n + 1)))
    heads = [0] * n
    for pos, j in enumerate(order):
        parent = draw(st.integers(-1, pos - 1))
        heads[j - 1] = order[parent] if parent >= 0 else 0
    return heads


@st.composite
def head_arrays(draw):
    """Trees, trees with one head changed, and arbitrary arrays: out-of-range
    heads, self-loops, cycles and forests."""
    n = draw(st.integers(0, 12))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-2, n + 2), min_size=n, max_size=n))
    heads = _tree_heads(draw, n)
    if n and draw(st.booleans()):
        heads[draw(st.integers(0, n - 1))] = draw(st.integers(-2, n + 2))
    return heads


def _odd(draw, usual, odd, weight=8):
    """``usual``, or now and then one of ``odd``."""
    return draw(st.sampled_from([usual] * weight + odd))


@st.composite
def conllu_texts(draw):
    """CoNLL-U-like text: mostly well-formed sentences with comments,
    multiword ranges, empty nodes, CRLF and lone CR ends, stray whitespace,
    space-separated lines and runs of blank lines, plus bad ids, bad HEADs
    and heads that close cycles."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 6))
        heads = _tree_heads(draw, n) if draw(st.booleans()) else [draw(st.integers(0, n)) for _ in range(n)]
        for j in range(1, n + 1):
            kind = _odd(draw, "word", ["comment", "range", "empty"], weight=20)
            if kind == "comment":
                lines.append(draw(st.sampled_from(["# sent_id = 1", "  # text = a b", "#\t1\t2\t3\t4\t5\t6\t7\t8"])))
            elif kind == "range":
                lines.append(f"{j}-{j + 1}\tab\t_\t_\t_\t_\t_\t_\t_\t_")
            elif kind == "empty":
                lines.append(f"{j}.1\tghost\t_\tX\t_\t_\t_\t_\t_\t_")
            tok_id = _odd(draw, str(j), ["x", f"0{j}", "\u0661", "\u00b2", f" {j}", str(j + 1), f"+{j}", "", "1-", "2."], weight=300)
            head = _odd(draw, str(heads[j - 1]), ["_", "-1", "\u0660", " 0", "1_0", "", "9"], weight=300)
            form = draw(st.sampled_from(["dog", "runs", "d g", "\u00fcber", "#x", "1", ""]))
            upos = draw(st.sampled_from(["NOUN", "VERB", "X"]))
            label = draw(st.sampled_from(["root", "dep", "nsubj"]))
            cols = [tok_id, form, "_", upos, "_", "_", head, label, "_", "_", "_"]
            cols = cols[:_odd(draw, 10, [7, 8, 9, 11], weight=40)]
            sep = _odd(draw, "\t", [" ", "  "], weight=30)
            prefix = _odd(draw, "", [" ", "\r", "\t"], weight=40)
            suffix = _odd(draw, "", [" ", "\r", "\r\r", "\t"], weight=30)
            lines.append(prefix + sep.join(cols) + suffix)
        lines.extend(draw(st.lists(st.sampled_from(["", "", "  ", "\t", "\r"]), min_size=1, max_size=3)))
    crlf = draw(st.booleans())
    ends = ["\r\n" if crlf else _odd(draw, "\n", ["\r\n"]) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


def _fields(sentences):
    return [[(t.form, t.upos, t.gold_head, t.gold_label) for t in s.tokens] for s in sentences]


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

    def test_negative_head_reports_line(self):
        text = "1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n2\tb\t_\tX\t_\t_\t-1\tdep\t_\t_\n"
        with pytest.raises(ConlluError, match="^line 2: negative HEAD -1$"):
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

    @settings(max_examples=400, deadline=None)
    @given(conllu_texts())
    @example("1\tdog\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\r\n2\truns\t_\tVERB\t_\t_\t0\troot\t_\t_\r\n")
    @example("1\ta\t_\tX\t_\t_\t2\tdep\t_\t_\n2\tb\t_\tX\t_\t_\t1\tdep\t_\t_\n")
    @example("1\ta\t_\tX\t_\t_\t_\t_\t_\t_\n")  # unannotated: both readers reject HEAD "_"
    # sentence breaks the block loop must see
    @example(TWO_TOKENS.replace("\n", "\r\n") + "\r\n" + TWO_TOKENS.replace("\n", "\r\n"))
    @example("\n\n\r\n" + TWO_TOKENS + "\n\n\n" + TWO_TOKENS)
    @example(TWO_TOKENS + " \t\n" + TWO_TOKENS + "\u2028\n" + TWO_TOKENS)
    @example(TWO_TOKENS + "\n" + TWO_TOKENS.rstrip("\n"))
    @example(TWO_TOKENS + "\n" + TWO_TOKENS.replace("runs", "runs\r").rstrip("\n") + "\r")
    @example("\r\n\r\n1\ta\t_\tX\t_\t_\t5\tdep\t_\t_\r\n")
    def test_same_result_as_reference(self, text):
        try:
            want = reference_parse_conllu(text)
        except ConlluError as err:
            with pytest.raises(ConlluError) as got:
                parse_conllu(text)
            assert str(got.value) == str(err) and got.value.line == err.line
            return
        got = parse_conllu(text)
        assert _fields(got) == _fields(want)
        tokens = [t for s in got for t in s.tokens]
        assert all(type(t.gold_head) is int for t in tokens)
        for values in ([t.form for t in tokens], [t.upos for t in tokens], [t.gold_label for t in tokens]):
            first = {}
            assert all(first.setdefault(v, v) is v for v in values)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, enabled):
        # the reader pauses the cyclic collector; the caller's state comes back
        was = gc.isenabled()
        try:
            if enabled:
                gc.enable()
            else:
                gc.disable()
            assert len(parse_conllu(TWO_TOKENS)) == 1
            assert gc.isenabled() == enabled
            with pytest.raises(ConlluError):
                parse_conllu("1\ta\t_\tX\t_\t_\t1\tdep\t_\t_\n")
            assert gc.isenabled() == enabled
        finally:
            if was:
                gc.enable()
            else:
                gc.disable()

    def test_tokens_are_slotted_and_share_tag_strings(self):
        text = "\n".join([TWO_TOKENS, TWO_TOKENS.replace("\n", "\r\n"), FRENCH_MWT])
        sents = parse_conllu(text)
        tokens = [t for s in sents for t in s.tokens]
        assert not any(hasattr(x, "__dict__") for x in sents + tokens)
        dogs = [t.form for t in tokens if t.form == "dog"]
        nouns = [t.upos for t in tokens if t.upos == "NOUN"]
        roots = [t.gold_label for t in tokens if t.gold_label == "root"]
        assert len(dogs) == 2 and len(nouns) == 3 and len(roots) == 3
        for shared in (dogs, nouns, roots):
            assert all(v is shared[0] for v in shared)

    def test_read_peaks_at_what_it_keeps(self):
        # 300 sentences over 40 forms: a reader that holds all the text's
        # lines at once peaks at 1.6x what it keeps, and one that keeps a
        # fresh string per word holds 40 forms in many objects
        rng = random.Random(0)
        blocks = []
        for _ in range(300):
            n = rng.randint(5, 30)
            blocks.append("\n".join(
                f"{i}\tw{rng.randrange(40)}\t_\tNOUN\t_\t_\t{0 if i == 1 else rng.randrange(1, i)}\tdep\t_\t_"
                for i in range(1, n + 1)))
        text = "\n\n".join(blocks) + "\n"
        tracemalloc.start()
        try:
            sents = parse_conllu(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * kept, (peak, kept)
        forms = {}
        assert all(forms.setdefault(t.form, t.form) is t.form for s in sents for t in s.tokens)
        assert len(forms) == 40


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

    @settings(max_examples=500, deadline=None)
    @given(head_arrays())
    @example([])
    @example([1])
    @example([0, 5])
    @example([-1, 0])
    def test_same_answer_as_reference(self, heads):
        assert check_tree(heads) == reference_check_tree(heads)


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

    def test_every_sentence_ends_with_a_blank_line(self):
        sents = parse_conllu(TWO_TOKENS + "\n" + TWO_TOKENS.replace("dog", "cat"))
        out = write_conllu(sents)
        assert out == TWO_TOKENS + "\n" + TWO_TOKENS.replace("dog", "cat") + "\n"
        assert out.endswith("\n\n") and not out.endswith("\n\n\n")
        assert [s.tokens for s in parse_conllu(out)] == [s.tokens for s in sents]
        assert write_conllu([]) == ""


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

    @pytest.mark.parametrize("tables, message", [
        ({"upos_to_id": {"N": 2.5}}, "upos_to_id ids must be the ints 2..2, each used once"),
        ({"label_to_id": {"root": 1000}}, "label_to_id ids must be the ints 0..0, each used once"),
        ({"form_to_id": {"a": "2"}}, "form_to_id ids must be the ints 2..2"),
        ({"form_to_id": {"a": True}}, "form_to_id ids must be the ints 2..2"),
        ({"form_to_id": {"a": 2, "b": 2}}, "form_to_id ids must be the ints 2..3"),
        ({"label_to_id": {"root": 1, "dep": 2}}, "label_to_id ids must be the ints 0..1"),
    ], ids=["float-upos", "shifted-label", "str-form", "bool-form", "repeated-form", "from-one"])
    def test_ids_off_the_documented_layout_rejected(self, tables, message):
        from arcforge.conllu import Vocab

        with pytest.raises(ValueError, match=f"^{message}"):
            Vocab(**{"form_to_id": {}, "upos_to_id": {}, "label_to_id": {}, **tables})

    def test_unknown_label_raises(self):
        vocab = build_vocab(self._corpus())
        with pytest.raises(KeyError, match="unknown dependency label 'nope'"):
            vocab.label_id("nope")

    def test_dict_round_trip(self):
        from arcforge.conllu import Vocab

        vocab = build_vocab(self._corpus())
        again = Vocab.from_dict(vocab.to_dict())
        assert again.form_to_id == vocab.form_to_id
        assert again.label_name(vocab.label_id("root")) == "root"
