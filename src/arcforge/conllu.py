"""CoNLL-U reading/writing and vocabulary construction.

Only the ID, FORM, UPOS, HEAD and DEPREL columns are consumed; the
remaining columns are written back as underscores. Multiword-token
ranges ("3-4") and empty nodes ("5.1") are skipped, '#' lines ignored;
any other id must be a word id, and word ids must run 1..n within each
sentence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from sys import intern

from .decoders import check_tree

_SKIPPED_ID = re.compile(r"\d+-\d+|\d+\.\d+")  # multiword-token ranges and empty nodes


class ConlluError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(slots=True)
class Token:
    """One word. Slotted, and ``parse_conllu`` interns ``upos`` and
    ``gold_label``, whose inventories are tiny, so a read corpus holds one
    small object and one fresh string (the form) per word."""

    form: str
    upos: str
    gold_head: int
    gold_label: str


@dataclass
class Sentence:
    """Tokens at positions 1..n; the dummy root at position 0 is implicit."""

    tokens: list[Token] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def gold_heads(self) -> list[int]:
        return [t.gold_head for t in self.tokens]

    @property
    def gold_labels(self) -> list[str]:
        return [t.gold_label for t in self.tokens]


def parse_conllu(text: str) -> list[Sentence]:
    sentences: list[Sentence] = []
    tokens: list[Token] = []
    token_lines: list[int] = []

    def flush():
        nonlocal tokens, token_lines
        if not tokens:
            return
        heads = [t.gold_head for t in tokens]
        if not check_tree(heads):
            n = len(heads)
            for j, (h, lineno) in enumerate(zip(heads, token_lines), start=1):
                if h > n:
                    raise ConlluError(f"HEAD {h} out of range for a {n}-token sentence", lineno)
                if h == j:
                    raise ConlluError(f"token {j} is its own head", lineno)
            raise ConlluError("gold heads do not form a tree rooted at 0", token_lines[0])
        sentences.append(Sentence(tokens))
        tokens, token_lines = [], []

    for lineno, line in enumerate(text.split("\n"), start=1):
        cols = line.split("\t")
        tok_id = cols[0]
        # An ordinary word line (at least 8 tab-separated columns, an all-digit
        # id, no CR at its end) needs none of the checks below: it is not blank,
        # not a comment, not a range or empty node, and has no CR to strip.
        if not (len(cols) >= 8 and tok_id.isdigit() and line[-1] != "\r"):
            line = line.strip("\r")
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
            if _SKIPPED_ID.fullmatch(tok_id):
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
        tokens.append(Token(cols[1], intern(cols[3]), head, intern(cols[7])))
        token_lines.append(lineno)
    flush()
    return sentences


def write_conllu(sentences: list[Sentence], predictions: list[tuple[list[int], list[str]]] | None = None) -> str:
    """Render sentences; predictions, when given, replace HEAD/DEPREL."""
    if predictions is not None and len(predictions) != len(sentences):
        raise ValueError(f"{len(predictions)} predictions for {len(sentences)} sentences")
    blocks = []
    for si, sent in enumerate(sentences):
        lines = []
        for i, tok in enumerate(sent.tokens, start=1):
            if predictions is None:
                head, label = tok.gold_head, tok.gold_label
            else:
                heads, labels = predictions[si]
                head, label = heads[i - 1], labels[i - 1]
            lines.append(f"{i}\t{tok.form}\t_\t{tok.upos}\t_\t_\t{head}\t{label}\t_\t_")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


ROOT_ID = 0
UNK_ID = 1


@dataclass
class Vocab:
    """Form/UPOS tables reserve id 0 for the root marker and 1 for unknowns;
    label ids are dense from 0."""

    form_to_id: dict[str, int]
    upos_to_id: dict[str, int]
    label_to_id: dict[str, int]

    @property
    def n_forms(self) -> int:
        return len(self.form_to_id) + 2

    @property
    def n_upos(self) -> int:
        return len(self.upos_to_id) + 2

    @property
    def n_labels(self) -> int:
        return len(self.label_to_id)

    def form_id(self, form: str) -> int:
        return self.form_to_id.get(form.lower(), UNK_ID)

    def upos_id(self, upos: str) -> int:
        return self.upos_to_id.get(upos, UNK_ID)

    def label_id(self, label: str) -> int:
        if label not in self.label_to_id:
            raise KeyError(f"unknown dependency label {label!r}")
        return self.label_to_id[label]

    def label_name(self, idx: int) -> str:
        return self._labels_by_id[idx]

    def __post_init__(self):
        self._labels_by_id = {i: lab for lab, i in self.label_to_id.items()}

    def to_dict(self) -> dict:
        return {
            "form_to_id": self.form_to_id,
            "upos_to_id": self.upos_to_id,
            "label_to_id": self.label_to_id,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Vocab":
        return cls(
            form_to_id=dict(d["form_to_id"]),
            upos_to_id=dict(d["upos_to_id"]),
            label_to_id=dict(d["label_to_id"]),
        )


def build_vocab(sentences: list[Sentence], min_count: int = 1) -> Vocab:
    """Forms are lowercased; those below min_count map to the unknown id."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    if not sentences:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts: dict[str, int] = {}
    upos_to_id: dict[str, int] = {}
    label_to_id: dict[str, int] = {}
    for sent in sentences:
        for tok in sent.tokens:
            low = tok.form.lower()
            counts[low] = counts.get(low, 0) + 1
            if tok.upos not in upos_to_id:
                upos_to_id[tok.upos] = 2 + len(upos_to_id)
            if tok.gold_label not in label_to_id:
                label_to_id[tok.gold_label] = len(label_to_id)
    form_to_id: dict[str, int] = {}
    for form, c in counts.items():
        if c >= min_count:
            form_to_id[form] = 2 + len(form_to_id)
    return Vocab(form_to_id=form_to_id, upos_to_id=upos_to_id, label_to_id=label_to_id)
