"""Losses, optimization, weight averaging, the training loop, and the
closed-form parameter accounting."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .conllu import Sentence, Vocab
from .evaluation import PUNCT_POLICIES, filter_oracle_uas, uas_las
from .model import DECODERS, _check_range, _ParserBase
from .scorers import head_logits
from .tensor import Tensor, cross_entropy_from_logits, grad_check

log = logging.getLogger("arcforge")

DEFAULT_LR = {"loc": 8.3e-5, "arcloc": 3.7e-5}
DEFAULT_SWA_LR = {"loc": 5e-6, "arcloc": 3.7e-6}


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_tokens: int = 5000
    lr: float | None = None                 # resolved per model kind
    lr_transformer: float = 2.5e-3
    warmup_epochs: float = 1.0
    warmup_epochs_transformer: float = 3.0
    use_swa: bool = True
    swa_start_epoch: int = 5
    swa_lr: float | None = None             # resolved per model kind
    swa_lr_transformer: float = 1.35e-4
    seed: int = 0
    grad_clip: float | None = None
    max_train_len: int = 128
    decoder: str = "eisner"
    punct_policy: str = "keep"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_tokens < 1:
            raise ValueError("epochs and batch_tokens must be positive")
        if self.use_swa and not 1 <= self.swa_start_epoch <= self.epochs + 1:
            raise ValueError("swa_start_epoch must be in [1, epochs + 1]")
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}, got {self.decoder!r}")
        if self.punct_policy not in PUNCT_POLICIES:
            raise ValueError(f"punct_policy must be one of {PUNCT_POLICIES}, got {self.punct_policy!r}")
        _check_range(self, "grad_clip lr swa_lr lr_transformer swa_lr_transformer",
                     lambda v: v > 0, "> 0")
        _check_range(self, "seed warmup_epochs warmup_epochs_transformer", lambda v: v >= 0, ">= 0")
        _check_range(self, "max_train_len", lambda v: v >= 1, ">= 1")

    def resolved_lr(self, kind: str) -> float:
        return self.lr if self.lr is not None else DEFAULT_LR[kind]

    def resolved_swa_lr(self, kind: str) -> float:
        return self.swa_lr if self.swa_lr is not None else DEFAULT_SWA_LR[kind]


# -- losses -----------------------------------------------------------


def head_selection_loss(scores: Tensor, gold_heads: list[int]) -> Tensor:
    """Mean cross-entropy over modifiers of the per-column head softmax.

    Takes raw scores: what the diagonal and column 0 hold changes nothing.
    """
    n = scores.data.shape[0] - 1
    if len(gold_heads) != n:
        raise ValueError(f"{len(gold_heads)} gold heads for a {n}-token score matrix")
    for j, h in enumerate(gold_heads, start=1):
        if h == j:
            raise ValueError(f"gold head of token {j} is masked (self-loop)")
        if not 0 <= h <= n:
            raise ValueError(f"gold head {h} out of range")
    return cross_entropy_from_logits(head_logits(scores, n), gold_heads)


def label_loss(logits: Tensor, gold_label_ids: list[int]) -> Tensor:
    """Mean cross-entropy of per-arc label logits against gold labels."""
    return cross_entropy_from_logits(logits, gold_label_ids)


def sentence_loss(model: _ParserBase, sentence: Sentence, vocab: Vocab) -> Tensor:
    """Head-selection loss plus label loss on the gold arcs, unit weights.

    When filter_aux_weight > 0 and the filter ran, a head-selection loss
    over the noiseless filter logits is added with that weight.
    """
    fwd = model.forward_parse(sentence, vocab)
    heads = sentence.gold_heads
    loss = head_selection_loss(fwd.scores, heads)
    gold_arcs = [(h, j) for j, h in enumerate(heads, start=1)]
    gold_ids = [vocab.label_id(lab) for lab in sentence.gold_labels]
    loss = loss + label_loss(fwd.label_logits_for(gold_arcs), gold_ids)
    aux_w = model.cfg.filter_aux_weight
    if aux_w > 0.0 and fwd.filter_output is not None:
        # the gold heads were checked by head_selection_loss above
        loss = loss + cross_entropy_from_logits(fwd.filter_output.logits, heads) * aux_w
    return loss


# -- optimizer and schedule --------------------------------------------


class Adam:
    """Standard Adam (beta1=0.9, beta2=0.999, eps=1e-8) over named
    parameter groups; a step with any non-finite gradient is skipped."""

    def __init__(self, groups: dict[str, list[tuple[str, Tensor]]],
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.groups = groups
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    def step(self, lrs: dict[str, float]) -> bool:
        for params in self.groups.values():
            for name, p in params:
                if p.grad is not None and not np.isfinite(p.grad).all():
                    log.warning("skipping step: non-finite gradient in %s", name)
                    return False
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for group, params in self.groups.items():
            lr = lrs[group]
            for _, p in params:
                if p.grad is None:
                    continue
                key = id(p)
                if key not in self._m:
                    self._m[key] = np.zeros_like(p.data)
                    self._v[key] = np.zeros_like(p.data)
                m = self._m[key]
                v = self._v[key]
                m *= b1
                m += (1 - b1) * p.grad
                v *= b2
                v += (1 - b2) * p.grad * p.grad
                p.data = p.data - lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        return True


def lr_schedule(progress: float, base_lr: float, warmup_epochs: float,
                use_swa: bool = False, swa_start_epoch: int | None = None,
                swa_lr: float | None = None) -> float:
    """Linear warmup from 0 over warmup_epochs, constant at base_lr after,
    switching to swa_lr from swa_start_epoch onward.

    ``progress`` counts completed epochs as a float (0.0 at the first
    step; epoch e spans [e-1, e)).
    """
    if use_swa and swa_start_epoch is not None and progress >= swa_start_epoch - 1:
        return float(swa_lr)
    if warmup_epochs > 0 and progress < warmup_epochs:
        return base_lr * (progress / warmup_epochs)
    return base_lr


def clip_gradients(params: list[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


# -- stochastic weight averaging ----------------------------------------


class SwaState:
    """Running arithmetic mean of parameter snapshots (exact: sums kept,
    divided at finalize)."""

    def __init__(self):
        self._sums: dict[str, np.ndarray] | None = None
        self.count = 0

    def update(self, state: dict[str, np.ndarray]) -> None:
        if self._sums is None:
            self._sums = {k: v.astype(np.float64).copy() for k, v in state.items()}
        else:
            if set(self._sums) != set(state):
                raise ValueError("parameter names changed between SWA updates")
            for k, v in state.items():
                self._sums[k] += v
        self.count += 1

    def finalize(self) -> dict[str, np.ndarray]:
        if self.count == 0:
            raise ValueError("SWA finalize before any update")
        return {k: v / self.count for k, v in self._sums.items()}


# -- parameter accounting -----------------------------------------------


def formula_param_count(kind: str, n_labels: int, x: int | None = None, y: int | None = None,
                        d: int | None = None, r: int | None = None, layers: int = 0) -> int:
    """Closed-form count of the scoring-network parameters, assuming
    1024-wide embeddings feeding the specialization FFNs and the
    bias-free (exact-counts) construction. Each refinement layer adds
    9 r^2."""
    if kind == "loc":
        if not x or not y:
            raise ValueError("loc count needs x and y")
        return 2048 * (x + y) + x * x + y * y * n_labels
    if kind == "arcloc":
        if not d or not r:
            raise ValueError("arcloc count needs d and r")
        if r % 2:
            raise ValueError(f"arc size must be even, got r={r}")
        base = 2048 * d + d * d * r + (r // 2) * (1 + r) + 2 * n_labels * (r + n_labels)
        return base + layers * 9 * r * r
    raise ValueError(f"unknown model kind {kind!r}")


def end_to_end_grad_check(model: _ParserBase, sentence: Sentence, vocab: Vocab,
                          eps: float = 1e-5, coords_per_param: int = 4,
                          rng: np.random.Generator | None = None,
                          kinks: list[tuple[str, int]] | None = None) -> float:
    """Finite-difference check of the full sentence loss against autodiff,
    maxed over sampled coordinates of every parameter. Coordinates that
    straddle a kink are skipped, and appended to ``kinks`` as
    (parameter name, flat index) if it is given.

    Runs in eval mode: dropout and filter noise off, and the top-k filter
    selects by plain differentiable gather, so the finite-difference
    path matches the autodiff path at any sort-stable point. (The
    straight-through training gradient intentionally differs from the
    true forward derivative and is verified analytically, not here.)
    """
    rng = rng or np.random.default_rng(0)
    was_training = model.training
    model.eval()
    try:
        worst = 0.0
        for name, p in model.named_parameters():
            skipped: list[int] = []
            err = grad_check(lambda: sentence_loss(model, sentence, vocab), p,
                             eps=eps, max_coords=coords_per_param, rng=rng, kinks=skipped)
            worst = max(worst, err)
            if kinks is not None:
                kinks.extend((name, c) for c in skipped)
        return worst
    finally:
        model.train(was_training)


# -- batching and the training loop --------------------------------------


def make_batches(sentences: list[Sentence], batch_tokens: int,
                 rng: np.random.Generator | None = None) -> list[list[Sentence]]:
    order = list(range(len(sentences)))
    if rng is not None:
        rng.shuffle(order)
    batches: list[list[Sentence]] = []
    current: list[Sentence] = []
    used = 0
    for i in order:
        sent = sentences[i]
        if current and used + len(sent) > batch_tokens:
            batches.append(current)
            current, used = [], 0
        current.append(sent)
        used += len(sent)
    if current:
        batches.append(current)
    return batches


@dataclass
class TrainResult:
    best_state: dict[str, np.ndarray]
    best_epoch: int
    best_las: float | None  # None when there was no dev set
    metrics: list[dict] = field(default_factory=list)


def evaluate_model(model: _ParserBase, sentences: list[Sentence], vocab: Vocab,
                   decoder: str = "eisner", punct_policy: str = "keep") -> dict:
    """Parse every sentence in eval mode; returns UAS/LAS and, for
    filtering models, the filter oracle."""
    was_training = model.training
    model.eval()
    preds, kept = [], []
    try:
        for sent in sentences:
            res = model.predict(sent, vocab, decoder=decoder)
            preds.append(res.as_prediction())
            if res.kept_heads is not None:
                kept.append(res.kept_heads)
    finally:
        model.train(was_training)
    uas, las = uas_las(preds, sentences, punct_policy)
    oracle = filter_oracle_uas(kept, sentences) if len(kept) == len(sentences) and sentences else None
    return {"uas": uas, "las": las, "filter_oracle": oracle}


def train(model: _ParserBase, train_sents: list[Sentence], dev_sents: list[Sentence],
          vocab: Vocab, cfg: TrainConfig, log_fn=None, early_stop_fn=None) -> TrainResult:
    """Token-budget batches, two Adam groups with separate warmup/SWA
    schedules, per-epoch dev evaluation, best-LAS checkpoint retention.
    ``best_state`` is the evaluated state (the SWA average once SWA is
    active) of the best dev-LAS epoch, or of the last epoch run when
    there is no dev set.

    ``early_stop_fn(epoch, model)``, when given, is consulted after each
    epoch's evaluation and ends training when it returns True.

    Deterministic for a fixed seed in 64-bit single-threaded mode.
    """
    if not train_sents:
        raise ValueError("empty training corpus")
    usable = [s for s in train_sents if len(s) <= cfg.max_train_len]
    if not usable:
        raise ValueError(f"no training sentences of length <= {cfg.max_train_len}")
    kind = model.cfg.kind
    base_lr = cfg.resolved_lr(kind)
    swa_lr = cfg.resolved_swa_lr(kind)
    optimizer = Adam(model.optimizer_groups())
    swa = SwaState()
    shuffle_rng = np.random.default_rng(cfg.seed)
    best_state, best_epoch, best_las = None, 0, None
    metrics: list[dict] = []

    for epoch in range(1, cfg.epochs + 1):
        model.train()
        batches = make_batches(usable, cfg.batch_tokens, shuffle_rng)
        loss_sum, token_sum = 0.0, 0
        epoch_start = time.perf_counter()
        skipped_steps, norms = 0, []
        for b, batch in enumerate(batches):
            progress = (epoch - 1) + b / len(batches)
            lrs = {
                "main": lr_schedule(progress, base_lr, cfg.warmup_epochs,
                                    cfg.use_swa, cfg.swa_start_epoch, swa_lr),
                "transformer": lr_schedule(progress, cfg.lr_transformer,
                                           cfg.warmup_epochs_transformer,
                                           cfg.use_swa, cfg.swa_start_epoch,
                                           cfg.swa_lr_transformer),
            }
            model.zero_grad()
            batch_tokens = sum(len(s) for s in batch)
            for sent in batch:
                loss = sentence_loss(model, sent, vocab) * (len(sent) / batch_tokens)
                loss.backward()
                loss_sum += loss.item() * batch_tokens
            token_sum += batch_tokens
            if cfg.grad_clip is not None:
                norms.append(clip_gradients(model.parameters(), cfg.grad_clip))
            if not optimizer.step(lrs):
                skipped_steps += 1
        tokens_per_s = token_sum / (time.perf_counter() - epoch_start)
        train_loss = loss_sum / token_sum if token_sum else float("nan")

        swa_active = cfg.use_swa and epoch >= cfg.swa_start_epoch
        if swa_active:
            raw_state = model.state_dict()
            swa.update(raw_state)
            model.load_state(swa.finalize())
        if dev_sents:
            dev = evaluate_model(model, dev_sents, vocab,
                                 decoder=cfg.decoder, punct_policy=cfg.punct_policy)
        else:
            dev = {"uas": None, "las": None, "filter_oracle": None}
        eval_state = model.state_dict()
        if swa_active:
            model.load_state(raw_state)

        row = {
            "epoch": epoch,
            "train_loss": train_loss,
            "dev_uas": dev["uas"],
            "dev_las": dev["las"],
            "filter_oracle": dev["filter_oracle"],
            "skipped_steps": skipped_steps,
            # np.max, unlike max(), keeps a NaN norm
            "grad_norm": float(np.max(norms)) if norms else None,
            "tokens_per_s": tokens_per_s,  # wall clock of the batch loop; dev evaluation left out
        }
        metrics.append(row)
        if log_fn is not None:
            log_fn(row)
        # without a dev set best_las stays None, so every epoch's state replaces the last
        if best_las is None or dev["las"] > best_las:
            best_las, best_epoch, best_state = dev["las"], epoch, eval_state
        if early_stop_fn is not None and early_stop_fn(epoch, model):
            break
    return TrainResult(best_state=best_state, best_epoch=best_epoch,
                       best_las=best_las, metrics=metrics)
