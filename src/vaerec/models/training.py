"""Epoch-driven training with validation-based model selection.

Training users are shuffled per epoch from the run seed and taken in
batches, one Adam step per batch: ``SVAE_BATCH`` whole sequences for svae,
``config.batch_size`` bags for mvae and triples for rvae. After every epoch
the model is scored by NDCG@100 on the validation fold users, and the
parameters of the best validation epoch are the ones returned. The whole
loop is a deterministic function of (split, config), so two runs with the
same seed produce bit-identical loss trajectories.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from vaerec.autodiff import Tape
from vaerec.data import DatasetSplit, UserSequence
from vaerec.evaluation import batch_rank_fn, evaluate
from vaerec.models import build_model, svae
from vaerec.models.config import ModelConfig

# svae users per Adam step, batched as Hidasi et al. batch sessions (ICLR
# 2016); a step's loss is the mean of its users' losses. At four, the
# median validation NDCG@100 held on catalog-wide; on svae-long it was level
# on seeds 511-522 but 13 % lower on seeds 2311-2320, an open question.
# At four, svae-long beat popularity on seeds 1-12 and 511-522 and on 398 of
# seeds 2521-2620 and 3001-3300 (not 3020 or 3045); at two, one of seeds
# 1-12 and 511-522 fell below it, and at eight both workloads' medians fell
# (README).
SVAE_BATCH = 4


class TrainingError(RuntimeError):
    """Raised when a loss goes non-finite; reports epoch and batch."""


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_ndcg100: float
    seconds: float


def _beta_for_epoch(config: ModelConfig, epoch: int) -> float:
    if config.kl_anneal_epochs > 0:
        return config.kl_weight * min(1.0, epoch / config.kl_anneal_epochs)
    return config.kl_weight


def _step(model, config: ModelConfig, batch_no: int, loss_fn, *args) -> float:
    """One training step: tape ``loss_fn(*args)``, require a finite loss,
    backpropagate and take an Adam step. Returns the loss."""
    with Tape() as tape:
        loss = loss_fn(*args)
    value = loss.item()
    if not np.isfinite(value):
        raise TrainingError(f"non-finite loss at batch {batch_no}")
    tape.backward(loss, model.store)
    model.store.adam_step(config.learning_rate, weight_decay=config.weight_decay)
    return value


def _svae_batches(lengths: Sequence[int], n_items: int) -> list[list[int]]:
    """Positions in ``lengths`` cut, in order, into batches of at most
    ``SVAE_BATCH``. A batch closes early where one more sequence would take
    its [ΣT, n_items] catalog head past ``svae.SCORE_FLOATS`` floats, so a
    sequence that long trains alone."""
    batches: list[list[int]] = []
    batch: list[int] = []
    rows = 0
    for pos, steps in enumerate(lengths):
        if batch and (len(batch) == SVAE_BATCH
                      or (rows + steps) * n_items > svae.SCORE_FLOATS):
            batches.append(batch)
            batch, rows = [], 0
        batch.append(pos)
        rows += steps
    if batch:
        batches.append(batch)
    return batches


def _svae_epoch(model, train: Sequence[UserSequence], rng, beta, config) -> float:
    """One pass over shuffled users in ``_svae_batches`` of full-length
    sequences. Each user's noise is drawn as the batch is reached, in the
    shuffled order, so the generator's stream does not depend on the
    batching. Returns the mean per-user loss."""
    order = rng.permutation(len(train))
    sequences = [train[i].items for i in order]
    total = 0.0
    for batch_no, batch in enumerate(_svae_batches([len(s) for s in sequences], model.n_items)):
        items = [sequences[pos] for pos in batch]
        noise = np.concatenate([rng.standard_normal((len(s), config.latent_dim)) for s in items])
        total += _step(model, config, batch_no, model.loss, items, noise, beta) * len(items)
    return total / max(len(order), 1)


def _mvae_epoch(model, train: Sequence[UserSequence], rng, beta, config) -> float:
    """One pass over shuffled users in batches; each batch's bags are built
    when it is reached, so at most one [batch, N] bag matrix is alive."""
    order = rng.permutation(len(train))
    total = 0.0
    for batch_no, lo in enumerate(range(0, len(order), config.batch_size)):
        batch = model.bag_matrix([train[i].items for i in order[lo : lo + config.batch_size]])
        noise = rng.standard_normal((batch.shape[0], config.latent_dim))
        total += _step(model, config, batch_no, model.loss, batch, noise, beta) * batch.shape[0]
    return total / max(len(order), 1)


def _rvae_triples(train: Sequence[UserSequence], n_items: int, rng) -> np.ndarray:
    """(user_row, preferred, negative) triples: one uniformly sampled
    non-consumed item per positive per epoch.

    A user's negatives are the draws that miss their consumed items, in
    draw order. They come in batches of exactly the missing count, so no
    batch draws past the last acceptance, and ``rng.integers(n, size=k)``
    yields what k scalar calls do: the triples and the generator's state
    are those of drawing one item at a time until it misses. A user who has
    consumed every item has no negative to draw; such users are skipped
    before any draw, so the others' triples do not change."""
    consumed = np.zeros(n_items, dtype=bool)
    rows, preferred, negatives = [], [], []
    for row, seq in enumerate(train):
        items = np.asarray(seq.items, dtype=np.int64)
        consumed[items] = True
        if len(items) and not consumed.all():
            rows.append(np.full(len(items), row, dtype=np.int64))
            preferred.append(items)
            need = len(items)
            while need:
                draws = rng.integers(n_items, size=need)
                negatives.append(draws[~consumed[draws]])
                need -= len(negatives[-1])
        consumed[items] = False
    if not rows:
        raise ValueError("rvae training needs a user who has not consumed every item")
    out = np.stack([np.concatenate(part) for part in (rows, preferred, negatives)], axis=1)
    return out[rng.permutation(len(out))]


def _rvae_epoch(model, train: Sequence[UserSequence], rng, beta, config) -> float:
    triples = _rvae_triples(train, model.n_items, rng)
    total = 0.0
    for batch_no, lo in enumerate(range(0, len(triples), config.batch_size)):
        batch = triples[lo : lo + config.batch_size]
        noise_i = rng.standard_normal((len(batch), config.latent_dim))
        noise_j = rng.standard_normal((len(batch), config.latent_dim))
        total += _step(model, config, batch_no, model.pair_loss, batch[:, 0], batch[:, 1],
                       batch[:, 2], noise_i, noise_j, beta) * len(batch)
    return total / max(len(triples), 1)


_EPOCH_FNS = {"svae": _svae_epoch, "mvae": _mvae_epoch, "rvae": _rvae_epoch}


def train(
    kind: str,
    split: DatasetSplit,
    config: ModelConfig,
    callback: Callable[[EpochStats], None] | None = None,
    dtype=np.float32,
):
    """Train a model of ``kind`` on the split; returns (model, curve).

    The returned model carries the parameters of the epoch with the best
    validation NDCG@100 (earliest on ties). With epochs=0 the initial model
    comes back untouched and the curve is empty. ``dtype`` is the model's
    parameter dtype (see ``build_model``); noise is drawn in float64 either
    way, so the generator's draws do not depend on it.
    """
    if not split.train:
        raise ValueError("empty training split")
    model = build_model(kind, split.n_items, config, n_users=len(split.train), dtype=dtype)
    epoch_fn = _EPOCH_FNS[kind]
    ss = np.random.SeedSequence(config.seed)
    rng = np.random.default_rng(ss.spawn(1)[0])
    curve: list[EpochStats] = []
    best_score = -np.inf
    best_params = None
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        beta = _beta_for_epoch(config, epoch)
        try:
            train_loss = epoch_fn(model, split.train, rng, beta, config)
        except TrainingError as err:
            raise TrainingError(f"{kind} training diverged at epoch {epoch}: {err}") from None
        report = evaluate(batch_rank_fn(model, split.validation, 100), split.validation,
                          n_values=(100,))
        val_score = report.metrics["NDCG@100"]
        stats = EpochStats(
            epoch=epoch,
            train_loss=train_loss,
            val_ndcg100=val_score,
            seconds=time.perf_counter() - started,
        )
        curve.append(stats)
        if callback is not None:
            callback(stats)
        if val_score > best_score:
            best_score = val_score
            best_params = model.store.snapshot(out=best_params)
    if best_params is not None:
        model.store.restore(best_params)
    return model, curve
