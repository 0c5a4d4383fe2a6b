"""Sequential VAE: a recurrent latent-variable model over item sequences.

At step t the GRU has consumed items 1..t-1 (step 1 consumes a learned
start token, row ``n_items`` of the item embedding table), a Gaussian head
on the hidden state proposes the step-t latent, and the decoder turns the
latent into a softmax over the catalog. The per-step target is either the
multiset of the next k items or a mixture over the k most recent latent
states.

The recurrence is strictly causal: everything emitted at step t is
invariant to items at positions after t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from vaerec import autodiff as ad
from vaerec.autodiff import ParameterStore, Tensor
from vaerec.models.components import (
    SCORE_BLOCK,
    DenseStack,
    GaussianHead,
    GaussianParams,
    add_dense,
    add_embedding,
    add_gru,
    check_ids,
    kl_to_standard_normal,
    rank_items,
    reparameterize,
)
from vaerec.models.config import ModelConfig


# A block's recurrence keeps about (d + 8 H) floats per row and step: the
# looked-up inputs, the [T, B, 3H] pre-activations, both gates, the
# candidate, r * h and the state. Blocks are costed at (2 d + 8 H), which
# leaves d floats of headroom a row and step, and cut so that
# rows x (T_max + 1) x (2 d + 8 H) stays within this many floats (32 MiB),
# whatever the fold-in lengths; a fold-in that needs more on its own is
# scored alone, as the one-sequence path would. Training caps a batch's
# [ΣT, N] catalog head at as many floats (``training._svae_batches``).
SCORE_FLOATS = 1 << 22


def length_blocks(lengths: Sequence[int], step_floats: int) -> list[list[int]]:
    """Indices into ``lengths``, sorted by length (stably) so that padding
    stays small, and cut into blocks of at most ``SCORE_BLOCK`` rows whose
    padded recurrence, rows x (T_max + 1) x ``step_floats`` floats, fits
    ``SCORE_FLOATS``."""
    blocks: list[list[int]] = []
    block: list[int] = []
    for row in sorted(range(len(lengths)), key=lengths.__getitem__):
        steps = lengths[row] + 1  # the block's longest so far, start token included
        if block and (len(block) == SCORE_BLOCK
                      or (len(block) + 1) * steps * step_floats > SCORE_FLOATS):
            blocks.append(block)
            block = []
        block.append(row)
    if block:
        blocks.append(block)
    return blocks


@dataclass
class StepOutputs:
    """Per-step posterior, sample, and catalog logits (their row-wise log
    softmax is the step's log-probabilities) of B sequences: the ΣT rows of
    their steps, sequence by sequence."""

    gaussian: GaussianParams
    z: Tensor
    logits: Tensor


class SequentialVAE:
    kind = "svae"

    def __init__(self, n_items: int, config: ModelConfig, rng: np.random.Generator | None,
                 dtype):
        self.n_items = n_items
        self.config = config
        self.store = ParameterStore(dtype)
        emb = config.item_embedding_dim
        hid = config.gru_hidden
        # step 1 has no previous item; it consumes row n_items, the start token
        self.item_embedding = add_embedding(self.store, "item_embedding", n_items + 1, emb, rng)
        self.gru = add_gru(self.store, "gru", emb, hid, rng)
        enc_widths = (hid,) + config.encoder_widths
        self.encoder_stack = DenseStack(self.store, "encoder", enc_widths, rng)
        self.head = GaussianHead(
            self.store, "encoder.head", config.encoder_widths[-1], config.latent_dim, rng
        )
        dec_widths = (config.latent_dim,) + config.decoder_widths
        self.decoder_stack = DenseStack(self.store, "decoder", dec_widths, rng)
        self.output = add_dense(
            self.store, "decoder.out.0", config.decoder_widths[-1], n_items, rng)

    def _states(self, consumed: Sequence[Sequence[int]]) -> Tensor:
        """GRU states of the B sequences in ``consumed`` from one recurrence
        over each one's start token and then its items, right-padded to the
        longest (T items): the [(T + 1) * B, H] step-major rows, where row
        t * B + b has seen the start token and consumed[b][:t]. The inputs
        are one lookup of a [T + 1, B] id block whose first row, and every
        padded cell, is the start token. Every step reads that row, so the
        padding adds no row to the ones Adam steps; the recurrence is causal,
        so no state up to a row's last real step sees the padding."""
        lengths = np.array([len(items) for items in consumed], dtype=np.int64)
        n_rows = lengths.size
        ids = np.zeros((lengths.max(initial=0) + 1, n_rows), dtype=np.int64)
        for b, items in enumerate(consumed):
            ids[1 : len(items) + 1, b] = items
        # an item id of n_items would read the start token
        check_ids(ids[1:], self.n_items)
        steps = np.arange(len(ids))[:, None]
        ids[(steps == 0) | (steps > lengths)] = self.n_items
        x = ad.embedding_lookup(self.item_embedding, ids.reshape(-1))
        h0 = Tensor(np.zeros((n_rows, self.config.gru_hidden), self.store.dtype))
        return ad.gru_sequence(x, h0, self.gru)

    def _encode_states(self, states: Tensor) -> GaussianParams:
        return self.head(self.encoder_stack(states))

    def logits(self, z: Tensor) -> Tensor:
        return ad.linear(self.decoder_stack(z), *self.output)

    def forward(self, sequences: Sequence[Sequence[int]], noise: np.ndarray) -> StepOutputs:
        """One pass over B sequences, yielding the ΣT per-step triples of
        their T_b steps: rows o_b .. o_b + T_b - 1 are sequence b's, where
        o_b = T_0 + ... + T_{b-1}. The sequences share one right-padded
        recurrence; each one's real rows are gathered from it, and the
        encoder, reparameterization (``noise`` is [ΣT, L]) and decoder run
        once over all of them."""
        lengths = [len(items) for items in sequences]
        if not lengths or 0 in lengths:
            raise ValueError("sequence must not be empty")
        n_rows = len(lengths)
        # sequence b's step t is row t * B + b of the step-major block
        real = np.concatenate([np.arange(T) * n_rows + b for b, T in enumerate(lengths)])
        states = ad.take_rows(self._states([items[:-1] for items in sequences]), real)
        g = self._encode_states(states)
        z = reparameterize(g, noise)
        return StepOutputs(gaussian=g, z=z, logits=self.logits(z))

    def loss(self, sequences: Sequence[Sequence[int]], noise: np.ndarray, beta: float,
             k: int | None = None, mode: str | None = None) -> Tensor:
        """Mean over the B sequences of each one's loss, normalized by its
        length: (beta * KL_b - recon_b) / T_b. ``noise`` is the [ΣT, L]
        noise of their steps, in ``forward``'s row order.

        next-k-multiset: each step's reconstruction term is the multinomial
        log-likelihood of the next k items. mixture: each observed item is
        scored against the uniform mixture of the softmaxes from its k most
        recent latent states. Either way a step reads only its own
        sequence's items and latent rows: each sequence's positions are
        offset by its first row, and one ``log_softmax_at`` reads them all.
        """
        k = self.config.k_horizon if k is None else k
        mode = self.config.likelihood_mode if mode is None else mode
        out = self.forward(sequences, noise)
        lengths = np.array([len(items) for items in sequences], dtype=np.int64)
        ids = np.concatenate([np.asarray(items, dtype=np.int64) for items in sequences])
        check_ids(ids, self.n_items)
        starts = np.cumsum(lengths) - lengths  # each sequence's first row, o_b
        first = np.repeat(starts, lengths)
        # row t of a sequence, column j: its position t + j, the j-th of the next k items
        ahead = (np.arange(ids.size) - first)[:, None] + np.arange(k)
        if mode == "next-k-multiset":
            valid = ahead < np.repeat(lengths, lengths)[:, None]
            rows = np.nonzero(valid)[0]
            picked = ad.log_softmax_at(out.logits, rows, ids[first[rows] + ahead[valid]])
            recon = ad.sum_all(picked, np.add.reduceat(valid.sum(axis=1), starts))
        elif mode == "mixture":
            # row t: latent rows t-k+1 .. t; rows before the first are
            # clamped to 0 and masked out of the log-sum-exp
            back = ahead - (k - 1)
            window = ad.log_softmax_at(out.logits, first[:, None] + np.maximum(back, 0),
                                       ids[:, None])
            dtype = self.store.dtype
            masked = ad.add(window, Tensor(np.where(back >= 0, 0.0, -np.inf).astype(dtype)))
            sizes = Tensor(np.log((back >= 0).sum(axis=1)).astype(dtype))
            recon = ad.sum_all(ad.sub(ad.logsumexp_rows(masked), sizes), lengths)
        else:
            raise ValueError(f"unknown likelihood mode {mode!r}")
        kl = kl_to_standard_normal(out.gaussian, lengths)
        weights = 1.0 / (lengths.size * lengths)
        return ad.weighted_sum(ad.sub(ad.scale(kl, beta), recon), weights)

    def scores(self, fold_in: Sequence[int]) -> np.ndarray:
        """Noise-free catalog log-probabilities for the step after the
        fold-in: the recurrence consumes every fold-in item, z is the
        posterior mean at that final state."""
        return self.score_batch([fold_in])[0]

    def score_batch(self, fold_ins: Sequence[Sequence[int]]) -> np.ndarray:
        """[U, N] ``scores`` rows, scored in the ``length_blocks`` of the
        fold-ins."""
        lengths = [len(f) for f in fold_ins]
        if 0 in lengths:
            raise ValueError("fold-in must not be empty")
        step_floats = 2 * self.config.item_embedding_dim + 8 * self.config.gru_hidden
        out = np.empty((len(fold_ins), self.n_items), self.store.dtype)
        for rows in length_blocks(lengths, step_floats):
            out[rows] = self._score_block([fold_ins[r] for r in rows])
        return out

    def _score_block(self, fold_ins: Sequence[Sequence[int]]) -> np.ndarray:
        """Scores of a few fold-ins from one ``_states`` recurrence: each
        row's state is read at its last real step, and the rows are encoded
        and decoded as one matrix."""
        n_rows = len(fold_ins)
        last = np.array([len(f) for f in fold_ins]) * n_rows + np.arange(n_rows)
        g = self._encode_states(Tensor(self._states(fold_ins).data[last]))
        return ad.log_softmax(self.logits(g.mu).data)

    def rank(self, fold_in: Sequence[int], exclude: set[int] | frozenset[int]) -> np.ndarray:
        return rank_items(self.scores(fold_in), exclude)
