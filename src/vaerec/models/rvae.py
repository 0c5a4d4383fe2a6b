"""Pairwise ranking VAE (score-difference form).

Each (user, item) pair gets a latent Gaussian inferred from the
concatenation of user and item embeddings; a scalar scorer maps the latent
to a rank score, and a preferred/non-preferred pair is modeled as a
Bernoulli on the sigmoid of the score difference. The preferred item takes
the positive sign, so training pushes its score up. Items sort directly by
score at prediction time, which cannot produce rank inconsistencies.

Users unseen at training time (all held-out users) go through a reserved
embedding row, so the model still ranks for them. That row ignores the
fold-in: every held-out user gets the same scores, and so the same ranking
up to the exclusion of their own fold-in items. ``score_batch`` therefore
scores the catalog once per batch.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from vaerec import autodiff as ad
from vaerec.autodiff import ParameterStore, Tensor
from vaerec.models.components import (
    DenseStack,
    GaussianHead,
    GaussianParams,
    add_dense,
    add_embedding,
    kl_to_standard_normal,
    rank_items,
    reparameterize,
)
from vaerec.models.config import ModelConfig


class PairwiseRankingVAE:
    kind = "rvae"

    def __init__(self, n_items: int, n_users: int, config: ModelConfig,
                 rng: np.random.Generator | None):
        self.n_items = n_items
        self.n_users = n_users
        self.config = config
        self.store = ParameterStore()
        dim = config.rvae_embedding_dim
        # one extra user row for users never seen in training
        self.user_embedding = add_embedding(self.store, "user_embedding", n_users + 1, dim, rng)
        self.item_embedding = add_embedding(self.store, "item_embedding", n_items, dim, rng)
        enc_widths = (2 * dim,) + config.rvae_encoder_widths
        self.encoder_stack = DenseStack(self.store, "encoder", enc_widths, rng)
        self.head = GaussianHead(
            self.store, "encoder.head", config.rvae_encoder_widths[-1], config.latent_dim, rng
        )
        self.scorer = add_dense(self.store, "scorer", config.latent_dim, 1, rng)

    @property
    def unseen_user_row(self) -> int:
        return self.n_users

    def encode(self, user_rows: Sequence[int], item_ids: Sequence[int]) -> GaussianParams:
        u = ad.embedding_lookup(self.user_embedding, user_rows)
        i = ad.embedding_lookup(self.item_embedding, item_ids)
        return self.head(self.encoder_stack(ad.concat_cols(u, i)))

    def score(self, z: Tensor) -> Tensor:
        return ad.linear(z, *self.scorer)

    def pair_loss(
        self,
        user_rows: Sequence[int],
        preferred: Sequence[int],
        other: Sequence[int],
        noise_preferred: np.ndarray,
        noise_other: np.ndarray,
        beta: float,
    ) -> Tensor:
        """Mean negative log Bernoulli likelihood of the orderings plus the
        KL of both pair posteriors."""
        n = len(preferred)
        g_i = self.encode(user_rows, preferred)
        g_j = self.encode(user_rows, other)
        s_i = self.score(reparameterize(g_i, noise_preferred))
        s_j = self.score(reparameterize(g_j, noise_other))
        # -log sigmoid(s_i - s_j) == softplus(s_j - s_i)
        nll = ad.sum_all(ad.softplus(ad.sub(s_j, s_i)))
        kl = ad.add(kl_to_standard_normal(g_i), kl_to_standard_normal(g_j))
        return ad.scale(ad.add(nll, ad.scale(kl, beta)), 1.0 / n)

    def scores(self, fold_in: Sequence[int]) -> np.ndarray:
        """Score every catalog item through the reserved-user row; the
        fold-in does not enter.

        The encoder input is built as one block, the reserved row beside
        each item row: the bytes ``encode`` would concatenate from its two
        lookups, without gathering either table. Only the head's mean is
        computed, since scoring reads nothing else."""
        dim = self.config.rvae_embedding_dim
        block = np.empty((self.n_items, 2 * dim))
        block[:, :dim] = self.user_embedding.data[self.unseen_user_row]
        block[:, dim:] = self.item_embedding.data
        features = self.encoder_stack(Tensor(block))
        return self.score(ad.linear(features, *self.head.mu)).data[:, 0]

    def score_batch(self, fold_ins: Sequence[Sequence[int]]) -> np.ndarray:
        """[U, N] scores: the reserved-user row, computed once and broadcast
        to every fold-in (a read-only view, no copy)."""
        return np.broadcast_to(self.scores(()), (len(fold_ins), self.n_items))

    def rank(self, fold_in: Sequence[int], exclude: set[int] | frozenset[int]) -> np.ndarray:
        return rank_items(self.scores(fold_in), exclude)
