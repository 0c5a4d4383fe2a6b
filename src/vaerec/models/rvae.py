"""Pairwise ranking VAE (score-difference form).

Each (user, item) pair gets a latent Gaussian inferred from the user's
and the item's embeddings side by side; a scalar scorer maps the latent
to a rank score, and a preferred/non-preferred pair is modeled as a
Bernoulli on the sigmoid of the score difference. The preferred item takes
the positive sign, so training pushes its score up. Items sort directly by
score at prediction time, which cannot produce rank inconsistencies.

Users and items share one embedding table: the user rows come first, then
a reserved row at ``n_users``, and item i is row ``n_users + 1 + i``.
Users unseen at training time (all held-out users) go through the reserved
row, so the model still ranks for them. That row ignores the fold-in: every
held-out user gets the same scores, and so the same ranking up to the
exclusion of their own fold-in items. ``score_batch`` therefore
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
    check_ids,
    kl_to_standard_normal,
    rank_items,
    reparameterize,
)
from vaerec.models.config import ModelConfig


class PairwiseRankingVAE:
    kind = "rvae"

    def __init__(self, n_items: int, n_users: int, config: ModelConfig,
                 rng: np.random.Generator | None, dtype):
        self.n_items = n_items
        self.n_users = n_users
        self.config = config
        self.store = ParameterStore(dtype)
        dim = config.rvae_embedding_dim
        # the user rows, one extra for users never seen in training, then the items
        self.embedding = add_embedding(self.store, "embedding", n_users + 1 + n_items, dim, rng)
        enc_widths = (2 * dim,) + config.rvae_encoder_widths
        self.encoder_stack = DenseStack(self.store, "encoder", enc_widths, rng)
        self.head = GaussianHead(
            self.store, "encoder.head", config.rvae_encoder_widths[-1], config.latent_dim, rng
        )
        self.scorer = add_dense(self.store, "scorer", config.latent_dim, 1, rng)

    @property
    def unseen_user_row(self) -> int:
        return self.n_users

    def _pair_inputs(self, user_rows: Sequence[int], item_ids: Sequence[int]) -> Tensor:
        """The [B, 2 d] encoder inputs, each user row's embedding beside its
        item's, from one lookup of the [B, 2] table rows."""
        users = np.asarray(user_rows, dtype=np.int64)
        items = np.asarray(item_ids, dtype=np.int64)
        check_ids(users, self.n_users + 1, "user row")
        check_ids(items, self.n_items)
        rows = np.stack([users, self.n_users + 1 + items], axis=1)
        return ad.embedding_lookup(self.embedding, rows)

    def encode(self, user_rows: Sequence[int], item_ids: Sequence[int]) -> GaussianParams:
        return self.head(self.encoder_stack(self._pair_inputs(user_rows, item_ids)))

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
        fold-in does not enter. The encoder inputs are ``encode``'s, the
        reserved row beside every item; only the head's mean is computed,
        since scoring reads nothing else."""
        features = self.encoder_stack(self._pair_inputs(
            np.full(self.n_items, self.unseen_user_row), np.arange(self.n_items)))
        return self.score(ad.linear(features, *self.head.mu)).data[:, 0]

    def score_batch(self, fold_ins: Sequence[Sequence[int]]) -> np.ndarray:
        """[U, N] scores: the reserved-user row, computed once and broadcast
        to every fold-in (a read-only view, no copy)."""
        return np.broadcast_to(self.scores(()), (len(fold_ins), self.n_items))

    def rank(self, fold_in: Sequence[int], exclude: set[int] | frozenset[int]) -> np.ndarray:
        return rank_items(self.scores(fold_in), exclude)
