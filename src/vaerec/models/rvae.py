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
scores the catalog once per batch, off the tape and with the reserved
row's share of the first layer computed once (see ``scores``).
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

    def encode(self, user_rows: Sequence[int], item_ids: Sequence[int]) -> GaussianParams:
        """The pair posteriors: each user row's embedding beside its item's,
        from one lookup of the [B, 2] table rows, through the encoder."""
        users = np.asarray(user_rows, dtype=np.int64)
        items = np.asarray(item_ids, dtype=np.int64)
        check_ids(users, self.n_users + 1, "user row")
        check_ids(items, self.n_items)
        rows = np.stack([users, self.n_users + 1 + items], axis=1)
        return self.head(self.encoder_stack(ad.embedding_lookup(self.embedding, rows)))

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
        KL of both pair posteriors, from one pass over [2B] pairs: the users
        twice, beside the preferred items and then the others."""
        n = len(preferred)
        if np.shape(noise_preferred) != np.shape(noise_other):
            raise ad.ShapeError(f"noise shapes {np.shape(noise_preferred)} and "
                                f"{np.shape(noise_other)} differ")
        g = self.encode(np.tile(user_rows, 2), np.concatenate([preferred, other]))
        s = self.score(reparameterize(g, np.concatenate([noise_preferred, noise_other])))
        # s_j - s_i for every triple; -log sigmoid(s_i - s_j) == softplus(s_j - s_i)
        nll = ad.sum_all(ad.softplus(ad.sub_halves(s)))
        return ad.scale(ad.add(nll, ad.scale(kl_to_standard_normal(g), beta)), 1.0 / n)

    def scores(self, fold_in: Sequence[int]) -> np.ndarray:
        """Score every catalog item through the reserved-user row, off the
        tape; the fold-in does not enter. This is ``score(encode(...).mu)``
        split: the first layer is ``items @ W1[d:] + (user @ W1[:d] + b1)``,
        with the item rows read in place, and the linear head mean and
        scorer fold into one ``W_mu @ w_s`` vector."""
        dim = self.config.rvae_embedding_dim
        table = self.embedding.data
        (w1, b1), *rest = self.encoder_stack.layers
        user = table[self.unseen_user_row] @ w1.data[:dim] + b1.data
        h = table[self.n_users + 1:]
        for w, b in [(w1.data[dim:], user)] + [(w.data, b.data) for w, b in rest]:
            h = h @ w
            h += b
            np.tanh(h, out=h)
        (w_mu, b_mu), (w_s, b_s) = self.head.mu, self.scorer
        return h @ (w_mu.data @ w_s.data)[:, 0] + (b_mu.data @ w_s.data + b_s.data)[0]

    def score_batch(self, fold_ins: Sequence[Sequence[int]]) -> np.ndarray:
        """[U, N] scores: the reserved-user row, computed once and broadcast
        to every fold-in (a read-only view, no copy)."""
        return np.broadcast_to(self.scores(()), (len(fold_ins), self.n_items))

    def rank(self, fold_in: Sequence[int], exclude: set[int] | frozenset[int]) -> np.ndarray:
        return rank_items(self.scores(fold_in), exclude)
