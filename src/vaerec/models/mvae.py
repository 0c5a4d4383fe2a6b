"""Multinomial VAE over a user's whole history.

The encoder reads the multi-hot bag of consumed items, the decoder emits a
softmax over the catalog, and the loss is KL to the standard normal prior
minus the multinomial reconstruction log-likelihood. Prediction is
noise-free: z is the posterior mean.

The encoder's input weight ``encoder.0.w`` is an [N, H] table with a row per
item: a training step's Adam update moves only the rows of items that some
bag in its batch holds, as the embedding tables of svae and rvae are
stepped. The product is the dense ``bags @ W``, so a step's loss and
gradients are those of an ordinary dense layer.
"""

from __future__ import annotations

import itertools
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
    check_ids,
    kl_to_standard_normal,
    rank_items,
    reparameterize,
)
from vaerec.models.config import ModelConfig


class MultinomialVAE:
    kind = "mvae"

    def __init__(self, n_items: int, config: ModelConfig, rng: np.random.Generator | None,
                 dtype):
        self.n_items = n_items
        self.config = config
        self.store = ParameterStore(dtype)
        enc_widths = (n_items,) + config.encoder_widths
        self.encoder_stack = DenseStack(self.store, "encoder", enc_widths, rng, bag_input=True)
        self.head = GaussianHead(
            self.store, "encoder.head", config.encoder_widths[-1], config.latent_dim, rng
        )
        dec_widths = (config.latent_dim,) + config.decoder_widths
        self.decoder_stack = DenseStack(self.store, "decoder", dec_widths, rng)
        self.output = add_dense(
            self.store, "decoder.out.0", config.decoder_widths[-1], n_items, rng)

    def bag_matrix(self, item_lists: Sequence[Sequence[int]]) -> np.ndarray:
        """The [B, N] multi-hot bags of ``item_lists``, one row per list,
        built with one range check and one index assignment over all their
        ids; an id outside the catalog is an ``IndexError`` naming the first
        such id."""
        sizes = [len(items) for items in item_lists]
        ids = np.fromiter(itertools.chain.from_iterable(item_lists), np.int64, sum(sizes))
        check_ids(ids, self.n_items)
        bags = np.zeros((len(sizes), self.n_items), self.store.dtype)
        bags[np.repeat(np.arange(len(sizes)), sizes), ids] = 1.0
        return bags

    def encode(self, bags: np.ndarray) -> GaussianParams:
        bags = np.atleast_2d(np.asarray(bags, dtype=self.store.dtype))
        return self.head(self.encoder_stack(Tensor(bags)))

    def logits(self, z: Tensor) -> Tensor:
        return ad.linear(self.decoder_stack(z), *self.output)

    def loss(self, bags: np.ndarray, noise: np.ndarray, beta: float) -> Tensor:
        """Mean over the batch of beta * KL - reconstruction, single noise
        sample per user. ``bags`` are multi-hot, as ``bag_matrix`` builds
        them, so the reconstruction sums the log-probabilities at each
        row's consumed items."""
        bags = np.atleast_2d(bags)
        g = self.encode(bags)
        z = reparameterize(g, noise)
        # np.nonzero takes a float array's nonzeros several times slower
        # than a boolean array's, with the same result
        recon = ad.sum_all(ad.log_softmax_at(self.logits(z), *np.nonzero(bags != 0)))
        kl = kl_to_standard_normal(g)
        return ad.scale(ad.sub(ad.scale(kl, beta), recon), 1.0 / bags.shape[0])

    def scores(self, fold_in: Sequence[int]) -> np.ndarray:
        """Catalog log-probabilities from the noise-free latent."""
        return self.score_batch([fold_in])[0]

    def score_batch(self, fold_ins: Sequence[Sequence[int]]) -> np.ndarray:
        """[U, N] ``scores`` rows: the bags of ``SCORE_BLOCK`` fold-ins at a
        time are encoded and decoded as one matrix."""
        out = np.empty((len(fold_ins), self.n_items), self.store.dtype)
        for lo in range(0, len(fold_ins), SCORE_BLOCK):
            bags = self.bag_matrix(fold_ins[lo : lo + SCORE_BLOCK])
            out[lo : lo + len(bags)] = ad.log_softmax(self.logits(self.encode(bags).mu).data)
        return out

    def rank(self, fold_in: Sequence[int], exclude: set[int] | frozenset[int]) -> np.ndarray:
        return rank_items(self.scores(fold_in), exclude)
