"""Building blocks shared by the three model families.

Initialization convention: dense weights are uniform(-a, a) with
a = sqrt(6 / (fan_in + fan_out)), biases start at zero, and embedding tables
are normal(0, 0.01). Values are drawn only when a model is built with an
RNG; without one the parameters are laid out at zero, for a checkpoint load
to fill. Hidden layers use tanh; the Gaussian heads and the catalog logits
are left linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from vaerec import autodiff as ad
from vaerec.autodiff import GRUParams, ParameterStore, Tensor


@dataclass
class GaussianParams:
    """Diagonal Gaussian with the scale kept in the log domain."""

    mu: Tensor
    log_sigma: Tensor


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def embedding_normal(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    return rng.normal(0.0, 0.01, size=(rows, dim))


def add_drawn(store: ParameterStore, name: str, draw, rng: np.random.Generator | None,
              *shape: int, table: bool = False) -> Tensor:
    """Add ``name`` holding ``draw(rng, *shape)``. Without an RNG nothing is
    drawn: the parameter starts at zero, for a checkpoint load to fill.
    ``table`` is passed on to ``ParameterStore.add``."""
    if rng is None:
        return store.add(name, shape=shape, table=table)
    return store.add(name, draw(rng, *shape), table=table)


def add_dense(store: ParameterStore, name: str, fan_in: int, fan_out: int,
              rng: np.random.Generator | None) -> tuple[Tensor, Tensor]:
    w = add_drawn(store, f"{name}.w", glorot_uniform, rng, fan_in, fan_out)
    b = store.add(f"{name}.b", shape=(fan_out,))
    return w, b


def add_embedding(store: ParameterStore, name: str, rows: int, dim: int,
                  rng: np.random.Generator | None) -> Tensor:
    """A [rows, dim] embedding table: Adam steps only the rows that a
    training step's lookups read."""
    return add_drawn(store, name, embedding_normal, rng, rows, dim, table=True)


def check_ids(ids: np.ndarray, stop: int, what: str = "item id") -> None:
    """``IndexError`` naming the first of ``ids`` outside [0, ``stop``). A
    model that keeps several kinds of rows in one embedding table checks
    each kind's ids here, since the table's own range spans them all."""
    bad = ids[(ids < 0) | (ids >= stop)]
    if bad.size:
        raise IndexError(f"{what} {bad[0]} out of range [0, {stop})")


def add_gru(store: ParameterStore, prefix: str, in_dim: int, hidden: int,
            rng: np.random.Generator | None) -> GRUParams:
    """A GRU's four tensors, stored as ``ad.gru_sequence`` reads them (see
    ``GRUParams``). With an RNG the weights are six glorot draws, each
    placed in its block: the reset, update and candidate gates in turn,
    each its input block and then its state block. The biases start at
    zero. A checkpoint of the older layout, nine tensors named by gate,
    fails to load and must be retrained."""
    w = u_gates = u_cand = None
    if rng is not None:
        w_r, u_r, w_u, u_u, w_c, u_cand = (
            glorot_uniform(rng, fan_in, hidden) for _ in range(3) for fan_in in (in_dim, hidden))
        w = np.concatenate([w_r, w_u, w_c], axis=1)
        u_gates = np.concatenate([u_r, u_u], axis=1)
    return GRUParams(
        w=store.add(f"{prefix}.w", w, shape=(in_dim, 3 * hidden)),
        b=store.add(f"{prefix}.b", shape=(3 * hidden,)),
        u_gates=store.add(f"{prefix}.u_gates", u_gates, shape=(hidden, 2 * hidden)),
        u_cand=store.add(f"{prefix}.u_cand", u_cand, shape=(hidden, hidden)),
    )


class DenseStack:
    """Dense layers, each followed by tanh."""

    def __init__(self, store: ParameterStore, name: str, widths: Sequence[int],
                 rng: np.random.Generator | None):
        self.layers = [
            add_dense(store, f"{name}.{i}", widths[i], widths[i + 1], rng)
            for i in range(len(widths) - 1)
        ]

    def __call__(self, x: Tensor) -> Tensor:
        for w, b in self.layers:
            x = ad.linear(x, w, b, tanh=True)
        return x


class GaussianHead:
    """Two linear heads emitting mu and log sigma from a shared feature."""

    def __init__(self, store: ParameterStore, name: str, in_dim: int, latent_dim: int,
                 rng: np.random.Generator | None):
        self.mu = add_dense(store, f"{name}.mu", in_dim, latent_dim, rng)
        self.log_sigma = add_dense(store, f"{name}.log_sigma", in_dim, latent_dim, rng)

    def __call__(self, features: Tensor) -> GaussianParams:
        return GaussianParams(
            mu=ad.linear(features, *self.mu),
            log_sigma=ad.linear(features, *self.log_sigma),
        )


def reparameterize(g: GaussianParams, eps: np.ndarray) -> Tensor:
    """z = mu + exp(log_sigma) * eps, differentiable in mu and log_sigma."""
    return ad.reparameterize(g.mu, g.log_sigma, eps)


def kl_to_standard_normal(g: GaussianParams, segments: Sequence[int] | None = None) -> Tensor:
    """Closed-form KL(N(mu, diag sigma^2) || N(0, I)), summed over the batch,
    or given ``segments`` over each run of that many rows (see
    ``ad.sum_all``).

    Per coordinate: (sigma^2 - 1 - log sigma^2 + mu^2) / 2, which is zero
    exactly at (mu, sigma) = (0, 1) and positive everywhere else.
    """
    return ad.kl_standard_normal(g.mu, g.log_sigma, segments)


# Held-out users are scored this many at a time, as the rows of one
# [rows, .] matmul chain. It bounds the catalog-wide temporaries of a
# scoring call, rows x N floats for a block of mvae bags or of decoded
# rows; svae also caps a block's recurrence (``svae.SCORE_FLOATS``).
SCORE_BLOCK = 64


# ``rank_items`` partitions before sorting from this many candidates on;
# below it a full sort is quicker (n = 100 on one core of a 2-vCPU VM:
# 12.0 against 14.7 us at 200 candidates, 30.2 against 25.0 us at 800).
PARTITION_FROM = 512


def rank_items(
    scores: np.ndarray, exclude: frozenset[int] | set[int], n: int | None = None
) -> np.ndarray:
    """Descending-score ranking over the catalog, stable on ties (so equal
    scores order by item index), with excluded items removed; given ``n``,
    its first ``n`` entries.

    For the top ``n`` of ``PARTITION_FROM`` or more candidates only those at
    or above the ``n``-th best key are sorted: ``np.partition`` finds that
    key, and a stable sort of the candidates, which keep their item order,
    settles the ties as a full sort would."""
    keys = -scores
    items = np.arange(keys.shape[0])
    if exclude:
        mask = np.ones(keys.shape[0], dtype=bool)
        mask[list(exclude)] = False
        items = np.flatnonzero(mask)
        keys = keys[items]
    if n is not None and n < keys.shape[0] and keys.shape[0] >= PARTITION_FROM:
        # "not above" keeps NaN keys (they sort last) and every key tied
        # with the n-th; with a NaN n-th key it keeps everything
        near = ~(keys > np.partition(keys, n - 1)[n - 1])
        items, keys = items[near], keys[near]
    return items[np.argsort(keys, kind="stable")][:n]
