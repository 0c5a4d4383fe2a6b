"""Seeded input generators and the sizes of each benchmark workload.

Every workload is a ratings log written in the same delimited form the
`prepare` command reads, so the whole user path (prepare, train, eval,
recommend) runs on each one. The workloads differ in the shape of that log
and in the model configuration, which moves the cost between layers:

- ``svae-long``: long successor walks over a small catalog at the scaled
  configuration, so time goes to the GRU recurrence and the tape.
- ``catalog-wide``: short histories over a 3000-item catalog at the
  reference configuration, so time goes to the catalog projection, the
  embedding scatter and Adam over ~1.5M parameters.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

# the field separator of the written logs, passed to ``prepare``
DELIMITER = ","
# Fixes the order of the per-user size profiles and of the catalog's
# popularity. The seed draws what each user rates, not how much, nor which
# items are popular: every seed gives the same amount of work, so the spread
# between seeds is the program's, not the inputs'.
PROFILE_SEED = 0x1E57


@dataclass(frozen=True)
class Workload:
    name: str
    log: Callable  # generator of (user, items, ratings, timestamps) rows
    log_args: dict
    config: dict  # ModelConfig overrides shared by the three model kinds
    train_users: int  # training slice of each round's train() calls
    val_users: int  # validation slice used by per-epoch validation
    quality_users: int  # training slice of the train() that gives val_ndcg100
    quality_epochs: int  # epochs of that train()
    requests_per_round: int  # recommend requests per round
    quality_gate: bool = False  # svae must beat popularity on validation


def _timestamps(rng: np.random.Generator, n: int) -> np.ndarray:
    return 956703932 + np.cumsum(rng.integers(1, 4000, size=n))


def _profile(values: np.ndarray) -> np.ndarray:
    """``values`` in an order fixed by PROFILE_SEED, whatever the seed."""
    return np.random.default_rng(PROFILE_SEED).permutation(values)


def lognormal_profile(n: int, median: float, sigma: float) -> np.ndarray:
    """The log-normal's values at n evenly spaced quantiles: the sizes that n
    draws would have on average, with no draw-to-draw spread."""
    normal = statistics.NormalDist()
    z = np.array([normal.inv_cdf((i + 0.5) / n) for i in range(n)])
    return _profile(median * np.exp(sigma * z))


def successor_walks(rng, n_users, n_items, median_length, max_length, sigma, min_length=10):
    """Walks i -> i+1 (mod n_items) from a random start, every rating kept,
    with log-normal lengths: the median is ``median_length`` and the tail is
    clipped at ``max_length``."""
    lengths = np.clip(np.round(lognormal_profile(n_users, median_length, sigma)),
                      min_length, max_length).astype(np.int64)
    rows = []
    for user, length in enumerate(lengths):
        items = (int(rng.integers(n_items)) + np.arange(length)) % n_items
        rows.append((user, items, rng.integers(4, 6, size=length), _timestamps(rng, length)))
    return rows


def short_histories(rng, n_users, n_items, min_kept, max_kept, zipf, head,
                    dropped_share=0.1):
    """Bags of ``min_kept``..``max_kept`` kept items per user (evenly spread),
    drawn with popularity 1 / (rank + head) ** zipf, plus a tenth as many low
    ratings that binarization drops. The last users each rate one
    ``max_kept`` block of a shuffled catalog, so every item is in the
    prepared vocabulary."""
    pop = _profile(1.0 / (np.arange(1, n_items + 1) + head) ** zipf)
    pop /= pop.sum()
    sweep = rng.permutation(n_items)
    n_sweep = -(-n_items // max_kept)
    kept_sizes = _profile(min_kept + np.arange(n_users) * (max_kept - min_kept + 1) // n_users)
    rows = []
    for user in range(n_users):
        if user >= n_users - n_sweep:
            start = (user - n_users + n_sweep) * max_kept
            block = sweep[start : start + max_kept]
            rows.append((user, block, rng.integers(4, 6, size=len(block)),
                         _timestamps(rng, len(block))))
            continue
        kept = int(kept_sizes[user])
        dropped = int(round(kept * dropped_share))
        items = rng.choice(n_items, size=kept + dropped, replace=False, p=pop)
        ratings = np.concatenate([rng.integers(4, 6, size=kept), rng.integers(1, 4, size=dropped)])
        order = rng.permutation(kept + dropped)
        rows.append((user, items, ratings[order], _timestamps(rng, kept + dropped)))
    return rows


def write_log(path: str, rows, delimiter: str = DELIMITER) -> None:
    """Write (user, item, rating, timestamp) lines. User ids are
    zero-padded, so the program's user order is generation order."""
    lines = []
    for user, items, ratings, stamps in rows:
        lines.extend(
            f"{user + 1:06d}{delimiter}{item + 1}{delimiter}{rating}{delimiter}{stamp}\n"
            for item, rating, stamp in zip(items.tolist(), ratings.tolist(), stamps.tolist())
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def generate_log(workload: Workload, seed: int, path: str) -> None:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    write_log(path, workload.log(rng, **workload.log_args))


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="svae-long",
            log=successor_walks,
            # walks stay shorter than the catalog: rvae's negative sampler
            # never returns for a user who has consumed every item
            log_args=dict(n_users=600, n_items=200, median_length=60, max_length=190,
                          sigma=0.7),
            # the acceptance suite's scaled widths; the faster optimizer
            # settings let a few short epochs clear the popularity baseline
            config=dict(latent_dim=16, item_embedding_dim=32, gru_hidden=32,
                        encoder_widths=(32,), decoder_widths=(32,),
                        learning_rate=3e-2, kl_weight=0.1),
            train_users=8, val_users=8,
            quality_users=8, quality_epochs=12,
            requests_per_round=24,
            quality_gate=True,
        ),
        Workload(
            name="catalog-wide",
            log=short_histories,
            # a flat head keeps validation NDCG from hinging on one item
            log_args=dict(n_users=1000, n_items=3000, min_kept=5, max_kept=20,
                          zipf=1.4, head=10),
            # reference architecture; a faster learning rate takes svae past
            # its initial ranking within a few epochs, so validation is steady
            config=dict(learning_rate=1e-2),
            train_users=3, val_users=3,
            quality_users=32, quality_epochs=1,
            requests_per_round=12,
        ),
    )
}
