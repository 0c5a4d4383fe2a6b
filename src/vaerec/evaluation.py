"""Ranking metrics and the fold-in / fold-out evaluation driver.

Relevance is binary: the fold-out items of a held-out user. The ideal DCG
denominator runs over the full relevant set (so with more relevant items
than list positions, a perfect top-n scores below 1); capping it at n is
available behind a flag for cross-convention comparisons.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable, Sequence

import numpy as np

from vaerec.data import HeldoutUser, UserSequence
from vaerec.models import components


def ndcg_at_n(ranked: Sequence[int], relevant: AbstractSet[int], n: int,
              idcg_cap_at_n: bool = False) -> float:
    """Discounted cumulative gain of the top n, normalized by the ideal."""
    if not relevant:
        raise ValueError("ndcg needs a nonempty relevant set")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    dcg = 0.0
    for pos, item in enumerate(ranked[:n]):
        if item in relevant:
            dcg += 1.0 / math.log2(pos + 2)
    ideal_terms = min(len(relevant), n) if idcg_cap_at_n else len(relevant)
    idcg = 0.0
    for pos in range(ideal_terms):
        idcg += 1.0 / math.log2(pos + 2)
    return dcg / idcg


def precision_at_n(ranked: Sequence[int], relevant: AbstractSet[int], n: int) -> float:
    """Hits in the top n over n; short lists count missing slots as misses."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    hits = sum(1 for item in ranked[:n] if item in relevant)
    return hits / n


def recall_at_n(ranked: Sequence[int], relevant: AbstractSet[int], n: int) -> float:
    """Hits in the top n over the size of the relevant set."""
    if not relevant:
        raise ValueError("recall needs a nonempty relevant set")
    hits = sum(1 for item in ranked[:n] if item in relevant)
    return hits / len(relevant)


class PopularityRanker:
    """Ranks by training-set interaction counts, identical for every user up
    to the per-user exclusions. Ties order by item index."""

    kind = "pop"

    def __init__(self, train: Iterable[UserSequence], n_items: int):
        self.n_items = n_items
        counts = np.zeros(n_items)
        for seq in train:
            for item in seq.items:
                counts[item] += 1.0
        self._counts = counts

    def score_batch(self, fold_ins: Sequence[Sequence[int]]) -> np.ndarray:
        """[U, N] scores: the counts broadcast to every fold-in (a read-only
        view, no copy)."""
        return np.broadcast_to(self._counts, (len(fold_ins), self.n_items))

    def rank(self, fold_in: Sequence[int], exclude: AbstractSet[int]) -> np.ndarray:
        return components.rank_items(self._counts, exclude)


@dataclass
class EvalReport:
    metrics: dict[str, float]
    users: int
    model: str = ""
    config_digest: str = ""
    history: list[dict] | None = None

    def to_json(self) -> str:
        payload = {
            "model": self.model,
            "config_digest": self.config_digest,
            "metrics": self.metrics,
            "users": self.users,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@functools.lru_cache(maxsize=8)
def _discounts(length: int) -> tuple[np.ndarray, np.ndarray]:
    """``1 / log2(pos + 2)`` for the first ``length`` list positions, each
    from ``math.log2`` as ``ndcg_at_n`` takes it, and the table's running
    sum, where the ideal DCG of k relevant items sits at k - 1. Both are
    cached, so both are read-only."""
    table = np.array([1.0 / math.log2(pos + 2) for pos in range(length)])
    running = np.cumsum(table)
    table.flags.writeable = running.flags.writeable = False
    return table, running


def _hit_matrix(
    rankings: Sequence[np.ndarray], fold_outs: Sequence[Sequence[int]], width: int
) -> tuple[np.ndarray, np.ndarray]:
    """[U, width] booleans, whether position p of ranking u holds an item of
    ``fold_outs[u]`` (positions past the end of a short ranking are misses),
    and the number of distinct items in each fold-out."""
    heads = [ranked[:width] for ranked in rankings]
    lengths = np.array([head.shape[0] for head in heads])
    ids = np.concatenate(heads).astype(np.int64, copy=False)
    fold_out_lengths = [len(fold_out) for fold_out in fold_outs]
    rel_ids = np.fromiter(itertools.chain.from_iterable(fold_outs), np.int64,
                          sum(fold_out_lengths))
    # one membership test, keyed by (row, item): a [U, span] table whose
    # width spans every ranked and relevant id, taken from the least one,
    # so the ids of two rows never meet. With ids below the catalog size it
    # holds an eighth of the bytes of the [U, N] float scores it ranks.
    low = min(ids.min(initial=0), rel_ids.min())
    span = max(ids.max(initial=0), rel_ids.max()) - low + 1
    rows = np.arange(len(heads))
    member = np.zeros((len(heads), span), dtype=bool)
    member[np.repeat(rows, fold_out_lengths), rel_ids - low] = True
    hit = np.zeros((len(heads), width), dtype=bool)
    hit[np.arange(width) < lengths[:, None]] = member[np.repeat(rows, lengths), ids - low]
    return hit, np.count_nonzero(member, axis=1)


HISTORY_BUCKETS = ((1, 10), (11, 20), (21, 40), (41, 80), (81, None))


def evaluate(
    rank_fn: Callable[[Sequence[int], AbstractSet[int]], np.ndarray],
    heldout: Sequence[HeldoutUser],
    n_values: Sequence[int] = (10, 100),
    idcg_cap_at_n: bool = False,
    by_history_length: bool = False,
) -> EvalReport:
    """Score every held-out user's ranking against its fold-out set.

    Each user is ranked once, in user_index order regardless of input order.
    Every metric then comes from one hit matrix over the first max(n)
    positions of all rankings: DCG and hit counts are row-wise running sums
    over it, IDCG is the running sum of the discount table, and each mean
    is a fixed-order fold over users. The values are those of
    ``ndcg_at_n``, ``precision_at_n`` and ``recall_at_n``, added in the same
    order, so the report is bit-reproducible. A repeated cutoff is scored
    once. With ``by_history_length`` the report's ``history`` holds one row
    per ``HISTORY_BUCKETS`` fold-in-length bucket: its users and their mean
    NDCG@100, read from the same rankings.
    """
    cutoffs = tuple(dict.fromkeys(n_values))
    for n in cutoffs:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
    users = sorted(heldout, key=lambda u: u.user_index)
    rankings = []
    for user in users:
        if not user.fold_out:
            raise ValueError(f"user {user.user_index} has an empty fold-out set")
        if not user.fold_in:
            raise ValueError(f"user {user.user_index} has an empty fold-in")
        rankings.append(np.asarray(rank_fn(list(user.fold_in), set(user.fold_in))))
    names = [f"{metric}@{n}" for n in cutoffs for metric in ("NDCG", "Precision", "Recall")]
    count = len(users)
    report = EvalReport(metrics={name: 0.0 for name in names}, users=count)
    ndcg100 = np.zeros(0)
    if count:
        width = max(cutoffs + ((100,) if by_history_length else ()), default=0)
        hit, sizes = _hit_matrix(rankings, [user.fold_out for user in users], width)
        discounts, ideal = _discounts(max(width, int(sizes.max())))
        dcg = np.cumsum(np.where(hit, discounts[:width], 0.0), axis=1)
        hits = np.cumsum(hit, axis=1)
        at = np.array(cutoffs, dtype=np.int64)
        terms = np.minimum(sizes[:, None], at) if idcg_cap_at_n else sizes[:, None]
        # NDCG, Precision and Recall of each cutoff in turn: [U, 3 * cutoffs]
        values = np.stack([dcg[:, at - 1] / ideal[terms - 1], hits[:, at - 1] / at,
                           hits[:, at - 1] / sizes[:, None]], axis=2).reshape(count, -1)
        report.metrics = dict(zip(names, (np.cumsum(values, axis=0)[-1] / count).tolist()))
        if by_history_length:
            # over the full relevant set, whatever the report's convention
            ndcg100 = dcg[:, 99] / ideal[sizes - 1]
    if by_history_length:
        lengths = np.array([len(user.fold_in) for user in users], dtype=np.int64)
        report.history = []
        for lo, hi in HISTORY_BUCKETS:
            member = lengths >= lo
            if hi is not None:
                member &= lengths <= hi
            total = np.cumsum(ndcg100[member])  # a left-to-right sum
            report.history.append({
                "low": lo, "high": hi, "users": total.shape[0],
                "ndcg100": float(total[-1] / total.shape[0]) if total.shape[0] else None,
            })
    return report


def batch_rank_fn(
    ranker, heldout: Sequence[HeldoutUser], n: int | None = None
) -> Callable[[Sequence[int], AbstractSet[int]], np.ndarray]:
    """A ``rank_fn`` for ``evaluate`` that ranks the users of ``heldout``
    from one ``ranker.score_batch`` call over their fold-ins.

    The batch is scored on the first call, so inside the evaluation that
    uses it, and later calls (such as a second ``evaluate`` over the same
    users) reuse those scores. Each call finds its row by the fold-in
    and ranks it with ``rank_items``; a fold-in that is not in ``heldout``
    raises ValueError. Given ``n``, each ranking is the first ``n`` items of
    the full one, which is all that metrics at cutoffs up to ``n`` read.
    """
    fold_ins = list(dict.fromkeys(tuple(u.fold_in) for u in heldout))
    rows = {fold_in: row for row, fold_in in enumerate(fold_ins)}
    scores = None

    def rank(fold_in: Sequence[int], exclude: AbstractSet[int]) -> np.ndarray:
        nonlocal scores
        row = rows.get(tuple(fold_in))
        if row is None:
            raise ValueError(f"fold-in {list(fold_in)} is not in the scored batch")
        if scores is None:
            scores = ranker.score_batch(fold_ins)
        return components.rank_items(scores[row], exclude, n)

    return rank
