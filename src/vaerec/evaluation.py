"""Ranking metrics and the fold-in / fold-out evaluation driver.

Relevance is binary: the fold-out items of a held-out user. The ideal DCG
denominator runs over the full relevant set (so with more relevant items
than list positions, a perfect top-n scores below 1); capping it at n is
available behind a flag for cross-convention comparisons.
"""

from __future__ import annotations

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

    def scores(self, fold_in: Sequence[int]) -> np.ndarray:
        return self._counts

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
    per_user: list[dict] | None = None

    def to_json(self) -> str:
        payload = {
            "model": self.model,
            "config_digest": self.config_digest,
            "metrics": self.metrics,
            "users": self.users,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def evaluate(
    rank_fn: Callable[[Sequence[int], AbstractSet[int]], np.ndarray],
    heldout: Sequence[HeldoutUser],
    n_values: Sequence[int] = (10, 100),
    idcg_cap_at_n: bool = False,
    keep_per_user: bool = False,
) -> EvalReport:
    """Score every held-out user's ranking against its fold-out set.

    Users are visited in user_index order regardless of input order, and the
    final means are fixed-order folds, so the report is bit-reproducible.
    """
    users = sorted(heldout, key=lambda u: u.user_index)
    names = []
    for n in n_values:
        names.extend([f"NDCG@{n}", f"Precision@{n}", f"Recall@{n}"])
    sums = {name: 0.0 for name in names}
    per_user = [] if keep_per_user else None
    for user in users:
        if not user.fold_out:
            raise ValueError(f"user {user.user_index} has an empty fold-out set")
        if not user.fold_in:
            raise ValueError(f"user {user.user_index} has an empty fold-in")
        ranked = rank_fn(list(user.fold_in), set(user.fold_in))
        relevant = user.fold_out_set
        row = {"user_index": user.user_index, "fold_in_length": len(user.fold_in)}
        for n in n_values:
            row[f"NDCG@{n}"] = ndcg_at_n(ranked, relevant, n, idcg_cap_at_n)
            row[f"Precision@{n}"] = precision_at_n(ranked, relevant, n)
            row[f"Recall@{n}"] = recall_at_n(ranked, relevant, n)
        for name in names:
            sums[name] += row[name]
        if per_user is not None:
            per_user.append(row)
    count = len(users)
    metrics = {name: (sums[name] / count if count else 0.0) for name in names}
    return EvalReport(metrics=metrics, users=count, per_user=per_user)


def batch_rank_fn(
    ranker, heldout: Sequence[HeldoutUser], n: int | None = None
) -> Callable[[Sequence[int], AbstractSet[int]], np.ndarray]:
    """A ``rank_fn`` for ``evaluate`` that ranks the users of ``heldout``
    from one ``ranker.score_batch`` call over their fold-ins.

    The batch is scored on the first call, so inside the evaluation that
    uses it, and later calls (such as ``ndcg_by_history_length`` over the
    same users) reuse those scores. Each call finds its row by the fold-in
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


HISTORY_BUCKETS = ((1, 10), (11, 20), (21, 40), (41, 80), (81, None))


def ndcg_by_history_length(
    rank_fn: Callable[[Sequence[int], AbstractSet[int]], np.ndarray],
    heldout: Sequence[HeldoutUser],
) -> list[dict]:
    """Mean NDCG@100 per ``HISTORY_BUCKETS`` fold-in-length bucket, one row
    per bucket."""
    rows = []
    for lo, hi in HISTORY_BUCKETS:
        members = [
            u for u in heldout
            if len(u.fold_in) >= lo and (hi is None or len(u.fold_in) <= hi)
        ]
        if members:
            report = evaluate(rank_fn, members, n_values=(100,))
            value = report.metrics["NDCG@100"]
        else:
            value = None
        rows.append(
            {"low": lo, "high": hi, "users": len(members), "ndcg100": value}
        )
    return rows
