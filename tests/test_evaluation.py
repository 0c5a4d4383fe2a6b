import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaerec.data import HeldoutUser, UserSequence
from vaerec.evaluation import (
    HISTORY_BUCKETS,
    PopularityRanker,
    batch_rank_fn,
    evaluate,
    ndcg_at_n,
    precision_at_n,
    recall_at_n,
)
from vaerec.models import ModelConfig, build_model
from vaerec.synthetic import burst_split, cycle_split


def brute_force_metrics(ranked, relevant, n):
    """Independent re-derivation: build the binary relevance vector over the
    first n list positions and sum the definitions directly."""
    rel = [1 if (i < len(ranked) and ranked[i] in relevant) else 0 for i in range(n)]
    dcg = sum(r / math.log2(i + 2) for i, r in enumerate(rel))
    idcg = sum(1.0 / math.log2(i + 2) for i in range(len(relevant)))
    hits = sum(rel)
    return dcg / idcg, hits / n, hits / len(relevant)


class TestNDCG:
    def test_hand_case(self):
        # relevance pattern [1, 0, 1] with two relevant items
        ranked = [10, 11, 12]
        relevant = {10, 12}
        value = ndcg_at_n(ranked, relevant, 3)
        dcg = 1.0 + 1.0 / math.log2(4)
        idcg = 1.0 + 1.0 / math.log2(3)
        assert abs(value - dcg / idcg) < 1e-15
        assert abs(value - 0.91972) < 1e-5

    def test_perfect_ranking(self):
        assert ndcg_at_n([1, 2, 3], {1, 2, 3}, 10) == 1.0

    def test_no_hits(self):
        assert ndcg_at_n([4, 5, 6], {1}, 3) == 0.0

    def test_uncapped_idcg_penalizes_large_relevant_sets(self):
        # perfect top-2 of a 5-item relevant set scores below 1 by default
        ranked = [0, 1]
        relevant = set(range(5))
        assert ndcg_at_n(ranked, relevant, 2) < 1.0
        assert ndcg_at_n(ranked, relevant, 2, idcg_cap_at_n=True) == 1.0

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at_n([1], set(), 1)


class TestPrecisionRecall:
    def test_precision(self):
        ranked = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert precision_at_n(ranked, {1, 5}, 10) == 0.2

    def test_precision_all_relevant(self):
        assert precision_at_n([1, 2], {1, 2}, 2) == 1.0

    def test_short_list_counts_misses(self):
        assert precision_at_n([1], {1}, 4) == 0.25

    def test_recall(self):
        assert recall_at_n([1, 2, 9, 9], {1, 2, 3, 4}, 4) == 0.5

    def test_recall_full_coverage(self):
        assert recall_at_n(list(range(20)), {3, 7}, 20) == 1.0

    def test_recall_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            recall_at_n([1], set(), 1)


class TestOracleEquivalence:
    def test_random_instances_match_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            catalog = int(rng.integers(20, 200))
            ranked = list(rng.permutation(catalog))
            n_rel = int(rng.integers(1, 15))
            relevant = set(int(x) for x in rng.choice(catalog, n_rel, replace=False))
            n = int(rng.integers(1, 30))
            expected = brute_force_metrics(ranked, relevant, n)
            got = (
                ndcg_at_n(ranked, relevant, n),
                precision_at_n(ranked, relevant, n),
                recall_at_n(ranked, relevant, n),
            )
            assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_swap_relevant_upward_never_hurts(self, data):
        catalog = data.draw(st.integers(6, 30))
        ranked = list(range(catalog))
        relevant = set(
            data.draw(
                st.lists(st.integers(0, catalog - 1), min_size=1, max_size=5, unique=True)
            )
        )
        n = data.draw(st.integers(1, catalog))
        pos = data.draw(st.integers(1, catalog - 1))
        if ranked[pos] not in relevant or ranked[pos - 1] in relevant:
            return
        swapped = list(ranked)
        swapped[pos - 1], swapped[pos] = swapped[pos], swapped[pos - 1]
        assert ndcg_at_n(swapped, relevant, n) >= ndcg_at_n(ranked, relevant, n)
        assert precision_at_n(swapped, relevant, n) >= precision_at_n(ranked, relevant, n)
        assert recall_at_n(swapped, relevant, n) >= recall_at_n(ranked, relevant, n)

    def test_invariant_below_cutoff(self):
        ranked = list(range(30))
        relevant = {2, 5}
        tail_permuted = ranked[:10] + ranked[10:][::-1]
        for n in (5, 10):
            assert ndcg_at_n(ranked, relevant, n) == ndcg_at_n(tail_permuted, relevant, n)


def reference_evaluate(rank_fn, heldout, n_values=(10, 100), idcg_cap_at_n=False):
    """The oracle: ``ndcg_at_n``, ``precision_at_n`` and ``recall_at_n`` per
    user, added into running sums in user_index order. Returns (metrics,
    each user's metrics)."""
    users = sorted(heldout, key=lambda u: u.user_index)
    names = []
    for n in n_values:
        names.extend([f"NDCG@{n}", f"Precision@{n}", f"Recall@{n}"])
    sums = {name: 0.0 for name in names}
    rows = []
    for user in users:
        ranked = rank_fn(list(user.fold_in), set(user.fold_in))
        relevant = frozenset(user.fold_out)
        row = {}
        for n in n_values:
            row[f"NDCG@{n}"] = ndcg_at_n(ranked, relevant, n, idcg_cap_at_n)
            row[f"Precision@{n}"] = precision_at_n(ranked, relevant, n)
            row[f"Recall@{n}"] = recall_at_n(ranked, relevant, n)
        for name in names:
            sums[name] += row[name]
        rows.append(row)
    count = len(users)
    metrics = {name: (sums[name] / count if count else 0.0) for name in names}
    return metrics, rows


def reference_history(rank_fn, heldout):
    """The oracle of the history-length series: one reference evaluation at
    n = 100 per bucket."""
    rows = []
    for lo, hi in HISTORY_BUCKETS:
        members = [u for u in heldout
                   if len(u.fold_in) >= lo and (hi is None or len(u.fold_in) <= hi)]
        value = reference_evaluate(rank_fn, members, (100,))[0]["NDCG@100"] if members else None
        rows.append({"low": lo, "high": hi, "users": len(members), "ndcg100": value})
    return rows


def history(rank_fn, heldout):
    """The history-length series of ``evaluate``."""
    return evaluate(rank_fn, heldout, n_values=(), by_history_length=True).history


def per_user(rank_fn, heldout, n_values=(10, 100), idcg_cap_at_n=False):
    """Each user's metrics, in user_index order, from an ``evaluate`` over
    that user alone: a mean over one user is its value, exactly."""
    return [evaluate(rank_fn, [user], n_values, idcg_cap_at_n).metrics
            for user in sorted(heldout, key=lambda u: u.user_index)]


def bits(value):
    """``value`` with every float spelled out in hex, so that == compares
    bytes (and tells 0.0 from -0.0)."""
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    if isinstance(value, list):
        return [bits(item) for item in value]
    if isinstance(value, float):
        return (type(value).__name__, value.hex())
    return (type(value).__name__, value)


@st.composite
def heldout_cases(draw):
    """Held-out users over a small catalog in any input order, and a ranking
    per fold-in that may stop short of the catalog (and of the cutoffs)."""
    n_items = draw(st.integers(1, 60))
    item = st.integers(0, n_items - 1)
    indices = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=12, unique=True))
    users, rankings = [], {}
    for index in indices:
        fold_in = tuple(draw(st.lists(item, min_size=1, max_size=5)))
        # up to 40 relevant items, often more than a cutoff
        fold_out = tuple(draw(st.lists(item, min_size=1, max_size=40)))
        users.append(HeldoutUser(index, fold_in, fold_out))
        if fold_in not in rankings:
            order = draw(st.permutations(range(n_items)))
            rankings[fold_in] = np.array(order[:draw(st.integers(0, n_items))], dtype=np.int64)
    return draw(st.permutations(users)), rankings


class TestPopularity:
    def test_count_order(self):
        train = [UserSequence(0, (0, 0, 0, 1)), UserSequence(1, (0, 2))]
        pop = PopularityRanker(train, 4)
        np.testing.assert_array_equal(pop.rank([], set()), [0, 1, 2, 3])

    def test_tie_breaks_by_index(self):
        train = [UserSequence(0, (3, 1))]
        pop = PopularityRanker(train, 5)
        np.testing.assert_array_equal(pop.rank([], set()), [1, 3, 0, 2, 4])

    def test_exclusion(self):
        train = [UserSequence(0, (0, 0, 1))]
        pop = PopularityRanker(train, 3)
        np.testing.assert_array_equal(pop.rank([0], {0}), [1, 2])


class OracleRanker:
    """Places a chosen item list on top, rest by index."""

    def __init__(self, n_items, top):
        self.n_items = n_items
        self.top = list(top)

    def rank(self, fold_in, exclude):
        rest = [i for i in range(self.n_items) if i not in exclude and i not in self.top]
        return np.array([i for i in self.top if i not in exclude] + rest)


class TestEvaluate:
    def test_oracle_model_maxes_metrics(self):
        user = HeldoutUser(0, fold_in=(0, 1), fold_out=(5, 6))
        ranker = OracleRanker(10, [5, 6])
        report = evaluate(ranker.rank, [user], n_values=(10,))
        assert report.metrics["NDCG@10"] == 1.0
        assert report.metrics["Recall@10"] == 1.0
        assert report.metrics["Precision@10"] == 0.2
        assert report.users == 1

    def test_random_ranking_recall_near_hypergeometric(self):
        rng = np.random.default_rng(4)
        users = []
        for u in range(200):
            fold_out = tuple(int(x) for x in rng.choice(np.arange(1, 1000), 10, replace=False))
            users.append(HeldoutUser(u, fold_in=(0,), fold_out=fold_out))

        def random_ranker(fold_in, exclude, _rng=np.random.default_rng(9)):
            order = _rng.permutation(1000)
            mask = np.ones(1000, dtype=bool)
            mask[list(exclude)] = False
            return order[mask[order]]

        report = evaluate(random_ranker, users, n_values=(100,))
        assert abs(report.metrics["Recall@100"] - 0.1) < 0.03

    def test_empty_fold_out_rejected(self):
        user = HeldoutUser(0, fold_in=(1,), fold_out=())
        with pytest.raises(ValueError, match="fold-out"):
            evaluate(OracleRanker(4, []).rank, [user])

    def test_order_independent_bitwise(self):
        rng = np.random.default_rng(8)
        users = [
            HeldoutUser(
                u,
                fold_in=tuple(int(x) for x in rng.choice(50, 3, replace=False)),
                fold_out=tuple(int(x) for x in rng.choice(50, 4, replace=False)),
            )
            for u in range(30)
        ]
        ranker = OracleRanker(50, [2, 4, 8])
        a = evaluate(ranker.rank, users)
        b = evaluate(ranker.rank, users[::-1])
        assert a.metrics == b.metrics

    def test_report_json_schema(self):
        user = HeldoutUser(0, fold_in=(0,), fold_out=(1,))
        report = evaluate(OracleRanker(4, [1]).rank, [user], n_values=(10, 100))
        report.model = "svae"
        report.config_digest = "abc123"
        import json

        payload = json.loads(report.to_json())
        assert set(payload) == {"model", "config_digest", "metrics", "users"}
        assert set(payload["metrics"]) == {
            "NDCG@10", "NDCG@100", "Precision@10", "Precision@100",
            "Recall@10", "Recall@100",
        }

    def test_history_length_buckets_shape(self):
        users = [
            HeldoutUser(0, fold_in=tuple(range(5)), fold_out=(40,)),
            HeldoutUser(1, fold_in=tuple(range(15)), fold_out=(41,)),
        ]
        rows = history(OracleRanker(50, [40, 41]).rank, users)
        assert len(rows) == 5
        assert rows[0]["users"] == 1 and rows[1]["users"] == 1
        assert rows[2]["users"] == 0 and rows[2]["ndcg100"] is None


SPLITS = {
    "cycle": lambda: cycle_split(n_items=20, n_train=40, n_val=10, n_test=12, length=10,
                                 seed=1),
    "burst": lambda: burst_split(n_items=20, n_train=40, n_val=10, n_test=12,
                                 blocks_per_user=4, seed=1),
}


def ranker_for(kind, split):
    """The popularity baseline, or a model at random parameters of a scale
    that makes its scores depend clearly on the fold-in."""
    if kind == "pop":
        return PopularityRanker(split.train, split.n_items)
    config = ModelConfig(
        latent_dim=3, item_embedding_dim=4, gru_hidden=4, encoder_widths=(5,),
        decoder_widths=(5,), rvae_embedding_dim=4, rvae_encoder_widths=(5,), seed=5,
    )
    model = build_model(kind, split.n_items, config, n_users=len(split.train))
    model.store.values[...] = np.random.default_rng(6).uniform(-1.0, 1.0, model.store.n_values())
    return model


class TestBatchedRanking:
    @pytest.mark.parametrize("split_name", sorted(SPLITS))
    @pytest.mark.parametrize("kind", ["mvae", "rvae", "svae", "pop"])
    def test_matches_per_user_ranking(self, kind, split_name):
        split = SPLITS[split_name]()
        ranker = ranker_for(kind, split)
        users = split.test
        if split_name == "cycle":
            # repeated fold-ins share one row of the batch
            assert len({u.fold_in for u in users}) < len(users)
        batched = batch_rank_fn(ranker, users)
        want = evaluate(ranker.rank, users, n_values=(1, 5, 10, 100))
        got = evaluate(batched, users, n_values=(1, 5, 10, 100))
        assert got.to_json() == want.to_json()
        assert per_user(batched, users, (1, 5, 10, 100)) == per_user(
            ranker.rank, users, (1, 5, 10, 100))
        if kind in ("mvae", "svae"):
            rankings = {tuple(ranker.rank(list(u.fold_in), set())) for u in users}
            assert len(rankings) > 1
        # the same scores serve the history-length series
        assert history(batched, users) == history(ranker.rank, users)
        for user in users:
            exclude = set(user.fold_in)
            np.testing.assert_array_equal(
                batched(list(user.fold_in), exclude), ranker.rank(list(user.fold_in), exclude))

    @pytest.mark.parametrize("split_name", sorted(SPLITS))
    @pytest.mark.parametrize("kind", ["mvae", "rvae", "svae", "pop"])
    def test_top_n_is_the_head_of_the_full_ranking(self, kind, split_name):
        split = SPLITS[split_name]()
        ranker = ranker_for(kind, split)
        users = split.test
        n_items = split.n_items
        for n in (1, 5, 100, n_items - 1, n_items, n_items + 5):
            top = batch_rank_fn(ranker, users, n)
            for user in users:
                exclude = set(user.fold_in)
                np.testing.assert_array_equal(
                    top(list(user.fold_in), exclude), ranker.rank(list(user.fold_in), exclude)[:n])
            # a report at cutoffs up to n reads only the head
            cutoffs = tuple(c for c in (1, 5, 10, 100) if c <= n)
            want = evaluate(ranker.rank, users, n_values=cutoffs)
            got = evaluate(top, users, n_values=cutoffs)
            assert got.to_json() == want.to_json()
            assert per_user(top, users, cutoffs) == per_user(ranker.rank, users, cutoffs)

    def test_scores_one_batch_on_first_use(self):
        split = SPLITS["burst"]()
        pop = PopularityRanker(split.train, split.n_items)
        batches = []
        score_batch = pop.score_batch

        def counting(fold_ins):
            batches.append(list(fold_ins))
            return score_batch(fold_ins)

        pop.score_batch = counting
        rank_fn = batch_rank_fn(pop, split.test)
        assert batches == []
        evaluate(rank_fn, split.test)
        history(rank_fn, split.test)
        assert batches == [[u.fold_in for u in split.test]]

    def test_unknown_fold_in_rejected(self):
        split = SPLITS["burst"]()
        pop = PopularityRanker(split.train, split.n_items)
        scored, other = split.test[:3], split.test[3]
        assert other.fold_in not in {u.fold_in for u in scored}
        rank_fn = batch_rank_fn(pop, scored)
        with pytest.raises(ValueError, match="not in the scored batch"):
            rank_fn(list(other.fold_in), set(other.fold_in))
        with pytest.raises(ValueError, match="not in the scored batch"):
            evaluate(rank_fn, split.test[:4])

    def test_popularity_batch_is_a_read_only_broadcast(self):
        pop = PopularityRanker([UserSequence(0, (2, 2, 0))], 4)
        scores = pop.score_batch([(1,), (3,), (0, 1)])
        assert scores.shape == (3, 4)
        assert not scores.flags.writeable
        assert np.shares_memory(scores[0], scores[2])
        np.testing.assert_array_equal(scores[2], [1.0, 0.0, 2.0, 0.0])


class TestOneHitMatrix:
    """``evaluate`` against ``reference_evaluate``, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(heldout_cases(),
           st.lists(st.integers(1, 80), min_size=1, max_size=4, unique=True),
           st.booleans())
    def test_matches_the_per_user_loop(self, case, cutoffs, cap):
        users, rankings = case

        def rank_fn(fold_in, exclude):
            return rankings[tuple(fold_in)]

        want, want_rows = reference_evaluate(rank_fn, users, cutoffs, cap)
        got = evaluate(rank_fn, users, cutoffs, cap, by_history_length=True)
        assert bits(got.metrics) == bits(want)
        assert got.users == len(users)
        assert bits(per_user(rank_fn, users, cutoffs, cap)) == bits(want_rows)
        # the series reads NDCG@100 over the full relevant set, whatever the cap
        assert bits(got.history) == bits(reference_history(rank_fn, users))

    @pytest.mark.parametrize("split_name", sorted(SPLITS))
    @pytest.mark.parametrize("kind", ["mvae", "svae", "pop"])
    @pytest.mark.parametrize("cap", [False, True])
    def test_unsorted_cutoffs_on_model_rankings(self, kind, split_name, cap):
        split = SPLITS[split_name]()
        ranker = ranker_for(kind, split)
        cutoffs = (5, 20, 10)
        want, want_rows = reference_evaluate(ranker.rank, split.test, cutoffs, cap)
        rank_fn = batch_rank_fn(ranker, split.test, 20)
        got = evaluate(rank_fn, split.test[::-1], cutoffs, cap)
        assert bits(got.metrics) == bits(want)
        assert bits(per_user(rank_fn, split.test, cutoffs, cap)) == bits(want_rows)

    def test_a_repeated_cutoff_is_scored_once(self):
        split = SPLITS["burst"]()
        pop = PopularityRanker(split.train, split.n_items)
        once = evaluate(pop.rank, split.test, n_values=(10,))
        twice = evaluate(pop.rank, split.test, n_values=(10, 10))
        assert twice.to_json() == once.to_json()
        assert per_user(pop.rank, split.test, (10, 10)) == per_user(pop.rank, split.test, (10,))
        assert once.metrics["Precision@10"] > 0.0

    def test_empty_heldout(self):
        report = evaluate(OracleRanker(4, []).rank, [], n_values=(10,), by_history_length=True)
        assert report.metrics == {"NDCG@10": 0.0, "Precision@10": 0.0, "Recall@10": 0.0}
        assert report.users == 0
        assert [row["users"] for row in report.history] == [0] * len(HISTORY_BUCKETS)
        assert all(row["ndcg100"] is None for row in report.history)

    def test_ids_of_any_sign_do_not_collide_across_rows(self):
        # user 0's relevant id equals user 1's ranked id; no row keys meet
        users = [HeldoutUser(0, (9,), (-3, 7)), HeldoutUser(1, (8,), (1,))]
        rankings = {(9,): np.array([1, -3]), (8,): np.array([-3, 7, 0])}

        def rank_fn(fold_in, exclude):
            return rankings[tuple(fold_in)]

        want, want_rows = reference_evaluate(rank_fn, users, (1, 2, 3))
        got = evaluate(rank_fn, users, (1, 2, 3))
        assert bits(got.metrics) == bits(want)
        assert bits(per_user(rank_fn, users, (1, 2, 3))) == bits(want_rows)

    @pytest.mark.parametrize("user, message", [
        (HeldoutUser(0, fold_in=(1,), fold_out=()), "user 0 has an empty fold-out set"),
        (HeldoutUser(3, fold_in=(), fold_out=(1,)), "user 3 has an empty fold-in"),
    ])
    def test_empty_user_sets_rejected(self, user, message):
        with pytest.raises(ValueError, match=message):
            evaluate(OracleRanker(4, []).rank, [user])

    def test_cutoff_below_one_rejected(self):
        user = HeldoutUser(0, fold_in=(0,), fold_out=(1,))
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            evaluate(OracleRanker(4, [1]).rank, [user], n_values=(10, 0))

    def test_history_reads_the_full_relevant_set_under_a_cap(self):
        # 150 relevant items: NDCG@100 differs between the two conventions
        rng = np.random.default_rng(3)
        users = [HeldoutUser(u, fold_in=(u,), fold_out=tuple(range(10, 160)))
                 for u in range(3)]
        order = {(u,): rng.permutation(300) for u in range(3)}

        def rank_fn(fold_in, exclude):
            return order[tuple(fold_in)]

        got = evaluate(rank_fn, users, (100,), idcg_cap_at_n=True, by_history_length=True)
        want = reference_history(rank_fn, users)
        assert bits(got.history) == bits(want)
        assert want[0]["ndcg100"] != got.metrics["NDCG@100"]

    def test_discounts_deep_in_the_list_follow_math_log2(self):
        # 1 / np.log2(p + 2) differs from 1 / math.log2(p + 2) in its last
        # bit at list positions 1619 and 3240, among others
        users = [HeldoutUser(0, fold_in=(4000,), fold_out=(1619, 3240)),
                 HeldoutUser(1, fold_in=(4001,), fold_out=tuple(range(1700)))]

        def rank_fn(fold_in, exclude):
            return np.arange(4000)

        for cap in (False, True):
            want, want_rows = reference_evaluate(rank_fn, users, (4000,), cap)
            got = evaluate(rank_fn, users, (4000,), cap)
            assert bits(got.metrics) == bits(want)
            assert bits(per_user(rank_fn, users, (4000,), cap)) == bits(want_rows)
