import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaerec.data import (
    ImplicitEvent,
    InteractionRecord,
    ParseError,
    PipelineConfig,
    UserSequence,
    binarize,
    build_sequences,
    filter_min_history,
    fold_split,
    ingest,
    load_split,
    run_pipeline,
    save_split,
    split_users,
    stratified_subsample,
)


def write_ratings(path, rows, delimiter=","):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(delimiter.join(str(x) for x in row) + "\n")


class TestIngest:
    def test_basic_row(self, tmp_path):
        p = tmp_path / "r.csv"
        write_ratings(p, [("1", "32", "4", "978300019")])
        (rec,) = ingest(p)
        assert rec == InteractionRecord("1", "32", 4.0, 978300019)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("")
        assert ingest(p) == []

    def test_bad_rating_reports_line(self, tmp_path):
        p = tmp_path / "r.csv"
        write_ratings(p, [("1", "2", "5", "10"), ("1", "3", "x", "11")])
        with pytest.raises(ParseError, match="line 2"):
            ingest(p)

    def test_double_colon_delimiter(self, tmp_path):
        p = tmp_path / "r.dat"
        write_ratings(p, [("7", "9", "5", "3")], delimiter="::")
        (rec,) = ingest(p, delimiter="::")
        assert rec.user_id == "7" and rec.item_id == "9"

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            ingest(tmp_path / "nope.csv")


class TestBinarize:
    @pytest.mark.parametrize("rating,kept", [(4, True), (3, False), (5, True), (3.5, True)])
    def test_strict_threshold(self, rating, kept):
        recs = [InteractionRecord("u", "i", rating, 0)]
        out = binarize(recs)
        assert (len(out) == 1) is kept

    def test_rating_dropped(self):
        (ev,) = binarize([InteractionRecord("u", "i", 5, 42)])
        assert ev == ImplicitEvent("u", "i", 42)


class TestBuildSequences:
    def test_sorted_by_time(self):
        events = [ImplicitEvent("a", "i2", 5), ImplicitEvent("a", "i1", 3)]
        seqs, vocab = build_sequences(events)
        (seq,) = seqs
        assert [vocab.to_raw(i) for i in seq.items] == ["i1", "i2"]

    def test_duplicate_pair_keeps_earliest(self):
        events = [
            ImplicitEvent("a", "x", 9),
            ImplicitEvent("a", "x", 2),
            ImplicitEvent("a", "y", 5),
        ]
        (seq,), vocab = build_sequences(events)
        assert [vocab.to_raw(i) for i in seq.items] == ["x", "y"]

    def test_timestamp_tie_breaks_on_raw_id(self):
        events = [ImplicitEvent("a", "zz", 7), ImplicitEvent("a", "aa", 7)]
        (seq,), vocab = build_sequences(events)
        assert [vocab.to_raw(i) for i in seq.items] == ["aa", "zz"]

    def test_single_interaction_user(self):
        seqs, _ = build_sequences([ImplicitEvent("solo", "i", 0)])
        assert len(seqs) == 1 and len(seqs[0]) == 1

    def test_vocabulary_roundtrip(self):
        events = [ImplicitEvent("a", f"i{k}", k) for k in range(6)]
        _, vocab = build_sequences(events)
        for raw in [f"i{k}" for k in range(6)]:
            assert vocab.to_raw(vocab.to_index(raw)) == raw


class TestFilter:
    def test_boundary(self):
        seqs = [
            UserSequence(0, tuple(range(4))),
            UserSequence(1, tuple(range(5))),
        ]
        kept = filter_min_history(seqs)
        assert [s.user_index for s in kept] == [1]

    def test_empty(self):
        assert filter_min_history([]) == []


class TestSplitUsers:
    def test_exact_proportions(self):
        seqs = [UserSequence(i, (0, 1, 2, 3, 4)) for i in range(10)]
        train, val, test = split_users(seqs, (0.8, 0.1, 0.1), seed=1)
        assert (len(train), len(val), len(test)) == (8, 1, 1)
        all_idx = sorted(s.user_index for s in train + val + test)
        assert all_idx == list(range(10))

    def test_deterministic(self):
        seqs = [UserSequence(i, (0,)) for i in range(30)]
        a = split_users(seqs, (0.8, 0.1, 0.1), seed=7)
        b = split_users(seqs, (0.8, 0.1, 0.1), seed=7)
        assert a == b

    def test_bad_fractions(self):
        with pytest.raises(ValueError, match="sum to 1"):
            split_users([], (0.5, 0.5, 0.2), seed=0)
        with pytest.raises(ValueError, match="positive"):
            split_users([], (1.0, 0.0, 0.0), seed=0)


class TestFoldSplit:
    @pytest.mark.parametrize("n,expected_in", [(10, 8), (5, 4), (2, 1)])
    def test_cut_points(self, n, expected_in):
        fold_in, fold_out = fold_split(tuple(range(n)))
        assert len(fold_in) == expected_in
        assert len(fold_out) == n - expected_in

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            fold_split((1,))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 100), min_size=2, max_size=60),
        st.floats(0.01, 0.99),
    )
    def test_both_sides_nonempty_and_concat(self, items, ratio):
        fold_in, fold_out = fold_split(items, ratio)
        assert len(fold_in) >= 1 and len(fold_out) >= 1
        assert list(fold_in) + list(fold_out) == items


class TestSubsample:
    def make_population(self, sizes, lengths):
        seqs = []
        idx = 0
        for size, length in zip(sizes, lengths):
            for _ in range(size):
                seqs.append(UserSequence(idx, tuple(range(length))))
                idx += 1
        return seqs

    def test_inverse_proportional_with_cap(self):
        # strata of sizes 90 (short) and 10 (long): 1/size weights give
        # (2, 18); the 18 is capped at 10 and the excess returns to the
        # large stratum -> (10, 10)
        seqs = self.make_population([90, 10], [6, 20])
        out = stratified_subsample(seqs, target=20, seed=0, strata_edges=[8])
        short = sum(1 for s in out if len(s) <= 8)
        long = sum(1 for s in out if len(s) > 8)
        assert (short, long) == (10, 10)

    def test_target_equals_population(self):
        seqs = self.make_population([5, 5], [6, 20])
        out = stratified_subsample(seqs, target=10, seed=0, strata_edges=[8])
        assert out == sorted(seqs, key=lambda s: s.user_index)

    def test_single_stratum_uniform(self):
        seqs = self.make_population([40], [6])
        out = stratified_subsample(seqs, target=12, seed=3, strata_edges=[100])
        assert len(out) == 12
        assert set(s.user_index for s in out) <= set(range(40))

    def test_target_too_large(self):
        seqs = self.make_population([4], [6])
        with pytest.raises(ValueError, match="exceeds"):
            stratified_subsample(seqs, target=5, seed=0)

    def test_subset_and_per_stratum_cap(self):
        rng = np.random.default_rng(5)
        seqs = [UserSequence(i, tuple(range(rng.integers(5, 60)))) for i in range(80)]
        out = stratified_subsample(seqs, target=30, seed=1)
        assert len(out) == 30
        assert set(s.user_index for s in out) <= set(s.user_index for s in seqs)

    def test_deterministic(self):
        seqs = self.make_population([50, 20, 5], [6, 12, 40])
        a = stratified_subsample(seqs, 25, seed=9)
        b = stratified_subsample(seqs, 25, seed=9)
        assert a == b


def synthetic_ratings(path, n_users=40, seed=0):
    """Small ratings log with enough structure for pipeline tests."""
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(n_users):
        n = rng.integers(6, 14)
        items = rng.choice(60, size=n, replace=False)
        t0 = int(rng.integers(0, 1000))
        for k, item in enumerate(items):
            rating = int(rng.integers(1, 6))
            rows.append((f"u{u}", f"m{item}", rating, t0 + k))
    write_ratings(path, rows)


class TestPipeline:
    def test_full_pipeline_properties(self, tmp_path):
        p = tmp_path / "ratings.csv"
        synthetic_ratings(p, n_users=60, seed=2)
        split = run_pipeline(p, PipelineConfig(seed=4))
        for seq in split.train:
            assert len(seq) >= 5
        for user in split.validation + split.test:
            assert len(user.fold_in) >= 1 and len(user.fold_out) >= 1
            assert len(user.fold_in) + len(user.fold_out) >= 5
        train_ids = {s.user_index for s in split.train}
        val_ids = {u.user_index for u in split.validation}
        test_ids = {u.user_index for u in split.test}
        assert not (train_ids & val_ids or train_ids & test_ids or val_ids & test_ids)

    def test_temporal_concat_property(self, tmp_path):
        p = tmp_path / "ratings.csv"
        synthetic_ratings(p, n_users=50, seed=3)
        cfg = PipelineConfig(seed=1)
        records = ingest(p)
        events = binarize(records, cfg.binarize_threshold)
        sequences, _ = build_sequences(events)
        by_index = {s.user_index: s for s in sequences}
        split = run_pipeline(p, cfg)
        for user in split.validation + split.test:
            full = by_index[user.user_index].items
            assert user.fold_in + user.fold_out == full

    def test_empty_after_binarization(self, tmp_path):
        p = tmp_path / "ratings.csv"
        write_ratings(p, [("1", "2", "1", "5"), ("1", "3", "2", "6")])
        with pytest.raises(ValueError, match="no interactions after binarization"):
            run_pipeline(p, PipelineConfig())

    def test_byte_identical_runs(self, tmp_path):
        p = tmp_path / "ratings.csv"
        synthetic_ratings(p, n_users=40, seed=5)
        cfg = PipelineConfig(seed=11, subsample_users=10)
        digests = []
        for run in ("a", "b"):
            out = tmp_path / run
            split = run_pipeline(p, cfg)
            save_split(split, out, cfg.to_dict(), cfg.seed)
            blob = b"".join(
                (out / name).read_bytes()
                for name in sorted(os.listdir(out))
            )
            digests.append(blob)
        assert digests[0] == digests[1]

    def test_save_load_roundtrip(self, tmp_path):
        p = tmp_path / "ratings.csv"
        synthetic_ratings(p, n_users=45, seed=6)
        cfg = PipelineConfig(seed=2)
        split = run_pipeline(p, cfg)
        out = tmp_path / "split"
        save_split(split, out, cfg.to_dict(), cfg.seed)
        loaded, manifest = load_split(out)
        assert manifest["vocabulary_digest"] == split.vocabulary.digest()
        assert loaded.train == split.train
        assert loaded.validation == split.validation
        assert loaded.test == split.test
        assert loaded.vocabulary.raw_ids() == split.vocabulary.raw_ids()

    def test_vocabulary_out_of_order_names_line(self, tmp_path):
        p = tmp_path / "ratings.csv"
        synthetic_ratings(p, n_users=30, seed=7)
        cfg = PipelineConfig(seed=3)
        out = tmp_path / "split"
        save_split(run_pipeline(p, cfg), out, cfg.to_dict(), cfg.seed)
        vocab = out / "vocabulary.tsv"
        lines = vocab.read_text().splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        vocab.write_text("".join(lines))
        with pytest.raises(ParseError, match="line 2: vocabulary index 2 out of order"):
            load_split(out)

    def saved_split(self, tmp_path):
        p = tmp_path / "ratings.csv"
        synthetic_ratings(p, n_users=30, seed=7)
        cfg = PipelineConfig(seed=3)
        out = tmp_path / "split"
        save_split(run_pipeline(p, cfg), out, cfg.to_dict(), cfg.seed)
        return out

    def edit_line(self, path, line_no, edit):
        lines = path.read_text().splitlines(keepends=True)
        lines[line_no - 1] = edit(lines[line_no - 1].rstrip("\n")) + "\n"
        path.write_text("".join(lines))

    @pytest.mark.parametrize("edit", [
        lambda line: line.replace("\t", " "),
        lambda line: line + "\textra",
    ], ids=["no-tab", "two-tabs"])
    def test_vocabulary_line_without_one_tab_names_file_and_line(self, tmp_path, edit):
        out = self.saved_split(tmp_path)
        self.edit_line(out / "vocabulary.tsv", 3, edit)
        with pytest.raises(ParseError, match=r"vocabulary\.tsv: line 3: expected raw id"):
            load_split(out)

    def test_vocabulary_non_integer_index_names_file_and_line(self, tmp_path):
        out = self.saved_split(tmp_path)
        self.edit_line(out / "vocabulary.tsv", 2, lambda line: line.split("\t")[0] + "\tone")
        with pytest.raises(ParseError,
                           match=r"vocabulary\.tsv: line 2: bad vocabulary index 'one'"):
            load_split(out)

    @pytest.mark.parametrize("name", ["train", "validation", "test"])
    def test_malformed_user_field_names_file_and_line(self, tmp_path, name):
        out = self.saved_split(tmp_path)
        self.edit_line(out / f"{name}.tsv", 1, lambda line: "u" + line)
        with pytest.raises(ParseError, match=rf"{name}\.tsv: line 1: bad user index"):
            load_split(out)

    @pytest.mark.parametrize("name", ["train", "validation", "test"])
    def test_malformed_item_field_names_file_and_line(self, tmp_path, name):
        out = self.saved_split(tmp_path)
        self.edit_line(out / f"{name}.tsv", 1, lambda line: line + ",x7")
        with pytest.raises(ParseError, match=rf"{name}\.tsv: line 1: bad item list"):
            load_split(out)

    def test_sequence_line_without_one_tab_names_file_and_line(self, tmp_path):
        out = self.saved_split(tmp_path)
        self.edit_line(out / "train.tsv", 2, lambda line: line.replace("\t", ","))
        with pytest.raises(ParseError, match=r"train\.tsv: line 2: expected user<TAB>items"):
            load_split(out)

    @pytest.mark.parametrize("bad", [-1, "n_items"])
    @pytest.mark.parametrize("name", ["train", "validation", "test"])
    def test_item_id_outside_vocabulary_names_file_and_line(self, tmp_path, name, bad):
        out = self.saved_split(tmp_path)
        n_items = len((out / "vocabulary.tsv").read_text().splitlines())
        item = n_items if bad == "n_items" else bad
        self.edit_line(out / f"{name}.tsv", 1, lambda line: line + f",{item}")
        with pytest.raises(ParseError, match=rf"{name}\.tsv: line 1: item id {item} out of "
                                             rf"range \[0, {n_items}\)"):
            load_split(out)

    def test_manifest_counts(self, tmp_path):
        p = tmp_path / "ratings.csv"
        synthetic_ratings(p, n_users=30, seed=7)
        cfg = PipelineConfig(seed=3)
        split = run_pipeline(p, cfg)
        out = tmp_path / "split"
        save_split(split, out, cfg.to_dict(), cfg.seed)
        manifest = json.loads((out / "manifest.json").read_text())
        counts = manifest["counts"]
        assert counts["users"] == len(split.train) + len(split.validation) + len(split.test)
        assert counts["items"] == split.n_items
