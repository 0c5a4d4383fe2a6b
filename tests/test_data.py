import hashlib
import json
import math
import os
import pathlib
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaerec import data
from vaerec.data import (
    DatasetSplit,
    ImplicitEvent,
    InteractionRecord,
    ParseError,
    PipelineConfig,
    UserSequence,
    Vocabulary,
    binarize,
    build_sequences,
    filter_min_history,
    fold_split,
    ingest,
    load_heldout,
    load_split,
    make_heldout,
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


def synthetic_ratings(path, n_users=40, seed=0, delimiter=","):
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
    write_ratings(path, rows, delimiter)


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

    # (edit of the text, line named given the file's line count)
    @pytest.mark.parametrize("edit, line_no", [
        (lambda text: text.replace("\t1\n", "\t1\n\n", 1), lambda n: 3),
        (lambda text: text.replace("\t1\n", "\t01\n", 1), lambda n: 2),
        (lambda text: text[:-1], lambda n: n),
        (lambda text: text + "\n", lambda n: n + 1),
    ], ids=["blank-line", "index-01", "no-final-newline", "trailing-blank-line"])
    def test_vocabulary_not_as_written_names_file_and_line(self, tmp_path, edit, line_no):
        # no writer produces these; each is refused at the line where it departs
        out = self.saved_split(tmp_path)
        vocab = out / "vocabulary.tsv"
        text = vocab.read_text()
        vocab.write_text(edit(text))
        where = rf"vocabulary\.tsv: line {line_no(len(text.splitlines()))}"
        with pytest.raises(ParseError, match=rf"{where}: expected "):
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


def split_dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0" + (path / name).read_bytes())
    return h.hexdigest()


def reference_split(path, cfg):
    """run_pipeline as the record-level stages compute it (no subsampling)."""
    events = binarize(ingest(path, cfg.delimiter), cfg.binarize_threshold)
    if not events:
        raise ValueError("no interactions after binarization")
    sequences, vocab = build_sequences(events)
    sequences = filter_min_history(sequences, cfg.min_history)
    train, val, test = split_users(sequences, cfg.fractions, cfg.seed)
    return DatasetSplit(train, [make_heldout(s, cfg.fold_ratio) for s in val],
                        [make_heldout(s, cfg.fold_ratio) for s in test], vocab, cfg.fold_ratio)


def split_bytes_or_error(make_split, log, cfg, out):
    """The split directory's files, or the error's type and message."""
    try:
        split = make_split(log, cfg)
    except ValueError as err:
        return type(err).__name__, str(err)
    save_split(split, out, cfg.to_dict(), cfg.seed)
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


# ids mix ASCII, non-ASCII and NUL characters ("a" and "a\x00" must stay
# apart); small pools give users several rows and repeat (user, item) pairs
ids = st.text(alphabet="ab\x00é漢🙂 ", min_size=1, max_size=3).filter(lambda s: s.strip())
users = st.sampled_from(["a", "a\x00", "é", "漢🙂", "b b"])
items = st.one_of(st.sampled_from(["a", "a\x00", "\x00a", "é", "漢", "🙂", "b", "ab"]), ids)
padding = st.sampled_from(["", " ", "\t", " \t "])
good_row = st.tuples(
    users, items,
    st.sampled_from(["4", "5", " 4.5", "3", "3.0", "3.5", "1", "2.9999", "3.0000001", "nan"]),
    st.integers(0, 4).map(str),
)
bad_row = st.one_of(
    st.tuples(users, items, st.just("5")),
    st.tuples(users, items, st.just("5"), st.just("1"), st.just("x")),
    st.tuples(users, items, st.sampled_from(["x", "", "4..0", "five"]), st.just("1")),
    st.tuples(users, items, st.just("4"), st.sampled_from(["1.5", "t", "", "0x3"])),
    st.tuples(users, items, st.just("4"), st.integers(-3, -1).map(str)),
    # an item id that would break its vocabulary.tsv line, kept or dropped
    st.tuples(users, st.sampled_from(["a\tb", "\t\x00\t", "é\t "]), st.sampled_from(["5", "1"]),
              st.just("1")),
)
log_line = st.one_of(
    st.tuples(good_row, st.lists(padding, min_size=5, max_size=5)),
    st.sampled_from(["", "   ", "\t"]),
)
# two times in three a log has no bad row
bad_rows = st.one_of(st.just([]), st.just([]),
                     st.lists(st.tuples(st.integers(0, 60), bad_row), min_size=1, max_size=2))


class TestColumnarPipeline:
    @settings(max_examples=150, deadline=None)
    @given(
        delimiter=st.sampled_from([",", "::"]),
        lines=st.lists(log_line, min_size=10, max_size=60),
        bad=bad_rows,
        chunk_chars=st.sampled_from([1, 12, 80, data.CHUNK_CHARS]),
        seed=st.integers(0, 3),
    )
    def test_same_split_and_errors_as_record_stages(self, delimiter, lines, bad, chunk_chars,
                                                    seed):
        text_lines = []
        for line in lines:
            if isinstance(line, str):
                text_lines.append(line)
                continue
            fields, pads = line
            text_lines.append(pads[0] + delimiter.join(
                f"{field}{pad}" for field, pad in zip(fields, pads[1:])))
        for position, fields in bad:
            text_lines.insert(min(position, len(text_lines)), delimiter.join(fields))
        cfg = PipelineConfig(delimiter=delimiter, min_history=2, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            log = os.path.join(tmp, "ratings.log")
            with open(log, "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in text_lines))
            want = split_bytes_or_error(reference_split, log, cfg, pathlib.Path(tmp, "a"))
            with mock.patch.object(data, "CHUNK_CHARS", chunk_chars):
                got = split_bytes_or_error(run_pipeline, log, cfg, pathlib.Path(tmp, "b"))
        assert got == want

    def bad_row_around_chunk_boundary(self, tmp_path, offset):
        """A log of good rows that fills two chunks, with a bad rating at
        ``offset`` lines from the first line of the second chunk."""
        rows = [f"u{k % 50},i{k},5,{k}\n" for k in range(2 * data.CHUNK_CHARS // 10)]
        log = tmp_path / "ratings.csv"
        log.write_text("".join(rows))
        with open(log, encoding="utf-8") as fh:
            boundary = len(fh.readlines(data.CHUNK_CHARS)) + 1
        assert boundary < len(rows)
        line = boundary + offset
        rows[line - 1] = f"u1,i1,bad,{line}\n"
        log.write_text("".join(rows))
        return log, line

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_bad_row_at_chunk_boundary_reports_its_line(self, tmp_path, offset):
        log, line = self.bad_row_around_chunk_boundary(tmp_path, offset)
        with pytest.raises(ParseError, match=rf"^line {line}: bad rating 'bad'$"):
            run_pipeline(log, PipelineConfig())
        with pytest.raises(ParseError, match=rf"^line {line}: bad rating 'bad'$"):
            ingest(log)

    @pytest.mark.parametrize("bad_row_at", [1, 1501])
    def test_undecodable_bytes_raise_what_ingest_raises(self, tmp_path, bad_row_at):
        # the bad byte is some 22 KB in: inside the first chunk, beyond the
        # 8 KiB that ingest decodes ahead
        rows = [f"u{k % 9},i{k},5,{k}\n".encode() for k in range(1500)]
        rows.insert(bad_row_at - 1, b"u,i,x,1\n")
        log = tmp_path / "ratings.csv"
        log.write_bytes(b"".join(rows) + b"\xff,i,5,1\n")
        outcomes = []
        for read in (ingest, lambda path: run_pipeline(path, PipelineConfig())):
            with pytest.raises(ValueError) as err:
                read(log)
            outcomes.append((err.type, str(err.value)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is (ParseError if bad_row_at == 1 else UnicodeDecodeError)

    @pytest.mark.parametrize("chunk_chars", [64, data.CHUNK_CHARS])
    @pytest.mark.parametrize("rating", ["5", "1"])
    def test_item_id_with_a_tab_names_its_line(self, tmp_path, rating, chunk_chars):
        rows = [f"u{k % 3},i{k},5,{k}\n" for k in range(40)]
        rows[29] = f"u1, i\tx ,{rating},29\n"
        log = tmp_path / "ratings.csv"
        log.write_text("".join(rows))
        message = r"^line 30: item id 'i\\tx' contains a tab or line break$"
        with pytest.raises(ParseError, match=message):
            ingest(log)
        with mock.patch.object(data, "CHUNK_CHARS", chunk_chars):
            with pytest.raises(ParseError, match=message):
                run_pipeline(log, PipelineConfig())

    def test_timestamp_beyond_int64_names_its_line(self, tmp_path):
        log = tmp_path / "ratings.csv"
        rows = [("u", f"i{k}", 5, 2**63 - 1) for k in range(6)] + [("u", "j", 5, 2**63)]
        write_ratings(log, rows)
        message = rf"^line 7: timestamp {2**63} does not fit in int64$"
        with pytest.raises(ParseError, match=message):
            run_pipeline(log, PipelineConfig())
        with pytest.raises(ParseError, match=message):
            ingest(log)

    def test_largest_int64_timestamp_is_kept(self, tmp_path):
        log = tmp_path / "ratings.csv"
        write_ratings(log, [("u", f"i{k}", 5, 2**63 - 1 - k) for k in range(6)])
        sequences, vocab = data.log_sequences(log)
        assert [vocab.to_raw(i) for i in sequences[0].items] == [f"i{k}" for k in range(5, -1, -1)]

    def test_ids_differing_by_a_trailing_nul_stay_apart(self, tmp_path):
        log = tmp_path / "ratings.csv"
        write_ratings(log, [("u", "a\x00", 5, 1), ("u", "a", 5, 2), ("u\x00", "a", 5, 0)])
        sequences, vocab = data.log_sequences(log)
        assert vocab.raw_ids() == ["a\x00", "a"]
        assert [s.items for s in sequences] == [(0, 1), (1,)]

    # sha256 of the split directories the record-level pipeline wrote before
    # prepare became columnar (file names and bytes in name order)
    PINNED = {
        "default": "aefac1bc3068325b300b4fb55a9e42c8cf2f4257f6af27073b832f8b99e4f2b0",
        "colon-subsample": "073707d0beaa54067fc7fa6e1a3860cb3967f0bf81e2ab6b0ebd5a1049876777",
    }

    @pytest.mark.parametrize("name,delimiter,n_users,seed,cfg", [
        ("default", ",", 60, 2, PipelineConfig(seed=4)),
        ("colon-subsample", "::", 40, 5,
         PipelineConfig(delimiter="::", seed=11, subsample_users=10)),
    ])
    def test_split_matches_pinned_digest(self, tmp_path, name, delimiter, n_users, seed, cfg):
        log = tmp_path / "ratings.log"
        synthetic_ratings(log, n_users=n_users, seed=seed, delimiter=delimiter)
        out = tmp_path / name
        save_split(run_pipeline(log, cfg), out, cfg.to_dict(), cfg.seed)
        assert split_dir_digest(out) == self.PINNED[name]


def edit_manifest(split_dir, edit):
    path = split_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def bump_count(field):
    return lambda manifest: manifest["counts"].update({field: manifest["counts"][field] + 1})


MANIFEST_EDITS = {
    "format": lambda manifest: manifest.update(format="vaerec-split-v0"),
    "counts.items": bump_count("items"),
    "counts.train_users": bump_count("train_users"),
    "counts.validation_users": bump_count("validation_users"),
    "counts.test_users": bump_count("test_users"),
    "counts.users": bump_count("users"),
    "counts.interactions": bump_count("interactions"),
    "vocabulary_digest": lambda manifest: manifest.update(vocabulary_digest="0" * 64),
}


class TestSplitManifest:
    saved_split = TestPipeline.saved_split
    edit_line = TestPipeline.edit_line

    @pytest.mark.parametrize("field", list(MANIFEST_EDITS))
    def test_mismatch_names_manifest_and_field(self, tmp_path, field):
        out = self.saved_split(tmp_path)
        edit_manifest(out, MANIFEST_EDITS[field])
        with pytest.raises(ValueError, match=rf"manifest\.json: {re.escape(field)} is "):
            load_split(out)

    def test_missing_counts_name_the_field(self, tmp_path):
        out = self.saved_split(tmp_path)
        edit_manifest(out, lambda manifest: manifest.pop("counts"))
        with pytest.raises(ValueError, match=r"manifest\.json: counts\.items is None"):
            load_split(out)

    @pytest.mark.parametrize("edit", [
        lambda manifest: manifest.pop("fold_ratio"),
        lambda manifest: manifest.update(fold_ratio="0.8"),
        lambda manifest: manifest.update(fold_ratio=True),
    ], ids=["missing", "string", "bool"])
    def test_fold_ratio_must_be_a_number(self, tmp_path, edit):
        out = self.saved_split(tmp_path)
        edit_manifest(out, edit)
        with pytest.raises(ValueError, match=r"manifest\.json: fold_ratio is .*, expected a num"):
            load_split(out)

    @pytest.mark.parametrize("ratio", [math.inf, math.nan, 5.0, 1.0, 0, 0.0, -1])
    @pytest.mark.parametrize("whole", [True, False], ids=["load_split", "load_heldout"])
    def test_fold_ratio_must_lie_strictly_between_0_and_1(self, tmp_path, ratio, whole):
        out = self.saved_split(tmp_path)
        edit_manifest(out, lambda manifest: manifest.update(fold_ratio=ratio))
        with pytest.raises(ValueError, match=r"manifest\.json: fold_ratio is .*, expected a "
                                             r"number strictly between 0 and 1"):
            load_split(out) if whole else load_heldout(out, "test")

    def test_manifest_must_be_a_json_object(self, tmp_path):
        out = self.saved_split(tmp_path)
        (out / "manifest.json").write_text("[]\n")
        with pytest.raises(ValueError, match=r"manifest\.json: expected a JSON object"):
            load_split(out)

    def test_line_errors_come_before_manifest_checks(self, tmp_path):
        out = self.saved_split(tmp_path)
        edit_manifest(out, MANIFEST_EDITS["format"])
        self.edit_line(out / "test.tsv", 1, lambda line: "u" + line)
        with pytest.raises(ParseError, match=r"test\.tsv: line 1: bad user index"):
            load_split(out)

    @pytest.mark.parametrize("whole", [True, False], ids=["load_split", "load_heldout"])
    def test_heldout_history_of_one_item_fails_at_its_line(self, tmp_path, whole):
        out = self.saved_split(tmp_path)
        # the manifest's interaction count now disagrees too; the line comes first
        self.edit_line(out / "validation.tsv", 1, lambda line: line.split(",")[0])
        with pytest.raises(ParseError,
                           match=r"validation\.tsv: line 1: needs at least 2 items, got 1"):
            load_split(out) if whole else load_heldout(out, "validation")

    @pytest.mark.parametrize("fold", ["validation", "test"])
    def test_heldout_fold_reads_only_its_files(self, tmp_path, fold):
        out = self.saved_split(tmp_path)
        split, manifest = load_split(out)
        for other in set(data.FOLDS) - {fold}:
            os.remove(out / f"{other}.tsv")
        # the totals and the other folds' counts are not checked on one fold
        edit_manifest(out, lambda m: m["counts"].update(users=0, interactions=0, train_users=0))
        heldout, vocab, _ = load_heldout(out, fold)
        assert heldout == getattr(split, fold)
        assert vocab.raw_ids() == split.vocabulary.raw_ids()

    @pytest.mark.parametrize("field", ["format", "counts.items", "counts.test_users",
                                       "vocabulary_digest"])
    def test_heldout_fold_checks_its_manifest_fields(self, tmp_path, field):
        out = self.saved_split(tmp_path)
        edit_manifest(out, MANIFEST_EDITS[field])
        with pytest.raises(ValueError, match=rf"manifest\.json: {re.escape(field)} is "):
            load_heldout(out, "test")

    def test_unknown_heldout_fold(self, tmp_path):
        with pytest.raises(ValueError, match="unknown held-out fold 'train'"):
            load_heldout(tmp_path, "train")

    def test_vocabulary_digest_is_hashed_once(self, monkeypatch):
        calls = []
        text = data._vocabulary_text
        monkeypatch.setattr(data, "_vocabulary_text", lambda raw: calls.append(raw) or text(raw))
        vocab = Vocabulary(["x", "y\x00"])
        assert vocab.digest() == vocab.digest() == hashlib.sha256(b"x\t0\ny\x00\t1\n").hexdigest()
        assert len(calls) == 1
