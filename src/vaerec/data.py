"""Implicit-feedback dataset pipeline.

Turns explicit rating logs into time-sorted user sequences, applies the
rating threshold and minimum-history filters, splits users into
train/validation/test, and cuts each held-out history into a temporal
fold-in / fold-out pair. Every step is a pure function of (input, config,
seed), so two runs produce byte-identical split directories.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import operator
import os
from dataclasses import dataclass
from itertools import compress, islice, repeat
from typing import Iterable, Sequence

import numpy as np

from vaerec.flatconfig import FlatConfig


class ParseError(ValueError):
    """A malformed input row; carries the 1-based line number and, when
    known, the file it was read from."""

    def __init__(self, line: int, message: str, path: str | None = None):
        where = f"{path}: line {line}" if path else f"line {line}"
        super().__init__(f"{where}: {message}")
        self.line = line


@dataclass(frozen=True)
class InteractionRecord:
    user_id: str
    item_id: str
    rating: float
    timestamp: int


@dataclass(frozen=True)
class ImplicitEvent:
    """A kept interaction after binarization; the rating is dropped."""

    user_id: str
    item_id: str
    timestamp: int


@dataclass(frozen=True)
class UserSequence:
    """One user's consumed items, ascending by timestamp."""

    user_index: int
    items: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class HeldoutUser:
    """A validation/test user cut at the temporal fold boundary.

    ``fold_in + fold_out`` concatenated reproduces the full time-sorted
    history; metrics treat fold_out as the relevant set.
    """

    user_index: int
    fold_in: tuple[int, ...]
    fold_out: tuple[int, ...]


def _vocabulary_text(raw_ids: Sequence[str]) -> str:
    """The ``raw<TAB>index`` lines of ``vocabulary.tsv``."""
    return "".join(f"{raw}\t{i}\n" for i, raw in enumerate(raw_ids))


class Vocabulary:
    """Bijection between raw item ids and dense indices."""

    def __init__(self, raw_ids: Sequence[str]):
        self._raw = list(raw_ids)
        self._index = {raw: i for i, raw in enumerate(self._raw)}
        if len(self._index) != len(self._raw):
            raise ValueError("duplicate raw ids in vocabulary")
        self._digest: str | None = None

    def __len__(self) -> int:
        return len(self._raw)

    def __contains__(self, raw_id: object) -> bool:
        return raw_id in self._index

    def to_index(self, raw_id: str) -> int:
        return self._index[raw_id]

    def to_raw(self, index: int) -> str:
        return self._raw[index]

    def raw_ids(self) -> list[str]:
        return list(self._raw)

    def digest(self) -> str:
        """sha256 of the vocabulary's ``vocabulary.tsv`` text, computed once."""
        if self._digest is None:
            self._digest = hashlib.sha256(_vocabulary_text(self._raw).encode()).hexdigest()
        return self._digest


@dataclass
class DatasetSplit:
    train: list[UserSequence]
    validation: list[HeldoutUser]
    test: list[HeldoutUser]
    vocabulary: Vocabulary
    fold_ratio: float = 0.8

    @property
    def n_items(self) -> int:
        return len(self.vocabulary)


# ---------------------------------------------------------------------------
# pipeline stages


def ingest(path: str | os.PathLike, delimiter: str = ",") -> list[InteractionRecord]:
    """Read a delimiter-separated (user, item, rating, timestamp) log.

    Each line is checked by ``_parse_row``, the row check that
    ``log_sequences`` also runs, so a malformed row raises ParseError with
    its line number.

    ``ingest``, ``binarize`` and ``build_sequences`` are the record-level
    reference for the columnar ``run_pipeline``, which no longer calls them:
    tests require both to write the same split directory and raise the same
    errors.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            row = _parse_row(raw, lineno, delimiter)
            if row is not None:
                records.append(InteractionRecord(*row))
    return records


def binarize(records: Iterable[InteractionRecord], threshold: float = 3.0) -> list[ImplicitEvent]:
    """Keep interactions rated strictly above ``threshold`` (record-level
    reference; see ``ingest``)."""
    return [
        ImplicitEvent(r.user_id, r.item_id, r.timestamp)
        for r in records
        if r.rating > threshold
    ]


def build_sequences(events: Iterable[ImplicitEvent]) -> tuple[list[UserSequence], Vocabulary]:
    """Group events per user, time-sorted, and assign dense indices.

    Ordering is total and deterministic: events sort by (user, timestamp,
    raw item id); ties on timestamp break by the raw id lexicographically.
    Repeat (user, item) interactions keep the earliest occurrence only.
    User and item indices follow first appearance in that ordering.
    Record-level reference for ``run_pipeline``; see ``ingest``.
    """
    ordered = sorted(events, key=lambda e: (e.user_id, e.timestamp, e.item_id))
    item_ids: list[str] = []
    item_index: dict[str, int] = {}
    sequences: list[UserSequence] = []
    current_user: str | None = None
    current_items: list[int] = []
    seen: set[str] = set()

    def flush() -> None:
        if current_user is not None:
            sequences.append(UserSequence(len(sequences), tuple(current_items)))

    for e in ordered:
        if e.user_id != current_user:
            flush()
            current_user = e.user_id
            current_items = []
            seen = set()
        if e.item_id in seen:
            continue
        seen.add(e.item_id)
        if e.item_id not in item_index:
            item_index[e.item_id] = len(item_ids)
            item_ids.append(e.item_id)
        current_items.append(item_index[e.item_id])
    flush()
    return sequences, Vocabulary(item_ids)


# ---------------------------------------------------------------------------
# columnar ingest, as run_pipeline runs it

# Characters of log text read per chunk. A chunk's rows exist as Python
# strings only while it is parsed; what is kept across chunks is int64 codes
# and timestamps, so the peak memory of a prepare grows with the kept rows
# rather than with the text of the log.
CHUNK_CHARS = 1 << 16

_INT64_LIMIT = 2**63

# an item id holding one of these would break its ``vocabulary.tsv`` line
_VOCABULARY_BREAKS = ("\t", "\n", "\r")


def _breaks_vocabulary(text: str) -> bool:
    return any(c in text for c in _VOCABULARY_BREAKS)


def _parse_row(raw: str, lineno: int, delimiter: str) -> tuple[str, str, float, int] | None:
    """The (user, item, rating, timestamp) of one log line, or None for a
    blank line. A malformed row raises ParseError naming ``lineno``: a row
    has 4 fields, an item id without a tab or line break, a float rating and
    a timestamp in [0, 2**63)."""
    line = raw.strip()
    if not line:
        return None
    parts = line.split(delimiter)
    if len(parts) != 4:
        raise ParseError(lineno, f"expected 4 fields, got {len(parts)}")
    user, item, rating_s, ts_s = (p.strip() for p in parts)
    if _breaks_vocabulary(item):
        raise ParseError(lineno, f"item id {item!r} contains a tab or line break")
    try:
        rating = float(rating_s)
    except ValueError:
        raise ParseError(lineno, f"bad rating {rating_s!r}") from None
    try:
        timestamp = int(ts_s)
    except ValueError:
        raise ParseError(lineno, f"bad timestamp {ts_s!r}") from None
    if timestamp < 0:
        raise ParseError(lineno, f"negative timestamp {timestamp}")
    if timestamp >= _INT64_LIMIT:
        raise ParseError(lineno, f"timestamp {timestamp} does not fit in int64")
    return user, item, rating, timestamp


def _kept_rows(lines: list[str], delimiter: str,
               threshold: float) -> tuple[list[str], list[str], list[int]]:
    """Users, items and timestamps of the rows of ``lines`` rated strictly
    above ``threshold``. Fields are stripped and converted as ``_parse_row``
    does; any row ``_parse_row`` rejects raises ValueError."""
    rows = list(map(str.split, filter(None, map(str.strip, lines)), repeat(delimiter)))
    if not rows:
        return [], [], []
    if set(map(len, rows)) != {4}:
        raise ValueError("a row without 4 fields")
    users, items, ratings, stamps = (list(map(str.strip, column)) for column in zip(*rows))
    if _breaks_vocabulary("".join(items)):
        raise ValueError("an item id with a tab or line break")
    stamps = list(map(int, stamps))
    if min(stamps) < 0 or max(stamps) >= _INT64_LIMIT:
        raise ValueError("a timestamp outside int64's non-negative range")
    keep = list(map(operator.gt, map(float, ratings), repeat(threshold)))
    return list(compress(users, keep)), list(compress(items, keep)), list(compress(stamps, keep))


def _encode(keys: list[str], codes: dict[str, int]) -> np.ndarray:
    """Each key's code in ``codes``; unseen keys take the next free codes."""
    new = set(keys).difference(codes)
    codes.update(zip(new, range(len(codes), len(codes) + len(new))))
    return np.fromiter(map(codes.__getitem__, keys), np.int64, len(keys))


def _str_ranks(codes: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """The keys of ``codes`` in Python ``str`` order, and the position in
    that order of each code."""
    ordered = sorted(codes)
    rank = np.empty(len(ordered), np.int64)
    rank[np.fromiter(map(codes.__getitem__, ordered), np.int64, len(ordered))] = np.arange(
        len(ordered))
    return ordered, rank


def log_sequences(path: str | os.PathLike, delimiter: str = ",",
                  threshold: float = 3.0) -> tuple[list[UserSequence], Vocabulary]:
    """``build_sequences(binarize(ingest(path, delimiter), threshold))``,
    computed on columns.

    The log is read ``CHUNK_CHARS`` at a time. A chunk's rows are split and
    converted by C-level maps with Python's ``float`` and ``int``, and only
    the kept rows' user, item and timestamp columns survive it. If any row of
    a chunk fails a check, or a chunk does not decode, the file is read again
    as ``ingest`` reads it, from that chunk's first line, for the error
    ``ingest`` raises. User and item ids are factorized in Python ``str``
    order (not as numpy strings, which drop trailing NULs), the rows are
    sorted stably by (user, timestamp, item), and each (user, item) pair's
    first row is kept.
    """
    user_codes: dict[str, int] = {}
    item_codes: dict[str, int] = {}
    chunks = []
    first_line = 1
    with open(path, "r", encoding="utf-8") as fh:
        while True:
            try:
                lines = fh.readlines(CHUNK_CHARS)
                users, items, stamps = _kept_rows(lines, delimiter, threshold)
            except ValueError:  # a failed check, or a UnicodeDecodeError
                # a chunk decodes further ahead than ingest does: rescan from
                # its first line, reading as ingest reads, for ingest's error
                with open(path, "r", encoding="utf-8") as again:
                    for lineno, raw in enumerate(islice(again, first_line - 1, None),
                                                 start=first_line):
                        _parse_row(raw, lineno, delimiter)
                raise
            if not lines:
                break
            chunks.append((_encode(users, user_codes), _encode(items, item_codes),
                           np.array(stamps, dtype=np.int64)))
            first_line += len(lines)
    if not user_codes:
        raise ValueError("no interactions after binarization")
    _, user_rank = _str_ranks(user_codes)
    item_ids, item_rank = _str_ranks(item_codes)
    users, items, stamps = (np.concatenate(column) for column in zip(*chunks))
    users, items = user_rank[users], item_rank[items]
    order = np.lexsort((items, stamps, users))
    users, items = users[order], items[order]
    first = np.unique(users * len(item_ids) + items, return_index=True)[1]
    first.sort()
    users, items = users[first], items[first]
    # dense item indices follow first appearance (every item code occurs, so
    # unique's values are 0..n-1); users are already in order
    by_appearance = np.argsort(np.unique(items, return_index=True)[1])
    index = np.empty(len(item_ids), np.int64)
    index[by_appearance] = np.arange(len(by_appearance))
    flat = index[items].tolist()
    ends = np.cumsum(np.bincount(users, minlength=len(user_codes))).tolist()
    sequences = [UserSequence(u, tuple(flat[start:end]))
                 for u, (start, end) in enumerate(zip([0] + ends[:-1], ends))]
    return sequences, Vocabulary([item_ids[k] for k in by_appearance.tolist()])


def filter_min_history(sequences: Iterable[UserSequence], min_items: int = 5) -> list[UserSequence]:
    """Drop users with fewer than ``min_items`` interactions."""
    return [s for s in sequences if len(s) >= min_items]


def _check_fractions(fractions: Sequence[float]) -> None:
    """Train, validation and test fractions: three, each positive, summing
    to 1; a nan is none of these."""
    if len(fractions) != 3:
        raise ValueError(f"fractions must hold three values, got {fractions}")
    if not min(fractions) > 0:
        raise ValueError(f"fractions must be positive, got {fractions}")
    if not abs(sum(fractions) - 1.0) <= 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")


def split_users(
    sequences: Sequence[UserSequence],
    fractions: tuple[float, float, float],
    seed: int,
) -> tuple[list[UserSequence], list[UserSequence], list[UserSequence]]:
    """Deterministic seeded shuffle, then partition users by fraction."""
    _check_fractions(fractions)
    f_train, f_val, f_test = fractions
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(sequences))
    n = len(sequences)
    # the 1e-9 nudge keeps exact fractions exact under float rounding
    b1 = int(math.floor(n * f_train + 1e-9))
    b2 = int(math.floor(n * (f_train + f_val) + 1e-9))
    parts = (order[:b1], order[b1:b2], order[b2:])
    out = []
    for idxs in parts:
        chosen = sorted((sequences[i] for i in idxs), key=lambda s: s.user_index)
        out.append(chosen)
    return out[0], out[1], out[2]


def fold_split(items: Sequence[int], ratio: float = 0.8) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cut a history into temporal fold-in / fold-out parts.

    The cut is floor(ratio * L), clamped so both sides stay nonempty.
    """
    n = len(items)
    if n < 2:
        raise ValueError(f"fold_split needs at least 2 items, got {n}")
    cut = int(math.floor(ratio * n + 1e-9))
    cut = min(max(cut, 1), n - 1)
    return tuple(items[:cut]), tuple(items[cut:])


def make_heldout(seq: UserSequence, ratio: float = 0.8) -> HeldoutUser:
    fold_in, fold_out = fold_split(seq.items, ratio)
    return HeldoutUser(seq.user_index, fold_in, fold_out)


def default_strata_edges(max_length: int) -> list[int]:
    """Power-of-two history-length buckets: ..8, ..16, ..32, and so on."""
    edges = []
    e = 8
    while e < max_length:
        edges.append(e)
        e *= 2
    return edges


def _allocate_inverse(sizes: list[int], target: int) -> list[int]:
    """Integer allocation proportional to 1/size, capped, overflow redistributed."""
    alloc = [0] * len(sizes)
    active = [i for i, s in enumerate(sizes) if s > 0]
    remaining = target
    while remaining > 0 and active:
        weights = {i: 1.0 / sizes[i] for i in active}
        total_w = sum(weights.values())
        quotas = {i: remaining * weights[i] / total_w for i in active}
        base = {i: int(math.floor(quotas[i])) for i in active}
        leftover = remaining - sum(base.values())
        by_frac = sorted(active, key=lambda i: (-(quotas[i] - base[i]), i))
        for i in by_frac[:leftover]:
            base[i] += 1
        next_active = []
        for i in active:
            capacity = sizes[i] - alloc[i]
            take = min(base[i], capacity)
            alloc[i] += take
            remaining -= take
            if alloc[i] < sizes[i]:
                next_active.append(i)
        active = next_active
    return alloc


def stratified_subsample(
    sequences: Sequence[UserSequence],
    target: int,
    seed: int,
    strata_edges: Sequence[int] | None = None,
) -> list[UserSequence]:
    """Sample users per history-length stratum, inversely to stratum size.

    Small strata (long histories) are kept nearly whole while large strata
    are thinned. Sampling is without replacement and seeded.
    """
    if target > len(sequences):
        raise ValueError(f"target {target} exceeds population {len(sequences)}")
    if strata_edges is None:
        max_len = max((len(s) for s in sequences), default=0)
        strata_edges = default_strata_edges(max_len)
    edges = sorted(strata_edges)
    buckets: list[list[UserSequence]] = [[] for _ in range(len(edges) + 1)]
    for seq in sorted(sequences, key=lambda s: s.user_index):
        slot = sum(1 for e in edges if len(seq) > e)
        buckets[slot].append(seq)
    sizes = [len(b) for b in buckets]
    alloc = _allocate_inverse(sizes, target)
    rng = np.random.default_rng(seed)
    chosen: list[UserSequence] = []
    for bucket, n_take in zip(buckets, alloc):
        if not bucket:
            continue
        picks = rng.permutation(len(bucket))[:n_take]
        chosen.extend(bucket[i] for i in sorted(picks))
    return sorted(chosen, key=lambda s: s.user_index)


# ---------------------------------------------------------------------------
# on-disk split format


SPLIT_FORMAT = "vaerec-split-v1"
FOLDS = ("train", "validation", "test")
HELDOUT_FOLDS = ("validation", "test")
SPLIT_FILES = tuple(f"{fold}.tsv" for fold in FOLDS)


def _sequence_lines(seqs: Iterable[tuple[int, Sequence[int]]]) -> str:
    lines = [f"{user_index}\t{','.join(map(str, items))}" for user_index, items in seqs]
    return "\n".join(lines) + ("\n" if lines else "")


def write_atomic(path: str, content: str) -> None:
    """Write text through a temp file and a rename, so that no reader sees
    a half-written file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(content)
    os.replace(tmp, path)


def write_json(path: str, payload: dict) -> None:
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def split_counts(split: DatasetSplit) -> dict:
    train_items = sum(len(s) for s in split.train)
    held = [(u.fold_in, u.fold_out) for u in split.validation + split.test]
    held_items = sum(len(a) + len(b) for a, b in held)
    n_users = len(split.train) + len(split.validation) + len(split.test)
    interactions = train_items + held_items
    return {
        "users": n_users,
        "items": split.n_items,
        "interactions": interactions,
        "average_length": round(interactions / n_users, 4) if n_users else 0.0,
        "train_users": len(split.train),
        "validation_users": len(split.validation),
        "test_users": len(split.test),
    }


def save_split(split: DatasetSplit, out_dir: str | os.PathLike, config: dict, seed: int,
               source_digest: str | None = None) -> None:
    """Write the split directory: sequences per split, vocabulary, manifest."""
    out = str(out_dir)
    os.makedirs(out, exist_ok=True)
    write_atomic(
        os.path.join(out, "train.tsv"),
        _sequence_lines((s.user_index, s.items) for s in split.train),
    )
    for name, users in (("validation.tsv", split.validation), ("test.tsv", split.test)):
        write_atomic(
            os.path.join(out, name),
            _sequence_lines((u.user_index, u.fold_in + u.fold_out) for u in users),
        )
    write_atomic(os.path.join(out, "vocabulary.tsv"),
                 _vocabulary_text(split.vocabulary.raw_ids()))
    manifest = {
        "format": SPLIT_FORMAT,
        "seed": seed,
        "config": config,
        "fold_ratio": split.fold_ratio,
        "counts": split_counts(split),
        "vocabulary_digest": split.vocabulary.digest(),
        "source_digest": source_digest,
    }
    write_json(os.path.join(out, "manifest.json"), manifest)


def _parse_int(text: str, field: str, line_no: int, path: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(line_no, f"bad {field} {text!r}", path) from None


def _read_manifest(split_dir: str | os.PathLike) -> dict:
    """The split's ``manifest.json``; it must hold a JSON object."""
    path = os.path.join(str(split_dir), "manifest.json")
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return manifest


def _read_vocabulary(split_dir: str | os.PathLike) -> Vocabulary:
    """``raw id<TAB>index`` lines, indices counting up from 0, exactly as
    ``save_split`` writes them. The text is read once: the raw ids are taken
    from it and its sha256 is the vocabulary's digest."""
    path = os.path.join(str(split_dir), "vocabulary.tsv")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    raw_ids = [line.partition("\t")[0] for line in text.split("\n")[:-1]]
    if text != _vocabulary_text(raw_ids):
        _check_vocabulary_lines(text, path)
    vocab = Vocabulary(raw_ids)
    vocab._digest = hashlib.sha256(text.encode()).hexdigest()
    return vocab


def _check_vocabulary_lines(text: str, path: str) -> None:
    """Raise a ParseError at the first line of ``text`` that is not the
    ``raw id<TAB>index`` line ``save_split`` writes there."""
    for line_no, line in enumerate(io.StringIO(text).readlines(), start=1):
        content = line.rstrip("\n")
        fields = content.split("\t")
        if len(fields) != 2:
            raise ParseError(line_no, f"expected raw id<TAB>index, got {content!r}", path)
        raw, idx_s = fields
        idx = _parse_int(idx_s, "vocabulary index", line_no, path)
        if idx != line_no - 1:
            raise ParseError(
                line_no, f"vocabulary index {idx} out of order, expected {line_no - 1}", path)
        written = f"{raw}\t{idx}\n"
        if line != written:
            raise ParseError(
                line_no, f"expected {written!r}, as save_split writes it, got {line!r}", path)


def _read_sequences(path: str, n_items: int, min_items: int) -> list[tuple[int, tuple[int, ...]]]:
    """``user<TAB>item,item,...`` lines of at least ``min_items`` items;
    every item id must index the ``n_items``-item vocabulary."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(line_no, f"expected user<TAB>items, got {line!r}", path)
            user_s, items_s = fields
            user = _parse_int(user_s, "user index", line_no, path)
            try:
                items = tuple(map(int, items_s.split(","))) if items_s else ()
            except ValueError:
                raise ParseError(line_no, f"bad item list {items_s!r}", path) from None
            if items and (min(items) < 0 or max(items) >= n_items):
                bad = next(i for i in items if not 0 <= i < n_items)
                raise ParseError(line_no, f"item id {bad} out of range [0, {n_items})", path)
            if len(items) < min_items:
                raise ParseError(
                    line_no, f"needs at least {min_items} items, got {len(items)}", path)
            out.append((user, items))
    return out


def _check_manifest(split_dir: str, manifest: dict, vocab: Vocabulary, folds: dict) -> None:
    """Compare the manifest with the vocabulary and the folds read (fold name
    -> rows of ``_read_sequences``), the users and interactions totals only
    when every fold was read, and require ``PipelineConfig``'s rule for
    ``fold_ratio``: a number strictly between 0 and 1."""
    counts = manifest.get("counts")
    counts = counts if isinstance(counts, dict) else {}
    checks = [("format", manifest.get("format"), SPLIT_FORMAT),
              ("counts.items", counts.get("items"), len(vocab))]
    checks += [(f"counts.{fold}_users", counts.get(f"{fold}_users"), len(rows))
               for fold, rows in folds.items()]
    if len(folds) == len(FOLDS):
        checks += [
            ("counts.users", counts.get("users"), sum(map(len, folds.values()))),
            ("counts.interactions", counts.get("interactions"),
             sum(len(items) for rows in folds.values() for _, items in rows)),
        ]
    checks.append(("vocabulary_digest", manifest.get("vocabulary_digest"), vocab.digest()))
    path = os.path.join(split_dir, "manifest.json")
    for field, found, expected in checks:
        if found != expected:
            raise ValueError(f"{path}: {field} is {found!r}, but the split has {expected!r}")
    ratio = manifest.get("fold_ratio")
    if isinstance(ratio, bool) or not isinstance(ratio, (int, float)) or not 0.0 < ratio < 1.0:
        raise ValueError(
            f"{path}: fold_ratio is {ratio!r}, expected a number strictly between 0 and 1")


def _read_folds(split_dir: str | os.PathLike, folds: Sequence[str]):
    """(manifest, vocabulary, fold name -> rows) of the named folds. Every
    line is checked before the manifest is compared with what was read."""
    d = str(split_dir)
    manifest = _read_manifest(d)
    vocab = _read_vocabulary(d)
    rows = {fold: _read_sequences(os.path.join(d, f"{fold}.tsv"), len(vocab),
                                  2 if fold in HELDOUT_FOLDS else 0)
            for fold in folds}
    _check_manifest(d, manifest, vocab, rows)
    return manifest, vocab, rows


def _heldout_users(rows, ratio: float) -> list[HeldoutUser]:
    return [HeldoutUser(u, *fold_split(items, ratio)) for u, items in rows]


def load_split(split_dir: str | os.PathLike) -> tuple[DatasetSplit, dict]:
    """Read a split directory back; fold boundaries come from the manifest.

    Malformed lines, item ids outside the vocabulary and held-out
    histories too short to fold (under 2 items) raise ParseError naming the
    file and line; after those, a manifest whose format, counts
    or vocabulary digest disagree with the files, or whose ``fold_ratio``
    is not a number strictly between 0 and 1, raises ValueError naming
    ``manifest.json`` and the field."""
    manifest, vocab, rows = _read_folds(split_dir, FOLDS)
    ratio = manifest["fold_ratio"]
    train = [UserSequence(u, items) for u, items in rows["train"]]
    split = DatasetSplit(train, _heldout_users(rows["validation"], ratio),
                         _heldout_users(rows["test"], ratio), vocab, ratio)
    return split, manifest


def load_heldout(split_dir: str | os.PathLike,
                 fold: str) -> tuple[list[HeldoutUser], Vocabulary, dict]:
    """One held-out fold of a split directory, with the vocabulary and the
    manifest: reads ``manifest.json``, ``vocabulary.tsv`` and the fold's
    file only, with ``load_split``'s checks on those."""
    if fold not in HELDOUT_FOLDS:
        raise ValueError(f"unknown held-out fold {fold!r}; expected validation or test")
    manifest, vocab, rows = _read_folds(split_dir, (fold,))
    return _heldout_users(rows[fold], manifest["fold_ratio"]), vocab, manifest


def file_digest(path: str | os.PathLike) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class PipelineConfig(FlatConfig):
    """Knobs for ``run_pipeline``, defaults matching the evaluation protocol."""

    delimiter: str = ","
    binarize_threshold: float = 3.0
    min_history: int = 5
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    fold_ratio: float = 0.8
    subsample_users: int | None = None
    strata_edges: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.delimiter:
            raise ValueError("delimiter must not be empty")
        if math.isnan(self.binarize_threshold):
            raise ValueError("binarize_threshold must not be nan")
        if self.min_history < 2:  # a held-out history must fold into two parts
            raise ValueError(f"min_history must be >= 2, got {self.min_history}")
        _check_fractions(self.fractions)
        if not 0.0 < self.fold_ratio < 1.0:  # false for nan too
            raise ValueError(f"fold_ratio must be strictly between 0 and 1, got {self.fold_ratio}")
        if self.subsample_users is not None and self.subsample_users < 1:
            raise ValueError(f"subsample_users must be >= 1, got {self.subsample_users}")
        if self.strata_edges is not None and (not self.strata_edges or min(self.strata_edges) < 1):
            raise ValueError(f"strata_edges must hold positive ints, got {self.strata_edges}")


def run_pipeline(ratings_path: str | os.PathLike, cfg: PipelineConfig) -> DatasetSplit:
    """log_sequences (columnar ingest, binarize and sequences) -> filter ->
    subsample -> split -> fold."""
    sequences, vocab = log_sequences(ratings_path, cfg.delimiter, cfg.binarize_threshold)
    sequences = filter_min_history(sequences, cfg.min_history)
    if cfg.subsample_users is not None:
        sequences = stratified_subsample(
            sequences, cfg.subsample_users, cfg.seed, cfg.strata_edges
        )
    train, val, test = split_users(sequences, cfg.fractions, cfg.seed)
    validation = [make_heldout(s, cfg.fold_ratio) for s in val]
    testing = [make_heldout(s, cfg.fold_ratio) for s in test]
    return DatasetSplit(train, validation, testing, vocab, cfg.fold_ratio)
