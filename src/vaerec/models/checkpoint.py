"""Model checkpoints: a JSON manifest plus a flat little-endian blob, the
model's parameter arena in its dtype (float32 for a trained model).

The manifest records the model kind, full config, catalog size, the arena's
``dtype``, the epoch and validation score the parameters came from, the item
vocabulary (so a checkpoint can serve recommendations on its own), and a
per-tensor name/shape/offset index into the blob. Files are written to a
temp path and renamed, so an interrupted save leaves no partial checkpoint
behind.
"""

from __future__ import annotations

import itertools
import json
import math
import mmap
import os
import sys

import numpy as np

from vaerec.autodiff import DTYPES
from vaerec.data import write_json
from vaerec.models import MODEL_KINDS, build_model
from vaerec.models.config import ModelConfig

MANIFEST_SUFFIX = ".json"
PARAMS_SUFFIX = ".params"


def _atomic_write_bytes(path: str, blob) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def save_checkpoint(
    base_path: str | os.PathLike,
    model,
    vocab_raw_ids: list[str],
    vocabulary_digest: str,
    epoch: int,
    validation_score: float | None,
) -> None:
    base = str(base_path)
    tensors = [
        {"name": name, "shape": list(shape), "offset": offset, "size": math.prod(shape)}
        for name, shape, offset in model.store.layout()
    ]
    manifest = {
        "format": "vaerec-checkpoint-v1",
        "model": model.kind,
        "config": model.config.to_dict(),
        "n_items": model.n_items,
        "n_users": getattr(model, "n_users", 0),
        "dtype": model.store.dtype.name,
        "epoch": epoch,
        "validation_score": validation_score,
        "vocabulary": vocab_raw_ids,
        "vocabulary_digest": vocabulary_digest,
        "tensors": tensors,
    }
    # the arena is the blob (no copy on a little-endian machine); it goes
    # first: a manifest is the commit point, so a crash in between leaves at
    # most an orphaned blob, never a loadable half-checkpoint
    blob = np.ascontiguousarray(model.store.values, dtype=model.store.dtype.newbyteorder("<"))
    _atomic_write_bytes(base + PARAMS_SUFFIX, memoryview(blob))
    write_json(base + MANIFEST_SUFFIX, manifest)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and set(map(type, value)) <= {str}


def _check_manifest(manifest) -> None:
    """Every field that loading and serving read must be present with its
    type; otherwise ``ValueError`` names the field."""
    n_items = manifest.get("n_items")
    checks = [
        ("model", lambda v: v in MODEL_KINDS, f"one of {MODEL_KINDS}"),
        ("n_items", lambda v: _is_int(v) and v >= 1, "a positive integer"),
        ("n_users", lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
        ("dtype", lambda v: v in DTYPES, f"one of {DTYPES}"),
        ("config", lambda v: isinstance(v, dict), "an object"),
        ("tensors", lambda v: isinstance(v, list) and all(isinstance(e, dict) for e in v),
         "a list of objects"),
        ("vocabulary", lambda v: _is_str_list(v) and len(v) == n_items,
         f"a list of n_items = {n_items!r:.20} strings"),
        ("vocabulary_digest", lambda v: isinstance(v, str), "a string"),
    ]
    for field, ok, expected in checks:
        value = manifest.get(field)
        if not ok(value):
            raise ValueError(f"checkpoint manifest field {field!r} is {value!r:.60}, "
                             f"expected {expected}")


def _check_tensors(entries, layout) -> None:
    """The manifest must list exactly the model's tensors: same names,
    order, shapes and contiguous offsets."""
    for position, (entry, expected) in enumerate(itertools.zip_longest(entries, layout)):
        if expected is None:
            raise ValueError(f"checkpoint has unexpected tensor {entry.get('name')!r}")
        name, shape, offset = expected
        if entry is None:
            raise ValueError(f"checkpoint is missing tensor {name!r}")
        if entry.get("name") != name:
            raise ValueError(
                f"checkpoint tensor {position} is {entry.get('name')!r}, "
                f"the model expects {name!r}"
            )
        if entry.get("shape") != list(shape) or entry.get("size") != math.prod(shape):
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {entry.get('shape')} and size "
                f"{entry.get('size')}, the model expects {list(shape)}"
            )
        if entry.get("offset") != offset:
            raise ValueError(
                f"checkpoint tensor {name!r} starts at {entry.get('offset')}, expected {offset}"
            )


def _check_blob_size(n_bytes: int, layout, itemsize: int) -> None:
    """The blob must hold exactly the laid-out values, ``itemsize`` bytes
    each."""
    for name, shape, offset in layout:
        end = itemsize * (offset + math.prod(shape))
        if end > n_bytes:
            raise ValueError(
                f"checkpoint blob is truncated: {n_bytes} bytes, "
                f"tensor {name!r} ends at byte {end}"
            )
    if n_bytes > end:
        raise ValueError(
            f"checkpoint blob has {n_bytes - end} bytes after its last tensor {name!r}"
        )


def load_checkpoint(base_path: str | os.PathLike):
    """Rebuild the model with its saved parameters; returns (model, manifest).

    Only the model's layout is built, with no random draws, and the blob is
    mapped copy-on-write as its parameter arena: scoring reads only the pages
    it touches, and writes to the arena (a training step on a loaded model)
    go to private pages, never to the file. The manifest's tensor list must
    match that layout exactly and the blob must be exactly as long as the
    layout at the manifest's ``dtype``; otherwise ``ValueError`` names the
    offending tensor and byte count. A manifest field missing or of the
    wrong type, ``dtype`` included, is a ``ValueError`` naming the field, so
    a checkpoint saved before the manifest recorded a dtype must be
    retrained."""
    base = str(base_path)
    with open(base + MANIFEST_SUFFIX, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or manifest.get("format") != "vaerec-checkpoint-v1":
        raise ValueError(f"not a checkpoint manifest: {base + MANIFEST_SUFFIX}")
    _check_manifest(manifest)
    config = ModelConfig.from_mapping(manifest["config"])
    blob_dtype = np.dtype(manifest["dtype"]).newbyteorder("<")
    model = build_model(
        manifest["model"], manifest["n_items"], config, n_users=manifest["n_users"],
        init=False, dtype=manifest["dtype"],
    )
    layout = model.store.layout()
    _check_tensors(manifest["tensors"], layout)
    with open(base + PARAMS_SUFFIX, "rb") as fh:
        _check_blob_size(os.fstat(fh.fileno()).st_size, layout, blob_dtype.itemsize)
        try:
            mapping = mmap.mmap(fh.fileno(), blob_dtype.itemsize * model.store.n_values(),
                                access=mmap.ACCESS_COPY)
        except ValueError as err:  # shortened since the size check
            raise ValueError(f"checkpoint blob changed while being read: {fh.name}") from err
    arena = np.frombuffer(mapping, dtype=blob_dtype)
    if sys.byteorder != "little":
        arena = arena.astype(model.store.dtype)
    model.store.lay_out(arena)
    return model, manifest
