"""Malformed checkpoints and config files (model and pipeline): whatever the
damage, loading raises CliError, ValueError or ParseError (a ValueError),
never another exception type."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaerec.cli import CliError, read_config_file
from vaerec.data import ParseError, PipelineConfig
from vaerec.models import MODEL_KINDS, ModelConfig, build_model
from vaerec.models.checkpoint import (
    MANIFEST_SUFFIX,
    PARAMS_SUFFIX,
    load_checkpoint,
    save_checkpoint,
)

REJECTIONS = (CliError, ValueError, ParseError)

TOY = ModelConfig(
    latent_dim=2, item_embedding_dim=3, gru_hidden=3, encoder_widths=(4,), decoder_widths=(4,),
    rvae_embedding_dim=3, rvae_encoder_widths=(4,), seed=3,
)


def _checkpoint_files(kind: str) -> dict[str, bytes]:
    """The manifest and blob bytes of a toy checkpoint of ``kind``."""
    model = build_model(kind, 5, TOY, n_users=2)
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "model")
        save_checkpoint(base, model, [f"i{i}" for i in range(5)], "digest", epoch=1,
                        validation_score=0.5)
        files = {}
        for suffix in (MANIFEST_SUFFIX, PARAMS_SUFFIX):
            with open(base + suffix, "rb") as fh:
                files[suffix] = fh.read()
    return files


CHECKPOINTS = {kind: _checkpoint_files(kind) for kind in MODEL_KINDS}


def load_files(files: dict[str, bytes]):
    """Write ``files`` as a checkpoint and load it; returns the model."""
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "model")
        for suffix, blob in files.items():
            with open(base + suffix, "wb") as fh:
                fh.write(blob)
        return load_checkpoint(base)[0]


def load_or_reject(files: dict[str, bytes]) -> None:
    """Load ``files`` as a checkpoint; a rejection is fine, any other
    exception fails the test."""
    try:
        load_files(files)
    except REJECTIONS:
        pass


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


class TestCheckpointFuzz:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(MODEL_KINDS), suffix=st.sampled_from([MANIFEST_SUFFIX,
                                                                       PARAMS_SUFFIX]),
           data=st.data())
    def test_damaged_bytes(self, kind, suffix, data):
        files = dict(CHECKPOINTS[kind])
        blob = files[suffix]
        damage = data.draw(st.sampled_from(["flip", "truncate", "append"]))
        if damage == "flip":
            at = data.draw(st.integers(0, len(blob) - 1))
            mask = data.draw(st.integers(1, 255))
            blob = blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1 :]
        elif damage == "truncate":
            blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
        else:
            blob = blob + data.draw(st.binary(min_size=1, max_size=16))
        files[suffix] = blob
        load_or_reject(files)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(MODEL_KINDS), data=st.data())
    def test_edited_manifest(self, kind, data):
        """Walk a random path into the manifest, then replace the value
        there with arbitrary JSON or delete it."""
        manifest = json.loads(CHECKPOINTS[kind][MANIFEST_SUFFIX])
        parent, key, node = None, None, manifest
        while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            key = data.draw(st.sampled_from(keys))
            parent, node = node, node[key]
        if parent is None:
            manifest = data.draw(json_values)
        elif isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(json_values)
        files = dict(CHECKPOINTS[kind])
        files[MANIFEST_SUFFIX] = json.dumps(manifest).encode()
        load_or_reject(files)


def with_manifest(kind: str, **fields) -> dict[str, bytes]:
    """``kind``'s checkpoint files with manifest ``fields`` set, or removed
    where the value is None."""
    manifest = json.loads(CHECKPOINTS[kind][MANIFEST_SUFFIX])
    for field, value in fields.items():
        if value is None:
            del manifest[field]
        else:
            manifest[field] = value
    return {**CHECKPOINTS[kind], MANIFEST_SUFFIX: json.dumps(manifest).encode()}


@pytest.mark.parametrize("kind", MODEL_KINDS)
class TestCheckpointDtype:
    """The manifest's "dtype" names the blob's element type; a checkpoint
    without one, with another, or whose blob does not hold that many bytes
    fails naming the field or the byte count."""

    def test_a_float32_arena_maps_back_byte_for_byte(self, kind):
        model = build_model(kind, 5, TOY, n_users=2)
        files = CHECKPOINTS[kind]
        assert json.loads(files[MANIFEST_SUFFIX])["dtype"] == "float32"
        assert files[PARAMS_SUFFIX] == model.store.values.astype("<f4").tobytes()
        assert len(files[PARAMS_SUFFIX]) == 4 * model.store.n_values()
        loaded = load_files(files)
        assert loaded.store.values.dtype == np.float32
        assert loaded.store.values.tobytes() == model.store.values.tobytes()

    @pytest.mark.parametrize("dtype", [None, "float16", 64, ["float32"]])
    def test_missing_or_unknown_dtype_rejected(self, kind, dtype):
        with pytest.raises(ValueError, match="field 'dtype'"):
            load_files(with_manifest(kind, dtype=dtype))

    def test_float64_manifest_over_a_float32_blob_rejected(self, kind):
        n_bytes = len(CHECKPOINTS[kind][PARAMS_SUFFIX])
        with pytest.raises(ValueError, match=f"truncated: {n_bytes} bytes, tensor .* ends "
                                             f"at byte"):
            load_files(with_manifest(kind, dtype="float64"))

    def test_truncated_float32_blob_rejected(self, kind):
        files = dict(CHECKPOINTS[kind])
        n_bytes = len(files[PARAMS_SUFFIX])
        files[PARAMS_SUFFIX] = files[PARAMS_SUFFIX][:-2]
        with pytest.raises(ValueError, match=f"truncated: {n_bytes - 2} bytes.* ends at byte "
                                             f"{n_bytes}"):
            load_files(files)


CONFIGS = (ModelConfig, PipelineConfig)
FIELDS = sorted(set(ModelConfig.__dataclass_fields__) | set(PipelineConfig.__dataclass_fields__))
config_values = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["inf", "-inf", "nan", "1e999", "-1", "0", "1,,2", "3,x", "9" * 5000,
                     "next-k-multiset", "mixture", "1.5", " 7 ", "", ",", "::",
                     "0.8,0.1,0.1", "0.5,0.5", "8,16"]),
)
config_lines = st.one_of(
    st.tuples(st.sampled_from(FIELDS + ["unknown"]), config_values).map("=".join),
    st.text(max_size=12),
)


class TestConfigFileFuzz:
    @settings(max_examples=200, deadline=None)
    @given(content=st.one_of(
        st.lists(config_lines, max_size=6).map(lambda lines: "\n".join(lines).encode()),
        st.binary(max_size=64),
    ))
    def test_config_file_parses_or_is_rejected(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.conf")
            with open(path, "wb") as fh:
                fh.write(content)
            for config_cls in CONFIGS:
                try:
                    config_cls.from_mapping(read_config_file(path))
                except REJECTIONS:
                    pass

    @settings(max_examples=200, deadline=None)
    @given(mapping=st.one_of(
        st.dictionaries(st.sampled_from(FIELDS), json_values, max_size=4), json_values))
    def test_decoded_json_config_parses_or_is_rejected(self, mapping):
        for config_cls in CONFIGS:
            try:
                config_cls.from_mapping(mapping)
            except REJECTIONS:
                pass
