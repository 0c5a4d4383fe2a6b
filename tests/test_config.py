"""The two flat configs: ``from_mapping`` parses each field by its annotation,
``to_dict`` feeds manifests and ``config_digest``, and ``PipelineConfig``
checks its own fields."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaerec.data import PipelineConfig
from vaerec.models import ModelConfig
from vaerec.models.config import LIKELIHOOD_MODES

# captured from the previous release; split manifests, checkpoint manifests
# and config_digest all read these dicts
PIPELINE_DEFAULTS = {
    "binarize_threshold": 3.0, "delimiter": ",", "fold_ratio": 0.8,
    "fractions": [0.8, 0.1, 0.1], "min_history": 5, "seed": 0, "strata_edges": None,
    "subsample_users": None,
}
MODEL_DEFAULTS = {
    "batch_size": 64, "decoder_widths": [64, 150], "encoder_widths": [150, 64], "epochs": 20,
    "gru_hidden": 200, "item_embedding_dim": 256, "k_horizon": 4, "kl_anneal_epochs": 0,
    "kl_weight": 1.0, "latent_dim": 64, "learning_rate": 0.001,
    "likelihood_mode": "next-k-multiset", "rvae_embedding_dim": 128,
    "rvae_encoder_widths": [100, 64], "seed": 0, "weight_decay": 0.01,
}


def test_default_dicts_are_unchanged():
    assert PipelineConfig().to_dict() == PIPELINE_DEFAULTS
    assert ModelConfig().to_dict() == MODEL_DEFAULTS


def as_text(value) -> str:
    """A field value as a config file writes it."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


positive = st.integers(1, 10**6)
widths = st.lists(positive, min_size=1, max_size=3).map(tuple)
numbers = st.floats(allow_nan=False)
rates = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
weights = st.floats(min_value=0.0, allow_infinity=False)
# three positive fractions summing to 1 within rounding
fractions = st.tuples(*[st.floats(0.01, 1.0)] * 3).map(lambda f: tuple(x / sum(f) for x in f))

model_configs = st.builds(
    ModelConfig,
    latent_dim=positive, item_embedding_dim=positive, gru_hidden=positive,
    encoder_widths=widths, decoder_widths=widths, rvae_embedding_dim=positive,
    rvae_encoder_widths=widths, k_horizon=positive,
    likelihood_mode=st.sampled_from(LIKELIHOOD_MODES), learning_rate=rates,
    weight_decay=weights, kl_weight=weights, kl_anneal_epochs=st.integers(0, 10**6),
    epochs=st.integers(0, 10**6), batch_size=positive, seed=st.integers(-2**70, 2**70),
)
pipeline_configs = st.builds(
    PipelineConfig,
    delimiter=st.text(min_size=1, max_size=3).filter(lambda t: t.strip() == t),
    binarize_threshold=numbers,
    min_history=st.integers(2, 10**6),
    fractions=fractions,
    fold_ratio=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    subsample_users=st.none() | positive,
    strata_edges=st.none() | widths,
    seed=st.integers(-2**70, 2**70),
)


@settings(max_examples=150, deadline=None)
@given(cfg=st.one_of(model_configs, pipeline_configs))
def test_round_trip_through_dict_and_text(cfg):
    cls = type(cfg)
    assert cls.from_mapping(cfg.to_dict()) == cfg
    assert cls.from_mapping({k: as_text(v) for k, v in vars(cfg).items()}) == cfg


def test_unknown_keys_are_ignored_and_blank_optionals_are_none():
    cfg = PipelineConfig.from_mapping(
        {"latent_dim": "8", "subsample_users": "", "strata_edges": " ", "seed": "4"})
    assert cfg == PipelineConfig(seed=4)


@pytest.mark.parametrize("field, text", [
    ("min_history", "2.5"), ("fractions", "0.8,x,0.1"), ("fold_ratio", "1/2"),
    ("subsample_users", "ten"), ("strata_edges", "8;16"), ("seed", ""),
])
def test_unparsable_value_names_its_field(field, text):
    with pytest.raises(ValueError, match=f"config field {field}: cannot parse"):
        PipelineConfig.from_mapping({field: text})


# each value is invalid as a pipeline setting, in field and in text form
INVALID_PIPELINE = [
    ("subsample_users", 0, "0"),
    ("subsample_users", -3, "-3"),
    ("fold_ratio", 1.5, "1.5"),
    ("fold_ratio", math.nan, "nan"),
    ("fold_ratio", math.inf, "inf"),
    ("fold_ratio", 0.0, "0"),
    ("fold_ratio", 1.0, "1"),
    ("min_history", 1, "1"),
    ("fractions", (0.5, 0.5), "0.5,0.5"),
    ("fractions", (0.6, 0.2, 0.1, 0.1), "0.6,0.2,0.1,0.1"),
    ("strata_edges", (), ","),
    ("strata_edges", (8, 0), "8,0"),
    ("fractions", (0.5, 0.3, 0.3), "0.5,0.3,0.3"),
    ("fractions", (0.8, 0.0, 0.2), "0.8,0,0.2"),
    ("fractions", (0.5, math.nan, 0.5), "0.5,nan,0.5"),
    ("delimiter", "", ""),
    ("binarize_threshold", math.nan, "nan"),
]


@pytest.mark.parametrize("field, value, text", INVALID_PIPELINE)
def test_pipeline_config_rejects(field, value, text):
    with pytest.raises(ValueError, match=field):
        PipelineConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        PipelineConfig.from_mapping({field: text})


# each value is invalid as a model setting, in field and in text form
INVALID_MODEL = [
    ("learning_rate", -1.0, "-1"),
    ("learning_rate", 0.0, "0"),
    ("learning_rate", math.nan, "nan"),
    ("learning_rate", math.inf, "inf"),
    ("weight_decay", -0.01, "-0.01"),
    ("weight_decay", math.nan, "nan"),
    ("weight_decay", math.inf, "inf"),
    ("kl_weight", -1.0, "-1"),
    ("kl_weight", math.nan, "nan"),
    ("kl_weight", math.inf, "inf"),
    ("kl_anneal_epochs", -1, "-1"),
]


@pytest.mark.parametrize("field, value, text", INVALID_MODEL)
def test_model_config_rejects(field, value, text):
    with pytest.raises(ValueError, match=field):
        ModelConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        ModelConfig.from_mapping({field: text})
