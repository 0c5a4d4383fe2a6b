"""Model hyperparameters.

Defaults reproduce the reference architecture: 64 latent factors, a 256-wide
item embedding feeding a 200-cell GRU, encoder layers of 150 and 64, decoder
layers of 64 and 150 (plus the catalog projection), 128-wide embeddings with
100/64 encoder layers for the pairwise ranking model, a 4-item prediction
horizon, and Adam with weight decay 0.01.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass

LIKELIHOOD_MODES = ("next-k-multiset", "mixture")


@dataclass
class ModelConfig:
    latent_dim: int = 64
    item_embedding_dim: int = 256
    gru_hidden: int = 200
    encoder_widths: tuple[int, ...] = (150, 64)
    decoder_widths: tuple[int, ...] = (64, 150)
    rvae_embedding_dim: int = 128
    rvae_encoder_widths: tuple[int, ...] = (100, 64)
    k_horizon: int = 4
    likelihood_mode: str = "next-k-multiset"
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    kl_weight: float = 1.0
    kl_anneal_epochs: int = 0
    epochs: int = 20
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        self.encoder_widths = tuple(self.encoder_widths)
        self.decoder_widths = tuple(self.decoder_widths)
        self.rvae_encoder_widths = tuple(self.rvae_encoder_widths)
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if self.k_horizon < 1:
            raise ValueError(f"k_horizon must be >= 1, got {self.k_horizon}")
        for name in ("item_embedding_dim", "gru_hidden", "rvae_embedding_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("encoder_widths", "decoder_widths", "rvae_encoder_widths"):
            widths = getattr(self, name)
            if not widths or min(widths) < 1:
                raise ValueError(f"{name} must hold positive widths, got {widths}")
        if self.likelihood_mode not in LIKELIHOOD_MODES:
            raise ValueError(
                f"unknown likelihood_mode {self.likelihood_mode!r}; "
                f"expected one of {LIKELIHOOD_MODES}"
            )
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")

    def to_dict(self) -> dict:
        d = asdict(self)
        for name in ("encoder_widths", "decoder_widths", "rvae_encoder_widths"):
            d[name] = list(d[name])
        return d

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "ModelConfig":
        """Build from a flat string/native mapping, ignoring unrelated keys.
        A value that does not parse as its field's type is a ValueError
        naming the field."""
        if not isinstance(mapping, Mapping):
            raise ValueError(f"a config must be a mapping, got {type(mapping).__name__}")
        kwargs = {}
        for f_name, f_type in _FIELD_PARSERS.items():
            if f_name in mapping:
                try:
                    kwargs[f_name] = f_type(mapping[f_name])
                except (TypeError, ValueError, OverflowError):
                    raise ValueError(
                        f"config field {f_name}: cannot parse {mapping[f_name]!r:.60}"
                    ) from None
        return cls(**kwargs)


def _parse_widths(v) -> tuple[int, ...]:
    if isinstance(v, str):
        return tuple(int(x) for x in v.split(",") if x.strip())
    return tuple(int(x) for x in v)


def _parse_int(v) -> int:
    return int(v)


def _parse_float(v) -> float:
    return float(v)


_FIELD_PARSERS = {
    "latent_dim": _parse_int,
    "item_embedding_dim": _parse_int,
    "gru_hidden": _parse_int,
    "encoder_widths": _parse_widths,
    "decoder_widths": _parse_widths,
    "rvae_embedding_dim": _parse_int,
    "rvae_encoder_widths": _parse_widths,
    "k_horizon": _parse_int,
    "likelihood_mode": str,
    "learning_rate": _parse_float,
    "weight_decay": _parse_float,
    "kl_weight": _parse_float,
    "kl_anneal_epochs": _parse_int,
    "epochs": _parse_int,
    "batch_size": _parse_int,
    "seed": _parse_int,
}
