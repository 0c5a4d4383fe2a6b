"""Model hyperparameters.

Defaults reproduce the reference architecture: 64 latent factors, a 256-wide
item embedding feeding a 200-cell GRU, encoder layers of 150 and 64, decoder
layers of 64 and 150 (plus the catalog projection), 128-wide embeddings with
100/64 encoder layers for the pairwise ranking model, a 4-item prediction
horizon, and Adam with weight decay 0.01.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from vaerec.flatconfig import FlatConfig

LIKELIHOOD_MODES = ("next-k-multiset", "mixture")


@dataclass
class ModelConfig(FlatConfig):
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
        for name in ("latent_dim", "item_embedding_dim", "gru_hidden", "rvae_embedding_dim",
                     "k_horizon", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("encoder_widths", "decoder_widths", "rvae_encoder_widths"):
            widths = tuple(getattr(self, name))
            setattr(self, name, widths)
            if not widths or min(widths) < 1:
                raise ValueError(f"{name} must hold positive widths, got {widths}")
        if self.likelihood_mode not in LIKELIHOOD_MODES:
            raise ValueError(
                f"unknown likelihood_mode {self.likelihood_mode!r}; "
                f"expected one of {LIKELIHOOD_MODES}"
            )
        for name in ("epochs", "kl_anneal_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 < self.learning_rate < math.inf:  # false for nan too
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for name in ("weight_decay", "kl_weight"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
