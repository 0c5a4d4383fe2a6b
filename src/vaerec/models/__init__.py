import numpy as np

from vaerec.models.config import ModelConfig
from vaerec.models.mvae import MultinomialVAE
from vaerec.models.rvae import PairwiseRankingVAE
from vaerec.models.svae import SequentialVAE

MODEL_KINDS = ("mvae", "rvae", "svae")


def build_model(kind: str, n_items: int, config: ModelConfig, n_users: int = 0,
                init: bool = True, dtype=np.float32):
    """Construct a model of the given kind, its parameters drawn from
    ``config.seed`` (in float64, then cast to ``dtype``, the dtype of its
    parameter arena). With ``init=False`` nothing is drawn or allocated: the
    parameters read as zero until the arena is first used, so that
    ``load_checkpoint`` can check a blob's size before allocating for it."""
    rng = np.random.default_rng(config.seed) if init else None
    if kind == "mvae":
        model = MultinomialVAE(n_items, config, rng, dtype)
    elif kind == "rvae":
        model = PairwiseRankingVAE(n_items, n_users, config, rng, dtype)
    elif kind == "svae":
        model = SequentialVAE(n_items, config, rng, dtype)
    else:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    if init:
        model.store.lay_out()
    return model
