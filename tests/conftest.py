from hypothesis import settings

from vaerec.models import ModelConfig

# CI selects this profile (pytest --hypothesis-profile=ci): derandomized runs
# draw the same examples every time, so a CI failure reproduces; local runs
# keep Hypothesis's random default.
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)


def toy_config(**overrides):
    """A model small enough to train in well under a second."""
    base = dict(
        latent_dim=3,
        item_embedding_dim=4,
        gru_hidden=4,
        encoder_widths=(5,),
        decoder_widths=(5,),
        rvae_embedding_dim=4,
        rvae_encoder_widths=(5,),
        k_horizon=2,
        learning_rate=1e-2,
        weight_decay=0.0,
        epochs=0,
        seed=7,
    )
    base.update(overrides)
    return ModelConfig(**base)
