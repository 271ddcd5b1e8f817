"""Tabular synthesis: conditional GAN, mixture encoding, gated sampling."""

from twinforge.tabular.distance import emd_1d
from twinforge.tabular.encoding import ALPHA_SCALE
from twinforge.tabular.gan import (
    GanConfig,
    generate_rows,
    load_model,
    model_to_json,
    save_model,
    train_gan,
)
from twinforge.tabular.gate import GateConfig, column_distances, generate_gated
from twinforge.tabular.mixture import fit_mode_normalizer

__all__ = [
    "ALPHA_SCALE",
    "GanConfig",
    "GateConfig",
    "column_distances",
    "emd_1d",
    "fit_mode_normalizer",
    "generate_gated",
    "generate_rows",
    "load_model",
    "model_to_json",
    "save_model",
    "train_gan",
]
