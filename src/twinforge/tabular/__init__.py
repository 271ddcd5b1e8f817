"""Tabular synthesis: conditional GAN, mixture encoding, gated sampling."""

# Read by perfbench/make_model.py; every other name is imported from its module.
from twinforge.config import GanConfig
from twinforge.tabular.gan import model_to_json, train_gan
