"""Entropic uncertainty dynamics of a qutrit pair under non-Markovian damping."""

__version__ = "0.1.0"

from .channel import ChannelParams, apply_product_channel, kraus_set
from .entropy import eur_sample
from .states_obs import isotropic_state, spin1_observable

__all__ = [
    "ChannelParams",
    "apply_product_channel",
    "eur_sample",
    "isotropic_state",
    "kraus_set",
    "spin1_observable",
]
