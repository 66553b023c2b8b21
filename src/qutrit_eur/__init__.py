"""Entropic uncertainty dynamics of a qutrit pair under non-Markovian damping."""

__version__ = "0.1.0"

from .channel import ChannelParams, dressed_amplitudes
from .entropy import evolved_isotropic_columns
from .states_obs import spin1_observable

__all__ = [
    "ChannelParams",
    "dressed_amplitudes",
    "evolved_isotropic_columns",
    "spin1_observable",
]
