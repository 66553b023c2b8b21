"""Entropic uncertainty dynamics of a qutrit pair under non-Markovian damping."""

__version__ = "0.1.0"

from .channel import (
    ChannelParams,
    DerivedParams,
    KrausSet,
    apply_channel,
    apply_product_channel,
    decoherence_factor,
    decoherence_factor_ode,
    derive_params,
    kraus_set,
)
from .entropy import (
    EurSample,
    conditional_entropy,
    eur_left,
    eur_right,
    eur_sample,
    negativity,
    vn_entropy,
)
from .experiment import (
    SweepConfig,
    SweepRecord,
    SweepSummary,
    emit_csv,
    figure_preset,
    run_self_check,
    run_sweep,
    summarize,
)
from .linalg import partial_trace_a, partial_transpose_a
from .states_obs import (
    Observable,
    isotropic_state,
    max_overlap_c,
    measure_post_state,
    observable_from_matrix,
    spin1_observable,
)

__all__ = [
    "ChannelParams",
    "DerivedParams",
    "EurSample",
    "KrausSet",
    "Observable",
    "SweepConfig",
    "SweepRecord",
    "SweepSummary",
    "apply_channel",
    "apply_product_channel",
    "conditional_entropy",
    "decoherence_factor",
    "decoherence_factor_ode",
    "derive_params",
    "emit_csv",
    "eur_left",
    "eur_right",
    "eur_sample",
    "figure_preset",
    "isotropic_state",
    "kraus_set",
    "max_overlap_c",
    "measure_post_state",
    "negativity",
    "observable_from_matrix",
    "partial_trace_a",
    "partial_transpose_a",
    "run_self_check",
    "run_sweep",
    "spin1_observable",
    "summarize",
    "vn_entropy",
]
