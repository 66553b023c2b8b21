"""Names and units of every metric the benchmark reports.

The per-function list is fixed to the 40 public functions of the package
as first benchmarked, so the metric set stays the same when the program
adds or removes functions: a function that no longer exists reads 0, and
a new one still counts towards its layer's totals.
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ms_per_sample": "ms",
    "peak_rss_mb": "MiB",
}

FUNCTIONS = {
    "linalg": (
        "hermitian_part", "require_hermitian", "require_density_matrix", "kron",
        "partial_trace_a", "partial_transpose_a", "eig_hermitian", "trace_norm_hermitian",
    ),
    "channel": (
        "derive_params", "decoherence_factor", "decoherence_factor_ode", "kraus_set",
        "apply_channel", "apply_product_channel",
    ),
    "states_obs": (
        "isotropic_state", "observable_from_matrix", "spin1_observable", "max_overlap_c",
        "measure_post_state",
    ),
    "entropy": (
        "vn_entropy", "conditional_entropy", "eur_left", "eur_right", "negativity", "eur_sample",
    ),
    "experiment": (
        "run_sweep", "local_minima_indices", "local_maxima_indices", "summarize",
        "figure_preset", "canonical_params", "emit_csv", "write_summary", "check_cptp",
        "oracle_grid", "check_oracle", "check_uncertainty_inequality", "run_self_check",
    ),
    "cli": ("build_parser", "main"),
}
NUMPY_FUNCTIONS = ("eigvalsh", "eigh", "kron")
LAYER_NAMES = tuple(FUNCTIONS) + ("numpy",)

CALLS_UNIT = "count/op"
SELF_UNIT = "s/op"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, names in FUNCTIONS.items():
        for fn in names:
            units[f"{layer}.{fn}.calls"] = CALLS_UNIT
            units[f"{layer}.{fn}.self_s"] = SELF_UNIT
    for fn in NUMPY_FUNCTIONS:
        units[f"numpy.{fn}.calls"] = CALLS_UNIT
        units[f"numpy.{fn}.self_s"] = SELF_UNIT
    units["numpy.eigvalsh.matrices"] = CALLS_UNIT
    units["numpy.eigvalsh.n3_sum"] = CALLS_UNIT
    for layer in LAYER_NAMES:
        units[f"{layer}.calls"] = CALLS_UNIT
        units[f"{layer}.self_s"] = SELF_UNIT
    units["trace.overhead_s"] = "s"
    return units
