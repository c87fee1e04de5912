"""Site-specific generative modeling of wireless channel parameters.

Learns mixture models of sparse channel coefficients from noisy,
compressed observations and generates physically consistent channel
parameters and realizations under arbitrary system configurations.

Submodules are imported lazily so the command-line front end can cap the
linear-algebra thread pools before numpy starts them.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "dictionary": [
        "OFDM",
        "SIMO",
        "AngleGrid",
        "DelayDopplerGrid",
        "Dictionary",
        "SystemConfig",
        "build_dictionary",
        "build_ofdm_dictionary",
        "build_simo_dictionary",
        "delay_matrix",
        "doppler_matrix",
        "load_dictionary",
        "steering_vector_ula",
        "swap_system_config",
        "ula_matrix",
        "unvectorize_channel",
        "vectorize_channel",
    ],
    "em": [
        "GAMMA_FLOOR",
        "EmTrace",
        "SbgmModel",
        "csgmm_e_step",
        "csgmm_fit",
        "csgmm_m_step",
        "kronecker_m_step",
        "kronecker_q_objective",
        "load_model",
        "msbl_fit",
        "save_model",
        "total_log_likelihood",
    ],
    "errors": [
        "ChanSbgmError",
        "InvalidArgumentError",
        "NumericError",
    ],
    "generation": [
        "GeneratedBatch",
        "conditional_covariance",
        "limit_batch_paths",
        "limit_paths",
        "load_batch",
        "render_channels",
        "sample_parameters",
        "save_batch",
    ],
    "metrics": [
        "angular_spread",
        "batch_angular_spreads",
        "cosine_similarity",
        "histogram_w1",
        "nmse",
        "power_angular_profile",
        "profile_support_leakage",
        "toeplitz_deviation",
    ],
    "posterior": [
        "ElboBreakdown",
        "PosteriorMoments",
        "csvae_elbo_terms",
        "marginal_cov_factor",
        "posterior_moments",
    ],
    "scenario": [
        "AngleComponent",
        "AngleProfile",
        "ObservationSet",
        "OfdmScenario",
        "draw_ofdm_channel",
        "draw_simo_channel",
        "evaluate_ofdm_channel",
        "laplacian_local_covariance",
        "make_observations",
        "normalize_dataset",
        "random_pilots",
        "sample_angle",
        "simo_channels",
        "simo_ground_truth",
    ],
}

_ATTR_TO_MODULE = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = sorted(_ATTR_TO_MODULE) + ["__version__"]


def __getattr__(name):
    module_name = _ATTR_TO_MODULE.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
