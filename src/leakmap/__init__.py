"""Classical and quantum standard map with a phase-space leak.

Library layout:
  standard_map  closed/leaked map, tangent dynamics, FTLE, escape records
  ensemble      grid ensembles: FTLE/dwell fields, survival, leak scans
  quantum       quantized propagator, leak projector, resonance spectra
  tomography    coherent states, Husimi fields, Wehrl entropies
  formats       LCF1 binaries, CSV tables, PGM heatmaps
  config        experiment configuration files
  runner        composed experiment commands with manifests
  cli           `leakmap` command-line entry point

Submodules load lazily so the CLI can pin BLAS thread counts before numpy
initializes.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "standard_map",
    "ensemble",
    "quantum",
    "tomography",
    "formats",
    "config",
    "runner",
    "cli",
)

_EXPORTS = {
    "MapParams": "standard_map",
    "Leak": "standard_map",
    "TangentFrame": "standard_map",
    "EscapeRecord": "standard_map",
    "mod1": "standard_map",
    "step": "standard_map",
    "step_jacobian": "standard_map",
    "tangent_step": "standard_map",
    "ftle": "standard_map",
    "evolve_open": "standard_map",
    "PhaseSpaceGrid": "ensemble",
    "ScalarField": "ensemble",
    "ftle_ensemble": "ensemble",
    "ftle_field": "ensemble",
    "escape_ensemble": "ensemble",
    "dwell_ftle_field": "ensemble",
    "survival_probability": "ensemble",
    "exponential_tail_fit": "ensemble",
    "short_dwell_cutoff": "ensemble",
    "mean_ftle_by_dwell": "ensemble",
    "strip_mean_ftle": "ensemble",
    "strip_scan": "ensemble",
    "ftle_histogram": "ensemble",
    "histogram_mean": "ensemble",
    "leak_scan_classical": "ensemble",
    "QuantumParams": "quantum",
    "build_unitary": "quantum",
    "unitarity_defect": "quantum",
    "build_projector": "quantum",
    "open_propagator": "quantum",
    "resonance_spectrum": "quantum",
    "leak_scan_quantum": "quantum",
    "coherent_state": "tomography",
    "husimi": "tomography",
    "mean_husimi": "tomography",
    "wehrl_entropy": "tomography",
    "state_entropies": "tomography",
    "entropy_vs_dwell": "tomography",
    "leak_scan_entropy": "tomography",
    "ExperimentConfig": "config",
    "parse_config": "config",
    "serialize_config": "config",
}

__all__ = ["__version__", *_SUBMODULES, *_EXPORTS]


def __getattr__(name):
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
