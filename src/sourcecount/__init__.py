"""Source-number detection for uniform linear arrays.

Estimates how many signals impinge on a ULA from the eigenvalues of the
sample covariance: small trained networks (ERNet regression, ECNet
classification, a covariance-input ablation), the classical AIC/MDL
criteria, and forward-backward spatial smoothing for coherent sources,
plus a seeded Monte-Carlo harness for accuracy sweeps.

The package root exports the documented library API; everything else
lives in the submodules.
"""

__version__ = "0.1.0"

from .classical import EigenSpectrum, aic, mdl
from .detectors import ClassicalDetector, Detector, DetectorSpec, load_detector, save_detector
from .experiments import (
    ExperimentConfig,
    emit_csv,
    evaluate_detectors,
    generate_trials,
    load_config,
    run_sweep,
    select_features,
    train_detector,
)
