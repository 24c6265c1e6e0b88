"""Variational Bayesian inference for multi-dimensional quantum parameter
estimation and nested-model selection.

Public surface by module:

* :mod:`vbi.probcore`    -- deterministic RNG streams and densities.
* :mod:`vbi.flows`       -- normalizing-flow posterior ansatz with exact
  inverse, log-density, and reverse-mode parameter gradients.
* :mod:`vbi.likelihoods` -- toy multi-frequency Ramsey model and the
  dynamical-decoupling spin model with nuisance parameters.
* :mod:`vbi.trainer`     -- Monte-Carlo ELBO, regularizers, ADAM training,
  surrogate information gain.
* :mod:`vbi.smc`         -- particle-filter baseline and error metrics.
* :mod:`vbi.selection`   -- one-pass thresholding of posterior draws, class
  probabilities, clustering, precision/recall/F1 and coupling-error scoring.
* :mod:`vbi.simulator`   -- synthetic datasets, measurement-time accounting,
  resolution bounds.
* :mod:`vbi.pipeline`    -- run-config format, config-driven fit
  (``fit_dataset``) and spin selection (``select_spins``), greedy comb
  initialization, PF-vs-VBI benchmark rows.
* :mod:`vbi.cli`         -- ``vbi simulate|fit|select|bench-pf|plotdata``, a
  shell over :mod:`vbi.pipeline`.
"""

from .flows import AnsatzSpec, FlowParameters, ansatz_log_density
from .likelihoods import (DDModel, MeasurementRecord, NuisanceParams, ToyModel,
                          dd_outcome_prob, dd_single_spin_term, log_joint,
                          toy_outcome_prob)
from .probcore import RngStream
from .selection import build_sample_set, cluster_spins, ml_metrics
from .simulator import ScenarioConfig, rayleigh_bounds, simulate_dataset
from .smc import pf_estimate, pf_init, pf_update, sorted_square_error
from .trainer import (PriorSpec, RegularizerSpec, TrainConfig, estimate_elbo,
                      surrogate_information_gain, train)

__version__ = "0.1.0"

__all__ = [
    "AnsatzSpec", "FlowParameters", "ansatz_log_density",
    "DDModel", "MeasurementRecord", "NuisanceParams", "ToyModel",
    "dd_outcome_prob", "dd_single_spin_term", "log_joint", "toy_outcome_prob",
    "RngStream", "build_sample_set", "cluster_spins", "ml_metrics",
    "ScenarioConfig", "rayleigh_bounds", "simulate_dataset",
    "pf_estimate", "pf_init", "pf_update", "sorted_square_error",
    "PriorSpec", "RegularizerSpec", "TrainConfig", "estimate_elbo",
    "surrogate_information_gain", "train",
]
