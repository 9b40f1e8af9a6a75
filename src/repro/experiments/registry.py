"""Registry mapping experiment ids to their drivers.

Every driver shares the uniform signature
``run(seed=0, quick=False, *, <overrides>)``: the keyword-only tail
names the physical parameters that run accepts as overrides (pump
power, integration time, shot counts, ...).  The registry introspects
that tail (:func:`experiment_parameters`); the names and descriptions
callers check against without importing a driver are in
:mod:`repro.experiments.catalog`, whose :func:`check_parameters` this
module re-exports.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Mapping

from repro.errors import ConfigurationError
from repro.experiments import (
    bell_fringes,
    car_rates,
    coherence_time,
    coincidence_matrix,
    four_photon,
    opo_power,
    stability,
    tomography_fidelity,
    typeii_car,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.catalog import CATALOG, check_parameters

#: Experiment id → (driver, one-line description).
EXPERIMENTS: dict[str, tuple[Callable[..., ExperimentResult], str]] = {
    key: (driver, CATALOG[key][0])
    for key, driver in (
        ("E1", coincidence_matrix.run),
        ("E2", car_rates.run),
        ("E3", coherence_time.run),
        ("E4", stability.run),
        ("E5", typeii_car.run),
        ("E6", opo_power.run),
        ("E7", bell_fringes.run),
        ("E8", four_photon.run),
        ("E9", tomography_fidelity.run),
    )
}

__all__ = [
    "EXPERIMENTS", "check_parameters", "experiment_parameters",
    "get_experiment", "run_all", "run_experiment",
]


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """The driver for an experiment id (case-insensitive)."""
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key][0]


def experiment_parameters(experiment_id: str) -> dict[str, object]:
    """The override parameters a driver accepts (name → default).

    Overrides are the keyword-only parameters of the driver's uniform
    ``run(seed=0, quick=False, *, ...)`` signature.
    """
    driver = get_experiment(experiment_id)
    signature = inspect.signature(driver)
    return {
        name: parameter.default
        for name, parameter in signature.parameters.items()
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY
    }


def run_experiment(
    experiment_id: str,
    seed: int = 0,
    quick: bool = False,
    params: Mapping[str, object] | None = None,
) -> ExperimentResult:
    """Run one experiment by id, with optional parameter overrides.

    ``params`` keys are validated against the driver's keyword-only
    signature so a typo'd override fails with the supported names
    instead of a bare TypeError.
    """
    driver = get_experiment(experiment_id)
    overrides = dict(params or {})
    if not overrides:
        return driver(seed=seed, quick=quick)
    check_parameters(experiment_id, overrides)
    try:
        return driver(seed=seed, quick=quick, **overrides)
    except TypeError as error:
        # A non-numeric override (e.g. --set pump_mw=abc) surfaces as a
        # TypeError deep in the driver; report it as a configuration
        # problem with the offending values instead of a traceback.
        raise ConfigurationError(
            f"{experiment_id.upper()} rejected parameter values "
            f"{overrides}: {error}"
        ) from error


def run_all(seed: int = 0, quick: bool = True) -> dict[str, ExperimentResult]:
    """Run every experiment; returns id → result."""
    return {
        key: driver(seed=seed, quick=quick)
        for key, (driver, _) in EXPERIMENTS.items()
    }
