"""Registry mapping experiment ids to their drivers.

Every driver shares the uniform signature
``run(seed=0, quick=False, *, <overrides>)``: the keyword-only tail
names the physical parameters that run accepts as overrides (pump
power, integration time, shot counts, ...).  The registry introspects
that tail so callers — the CLI, the run engine, the service — can
validate parameter names up front (:func:`check_parameters`) and report
what a driver supports.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Iterable, Mapping

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

#: Experiment id → (driver, one-line description).
EXPERIMENTS: dict[str, tuple[Callable[..., ExperimentResult], str]] = {
    "E1": (coincidence_matrix.run, "signal/idler coincidence matrix (II)"),
    "E2": (car_rates.run, "per-channel CAR and pair rates at 15 mW (II)"),
    "E3": (coherence_time.run, "time-resolved linewidth, 110 MHz (II)"),
    "E4": (stability.run, "weeks-long < 5% stability (II)"),
    "E5": (typeii_car.run, "type-II CAR ~ 10 at 2 mW (III)"),
    "E6": (opo_power.run, "OPO threshold at 14 mW, quadratic->linear (III)"),
    "E7": (bell_fringes.run, "83% visibility + CHSH on 5 channels (IV)"),
    "E8": (four_photon.run, "89% four-photon interference (V)"),
    "E9": (tomography_fidelity.run, "tomography, 64% four-photon fidelity (V)"),
}


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


def check_parameters(experiment_id: str, names: Iterable[str]) -> None:
    """Reject override names the driver does not accept.

    The one home of the name check, so a typo'd override fails with the
    supported names before anything runs, whoever the caller is.
    """
    supported = experiment_parameters(experiment_id)
    unknown = sorted(set(names) - set(supported))
    if unknown:
        raise ConfigurationError(
            f"{experiment_id.upper()} does not accept parameter(s) "
            f"{unknown}; supported: {sorted(supported)}"
        )


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
