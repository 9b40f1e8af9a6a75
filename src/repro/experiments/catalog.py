"""What each experiment is and which overrides it takes, without its driver.

The table behind every up-front check of an override name: the service's
``submit`` RPC, the run engine's miss path and ``repro list`` read it,
so a process that only serves cache hits never imports the drivers and,
with them, numpy and scipy.  Each entry mirrors its driver's uniform
``run(seed=0, quick=False, *, <overrides>)`` signature;
``tests/experiments/test_catalog.py`` holds the two together.  Pure
stdlib.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import ConfigurationError

#: Experiment id → (one-line description, override names in signature
#: order).
CATALOG: dict[str, tuple[str, tuple[str, ...]]] = {
    "E1": (
        "signal/idler coincidence matrix (II)",
        ("num_channels", "duration_s"),
    ),
    "E2": (
        "per-channel CAR and pair rates at 15 mW (II)",
        ("pump_mw", "duration_s"),
    ),
    "E3": ("time-resolved linewidth, 110 MHz (II)", ("duration_s",)),
    "E4": (
        "weeks-long < 5% stability (II)",
        ("duration_days", "sample_interval_s"),
    ),
    "E5": ("type-II CAR ~ 10 at 2 mW (III)", ("pump_mw", "duration_s")),
    "E6": (
        "OPO threshold at 14 mW, quadratic->linear (III)",
        ("pump_mw", "max_pump_mw", "num_points"),
    ),
    "E7": (
        "83% visibility + CHSH on 5 channels (IV)",
        ("num_channels", "pump_phase_rad", "dwell_s"),
    ),
    "E8": ("89% four-photon interference (V)", ("dwell_s", "num_steps")),
    "E9": (
        "tomography, 64% four-photon fidelity (V)",
        ("bell_shots", "four_shots"),
    ),
}


def check_parameters(experiment_id: str, names: Iterable[str]) -> None:
    """Reject an unknown experiment, or override names its driver does
    not accept.

    The one home of the name check, so a typo'd override fails with the
    supported names before anything runs, whoever the caller is.
    """
    key = experiment_id.upper()
    if key not in CATALOG:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{sorted(CATALOG)}"
        )
    supported = CATALOG[key][1]
    unknown = sorted(set(names) - set(supported))
    if unknown:
        raise ConfigurationError(
            f"{key} does not accept parameter(s) "
            f"{unknown}; supported: {sorted(supported)}"
        )
