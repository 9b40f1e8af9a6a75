"""E7 — time-bin quantum interference and CHSH violation (Section IV).

Paper claim: "With a visibility of 83 % (without background correction) we
obtain a violation of the Clauser-Horne-Shimony-Holt (Bell-like)
inequality [...] in all the 5 channels of frequency pairs symmetric to the
pump, thus underlying the simultaneous generation of multiplexed time-bin
entangled photon pairs."
"""

from __future__ import annotations

import math

from repro.core.schemes import TimeBinScheme
from repro.errors import ConfigurationError
from repro.experiments.base import ExperimentResult, integer_override
from repro.quantum.bell import (
    CLASSICAL_BOUND,
    chsh_value,
    horodecki_chsh_maximum,
    visibility_to_chsh,
)
from repro.timebin.fringes import FringeScan
from repro.utils.rng import RandomStream

PAPER_CLAIM = (
    "83 % raw visibility; CHSH violated on all 5 symmetric channel pairs "
    "(Section IV)"
)

PAPER_VISIBILITY = 0.83


def run(
    seed: int = 0,
    quick: bool = False,
    *,
    num_channels: int | None = None,
    pump_phase_rad: float | None = None,
    dwell_s: float | None = None,
) -> ExperimentResult:
    """Scan interference fringes on each channel pair; derive CHSH.

    For every channel the fitted fringe visibility V maps to
    S = 2√2·V (Werner-state relation); the Horodecki maximum of the
    simulated state cross-checks the mapping.

    Overrides: ``num_channels`` (1..5) limits the scanned channel pairs,
    ``pump_phase_rad`` sets the double-pulse pump phase (rotating the
    generated Bell state) and ``dwell_s`` the per-step integration time.
    """
    scheme = (
        TimeBinScheme()
        if pump_phase_rad is None
        else TimeBinScheme(pump_phase_rad=float(pump_phase_rad))
    )
    rng = RandomStream(seed, label="E7")
    if num_channels is None:
        num_channels = 2 if quick else scheme.calibration.num_channel_pairs
    else:
        num_channels = integer_override("E7", "num_channels", num_channels)
        if not 1 <= num_channels <= scheme.calibration.num_channel_pairs:
            raise ConfigurationError(
                f"E7 num_channels must be in "
                f"1..{scheme.calibration.num_channel_pairs}, got {num_channels}"
            )
    if dwell_s is None:
        dwell = 10.0 if quick else scheme.calibration.dwell_time_s
    elif dwell_s <= 0:
        raise ConfigurationError(f"E7 dwell_s must be > 0, got {dwell_s}")
    else:
        dwell = float(dwell_s)

    state = scheme.pair_state()
    controller = scheme.phase_controller()
    base_rate = scheme.event_rate_hz()

    headers = [
        "channel pair",
        "visibility",
        "vis err",
        "S = 2√2·V",
        "S err",
        "violates CHSH",
    ]
    rows = []
    visibilities = []
    s_values = []
    violations = 0
    for order in range(1, num_channels + 1):
        # Outer channels pass slightly lossier filters: rate drops a few
        # percent per order, visibility is unaffected (loss is heralded
        # away by post-selection).
        rate = base_rate * (1.0 - 0.05 * (order - 1))
        scan = FringeScan(
            state=state,
            event_rate_hz=rate,
            dwell_time_s=dwell,
            controller=controller,
        )
        result = scan.run(rng.child(f"ch{order}"))
        visibility = result.visibility
        s_value = visibility_to_chsh(min(visibility, 1.0))
        s_error = visibility_to_chsh(result.visibility_error)
        violated = s_value - 2.0 * s_error > CLASSICAL_BOUND
        violations += int(violated)
        visibilities.append(visibility)
        s_values.append(s_value)
        rows.append(
            [
                f"±{order}",
                round(visibility, 3),
                round(result.visibility_error, 3),
                round(s_value, 3),
                round(s_error, 3),
                violated,
            ]
        )

    mean_visibility = sum(visibilities) / len(visibilities)
    metrics = {
        "visibility_mean": float(mean_visibility),
        "visibility_min": float(min(visibilities)),
        "visibility_max": float(max(visibilities)),
        "s_mean": float(sum(s_values) / len(s_values)),
        "s_min": float(min(s_values)),
        "channels_violating": float(violations),
        "num_channels": float(num_channels),
        "state_horodecki_s": float(horodecki_chsh_maximum(state)),
        "state_chsh_optimal_settings": float(chsh_value(state)),
        "expected_visibility": float(
            scheme.calibration.state_visibility
            * math.exp(-(scheme.calibration.phase_noise_sigma_rad**2))
        ),
    }
    return ExperimentResult(
        experiment_id="E7",
        title="Time-bin interference and CHSH on 5 channel pairs",
        paper_claim=PAPER_CLAIM,
        headers=headers,
        rows=rows,
        metrics=metrics,
    )
