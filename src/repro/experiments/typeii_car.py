"""E5 — cross-polarized coincidences via type-II SFWM (Section III).

Paper claim: "a clear photon coincidence peak with a coincidence-to-
accidental ratio around 10 at 2 mW pump power was measured between
orthogonally polarized photon pairs", with the stimulated FWM process
"successfully suppressed".
"""

from __future__ import annotations

import dataclasses

from repro.core.schemes import TypeIIScheme
from repro.detection.coincidence import car_from_tags, coincidence_histogram
from repro.errors import ConfigurationError
from repro.experiments.base import ExperimentResult, batch_runner
from repro.utils.dispatch import validate_impl
from repro.utils.rng import RandomStream

PAPER_CLAIM = (
    "CAR ≈ 10 at 2 mW total pump between orthogonally polarized photons; "
    "stimulated FWM suppressed (Section III)"
)

PAPER_CAR = 10.0


def run(
    seed: int = 0,
    quick: bool = False,
    *,
    pump_mw: float | None = None,
    duration_s: float | None = None,
    impl: str | None = None,
) -> ExperimentResult:
    """Correlate the two PBS output ports of the type-II source.

    Overrides: ``pump_mw`` rescales the total dual-polarization pump
    (TE/TM ratio preserved), ``duration_s`` the correlation time, and
    ``impl`` the coincidence-counting implementation (``"vectorized"``,
    the default searchsorted fast path, or ``"loop"``, the reference).
    """
    impl = validate_impl("vectorized" if impl is None else impl, "E5 impl")
    scheme = TypeIIScheme()
    if pump_mw is not None:
        if pump_mw <= 0:
            raise ConfigurationError(f"E5 pump_mw must be > 0, got {pump_mw}")
        total_w = scheme.calibration.pump_te_w + scheme.calibration.pump_tm_w
        factor = pump_mw * 1e-3 / total_w
        scheme = dataclasses.replace(
            scheme,
            calibration=dataclasses.replace(
                scheme.calibration,
                pump_te_w=scheme.calibration.pump_te_w * factor,
                pump_tm_w=scheme.calibration.pump_tm_w * factor,
            ),
        )
    if duration_s is None:
        duration_s = 30.0 if quick else 120.0
    elif duration_s <= 0:
        raise ConfigurationError(f"E5 duration_s must be > 0, got {duration_s}")
    rng = RandomStream(seed, label="E5")

    te_clicks, tm_clicks = scheme.detected_streams(duration_s, rng)
    result = car_from_tags(
        te_clicks,
        tm_clicks,
        duration_s,
        window_s=scheme.calibration.coincidence_window_s,
        impl=impl,
    )
    centres, counts = coincidence_histogram(
        te_clicks, tm_clicks, bin_width_s=200e-12, max_delay_s=5e-9, impl=impl
    )

    process = scheme.process()
    pump = scheme.pump()
    headers = ["quantity", "value"]
    rows = [
        ["total pump power [mW]", pump.total_power_w * 1e3],
        ["generated pair rate [Hz]", scheme.pair_source().pair_rate_hz],
        ["TE-port singles rate [Hz]", te_clicks.size / duration_s],
        ["TM-port singles rate [Hz]", tm_clicks.size / duration_s],
        ["coincidences", result.coincidences],
        ["accidentals (mean)", result.accidentals_mean],
        ["CAR", round(result.car, 1)],
        ["CAR error", round(result.car_error, 1)],
        ["stimulated FWM suppression [dB]", process.stimulated_suppression_db()],
        ["TE/TM ladder offset [GHz]", scheme.device.ring.polarization_offset() / 1e9],
    ]
    stride = max(1, centres.size // 40)
    metrics = {
        "car": float(result.car),
        "car_error": float(result.car_error),
        "pump_total_mw": pump.total_power_w * 1e3,
        "stimulated_suppression_db": process.stimulated_suppression_db(),
        "coincidence_rate_hz": result.true_coincidence_rate_hz,
    }
    return ExperimentResult(
        experiment_id="E5",
        title="Type-II cross-polarized coincidence measurement",
        paper_claim=PAPER_CLAIM,
        headers=headers,
        rows=rows,
        metrics=metrics,
        series=[
            (
                "coincidence histogram",
                list(centres[::stride] * 1e9),
                list(counts[::stride]),
            )
        ],
    )


#: Batched-sweep entry point: all points in one in-process call.
run_batch = batch_runner(run)
