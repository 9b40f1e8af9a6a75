#!/usr/bin/env python3
"""Scenario: designing and operating the type-II (cross-polarized) source.

Reproduces the Section III design reasoning end to end:

1. sweep the waveguide cross-section to engineer TE/TM birefringence;
2. verify that the resonance-ladder offset suppresses stimulated FWM
   while matched FSRs keep spontaneous type-II FWM energy-conserving;
3. operate the source at 2 mW and measure the cross-polarized CAR;
4. push the pump through the 14 mW OPO threshold.

Run:  python examples/cross_polarized_pairs.py
"""

import numpy as np

from repro import QuantumCombSource
from repro.detection.coincidence import car_from_tags
from repro.photonics.fwm import TypeIIProcess
from repro.photonics.resonator import ring_for_linewidth
from repro.photonics.waveguide import Waveguide
from repro.utils.rng import RandomStream
from repro.utils.tables import format_series, format_table

LAMBDA = 1550e-9


def design_sweep() -> None:
    """Step 1+2: birefringence and FSR mismatch vs waveguide width."""
    print("Design sweep: waveguide width vs TE/TM ladder properties\n")
    rows = []
    for width_um in (1.2, 1.35, 1.5, 1.65, 1.8):
        wg = Waveguide(width_m=width_um * 1e-6, height_m=1.45e-6)
        ring = ring_for_linewidth(wg, 200e9, 800e6)
        process = TypeIIProcess(ring)
        mismatch = ring.free_spectral_range("TE") - ring.free_spectral_range("TM")
        rows.append(
            [
                f"{width_um:.2f}",
                f"{wg.birefringence(LAMBDA):.2e}",
                f"{ring.polarization_offset() / 1e9:+.1f}",
                f"{mismatch / 1e6:+.0f}",
                f"{process.stimulated_suppression_db():.0f}",
            ]
        )
    print(
        format_table(
            [
                "width [um]",
                "birefringence",
                "TE-TM offset [GHz]",
                "FSR mismatch [MHz]",
                "stim. suppression [dB]",
            ],
            rows,
        )
    )
    print(
        "\nThe offset detunes the stimulated (co-polarized) process by tens"
        "\nof GHz — far outside the 0.8 GHz resonance — while the FSR"
        "\nmismatch stays within a linewidth, keeping spontaneous type-II"
        "\nFWM efficient: exactly the Section III design point.\n"
    )


def operate() -> None:
    """Step 3: run the source at 2 mW and measure CAR."""
    source = QuantumCombSource.paper_device()
    scheme = source.type_ii_scheme()
    rng = RandomStream(seed=11, label="type-ii-example")
    duration_s = 60.0
    te_clicks, tm_clicks = scheme.detected_streams(duration_s, rng)
    result = car_from_tags(
        te_clicks, tm_clicks, duration_s,
        window_s=scheme.calibration.coincidence_window_s,
    )
    print("Operating the type-II source at 2 mW total pump")
    print(f"  generated pair rate : {scheme.pair_source().pair_rate_hz:.0f} Hz")
    print(f"  measured CAR        : {result.car:.1f} ± {result.car_error:.1f}")
    print("  (paper: CAR ≈ 10 at 2 mW)\n")


def oscillation() -> None:
    """Step 4: drive through the OPO threshold."""
    source = QuantumCombSource.paper_device()
    oscillator = source.type_ii_scheme().oscillator()
    powers = np.linspace(2e-3, 28e-3, 14)
    outputs = oscillator.output_power_w(powers)
    print("Pushing through the OPO threshold (14 mW)")
    print(
        format_series(
            list(np.round(powers * 1e3, 1)),
            list(np.round(outputs * 1e6, 3)),
            "P_in [mW]",
            "P_out [uW]",
        )
    )


def main() -> None:
    design_sweep()
    operate()
    oscillation()


if __name__ == "__main__":
    main()
