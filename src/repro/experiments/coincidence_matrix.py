"""E1 — the coincidence matrix of Section II.

Paper claim: "Clear coincidence peaks are visible on all symmetric channel
pairs, while no coincidences are measured between non-diagonal elements of
the frequency matrix."

The experiment measures coincidences between every combination of signal
channel s_m and idler channel i_n.  Energy conservation (ν_s + ν_i = 2ν_p)
entangles only symmetric pairs, so the true-coincidence matrix is
diagonal; off-diagonal cells contain only accidentals.
"""

from __future__ import annotations

import numpy as np

from repro.core.schemes import HeraldedSingleScheme
from repro.detection.coincidence import car_matrix
from repro.errors import ConfigurationError
from repro.experiments.base import ExperimentResult, integer_override
from repro.utils.rng import RandomStream

PAPER_CLAIM = (
    "coincidence peaks on all symmetric channel pairs; no coincidences "
    "between non-diagonal elements (Section II)"
)


def run(
    seed: int = 0,
    quick: bool = False,
    *,
    num_channels: int | None = None,
    duration_s: float | None = None,
) -> ExperimentResult:
    """Measure the full signal x idler coincidence matrix.

    Five independent channel pairs are generated; the detected click
    stream of signal channel m is correlated against the idler stream of
    channel n for all (m, n).

    Overrides: ``num_channels`` (2..5) sets the matrix size,
    ``duration_s`` the integration time per stream.
    """
    scheme = HeraldedSingleScheme()
    if num_channels is None:
        num_channels = 3 if quick else 5
    else:
        num_channels = integer_override("E1", "num_channels", num_channels)
        # Lower bound 2: the off-diagonal contrast metrics need at
        # least one off-diagonal cell.
        if not 2 <= num_channels <= scheme.calibration.num_channel_pairs:
            raise ConfigurationError(
                f"E1 num_channels must be in "
                f"2..{scheme.calibration.num_channel_pairs}, got {num_channels}"
            )
    if duration_s is None:
        duration_s = 10.0 if quick else 40.0
    elif duration_s <= 0:
        raise ConfigurationError(f"E1 duration_s must be > 0, got {duration_s}")
    rng = RandomStream(seed, label="E1")

    signal_streams = []
    idler_streams = []
    for order in range(1, num_channels + 1):
        signal, idler = scheme.detected_streams(order, duration_s, rng)
        signal_streams.append(signal)
        idler_streams.append(idler)

    matrix = np.zeros((num_channels, num_channels))
    cars = np.zeros((num_channels, num_channels))
    results = car_matrix(
        signal_streams,
        idler_streams,
        duration_s,
        window_s=scheme.calibration.coincidence_window_s,
    )
    for m, row in enumerate(results):
        for n, result in enumerate(row):
            matrix[m, n] = result.true_coincidence_rate_hz
            cars[m, n] = min(result.car, 1e4)

    headers = ["signal \\ idler"] + [f"i{n + 1}" for n in range(num_channels)]
    rows = []
    for m in range(num_channels):
        rows.append(
            [f"s{m + 1}"] + [float(matrix[m, n]) for n in range(num_channels)]
        )

    diagonal = np.diag(matrix)
    off_diagonal = matrix[~np.eye(num_channels, dtype=bool)]
    diagonal_cars = np.diag(cars)
    metrics = {
        "diagonal_rate_min_hz": float(diagonal.min()),
        "diagonal_rate_max_hz": float(diagonal.max()),
        "off_diagonal_rate_max_hz": float(off_diagonal.max()),
        "off_diagonal_rate_mean_hz": float(off_diagonal.mean()),
        "diagonal_car_min": float(diagonal_cars.min()),
        "contrast": float(diagonal.min() / max(off_diagonal.max(), 1e-6)),
    }
    return ExperimentResult(
        experiment_id="E1",
        title="Signal/idler coincidence matrix",
        paper_claim=PAPER_CLAIM,
        headers=headers,
        rows=rows,
        metrics=metrics,
    )
