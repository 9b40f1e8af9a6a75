"""Unit conversions used across the photonics and detection models."""

from __future__ import annotations


def loss_db_to_transmission(loss_db: float) -> float:
    """Convert an insertion loss in dB (positive number) to a transmission.

    A loss of 3 dB maps to a transmission of ~0.501.  Negative losses (gain)
    are rejected because every component in this library is passive.
    """
    if loss_db < 0:
        raise ValueError(f"insertion loss must be >= 0 dB, got {loss_db!r}")
    return 10.0 ** (-loss_db / 10.0)
