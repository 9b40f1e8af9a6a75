"""Unit conversions used across the photonics and detection models."""

from __future__ import annotations

import math


def dbm_to_watts(power_dbm: float) -> float:
    """Convert an optical power from dBm to watts."""
    return 1e-3 * 10.0 ** (power_dbm / 10.0)


def watts_to_dbm(power_w: float) -> float:
    """Convert an optical power from watts to dBm.

    Raises :class:`ValueError` for non-positive powers, which have no dBm
    representation.
    """
    if power_w <= 0:
        raise ValueError(f"power must be positive to express in dBm, got {power_w!r}")
    return 10.0 * math.log10(power_w / 1e-3)


def db_to_linear(value_db: float) -> float:
    """Convert a ratio from decibels to a linear factor."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Convert a linear power ratio to decibels."""
    if value <= 0:
        raise ValueError(f"ratio must be positive to express in dB, got {value!r}")
    return 10.0 * math.log10(value)


def loss_db_to_transmission(loss_db: float) -> float:
    """Convert an insertion loss in dB (positive number) to a transmission.

    A loss of 3 dB maps to a transmission of ~0.501.  Negative losses (gain)
    are rejected because every component in this library is passive.
    """
    if loss_db < 0:
        raise ValueError(f"insertion loss must be >= 0 dB, got {loss_db!r}")
    return 10.0 ** (-loss_db / 10.0)
