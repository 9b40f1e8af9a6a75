"""Physical constants and telecom conventions used throughout :mod:`repro`.

All values are in SI units unless the name says otherwise.  The telecom
constants encode the conventions of the DATE 2017 paper: a frequency comb on
a 200 GHz grid centred near 1550 nm, spanning the S, C and L bands.
"""

from __future__ import annotations

#: Speed of light in vacuum [m/s].
SPEED_OF_LIGHT = 299_792_458.0

#: Conventional centre of the telecom C band [m].
TELECOM_WAVELENGTH = 1550e-9

#: Frequency of the 1550 nm carrier [Hz] (~193.4 THz).
TELECOM_FREQUENCY = SPEED_OF_LIGHT / TELECOM_WAVELENGTH

#: Comb line spacing used by the paper's quantum frequency comb [Hz].
COMB_SPACING = 200e9

#: Telecom band edges, by band name, as (low, high) wavelength in metres.
TELECOM_BANDS = {
    "O": (1260e-9, 1360e-9),
    "E": (1360e-9, 1460e-9),
    "S": (1460e-9, 1530e-9),
    "C": (1530e-9, 1565e-9),
    "L": (1565e-9, 1625e-9),
    "U": (1625e-9, 1675e-9),
}


def frequency_to_wavelength(frequency_hz: float) -> float:
    """Convert an optical frequency [Hz] to a vacuum wavelength [m]."""
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz!r}")
    return SPEED_OF_LIGHT / frequency_hz


def band_of_wavelength(wavelength_m: float) -> str:
    """Return the telecom band letter ("O".."U") containing ``wavelength_m``.

    Raises :class:`ValueError` for wavelengths outside the standard bands.
    """
    for band, (low, high) in TELECOM_BANDS.items():
        if low <= wavelength_m < high:
            return band
    raise ValueError(
        f"wavelength {wavelength_m * 1e9:.1f} nm is outside the O..U telecom bands"
    )


def band_of_frequency(frequency_hz: float) -> str:
    """Return the telecom band letter containing an optical frequency [Hz]."""
    return band_of_wavelength(frequency_to_wavelength(frequency_hz))
