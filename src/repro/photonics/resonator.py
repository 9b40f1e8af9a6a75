"""High-Q microring resonator model.

The device at the heart of the paper: a four-port (add-drop) Hydex
microring with a 200 GHz free spectral range and a loaded linewidth around
110 MHz.  Everything the quantum experiments need from the ring reduces to

* the resonance ladder (per polarization, with dispersion),
* the loaded linewidth / quality factor / finesse,
* the intracavity field (intensity) enhancement, and
* the Lorentzian lineshape for filtering and JSA construction.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.constants import SPEED_OF_LIGHT, TELECOM_WAVELENGTH
from repro.errors import ConfigurationError, PhysicsError
from repro.photonics.waveguide import Waveguide


@dataclasses.dataclass(frozen=True)
class RingCoupling:
    """Coupling/loss budget of an add-drop ring.

    Parameters
    ----------
    self_coupling:
        Amplitude self-coupling t of each of the two (symmetric) couplers;
        the power cross-coupling is κ² = 1 - t².
    round_trip_transmission:
        Amplitude transmission a of one round trip (propagation loss only).
    """

    self_coupling: float
    round_trip_transmission: float

    def __post_init__(self) -> None:
        if not 0.0 < self.self_coupling < 1.0:
            raise ConfigurationError(
                f"self_coupling must be in (0, 1), got {self.self_coupling}"
            )
        if not 0.0 < self.round_trip_transmission <= 1.0:
            raise ConfigurationError(
                "round_trip_transmission must be in (0, 1], got "
                f"{self.round_trip_transmission}"
            )

    @property
    def cross_coupling_power(self) -> float:
        """κ² of each coupler."""
        return 1.0 - self.self_coupling**2

    @property
    def loop_factor(self) -> float:
        """t²·a — the amplitude factor per round trip seen by the cavity
        field in an add-drop ring (two couplers, one propagation loss)."""
        return self.self_coupling**2 * self.round_trip_transmission

    @property
    def finesse(self) -> float:
        """F = π·√(t²a) / (1 - t²a)."""
        loop = self.loop_factor
        return math.pi * math.sqrt(loop) / (1.0 - loop)

    @property
    def field_enhancement_power(self) -> float:
        """Resonant intracavity intensity build-up |E_cav/E_in|².

        κ² / (1 - t²a)² for the add-drop configuration.
        """
        return self.cross_coupling_power / (1.0 - self.loop_factor) ** 2

    @classmethod
    def from_finesse(
        cls, finesse: float, round_trip_transmission: float = 0.9995
    ) -> "RingCoupling":
        """Solve the self-coupling that realises a target finesse."""
        if finesse <= 0:
            raise ConfigurationError(f"finesse must be positive, got {finesse}")
        # F = pi sqrt(x)/(1-x) with x = t^2 a  =>  quadratic in sqrt(x).
        # Let s = sqrt(x): F(1 - s^2) = pi s  =>  F s^2 + pi s - F = 0.
        s = (-math.pi + math.sqrt(math.pi**2 + 4.0 * finesse**2)) / (2.0 * finesse)
        x = s**2
        t_sq = x / round_trip_transmission
        if not 0.0 < t_sq < 1.0:
            raise PhysicsError(
                f"finesse {finesse} unreachable with round-trip transmission "
                f"{round_trip_transmission}"
            )
        return cls(
            self_coupling=math.sqrt(t_sq),
            round_trip_transmission=round_trip_transmission,
        )


@dataclasses.dataclass(frozen=True)
class Microring:
    """An add-drop microring resonator on a given waveguide.

    Parameters
    ----------
    waveguide:
        Cross-section/material model supplying effective and group indices.
    radius_m:
        Ring radius; 200 GHz FSR needs ~135 µm in Hydex.
    coupling:
        Coupler/loss budget; sets linewidth, finesse, enhancement.
    center_wavelength_m:
        Wavelength at which indices are evaluated (pump wavelength).
    """

    waveguide: Waveguide
    radius_m: float
    coupling: RingCoupling
    center_wavelength_m: float = TELECOM_WAVELENGTH

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ConfigurationError(f"radius must be positive, got {self.radius_m}")

    @property
    def circumference_m(self) -> float:
        """Ring round-trip length L = 2πR."""
        return 2.0 * math.pi * self.radius_m

    def free_spectral_range(self, polarization: str = "TE") -> float:
        """FSR = c / (n_g·L) [Hz]."""
        n_g = self.waveguide.group_index(self.center_wavelength_m, polarization)
        return SPEED_OF_LIGHT / (n_g * self.circumference_m)

    def resonance_frequencies(
        self,
        orders: np.ndarray | range,
        polarization: str = "TE",
        anomalous_d2_hz: float = 0.0,
    ) -> np.ndarray:
        """Resonance ladder ν_m = ν₀(pol) + m·FSR(pol) + D₂·m²/2.

        ``orders`` are mode numbers relative to the resonance nearest the
        pump; ``anomalous_d2_hz`` is the integrated dispersion parameter D₂
        (positive = anomalous).  The absolute ladder position per
        polarization comes from the phase index, which is what offsets the
        TE and TM ladders in the type-II design.
        """
        orders = np.asarray(list(orders), dtype=float)
        fsr = self.free_spectral_range(polarization)
        nu0 = self.resonance_origin(polarization)
        return nu0 + orders * fsr + 0.5 * anomalous_d2_hz * orders**2

    def resonance_origin(self, polarization: str = "TE") -> float:
        """Frequency of the resonance closest to the centre wavelength.

        The ladder satisfies m·λ = n_eff·L; the fractional part of the mode
        number at the centre wavelength fixes where the comb sits, which
        differs between TE and TM by the modal birefringence.
        """
        n_eff = self.waveguide.effective_index(self.center_wavelength_m, polarization)
        center_frequency = SPEED_OF_LIGHT / self.center_wavelength_m
        mode_number = n_eff * self.circumference_m / self.center_wavelength_m
        nearest = round(mode_number)
        fsr = self.free_spectral_range(polarization)
        return center_frequency + (nearest - mode_number) * fsr

    def polarization_offset(self) -> float:
        """TE-TM ladder offset modulo one FSR [Hz] (Section III design knob)."""
        te = self.resonance_origin("TE")
        tm = self.resonance_origin("TM")
        fsr = self.free_spectral_range("TE")
        offset = (te - tm) % fsr
        if offset > fsr / 2:
            offset -= fsr
        return offset

    def linewidth_hz(self, polarization: str = "TE") -> float:
        """Loaded FWHM linewidth δν = FSR / finesse."""
        return self.free_spectral_range(polarization) / self.coupling.finesse

    def loaded_q(self, polarization: str = "TE") -> float:
        """Loaded quality factor Q = ν / δν."""
        nu = SPEED_OF_LIGHT / self.center_wavelength_m
        return nu / self.linewidth_hz(polarization)

    def photon_lifetime_s(self, polarization: str = "TE") -> float:
        """Cavity photon (energy) lifetime τ = 1/(2π·δν)."""
        return 1.0 / (2.0 * math.pi * self.linewidth_hz(polarization))

    def lorentzian_amplitude(
        self, detuning_hz: np.ndarray | float, polarization: str = "TE"
    ) -> np.ndarray:
        """Normalised complex Lorentzian field response at a detuning.

        L(Δ) = (δν/2) / (δν/2 - i·Δ); |L(0)| = 1.
        """
        half_width = self.linewidth_hz(polarization) / 2.0
        detuning = np.asarray(detuning_hz, dtype=float)
        return half_width / (half_width - 1j * detuning)

    def field_enhancement_power(self) -> float:
        """Resonant intracavity intensity enhancement."""
        return self.coupling.field_enhancement_power

    def circulating_power_w(self, input_power_w: float) -> float:
        """Intracavity circulating power for a resonant pump."""
        if input_power_w < 0:
            raise PhysicsError(f"input power must be >= 0, got {input_power_w}")
        return input_power_w * self.field_enhancement_power()


def ring_for_linewidth(
    waveguide: Waveguide,
    target_fsr_hz: float,
    target_linewidth_hz: float,
    center_wavelength_m: float = TELECOM_WAVELENGTH,
    round_trip_transmission: float = 0.9995,
) -> Microring:
    """Build a ring hitting a target FSR and loaded linewidth.

    Solves the radius from the group index and the coupling from the
    implied finesse — the construction path used by the paper-parameter
    preset (200 GHz, 110 MHz).
    """
    if target_fsr_hz <= 0 or target_linewidth_hz <= 0:
        raise ConfigurationError("FSR and linewidth targets must be positive")
    if target_linewidth_hz >= target_fsr_hz:
        raise ConfigurationError("linewidth must be far below the FSR")
    n_g = waveguide.group_index(center_wavelength_m, "TE")
    circumference = SPEED_OF_LIGHT / (n_g * target_fsr_hz)
    radius = circumference / (2.0 * math.pi)
    finesse = target_fsr_hz / target_linewidth_hz
    coupling = RingCoupling.from_finesse(finesse, round_trip_transmission)
    return Microring(
        waveguide=waveguide,
        radius_m=radius,
        coupling=coupling,
        center_wavelength_m=center_wavelength_m,
    )
