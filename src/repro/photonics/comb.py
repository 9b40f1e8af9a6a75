"""The quantum frequency comb grid and its signal/idler channel pairs.

The paper's comb covers the full S, C and L telecom bands on a 200 GHz
grid, "centered at standard telecommunication channels".  Photon pairs are
always generated on channels *symmetric* about the pump (energy
conservation: ν_s + ν_i = 2ν_p), which is what the coincidence matrix of
Section II demonstrates.
"""

from __future__ import annotations

import dataclasses

from repro.constants import (
    COMB_SPACING,
    SPEED_OF_LIGHT,
    TELECOM_FREQUENCY,
    band_of_frequency,
)
from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class CombChannel:
    """One comb line, indexed relative to the pump (index 0)."""

    index: int
    frequency_hz: float

    @property
    def wavelength_m(self) -> float:
        """Vacuum wavelength of the channel."""
        return SPEED_OF_LIGHT / self.frequency_hz

    @property
    def band(self) -> str:
        """Telecom band letter (S/C/L for the paper's comb)."""
        return band_of_frequency(self.frequency_hz)

    @property
    def label(self) -> str:
        """Human-readable label like "s3" (signal) / "i3" (idler) / "pump"."""
        if self.index == 0:
            return "pump"
        side = "s" if self.index > 0 else "i"
        return f"{side}{abs(self.index)}"


@dataclasses.dataclass(frozen=True)
class ChannelPair:
    """A signal/idler pair symmetric about the pump."""

    signal: CombChannel
    idler: CombChannel

    def __post_init__(self) -> None:
        if self.signal.index != -self.idler.index:
            raise ConfigurationError(
                f"pair must be symmetric about the pump, got indices "
                f"{self.signal.index} and {self.idler.index}"
            )

    @property
    def order(self) -> int:
        """Symmetric pair order |m| (1 = nearest the pump)."""
        return abs(self.signal.index)

    @property
    def label(self) -> str:
        """Label like "±3"."""
        return f"±{self.order}"


class CombGrid:
    """A frequency comb grid centred on the pump channel.

    Parameters
    ----------
    pump_frequency_hz:
        Centre (pump) frequency; defaults to the 1550 nm carrier.
    spacing_hz:
        Line spacing; the paper uses 200 GHz.
    num_pairs:
        Number of symmetric channel pairs tracked on each side.
    """

    def __init__(
        self,
        pump_frequency_hz: float = TELECOM_FREQUENCY,
        spacing_hz: float = COMB_SPACING,
        num_pairs: int = 7,
    ) -> None:
        if pump_frequency_hz <= 0 or spacing_hz <= 0:
            raise ConfigurationError("frequencies must be positive")
        if num_pairs < 1:
            raise ConfigurationError(f"num_pairs must be >= 1, got {num_pairs}")
        self.pump_frequency_hz = float(pump_frequency_hz)
        self.spacing_hz = float(spacing_hz)
        self.num_pairs = int(num_pairs)

    def channel(self, index: int) -> CombChannel:
        """The comb line at signed ``index`` (0 = pump)."""
        if abs(index) > self.num_pairs:
            raise ConfigurationError(
                f"index {index} outside the tracked +/-{self.num_pairs} grid"
            )
        return CombChannel(
            index=index,
            frequency_hz=self.pump_frequency_hz + index * self.spacing_hz,
        )

    def pair(self, order: int) -> ChannelPair:
        """The symmetric signal/idler pair of the given order ≥ 1."""
        if order < 1:
            raise ConfigurationError(f"pair order must be >= 1, got {order}")
        return ChannelPair(signal=self.channel(order), idler=self.channel(-order))

    def pairs(self, count: int | None = None) -> list[ChannelPair]:
        """The first ``count`` symmetric pairs (default: all tracked)."""
        if count is None:
            count = self.num_pairs
        if count < 1 or count > self.num_pairs:
            raise ConfigurationError(
                f"count must be in [1, {self.num_pairs}], got {count}"
            )
        return [self.pair(m) for m in range(1, count + 1)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CombGrid(pump={self.pump_frequency_hz / 1e12:.4f} THz, "
            f"spacing={self.spacing_hz / 1e9:.0f} GHz, pairs={self.num_pairs})"
        )
