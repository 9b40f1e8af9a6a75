"""Device presets: the two Hydex microring chips behind the paper.

The DATE summary draws on experiments performed with two generations of
Hydex rings from the same fab ([6]-[8]):

* a **high-Q** ring (loaded linewidth ≈ 110 MHz, Q ≈ 1.8·10⁶) used for the
  heralded-single-photon and time-bin experiments — the 110 MHz value is
  the linewidth Section II reports from time-resolved coincidences;
* a **type-II** ring (Q ≈ 2.4·10⁵, linewidth ≈ 800 MHz) whose broader
  resonances tolerate the residual TE/TM free-spectral-range mismatch so
  cross-polarized SFWM stays energy-matched across the comb.

Both share the 200 GHz free spectral range and the 1.5 × 1.45 µm waveguide
cross-section whose birefringence offsets the TE/TM resonance ladders —
the Section III mechanism that suppresses stimulated FWM.
"""

from __future__ import annotations

import dataclasses

from repro.constants import COMB_SPACING, TELECOM_WAVELENGTH
from repro.errors import ConfigurationError
from repro.photonics.resonator import Microring, ring_for_linewidth
from repro.photonics.waveguide import Waveguide


@dataclasses.dataclass(frozen=True)
class RingDevice:
    """A packaged ring chip: resonator plus its comb grid.

    Parameters
    ----------
    ring:
        The microring model.
    num_tracked_pairs:
        How many symmetric channel pairs the experiment monitors.
    name:
        Human-readable chip label for reports.
    """

    ring: Microring
    num_tracked_pairs: int = 7
    name: str = "hydex-ring"

    def __post_init__(self) -> None:
        if self.num_tracked_pairs < 1:
            raise ConfigurationError("must track at least one channel pair")

    @property
    def linewidth_hz(self) -> float:
        """Loaded linewidth of the TE resonances."""
        return self.ring.linewidth_hz("TE")

    def summary(self) -> dict[str, float]:
        """Key device numbers for reports."""
        return {
            "fsr_ghz": self.ring.free_spectral_range("TE") / 1e9,
            "linewidth_mhz": self.linewidth_hz / 1e6,
            "loaded_q": self.ring.loaded_q("TE"),
            "radius_um": self.ring.radius_m * 1e6,
            "field_enhancement": self.ring.field_enhancement_power(),
            "te_tm_offset_ghz": self.ring.polarization_offset() / 1e9,
        }


def hydex_ring_high_q(
    linewidth_hz: float = 110e6,
    fsr_hz: float = COMB_SPACING,
    num_tracked_pairs: int = 7,
) -> RingDevice:
    """The high-Q chip of Sections II, IV and V (110 MHz linewidth)."""
    ring = ring_for_linewidth(
        Waveguide(),
        target_fsr_hz=fsr_hz,
        target_linewidth_hz=linewidth_hz,
        center_wavelength_m=TELECOM_WAVELENGTH,
    )
    return RingDevice(
        ring=ring, num_tracked_pairs=num_tracked_pairs, name="hydex-high-q"
    )


def hydex_ring_type_ii(
    linewidth_hz: float = 800e6,
    fsr_hz: float = COMB_SPACING,
    num_tracked_pairs: int = 7,
) -> RingDevice:
    """The type-II chip of Section III (broader, FSR-mismatch tolerant).

    Its ~800 MHz linewidth exceeds the TE/TM free-spectral-range mismatch
    of the birefringent guide (~250 MHz per comb order), keeping the
    cross-polarized process energy-matched, while the ~80 GHz TE/TM ladder
    offset still suppresses stimulated FWM by > 30 dB.
    """
    ring = ring_for_linewidth(
        Waveguide(),
        target_fsr_hz=fsr_hz,
        target_linewidth_hz=linewidth_hz,
        center_wavelength_m=TELECOM_WAVELENGTH,
    )
    return RingDevice(
        ring=ring, num_tracked_pairs=num_tracked_pairs, name="hydex-type-ii"
    )
