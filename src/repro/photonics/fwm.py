"""Spontaneous four-wave mixing in the microring.

Two flavours matter for the paper:

* **type-0** (Section II/IV): a single pump resonance; signal/idler pairs
  appear on resonances symmetric about the pump, ν_s + ν_i = 2ν_p.  Its
  rate, quadratic in pump power, is
  ``core.calibration.HeraldedCalibration.generated_pair_rate_hz``.
* **type-II** (Section III): two orthogonally polarized pumps on a TE and
  a TM resonance; the pair is cross-polarized and satisfies
  ν_s + ν_i = ν_p(TE) + ν_p(TM).  The TE/TM ladder offset detunes the
  *stimulated* (degenerate, co-polarized) process off-resonance,
  suppressing it — the key design idea of [7].

The absolute pair rate depends on γ, cavity build-up and linewidth.  We
keep the exact power scaling (quadratic in circulating pump power) and
calibrate the single overall collection-independent constant to the
published rates; see ``core.calibration``.
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ConfigurationError, PhysicsError
from repro.photonics.resonator import Microring


def phase_mismatch_suppression(detuning_hz: float, linewidth_hz: float) -> float:
    """Lorentzian suppression of a process detuned from resonance.

    A parametric process whose target frequency misses the resonance by Δ
    is suppressed by the cavity density of states
    1 / (1 + (2Δ/δν)²) — the intensity Lorentzian.
    """
    if linewidth_hz <= 0:
        raise ConfigurationError("linewidth must be positive")
    return 1.0 / (1.0 + (2.0 * detuning_hz / linewidth_hz) ** 2)


@dataclasses.dataclass(frozen=True)
class TypeIIProcess:
    """Type-II SFWM from orthogonally polarized pumps (Section III).

    Parameters
    ----------
    ring:
        The microring; its TE/TM ladders supply offsets and FSR mismatch.
    pair_rate_coefficient_hz_per_w2:
        Cross-polarized pair rate per (W of TE pump × W of TM pump).
        Type-II cross-coupling is weaker than type-0 (the nonlinear overlap
        of orthogonal modes is about 1/3 in an isotropic medium).
    """

    ring: Microring
    pair_rate_coefficient_hz_per_w2: float = 1.3e9

    def pair_generation_rate_hz(
        self, pump_te_w: float, pump_tm_w: float, pair_order: int = 1
    ) -> float:
        """Cross-polarized pair rate with energy-conservation weighting.

        One pump photon is taken from each polarization, so the rate is
        bilinear in the two pump powers.  The residual energy mismatch of
        the signal/idler resonances (from the TE/TM FSR difference) enters
        as a Lorentzian suppression.
        """
        if pump_te_w < 0 or pump_tm_w < 0:
            raise PhysicsError("pump powers must be >= 0")
        mismatch = self.energy_mismatch_hz(pair_order)
        linewidth = self.ring.linewidth_hz("TE")
        suppression = phase_mismatch_suppression(mismatch, linewidth)
        return (
            self.pair_rate_coefficient_hz_per_w2
            * pump_te_w
            * pump_tm_w
            * suppression
        )

    def energy_mismatch_hz(self, pair_order: int) -> float:
        """(ν_s^TE + ν_i^TM) - (ν_p^TE + ν_p^TM) for the given pair order.

        Vanishes when TE and TM FSRs are equal; grows linearly with the
        FSR difference times the pair order.
        """
        if pair_order < 1:
            raise ConfigurationError(f"pair order must be >= 1, got {pair_order}")
        fsr_te = self.ring.free_spectral_range("TE")
        fsr_tm = self.ring.free_spectral_range("TM")
        # Signal on the TE ladder at +m, idler on the TM ladder at -m:
        # mismatch = m*FSR_TE - m*FSR_TM.
        return pair_order * (fsr_te - fsr_tm)

    def stimulated_suppression(self) -> float:
        """Suppression of the *stimulated* co-polarized FWM background.

        The stimulated process is seeded at the mean of the two pump
        frequencies; the TE/TM ladder offset δ puts that frequency half the
        offset away from the nearest resonance.  Returns the Lorentzian
        suppression factor (1 = not suppressed).
        """
        offset = abs(self.ring.polarization_offset())
        linewidth = self.ring.linewidth_hz("TE")
        return phase_mismatch_suppression(offset / 2.0, linewidth)

    def stimulated_suppression_db(self) -> float:
        """Stimulated-FWM suppression in dB (positive = suppressed)."""
        factor = self.stimulated_suppression()
        return -10.0 * math.log10(max(factor, 1e-300))
