"""The four pumping schemes as first-class objects.

Each scheme couples a device preset, a pump configuration and a
calibration, and exposes exactly the physics objects the corresponding
experiment consumes — photon-pair streams for the counting experiments,
density matrices for the interference/tomography experiments.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.calibration import (
    FOUR_PHOTON_DEFAULTS,
    HERALDED_DEFAULTS,
    TIME_BIN_DEFAULTS,
    TYPE_II_DEFAULTS,
    FourPhotonCalibration,
    HeraldedCalibration,
    TimeBinCalibration,
    TypeIICalibration,
)
from repro.core.device import RingDevice, hydex_ring_high_q, hydex_ring_type_ii
from repro.detection.components import PolarizingBeamSplitter
from repro.detection.spd import DetectorModel
from repro.detection.timetags import BiphotonSource, PairStream, thin_stream
from repro.errors import ConfigurationError
from repro.photonics.fwm import SFWMProcess, TypeIIProcess
from repro.photonics.opo import ParametricOscillator
from repro.photonics.pump import DoublePulsePump, DualPolarizationPump, SelfLockedPump
from repro.quantum.noise import add_white_noise
from repro.quantum.states import DensityMatrix
from repro.timebin.encoding import time_bin_bell_state, time_bin_multiphoton_state
from repro.timebin.stabilization import PhaseController
from repro.utils.rng import RandomStream


@dataclasses.dataclass(frozen=True)
class HeraldedSingleScheme:
    """Section II: self-locked CW pump → multiplexed heralded photons."""

    device: RingDevice = dataclasses.field(default_factory=hydex_ring_high_q)
    calibration: HeraldedCalibration = HERALDED_DEFAULTS
    pump: SelfLockedPump = SelfLockedPump(power_w=15e-3)

    def pair_source(self) -> BiphotonSource:
        """The per-channel biphoton source at the scheme's pump power."""
        return BiphotonSource(
            pair_rate_hz=self.calibration.generated_pair_rate_hz(
                self.pump.average_power_w()
            ),
            linewidth_hz=self.calibration.linewidth_hz,
        )

    def detector(self, channel_order: int) -> DetectorModel:
        """The calibrated detector for a channel pair's chain.

        The arm efficiency (filters + coupling + detector) is folded into
        the detector's efficiency so one thinning pass models the chain.
        """
        index = self._calibration_index(channel_order)
        return DetectorModel(
            efficiency=self.calibration.arm_efficiencies[index],
            dark_count_rate_hz=self.calibration.dark_rates_hz[index],
            jitter_sigma_s=self.calibration.detector_jitter_sigma_s,
            dead_time_s=self.calibration.detector_dead_time_s,
        )

    def detected_streams(
        self, channel_order: int, duration_s: float, rng: RandomStream
    ) -> tuple[np.ndarray, np.ndarray]:
        """Simulated (signal, idler) click streams for one channel pair."""
        pairs = self.pair_source().generate(
            duration_s, rng.child(f"pairs/{channel_order}")
        )
        detector = self.detector(channel_order)
        signal = detector.detect(
            pairs.signal_times_s, duration_s, rng.child(f"sig/{channel_order}")
        )
        idler = detector.detect(
            pairs.idler_times_s, duration_s, rng.child(f"idl/{channel_order}")
        )
        return signal, idler

    def sfwm_process(self) -> SFWMProcess:
        """The underlying type-0 SFWM physics object."""
        return SFWMProcess(
            ring=self.device.ring,
            pair_rate_coefficient_hz_per_w2=(
                self.calibration.pair_rate_coefficient_hz_per_w2
            ),
        )

    def _calibration_index(self, channel_order: int) -> int:
        if not 1 <= channel_order <= self.calibration.num_channel_pairs:
            raise ConfigurationError(
                f"channel order {channel_order} outside calibrated range "
                f"1..{self.calibration.num_channel_pairs}"
            )
        return channel_order - 1


@dataclasses.dataclass(frozen=True)
class TypeIIScheme:
    """Section III: orthogonally polarized pumps → cross-polarized pairs."""

    device: RingDevice = dataclasses.field(default_factory=hydex_ring_type_ii)
    calibration: TypeIICalibration = TYPE_II_DEFAULTS

    def pump(self) -> DualPolarizationPump:
        """The calibrated dual-polarization pump."""
        return DualPolarizationPump(
            power_te_w=self.calibration.pump_te_w,
            power_tm_w=self.calibration.pump_tm_w,
        )

    def process(self) -> TypeIIProcess:
        """The type-II SFWM physics object on the type-II chip."""
        return TypeIIProcess(
            ring=self.device.ring,
            pair_rate_coefficient_hz_per_w2=(
                self.calibration.pair_rate_coefficient_hz_per_w2
            ),
        )

    def pair_source(self, pump: DualPolarizationPump | None = None) -> BiphotonSource:
        """Cross-polarized pair source at the given (or default) pumps."""
        if pump is None:
            pump = self.pump()
        rate = self.process().pair_generation_rate_hz(
            pump.power_te_w, pump.power_tm_w, pair_order=1
        )
        return BiphotonSource(
            pair_rate_hz=rate, linewidth_hz=self.calibration.linewidth_hz
        )

    def detector(self) -> DetectorModel:
        """The calibrated detector for either PBS output port."""
        return DetectorModel(
            efficiency=self.calibration.arm_efficiency,
            dark_count_rate_hz=self.calibration.dark_rate_hz,
            jitter_sigma_s=self.calibration.detector_jitter_sigma_s,
            dead_time_s=self.calibration.detector_dead_time_s,
        )

    def detected_streams(
        self, duration_s: float, rng: RandomStream
    ) -> tuple[np.ndarray, np.ndarray]:
        """(TE-port, TM-port) click streams after the PBS."""
        pairs = self.pair_source().generate(duration_s, rng.child("pairs"))
        pbs = PolarizingBeamSplitter(
            extinction_ratio_db=self.calibration.pbs_extinction_db,
            insertion_loss_db=0.0,
        )
        te_sig, tm_leak_sig = pbs.split(pairs.signal_times_s, "TE", rng.child("ps"))
        te_leak_idl, tm_idl = pbs.split(pairs.idler_times_s, "TM", rng.child("pi"))
        # Each split keeps its input sorted: timsort merges the two runs.
        te_port = np.sort(np.concatenate([te_sig, te_leak_idl]), kind="stable")
        tm_port = np.sort(np.concatenate([tm_idl, tm_leak_sig]), kind="stable")
        detector = self.detector()
        clicks_te = detector.detect(te_port, duration_s, rng.child("dte"))
        clicks_tm = detector.detect(tm_port, duration_s, rng.child("dtm"))
        return clicks_te, clicks_tm

    def oscillator(self) -> ParametricOscillator:
        """The OPO transfer-curve model of the same cavity."""
        return ParametricOscillator(
            threshold_power_w=self.calibration.opo_threshold_w,
            below_threshold_coefficient_w_per_w2=(
                self.calibration.opo_below_coefficient_w_per_w2
            ),
            slope_efficiency=self.calibration.opo_slope_efficiency,
        )


@dataclasses.dataclass(frozen=True)
class TimeBinScheme:
    """Section IV: double-pulse pump → time-bin entangled pairs."""

    device: RingDevice = dataclasses.field(default_factory=hydex_ring_high_q)
    calibration: TimeBinCalibration = TIME_BIN_DEFAULTS
    pump_phase_rad: float = 0.0

    def pump(self) -> DoublePulsePump:
        """The calibrated double-pulse pump."""
        return DoublePulsePump(
            pulse_separation_s=self.calibration.pulse_separation_s,
            relative_phase_rad=self.pump_phase_rad,
            repetition_rate_hz=self.calibration.repetition_rate_hz,
        )

    def pair_state(self) -> DensityMatrix:
        """The (noisy) two-photon time-bin state on one channel pair.

        The ideal (|ee⟩ + e^{2iφ_p}|ll⟩)/√2 mixed with white noise from
        multi-pair emission and analyser contrast; residual interferometer
        phase noise is applied at measurement time by the controller.
        """
        ideal = time_bin_bell_state(self.pump_phase_rad)
        pure = DensityMatrix.from_ket(ideal, [2, 2])
        return add_white_noise(pure, self.calibration.state_visibility)

    def phase_controller(self) -> PhaseController:
        """The stabilised-analyser phase model."""
        return PhaseController(
            residual_sigma_rad=self.calibration.phase_noise_sigma_rad
        )

    def event_rate_hz(self) -> float:
        """Two-photon events per second reaching the analysers."""
        return self.calibration.coincidence_event_rate_hz()


@dataclasses.dataclass(frozen=True)
class MultiPhotonScheme:
    """Section V: same double pulse, four comb modes → two Bell pairs."""

    device: RingDevice = dataclasses.field(default_factory=hydex_ring_high_q)
    calibration: FourPhotonCalibration = FOUR_PHOTON_DEFAULTS
    pump_phase_rad: float = 0.0

    def four_photon_state(self) -> DensityMatrix:
        """|Bell⟩⊗|Bell⟩ with calibrated white noise."""
        ideal = time_bin_multiphoton_state(self.pump_phase_rad, 2)
        pure = DensityMatrix.from_ket(ideal, [2, 2, 2, 2])
        return add_white_noise(pure, self.calibration.state_visibility)

    def bell_state(self) -> DensityMatrix:
        """One constituent Bell pair (for the tomography reference)."""
        return self.four_photon_state().partial_trace([0, 1])

    def phase_controller(self) -> PhaseController:
        """The common analyser phase model."""
        return PhaseController(
            residual_sigma_rad=self.calibration.phase_noise_sigma_rad
        )


def scheme_catalog() -> dict[str, object]:
    """All four schemes with default settings, keyed by paper section."""
    return {
        "II-heralded": HeraldedSingleScheme(),
        "III-type-ii": TypeIIScheme(),
        "IV-time-bin": TimeBinScheme(),
        "V-multi-photon": MultiPhotonScheme(),
    }


# Re-exported for callers that build custom streams.
__all__ = [
    "HeraldedSingleScheme",
    "MultiPhotonScheme",
    "PairStream",
    "TimeBinScheme",
    "TypeIIScheme",
    "scheme_catalog",
    "thin_stream",
]
