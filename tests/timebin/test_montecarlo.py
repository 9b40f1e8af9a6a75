"""Click-level Monte Carlo of the time-bin analysis chain, and its tests.

The density-matrix path (:mod:`repro.timebin.postselect`) that E7 and E8
use computes post-selected probabilities directly.  The model in this
file instead simulates what the laboratory actually records: *time
tags*.  Per double pulse, the joint arrival-slot outcome of the two
photons is drawn from the quantum joint distribution (Born rule over the
slot POVMs of both analysers); each detected photon then becomes a time
tag at

    t_pulse + slot · ΔT + jitter

and the analysis — exactly as the paper describes — uses the pulsed-laser
reference to bin tags into slots and post-select central-slot
coincidences.  The tests check that this path agrees with the POVM path.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.quantum import hilbert
from repro.quantum.noise import add_white_noise
from repro.quantum.states import DensityMatrix
from repro.timebin.encoding import time_bin_bell_state
from repro.timebin.interferometer import UnbalancedMichelson
from repro.timebin.postselect import coincidence_probability
from repro.utils.fitting import fit_fringe
from repro.utils.rng import RandomStream


def slot_povms(phase_rad: float, transmission: float = 1.0) -> list[np.ndarray]:
    """The four-outcome POVM of one analyser: slots 0, 1, 2 and loss.

    Slot 0 (early+short) and slot 2 (late+long) reveal the photon's time
    bin; slot 1 is the interfering central slot; the remainder (photon
    exits the unmonitored port) is the loss outcome.
    """
    if not 0.0 < transmission <= 1.0:
        raise ConfigurationError("transmission must be in (0, 1]")
    early = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    late = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    w = np.array([np.exp(-1j * phase_rad), 1.0], dtype=complex)
    central = np.outer(w, w.conj())
    scale = transmission / 4.0
    slots = [scale * early, scale * central, scale * late]
    loss = np.eye(2, dtype=complex) - sum(slots)
    return slots + [loss]


@dataclasses.dataclass(frozen=True)
class TimeBinTagRecord:
    """Time tags of one simulated run plus the pulse-train reference."""

    alice_tags_s: np.ndarray
    bob_tags_s: np.ndarray
    alice_pulse_index: np.ndarray
    bob_pulse_index: np.ndarray
    pulse_period_s: float
    bin_separation_s: float


@dataclasses.dataclass(frozen=True)
class TimeBinCoincidenceSimulator:
    """Monte-Carlo of the two-analyser time-bin measurement.

    Parameters
    ----------
    state:
        The (possibly noisy) two-photon time-bin state per generated pair.
    alice / bob:
        The two analysis interferometers (phases matter; their imbalance
        must equal ``bin_separation_s``).
    bin_separation_s / repetition_rate_hz:
        Double-pulse timing of the pump.
    jitter_sigma_s:
        Detector timing jitter applied to every tag.
    """

    state: DensityMatrix
    alice: UnbalancedMichelson
    bob: UnbalancedMichelson
    bin_separation_s: float = 11.1e-9
    repetition_rate_hz: float = 16.8e6
    jitter_sigma_s: float = 120e-12

    def __post_init__(self) -> None:
        if self.state.dims != (2, 2):
            raise ConfigurationError(
                f"need a two-photon time-bin state, got dims {self.state.dims}"
            )
        for analyser in (self.alice, self.bob):
            if not analyser.matched_to_pump(
                self.bin_separation_s, tolerance_s=2e-9
            ):
                raise ConfigurationError(
                    "analyser imbalance does not match the bin separation"
                )
        if 3.0 * self.bin_separation_s * self.repetition_rate_hz >= 1.0:
            raise ConfigurationError(
                "slots of adjacent pulses overlap; reduce the repetition rate"
            )

    def joint_slot_distribution(self) -> np.ndarray:
        """4x4 matrix of P(alice outcome, bob outcome); sums to one.

        Outcome order per photon: slot 0, slot 1 (central), slot 2, loss.
        """
        povms_a = slot_povms(self.alice.phase_rad, self.alice.transmission)
        povms_b = slot_povms(self.bob.phase_rad, self.bob.transmission)
        joint = np.empty((4, 4))
        for i, m_a in enumerate(povms_a):
            for j, m_b in enumerate(povms_b):
                joint[i, j] = self.state.probability(hilbert.tensor(m_a, m_b))
        total = joint.sum()
        if not 0.999 <= total <= 1.001:
            raise ConfigurationError(
                f"joint slot distribution sums to {total:.6f}; POVM broken"
            )
        return joint / total

    def simulate(
        self, num_pairs: int, rng: RandomStream
    ) -> TimeBinTagRecord:
        """Draw ``num_pairs`` pair outcomes and emit time tags.

        Jitter is drawn one normal per *pair position* (not per
        detected tag) and masked down to the detected subset, so each
        pair consumes a fixed number of draws.
        """
        if num_pairs < 1:
            raise ConfigurationError("need at least one pair")
        joint = self.joint_slot_distribution()
        flat = joint.reshape(-1)
        outcomes = rng.choice(np.arange(16), size=num_pairs, p=flat)
        alice_slots = outcomes // 4
        bob_slots = outcomes % 4
        period = 1.0 / self.repetition_rate_hz
        pulse_indices = np.arange(num_pairs)

        def tags_for(slots: np.ndarray, label: str):
            detected = slots < 3
            indices = pulse_indices[detected]
            slot_values = slots[detected]
            jitter = rng.child(label).normal(
                0.0, self.jitter_sigma_s, num_pairs
            )
            times = (
                indices * period
                + slot_values * self.bin_separation_s
                + jitter[detected]
            )
            return times, indices

        alice_tags, alice_idx = tags_for(alice_slots, "alice")
        bob_tags, bob_idx = tags_for(bob_slots, "bob")
        return TimeBinTagRecord(
            alice_tags_s=alice_tags,
            bob_tags_s=bob_tags,
            alice_pulse_index=alice_idx,
            bob_pulse_index=bob_idx,
            pulse_period_s=period,
            bin_separation_s=self.bin_separation_s,
        )

    def count_central_coincidences(self, record: TimeBinTagRecord) -> int:
        """Post-select central-slot coincidences from the raw tags.

        Implements the paper's analysis: each tag is referenced to its
        pulse (the "reference of the pulsed laser"), its slot recovered
        from the arrival time modulo the pulse period, and only events
        with *both* photons in slot 1 of the *same* pulse are kept.
        """
        pulse_a, slot_a = _classify_slot_arrays(record.alice_tags_s, record)
        pulse_b, slot_b = _classify_slot_arrays(record.bob_tags_s, record)
        central_a = np.unique(pulse_a[slot_a == 1])
        central_b = np.unique(pulse_b[slot_b == 1])
        return int(np.intersect1d(central_a, central_b,
                                  assume_unique=True).size)

    def fringe_scan(
        self,
        phases_rad: np.ndarray,
        pairs_per_point: int,
        rng: RandomStream,
    ) -> np.ndarray:
        """Central-slot coincidence counts vs Bob's analyser phase.

        Each phase point is simulated from its own child stream
        (``p0``, ``p1``, ...) and post-selected from its tags, one point
        at a time, exactly like a laboratory scan.
        """
        phases = np.asarray(phases_rad, dtype=float)
        counts = np.empty(phases.size)
        for k, phase in enumerate(phases):
            point = dataclasses.replace(self, bob=self.bob.with_phase(float(phase)))
            record = point.simulate(pairs_per_point, rng.child(f"p{k}"))
            counts[k] = point.count_central_coincidences(record)
        return counts


def _classify_slot_arrays(
    tags_s: np.ndarray, record: TimeBinTagRecord
) -> tuple[np.ndarray, np.ndarray]:
    """(pulse index, slot) arrays for each tag, from timing alone."""
    period = record.pulse_period_s
    pulse = np.round(
        (tags_s - np.mod(tags_s, period)) / period
    ).astype(int)
    offset = np.mod(tags_s, period)
    slot = np.round(offset / record.bin_separation_s).astype(int)
    # Guard against jitter pushing a tag over the pulse boundary.
    slot = np.clip(slot, 0, 2)
    return pulse, slot


def make_simulator(state_visibility=1.0, phase_a=0.0, phase_b=0.0):
    state = DensityMatrix.from_ket(time_bin_bell_state(0.0), [2, 2])
    if state_visibility < 1.0:
        state = add_white_noise(state, state_visibility)
    return TimeBinCoincidenceSimulator(
        state=state,
        alice=UnbalancedMichelson(phase_rad=phase_a),
        bob=UnbalancedMichelson(phase_rad=phase_b),
    )


class TestSlotPOVMs:
    def test_four_outcomes_sum_to_identity(self):
        povms = slot_povms(0.7)
        assert np.allclose(sum(povms), np.eye(2), atol=1e-12)

    def test_all_positive(self):
        for povm in slot_povms(1.3):
            assert np.linalg.eigvalsh(povm).min() >= -1e-12

    def test_side_slots_reveal_time_bin(self):
        povms = slot_povms(0.0)
        early = np.array([1.0, 0.0], dtype=complex)
        assert np.isclose(early.conj() @ povms[0] @ early, 0.25)
        assert np.isclose(early.conj() @ povms[2] @ early, 0.0)

    def test_transmission_validation(self):
        with pytest.raises(ConfigurationError):
            slot_povms(0.0, transmission=0.0)


class TestJointDistribution:
    def test_matches_povm_path(self):
        for pa, pb in [(0.0, 0.0), (0.4, 1.1), (2.0, -0.5)]:
            simulator = make_simulator(0.85, pa, pb)
            joint = simulator.joint_slot_distribution()
            povm_value = coincidence_probability(simulator.state, [pa, pb])
            assert np.isclose(joint[1, 1], povm_value, atol=1e-12)

    def test_side_slot_correlations_diagonal(self):
        # For phi+, photons share their time bin: slot0-slot2 combinations
        # (opposite bins) must be forbidden.
        simulator = make_simulator(1.0)
        joint = simulator.joint_slot_distribution()
        assert joint[0, 2] < 1e-12
        assert joint[2, 0] < 1e-12
        assert joint[0, 0] > 0.01
        assert joint[2, 2] > 0.01

    def test_normalised(self):
        joint = make_simulator(0.7, 1.0, 2.0).joint_slot_distribution()
        assert np.isclose(joint.sum(), 1.0, atol=1e-9)


class TestSimulation:
    def test_tags_sorted_and_sized(self, rng):
        simulator = make_simulator(0.9)
        record = simulator.simulate(5000, rng)
        assert record.alice_tags_s.size <= 5000
        assert record.bob_tags_s.size <= 5000
        # Half the photons exit the Michelson's unmonitored port, so the
        # detected fraction averages 1/2.
        assert abs(record.alice_tags_s.size - 2500) < 200

    def test_central_coincidences_match_distribution(self, rng):
        simulator = make_simulator(0.85)
        joint = simulator.joint_slot_distribution()
        n = 40_000
        record = simulator.simulate(n, rng)
        counted = simulator.count_central_coincidences(record)
        expected = n * joint[1, 1]
        assert abs(counted - expected) < 5 * np.sqrt(expected)

    def test_fringe_visibility_matches_state(self, rng):
        simulator = make_simulator(0.85)
        phases = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        counts = simulator.fringe_scan(phases, pairs_per_point=20_000, rng=rng)
        fit = fit_fringe(phases, counts)
        assert abs(fit.visibility - 0.85) < 0.04

    def test_validation(self, rng):
        simulator = make_simulator()
        with pytest.raises(ConfigurationError):
            simulator.simulate(0, rng)
        with pytest.raises(ConfigurationError):
            TimeBinCoincidenceSimulator(
                state=DensityMatrix.maximally_mixed([2, 2]),
                alice=UnbalancedMichelson(imbalance_s=50e-9),
                bob=UnbalancedMichelson(),
            )
        with pytest.raises(ConfigurationError):
            TimeBinCoincidenceSimulator(
                state=DensityMatrix.maximally_mixed([2]),
                alice=UnbalancedMichelson(),
                bob=UnbalancedMichelson(),
            )
