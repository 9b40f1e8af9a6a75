"""Click-level Monte Carlo of the time-bin analysis chain.

The density-matrix path (:mod:`repro.timebin.postselect`) computes
post-selected probabilities directly.  This module instead simulates what
the laboratory actually records: *time tags*.  Per double pulse, the
joint arrival-slot outcome of the two photons is drawn from the quantum
joint distribution (Born rule over the slot POVMs of both analysers);
each detected photon then becomes a time tag at

    t_pulse + slot · ΔT + jitter

and the analysis — exactly as the paper describes — uses the pulsed-laser
reference to bin tags into slots and post-select central-slot
coincidences.  Agreement between this path and the POVM path is enforced
by integration tests.

The analysis chain ships two implementations selected with ``impl``:
the original per-tag Python path (``"loop"``, set comprehensions over
(pulse, slot) tuples, kept as the reference oracle) and a batched path
(``"vectorized"``, the default) that classifies every tag of every phase
point in stacked numpy arrays.  Random draws are taken from identical
child streams and cursor positions in both, so counts are bit-identical
for identical seeds.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.quantum import hilbert
from repro.quantum.states import DensityMatrix
from repro.timebin.interferometer import UnbalancedMichelson
from repro.utils.dispatch import LOOP, validate_impl
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

    def joint_slot_distributions(self, bob_phases_rad: np.ndarray) -> np.ndarray:
        """Stacked ``(n_phases, 4, 4)`` joint distributions vs Bob's phase.

        Row ``k`` is bit-identical to the single-phase
        :meth:`joint_slot_distribution` of a simulator with Bob's
        analyser at ``bob_phases_rad[k]`` — the stacking exists so the
        batched fringe scan samples every phase point from one array
        while staying exactly equivalent to the loop reference.
        """
        phases = np.asarray(bob_phases_rad, dtype=float)
        stacked = np.empty((phases.size, 4, 4))
        for k, phase in enumerate(phases):
            simulator = dataclasses.replace(
                self, bob=self.bob.with_phase(float(phase))
            )
            stacked[k] = simulator.joint_slot_distribution()
        return stacked

    def simulate(
        self, num_pairs: int, rng: RandomStream
    ) -> TimeBinTagRecord:
        """Draw ``num_pairs`` pair outcomes and emit time tags.

        Jitter is drawn one normal per *pair position* (not per
        detected tag) and masked down to the detected subset, so each
        pair consumes a fixed number of draws and the batched fringe
        scan replays them as one ``(n_phases, num_pairs)`` jitter block.
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

    def count_central_coincidences(
        self, record: TimeBinTagRecord, impl: str = "vectorized"
    ) -> int:
        """Post-select central-slot coincidences from the raw tags.

        Implements the paper's analysis: each tag is referenced to its
        pulse (the "reference of the pulsed laser"), its slot recovered
        from the arrival time modulo the pulse period, and only events
        with *both* photons in slot 1 of the *same* pulse are kept.
        """
        if validate_impl(impl, "count_central_coincidences impl") == "loop":
            alice = _classify_slots(record.alice_tags_s, record)
            bob = _classify_slots(record.bob_tags_s, record)
            central_a = {
                pulse for pulse, slot in alice if slot == 1
            }
            central_b = {
                pulse for pulse, slot in bob if slot == 1
            }
            return len(central_a & central_b)
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
        impl: str = "vectorized",
    ) -> np.ndarray:
        """Central-slot coincidence counts vs Bob's analyser phase.

        The loop reference simulates and post-selects one phase point at
        a time; the vectorized path draws the same per-phase outcomes
        (identical child streams, so the tags are bit-identical), stacks
        them into ``(n_phases, pairs_per_point)`` arrays and classifies
        every tag of the whole scan in one batch.
        """
        phases = np.asarray(phases_rad, dtype=float)
        if pairs_per_point < 1:
            raise ConfigurationError("need at least one pair")
        impl = validate_impl(impl, "fringe_scan impl")
        if impl == LOOP:
            counts = np.empty(phases.size)
            for k, phase in enumerate(phases):
                simulator = dataclasses.replace(
                    self, bob=self.bob.with_phase(float(phase))
                )
                record = simulator.simulate(pairs_per_point, rng.child(f"p{k}"))
                counts[k] = simulator.count_central_coincidences(
                    record, impl="loop"
                )
            return counts
        return self._fringe_scan_vectorized(phases, pairs_per_point, rng)

    def _fringe_scan_vectorized(
        self,
        phases: np.ndarray,
        pairs_per_point: int,
        rng: RandomStream,
    ) -> np.ndarray:
        """Batched fringe scan over a stacked (n_phases, num_pairs) block.

        Random draws reuse the loop reference's exact child streams and
        positions (one outcome ``choice`` and two per-pair jitter blocks
        per phase point), so every tag equals the loop path's; all
        per-tag processing (tag synthesis, slot classification, per-pulse
        coincidence post-selection) then runs once over the whole scan.
        """
        n_phases = phases.size
        if n_phases == 0:
            return np.empty(0)
        joints = self.joint_slot_distributions(phases)
        flats = joints.reshape(n_phases, 16)
        outcome_ids = np.arange(16)
        outcomes = np.empty((n_phases, pairs_per_point), dtype=np.int64)
        jitter_a = np.empty((n_phases, pairs_per_point))
        jitter_b = np.empty((n_phases, pairs_per_point))
        for k in range(n_phases):
            point_rng = rng.child(f"p{k}")
            outcomes[k] = point_rng.choice(
                outcome_ids, size=pairs_per_point, p=flats[k]
            )
            jitter_a[k] = point_rng.child("alice").normal(
                0.0, self.jitter_sigma_s, pairs_per_point
            )
            jitter_b[k] = point_rng.child("bob").normal(
                0.0, self.jitter_sigma_s, pairs_per_point
            )

        period = 1.0 / self.repetition_rate_hz

        def central_grid(slots, jitter):
            """Central-slot tags as a boolean (phase, pulse) occupancy grid.

            Classification replays the loop oracle's float operations tag
            by tag; the (phase, pulse) pairs then land in a flat boolean
            grid, so duplicate tags collapse exactly like the oracle's
            sets and the A∧B intersection is a single elementwise AND.
            Tags whose pulse jitters outside [0, num_pairs) cannot fit the
            grid and come back as a (rare, usually empty) set instead.
            """
            phase_idx, indices = np.nonzero(slots < 3)
            times = (
                indices * period
                + slots[phase_idx, indices] * self.bin_separation_s
                + jitter[phase_idx, indices]
            )
            offset = np.mod(times, period)
            pulse = np.round((times - offset) / period).astype(np.int64)
            # clip(round(offset/ΔT), 0, 2) == 1 iff round(offset/ΔT) == 1,
            # so the oracle's boundary clip folds into the equality test.
            central = np.round(offset / self.bin_separation_s) == 1.0
            in_grid = central & (pulse >= 0) & (pulse < pairs_per_point)
            grid = np.zeros(n_phases * pairs_per_point, dtype=bool)
            grid[phase_idx[in_grid] * pairs_per_point + pulse[in_grid]] = True
            outside = central & ~in_grid
            outliers = set(
                zip(phase_idx[outside].tolist(), pulse[outside].tolist())
            )
            return grid, outliers

        both, outliers_a = central_grid(outcomes // 4, jitter_a)
        grid_b, outliers_b = central_grid(outcomes % 4, jitter_b)
        both &= grid_b
        counts = np.bincount(
            np.nonzero(both)[0] // pairs_per_point, minlength=n_phases
        ).astype(float)
        for phase_idx, _ in outliers_a & outliers_b:
            counts[phase_idx] += 1.0
        return counts


def _classify_slots(tags_s: np.ndarray, record: TimeBinTagRecord):
    """(pulse index, slot) tuples for each tag — the loop oracle's view."""
    pulse, slot = _classify_slot_arrays(tags_s, record)
    return list(zip(pulse.tolist(), slot.tolist()))


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
