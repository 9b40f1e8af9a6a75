"""Unit tests for time-bin encoding and the analysis interferometer."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.quantum.qubits import bell_state, computational_ket
from repro.timebin.encoding import time_bin_bell_state, time_bin_multiphoton_state
from repro.timebin.interferometer import UnbalancedMichelson


class TestEncoding:
    def test_bell_state_phase_doubling(self):
        # Pump phase phi_p enters the pair as 2 phi_p.
        state = time_bin_bell_state(np.pi / 2.0)
        expected = bell_state("phi+", phase=np.pi)
        assert np.isclose(abs(np.vdot(state, expected)), 1.0)

    def test_multiphoton_dimensions(self):
        assert time_bin_multiphoton_state(0.0, 1).shape == (4,)
        assert time_bin_multiphoton_state(0.0, 2).shape == (16,)

    def test_multiphoton_validation(self):
        with pytest.raises(ValueError):
            time_bin_multiphoton_state(0.0, 0)


class TestUnbalancedMichelson:
    def test_slot_probabilities_early_input(self):
        interferometer = UnbalancedMichelson(phase_rad=0.0)
        probs = interferometer.slot_probabilities(computational_ket("0"))
        # Early photon: slots 0 and 1 each with 1/4; slot 2 empty.
        assert np.allclose(probs, [0.25, 0.25, 0.0])

    def test_slot_probabilities_late_input(self):
        interferometer = UnbalancedMichelson(phase_rad=0.7)
        probs = interferometer.slot_probabilities(computational_ket("1"))
        assert np.allclose(probs, [0.0, 0.25, 0.25])

    def test_central_slot_interference(self):
        # Superposition input interferes in the central slot.
        plus = (computational_ket("0") + computational_ket("1")) / np.sqrt(2.0)
        constructive = UnbalancedMichelson(phase_rad=0.0)
        destructive = UnbalancedMichelson(phase_rad=np.pi)
        assert np.isclose(constructive.central_slot_probability(plus), 0.5)
        assert np.isclose(
            destructive.central_slot_probability(plus), 0.0, atol=1e-12
        )

    def test_total_probability_bounded_by_transmission(self):
        interferometer = UnbalancedMichelson(phase_rad=0.3, transmission=0.8)
        early, late = computational_ket("0"), computational_ket("1")
        for ket in (early, late, (early + 1j * late) / np.sqrt(2.0)):
            total = interferometer.slot_probabilities(ket).sum()
            assert total <= 0.8 + 1e-12

    def test_analysis_ket_normalised(self):
        interferometer = UnbalancedMichelson(phase_rad=1.1)
        assert np.isclose(np.linalg.norm(interferometer.analysis_ket()), 1.0)

    def test_with_phase_copy(self):
        a = UnbalancedMichelson(phase_rad=0.0)
        b = a.with_phase(1.5)
        assert b.phase_rad == 1.5
        assert a.phase_rad == 0.0

    def test_matched_to_pump(self):
        interferometer = UnbalancedMichelson(imbalance_s=11.1e-9)
        assert interferometer.matched_to_pump(11.1e-9, tolerance_s=1e-9)
        assert not interferometer.matched_to_pump(20e-9, tolerance_s=1e-9)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            UnbalancedMichelson(imbalance_s=0.0)
        with pytest.raises(ConfigurationError):
            UnbalancedMichelson(transmission=0.0)
        with pytest.raises(ConfigurationError):
            UnbalancedMichelson().slot_amplitudes(np.zeros(3))
