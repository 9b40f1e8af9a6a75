"""Unit tests for the scheme objects and the QuantumCombSource facade."""

import numpy as np
import pytest

from repro.core.schemes import (
    HeraldedSingleScheme,
    MultiPhotonScheme,
    TimeBinScheme,
    TypeIIScheme,
)
from repro.core.source import QuantumCombSource
from repro.errors import ConfigurationError
from repro.quantum.bell import horodecki_chsh_maximum
from repro.quantum.entanglement import concurrence
from repro.quantum.qubits import bell_state, two_bell_pairs
from repro.quantum.states import DensityMatrix


class TestHeraldedSingleScheme:
    def test_pair_source_rate(self):
        scheme = HeraldedSingleScheme()
        assert 2500 < scheme.pair_source().pair_rate_hz < 3500

    def test_detector_per_channel(self):
        scheme = HeraldedSingleScheme()
        d1 = scheme.detector(1)
        d5 = scheme.detector(5)
        assert d1.efficiency > d5.efficiency
        assert d1.dark_count_rate_hz < d5.dark_count_rate_hz

    def test_invalid_channel_rejected(self):
        with pytest.raises(ConfigurationError):
            HeraldedSingleScheme().detector(9)

    def test_detected_streams_shapes(self, rng):
        scheme = HeraldedSingleScheme()
        signal, idler = scheme.detected_streams(1, 2.0, rng)
        assert signal.ndim == 1 and idler.ndim == 1
        # Dominated by dark counts: ~15 kHz each.
        assert 10_000 < signal.size / 2.0 < 25_000


class TestTypeIIScheme:
    def test_pair_rate_order_of_magnitude(self):
        scheme = TypeIIScheme()
        rate = scheme.pair_source().pair_rate_hz
        assert 300 < rate < 1500

    def test_stimulated_suppression(self):
        scheme = TypeIIScheme()
        assert scheme.process().stimulated_suppression_db() > 30

    def test_detected_streams(self, rng):
        scheme = TypeIIScheme()
        te, tm = scheme.detected_streams(5.0, rng)
        assert te.size > 0 and tm.size > 0
        assert np.all(np.diff(te) >= 0)

    def test_oscillator_threshold(self):
        assert np.isclose(TypeIIScheme().oscillator().threshold_power_w, 14e-3)


class TestTimeBinScheme:
    def test_pair_state_is_entangled(self):
        state = TimeBinScheme().pair_state()
        assert concurrence(state) > 0.5
        assert horodecki_chsh_maximum(state) > 2.0

    def test_pump_phase_propagates(self):
        scheme = TimeBinScheme(pump_phase_rad=np.pi / 2.0)
        state = scheme.pair_state()
        # Pair phase is 2*phi_p = pi: the state should be closest to phi-.
        f_minus = state.fidelity(bell_state("phi-"))
        f_plus = state.fidelity(bell_state("phi+"))
        assert f_minus > f_plus

    def test_event_rate(self):
        assert TimeBinScheme().event_rate_hz() > 100


class TestMultiPhotonScheme:
    def test_four_photon_state_dims(self):
        state = MultiPhotonScheme().four_photon_state()
        assert state.dims == (2, 2, 2, 2)

    def test_four_photon_fidelity_matches_visibility(self):
        scheme = MultiPhotonScheme()
        state = scheme.four_photon_state()
        v = scheme.calibration.state_visibility
        expected = v + (1 - v) / 16.0
        assert np.isclose(state.fidelity(two_bell_pairs()), expected, atol=1e-9)

    def test_bell_marginal_entangled(self):
        # Trace the second pair (qubits 2, 3) out of the four-photon state.
        joint = MultiPhotonScheme().four_photon_state().matrix
        reduced = np.einsum("abijcdij->abcd", joint.reshape([2] * 8))
        bell = DensityMatrix(reduced.reshape(4, 4), [2, 2])
        assert concurrence(bell) > 0.3


class TestSourceFacade:
    def test_paper_device_summary(self):
        source = QuantumCombSource.paper_device()
        summary = source.device_summary()
        assert "hydex-high-q" in summary
        assert "hydex-type-ii" in summary
        assert np.isclose(summary["hydex-high-q"]["linewidth_mhz"], 110.0, rtol=1e-6)

    def test_schemes_constructible(self):
        source = QuantumCombSource.paper_device()
        assert source.heralded_scheme().pump.power_w == 15e-3
        assert source.type_ii_scheme().calibration.pump_te_w == 1e-3
        assert source.time_bin_scheme(0.3).pump_phase_rad == 0.3
        assert source.multi_photon_scheme().calibration.state_visibility > 0.5

    def test_heralded_power_override(self):
        source = QuantumCombSource.paper_device()
        scheme = source.heralded_scheme(pump_power_w=5e-3)
        assert scheme.pump.power_w == 5e-3
