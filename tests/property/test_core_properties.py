"""Property-based tests of core-scheme invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.calibration import TimeBinCalibration
from repro.core.schemes import TimeBinScheme
from repro.quantum.bell import TSIRELSON_BOUND, chsh_value
from repro.quantum.entanglement import concurrence

SETTINGS = settings(max_examples=30, deadline=None)


class TestTimeBinSchemeInvariants:
    @SETTINGS
    @given(st.floats(min_value=0.0, max_value=2 * np.pi))
    def test_pair_state_physical_for_any_pump_phase(self, pump_phase):
        state = TimeBinScheme(pump_phase_rad=pump_phase).pair_state()
        assert np.isclose(np.trace(state.matrix).real, 1.0, atol=1e-9)
        assert np.linalg.eigvalsh(state.matrix).min() >= -1e-9

    @SETTINGS
    @given(st.floats(min_value=0.0, max_value=2 * np.pi))
    def test_entanglement_independent_of_pump_phase(self, pump_phase):
        # The pump phase rotates the Bell state but cannot change how
        # entangled it is.
        reference = concurrence(TimeBinScheme(pump_phase_rad=0.0).pair_state())
        rotated = concurrence(
            TimeBinScheme(pump_phase_rad=pump_phase).pair_state()
        )
        assert np.isclose(reference, rotated, atol=1e-9)

    @SETTINGS
    @given(st.floats(min_value=0.001, max_value=0.45))
    def test_chsh_monotone_in_mu(self, mu):
        calibration = TimeBinCalibration(mu_per_pulse=mu)
        s_value = chsh_value(TimeBinScheme(calibration=calibration).pair_state())
        tighter = TimeBinCalibration(mu_per_pulse=mu / 2.0)
        s_tighter = chsh_value(
            TimeBinScheme(calibration=tighter).pair_state()
        )
        assert s_tighter >= s_value - 1e-9
        assert s_value <= TSIRELSON_BOUND + 1e-9
