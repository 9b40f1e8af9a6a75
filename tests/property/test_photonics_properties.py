"""Property-based tests of photonics-substrate invariants."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.photonics.fwm import phase_mismatch_suppression
from repro.photonics.opo import ParametricOscillator
from repro.photonics.resonator import RingCoupling, ring_for_linewidth
from repro.photonics.waveguide import Waveguide, slab_effective_index

SETTINGS = settings(max_examples=40, deadline=None)

core_index = st.floats(min_value=1.55, max_value=2.2)
thickness = st.floats(min_value=0.2e-6, max_value=4e-6)


class TestSlabSolver:
    @SETTINGS
    @given(core_index, thickness, st.sampled_from(["TE", "TM"]))
    def test_effective_index_bounded(self, n_core, d, pol):
        n_clad = 1.444
        n = slab_effective_index(n_core, n_clad, d, 1550e-9, pol)
        assert n_clad < n < n_core

    @SETTINGS
    @given(core_index, thickness)
    def test_te_always_above_tm(self, n_core, d):
        te = slab_effective_index(n_core, 1.444, d, 1550e-9, "TE")
        tm = slab_effective_index(n_core, 1.444, d, 1550e-9, "TM")
        assert te >= tm - 1e-12

    @SETTINGS
    @given(core_index, st.floats(min_value=0.3e-6, max_value=2e-6))
    def test_monotone_in_thickness(self, n_core, d):
        n_thin = slab_effective_index(n_core, 1.444, d, 1550e-9, "TE")
        n_thick = slab_effective_index(n_core, 1.444, d * 1.5, 1550e-9, "TE")
        assert n_thick > n_thin


class TestWaveguideSymmetry:
    @SETTINGS
    @given(st.floats(min_value=0.8e-6, max_value=2.5e-6))
    def test_square_guide_has_no_birefringence(self, side):
        wg = Waveguide(width_m=side, height_m=side)
        assert abs(wg.birefringence(1550e-9)) < 1e-12

    @SETTINGS
    @given(
        st.floats(min_value=0.9e-6, max_value=2.2e-6),
        st.floats(min_value=0.9e-6, max_value=2.2e-6),
    )
    def test_swapping_dims_swaps_polarizations(self, w, h):
        assume(abs(w - h) > 0.05e-6)
        a = Waveguide(width_m=w, height_m=h)
        b = Waveguide(width_m=h, height_m=w)
        te_a = a.effective_index(1550e-9, "TE")
        tm_b = b.effective_index(1550e-9, "TM")
        assert np.isclose(te_a, tm_b, atol=1e-10)


class TestRingCoupling:
    @SETTINGS
    @given(st.floats(min_value=10.0, max_value=5000.0))
    def test_finesse_round_trip(self, finesse):
        coupling = RingCoupling.from_finesse(finesse)
        assert np.isclose(coupling.finesse, finesse, rtol=1e-9)

    @SETTINGS
    @given(
        st.floats(min_value=0.5, max_value=0.999),
        st.floats(min_value=0.9, max_value=1.0),
    )
    def test_enhancement_positive(self, t, a):
        assume(t < 1.0 and a > 0)
        coupling = RingCoupling(self_coupling=t, round_trip_transmission=a)
        assert coupling.field_enhancement_power > 0
        assert 0 < coupling.loop_factor < 1


class TestRingResponse:
    @SETTINGS
    @given(
        st.floats(min_value=50e6, max_value=5e9),
        st.floats(min_value=-1e12, max_value=1e12),
    )
    def test_lorentzian_bounded_by_peak(self, linewidth, detuning):
        ring = ring_for_linewidth(Waveguide(), 200e9, linewidth)
        value = abs(ring.lorentzian_amplitude(detuning))
        assert value <= 1.0 + 1e-12


class TestSuppressionAndOPO:
    @SETTINGS
    @given(
        st.floats(min_value=0.0, max_value=1e12),
        st.floats(min_value=1e6, max_value=1e10),
    )
    def test_suppression_in_unit_interval(self, detuning, linewidth):
        value = phase_mismatch_suppression(detuning, linewidth)
        assert 0.0 < value <= 1.0

    @SETTINGS
    @given(
        st.floats(min_value=1e-3, max_value=50e-3),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_opo_continuous_and_monotone(self, threshold, slope):
        opo = ParametricOscillator(
            threshold_power_w=threshold, slope_efficiency=slope
        )
        eps = threshold * 1e-9
        below = float(opo.output_power_w(threshold - eps))
        above = float(opo.output_power_w(threshold + eps))
        assert np.isclose(below, above, rtol=1e-3)
        powers = np.linspace(0.1 * threshold, 3 * threshold, 50)
        outputs = opo.output_power_w(powers)
        assert np.all(np.diff(outputs) >= -1e-15)
