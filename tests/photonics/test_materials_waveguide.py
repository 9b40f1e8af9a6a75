"""Unit tests for material models and the waveguide mode solver."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, PhysicsError
from repro.photonics.materials import HYDEX, SILICA, Material
from repro.photonics.waveguide import Waveguide, slab_effective_index

LAMBDA = 1550e-9


class TestMaterials:
    def test_hydex_index_at_1550(self):
        assert np.isclose(HYDEX.refractive_index(LAMBDA), 1.70, atol=0.01)

    def test_silica_index_at_1550(self):
        assert np.isclose(SILICA.refractive_index(LAMBDA), 1.444, atol=0.002)

    def test_out_of_window_rejected(self):
        with pytest.raises(ConfigurationError):
            SILICA.refractive_index(10e-6)

    def test_nonpositive_wavelength_rejected(self):
        with pytest.raises(ConfigurationError):
            HYDEX.refractive_index(0.0)

    def test_mismatched_sellmeier_rejected(self):
        with pytest.raises(ConfigurationError):
            Material("bad", (1.0,), (1.0, 2.0), 1e-20)


class TestSlabSolver:
    def test_neff_between_indices(self):
        n = slab_effective_index(1.70, 1.44, 1.0e-6, LAMBDA, "TE")
        assert 1.44 < n < 1.70

    def test_te_exceeds_tm(self):
        te = slab_effective_index(1.70, 1.44, 0.8e-6, LAMBDA, "TE")
        tm = slab_effective_index(1.70, 1.44, 0.8e-6, LAMBDA, "TM")
        assert te > tm

    def test_monotone_in_thickness(self):
        values = [
            slab_effective_index(1.70, 1.44, d, LAMBDA, "TE")
            for d in (0.4e-6, 0.8e-6, 1.2e-6, 2.0e-6)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_thick_guide_approaches_core(self):
        n = slab_effective_index(1.70, 1.44, 20e-6, LAMBDA, "TE")
        assert n > 1.697

    def test_higher_mode_lower_index(self):
        fundamental = slab_effective_index(1.70, 1.44, 2.0e-6, LAMBDA, "TE", mode=0)
        first = slab_effective_index(1.70, 1.44, 2.0e-6, LAMBDA, "TE", mode=1)
        assert first < fundamental

    def test_cutoff_raises(self):
        with pytest.raises(PhysicsError):
            slab_effective_index(1.70, 1.44, 0.3e-6, LAMBDA, "TE", mode=2)

    def test_fundamental_never_cut_off(self):
        n = slab_effective_index(1.70, 1.44, 0.05e-6, LAMBDA, "TE")
        assert 1.44 < n < 1.70

    def test_inverted_indices_rejected(self):
        with pytest.raises(PhysicsError):
            slab_effective_index(1.44, 1.70, 1e-6, LAMBDA, "TE")

    def test_bad_polarization_rejected(self):
        with pytest.raises(ConfigurationError):
            slab_effective_index(1.70, 1.44, 1e-6, LAMBDA, "TEM")

    def test_dispersion_relation_satisfied(self):
        # The returned index satisfies tan(kd/2) = rho*gamma/kappa.
        n1, n2, d = 1.70, 1.44, 1.0e-6
        for pol, rho in (("TE", 1.0), ("TM", (n1 / n2) ** 2)):
            n = slab_effective_index(n1, n2, d, LAMBDA, pol)
            k0 = 2 * np.pi / LAMBDA
            kappa = k0 * np.sqrt(n1**2 - n**2)
            gamma = k0 * np.sqrt(n**2 - n2**2)
            assert np.isclose(
                np.tan(kappa * d / 2.0), rho * gamma / kappa, rtol=1e-6
            ), pol


class TestWaveguide:
    def test_default_geometry_guides(self):
        wg = Waveguide()
        n = wg.effective_index(LAMBDA, "TE")
        assert 1.44 < n < 1.70

    def test_birefringence_near_square_small(self):
        wg = Waveguide()  # 1.5 x 1.45 um, nearly square
        assert abs(wg.birefringence(LAMBDA)) < 0.01

    def test_birefringence_grows_with_asymmetry(self):
        near_square = abs(Waveguide(1.5e-6, 1.45e-6).birefringence(LAMBDA))
        asymmetric = abs(Waveguide(2.0e-6, 0.85e-6).birefringence(LAMBDA))
        assert asymmetric > near_square

    def test_group_index_exceeds_effective_index(self):
        wg = Waveguide()
        assert wg.group_index(LAMBDA, "TE") > wg.effective_index(LAMBDA, "TE")

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            Waveguide(width_m=-1e-6)

    def test_invalid_polarization_rejected(self):
        with pytest.raises(ConfigurationError):
            Waveguide().effective_index(LAMBDA, "diagonal")
