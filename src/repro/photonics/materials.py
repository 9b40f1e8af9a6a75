"""Material index models (Sellmeier) for the integrated platform.

Hydex is the CMOS-compatible doped-silica glass of the paper ([5] Moss et
al., Nature Photonics 7, 597).  Its refractive index (~1.7 at 1550 nm) and
Kerr nonlinearity (n₂ ≈ 1.15·10⁻¹⁹ m²/W) sit between silica and silicon
nitride, with negligible nonlinear absorption — that is why the ring can be
pumped to optical parametric oscillation without two-photon-absorption
clamping.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class Material:
    """An optical material described by a Sellmeier expansion.

    n²(λ) = 1 + Σᵢ Bᵢ·λ² / (λ² - Cᵢ)  with λ in micrometres.

    Parameters
    ----------
    name:
        Human-readable material name.
    sellmeier_b / sellmeier_c:
        Sellmeier coefficients (C in µm²).
    kerr_index_m2_per_w:
        Nonlinear (Kerr) index n₂ [m²/W].
    transparency_window_um:
        (min, max) wavelength validity range of the model [µm].
    """

    name: str
    sellmeier_b: tuple[float, ...]
    sellmeier_c: tuple[float, ...]
    kerr_index_m2_per_w: float
    transparency_window_um: tuple[float, float] = (0.4, 2.4)

    def __post_init__(self) -> None:
        if len(self.sellmeier_b) != len(self.sellmeier_c):
            raise ConfigurationError(
                "sellmeier_b and sellmeier_c must have equal lengths"
            )
        if not self.sellmeier_b:
            raise ConfigurationError("at least one Sellmeier term is required")

    def refractive_index(self, wavelength_m: float) -> float:
        """Phase index n(λ) from the Sellmeier expansion."""
        lam_um = self._validated_um(wavelength_m)
        lam_sq = lam_um**2
        n_sq = 1.0
        for b, c in zip(self.sellmeier_b, self.sellmeier_c):
            n_sq += b * lam_sq / (lam_sq - c)
        if n_sq <= 0:
            raise ConfigurationError(
                f"Sellmeier model of {self.name} gives n² <= 0 at {lam_um} um"
            )
        return float(np.sqrt(n_sq))

    def _validated_um(self, wavelength_m: float) -> float:
        if wavelength_m <= 0:
            raise ConfigurationError(f"wavelength must be positive, got {wavelength_m}")
        lam_um = wavelength_m * 1e6
        low, high = self.transparency_window_um
        if not low <= lam_um <= high:
            raise ConfigurationError(
                f"{self.name} index model valid on [{low}, {high}] um, "
                f"got {lam_um:.3f} um"
            )
        return lam_um


#: Fused silica (Malitson 1965), the cladding of the Hydex platform.
SILICA = Material(
    name="SiO2",
    sellmeier_b=(0.6961663, 0.4079426, 0.8974794),
    sellmeier_c=(0.0684043**2, 0.1162414**2, 9.896161**2),
    kerr_index_m2_per_w=2.6e-20,
    transparency_window_um=(0.25, 2.3),
)

#: Hydex-like doped silica glass.  The exact composition is proprietary;
#: the single-term Sellmeier is calibrated to the published n ≈ 1.70 at
#: 1550 nm with silica-like normal dispersion, which is all the ring model
#: consumes (index, group index, weak GVD).
HYDEX = Material(
    name="Hydex",
    sellmeier_b=(1.878,),
    sellmeier_c=(0.0125,),
    kerr_index_m2_per_w=1.15e-19,
    transparency_window_um=(0.4, 2.4),
)
