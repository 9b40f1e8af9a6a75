"""Rectangular waveguide modes via the effective index method.

The paper's type-II scheme (Section III) works because the waveguide cross
section is designed so the TE and TM resonance ladders are *offset* in
frequency while keeping nearly equal free spectral ranges.  Both properties
derive from the modal birefringence computed here: the phase-index
difference sets the ladder offset, the group-index difference sets the FSR
mismatch.

The solver is a textbook two-step effective index method (EIM): solve the
vertical slab problem for the film index, then the horizontal slab problem
with the film index as the core.  EIM is accurate to a few 10⁻³ in n_eff
for the low-contrast Hydex platform, which is ample for resonance-ladder
engineering studies.
"""

from __future__ import annotations

import dataclasses
import math

from scipy import optimize

from repro.errors import ConfigurationError, PhysicsError
from repro.photonics.materials import HYDEX, SILICA, Material


def slab_effective_index(
    core_index: float,
    cladding_index: float,
    thickness_m: float,
    wavelength_m: float,
    polarization: str,
    mode: int = 0,
) -> float:
    """Effective index of a symmetric slab waveguide mode.

    Solves the transcendental dispersion relation::

        tan(κ·d/2 - m·π/2) = ρ·γ/κ

    with κ = k₀√(n₁² - n²), γ = k₀√(n² - n₂²), ρ = 1 for TE and
    (n₁/n₂)² for TM, for the ``mode``-th guided mode.  Raises
    :class:`PhysicsError` if the mode is cut off.
    """
    if polarization not in ("TE", "TM"):
        raise ConfigurationError(f"polarization must be TE or TM, got {polarization!r}")
    if core_index <= cladding_index:
        raise PhysicsError(
            f"core index {core_index:.4f} must exceed cladding "
            f"{cladding_index:.4f} for guiding"
        )
    if thickness_m <= 0 or wavelength_m <= 0:
        raise ConfigurationError("thickness and wavelength must be positive")
    if mode < 0:
        raise ConfigurationError(f"mode must be >= 0, got {mode}")

    k0 = 2.0 * math.pi / wavelength_m
    rho = 1.0 if polarization == "TE" else (core_index / cladding_index) ** 2

    # Pole-free phase form of the dispersion relation:
    #     κ·d - m·π - 2·atan(ρ·γ/κ) = 0.
    # This is strictly decreasing in n_eff (κ falls, γ rises), so there is
    # at most one root per mode and brentq cannot be fooled by tan poles.
    def residual(n_eff: float) -> float:
        kappa = k0 * math.sqrt(max(core_index**2 - n_eff**2, 1e-30))
        gamma = k0 * math.sqrt(max(n_eff**2 - cladding_index**2, 0.0))
        return (
            kappa * thickness_m
            - mode * math.pi
            - 2.0 * math.atan(rho * gamma / kappa)
        )

    low = cladding_index * (1.0 + 1e-12)
    high = core_index * (1.0 - 1e-12)
    if residual(low) <= 0:
        raise PhysicsError(
            f"{polarization} mode {mode} is cut off for "
            f"d={thickness_m * 1e6:.2f} um at "
            f"lambda={wavelength_m * 1e9:.0f} nm"
        )
    if residual(high) >= 0:
        # Degenerate corner: extremely thick guide; the root is squeezed
        # against the core index.
        return float(high)
    return float(optimize.brentq(residual, low, high, xtol=1e-14))


@dataclasses.dataclass(frozen=True)
class Waveguide:
    """A buried rectangular waveguide (core fully clad, Hydex-style).

    Parameters
    ----------
    width_m / height_m:
        Core cross-section.  The paper's Hydex guides are ~1.5 × 1.45 µm;
        making width ≠ height is exactly the "properly designing the
        waveguide dimensions" knob of Section III.
    core / cladding:
        Material models.
    """

    width_m: float = 1.5e-6
    height_m: float = 1.45e-6
    core: Material = HYDEX
    cladding: Material = SILICA

    def __post_init__(self) -> None:
        if self.width_m <= 0 or self.height_m <= 0:
            raise ConfigurationError("waveguide dimensions must be positive")

    def effective_index(self, wavelength_m: float, polarization: str = "TE") -> float:
        """Quasi-TE/TM fundamental mode effective index via two-step EIM.

        The effective index method treats the two confinement directions
        asymmetrically, which leaves a spurious residual birefringence on
        square cross-sections.  Both solution orderings (vertical slab
        first, horizontal slab first) are therefore computed and averaged;
        by symmetry the average makes quasi-TE and quasi-TM exactly
        degenerate when width equals height, as the physical isotropic
        guide is.
        """
        if polarization not in ("TE", "TM"):
            raise ConfigurationError(
                f"polarization must be TE or TM, got {polarization!r}"
            )
        n_core = self.core.refractive_index(wavelength_m)
        n_clad = self.cladding.refractive_index(wavelength_m)
        if polarization == "TE":
            # Quasi-TE: E along the width.  The vertical (height) slab sees
            # the field in-plane (slab TE), the horizontal (width) slab
            # sees it normal (slab TM).
            film_a = slab_effective_index(
                n_core, n_clad, self.height_m, wavelength_m, "TE"
            )
            order_a = slab_effective_index(
                film_a, n_clad, self.width_m, wavelength_m, "TM"
            )
            film_b = slab_effective_index(
                n_core, n_clad, self.width_m, wavelength_m, "TM"
            )
            order_b = slab_effective_index(
                film_b, n_clad, self.height_m, wavelength_m, "TE"
            )
            return 0.5 * (order_a + order_b)
        film_a = slab_effective_index(
            n_core, n_clad, self.height_m, wavelength_m, "TM"
        )
        order_a = slab_effective_index(
            film_a, n_clad, self.width_m, wavelength_m, "TE"
        )
        film_b = slab_effective_index(
            n_core, n_clad, self.width_m, wavelength_m, "TE"
        )
        order_b = slab_effective_index(
            film_b, n_clad, self.height_m, wavelength_m, "TM"
        )
        return 0.5 * (order_a + order_b)

    def birefringence(self, wavelength_m: float) -> float:
        """Modal birefringence Δn = n_eff(TE) - n_eff(TM)."""
        return self.effective_index(wavelength_m, "TE") - self.effective_index(
            wavelength_m, "TM"
        )

    def group_index(
        self, wavelength_m: float, polarization: str = "TE", step_m: float = 1e-10
    ) -> float:
        """Group index n_g = n_eff - λ·dn_eff/dλ via central differences."""
        n_plus = self.effective_index(wavelength_m + step_m, polarization)
        n_minus = self.effective_index(wavelength_m - step_m, polarization)
        n = self.effective_index(wavelength_m, polarization)
        dn = (n_plus - n_minus) / (2.0 * step_m)
        return float(n - wavelength_m * dn)
