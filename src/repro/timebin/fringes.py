"""Quantum-interference fringe scans.

Drives the full Section IV measurement loop: set the analysis phase,
accumulate post-selected coincidences for a dwell time, step the piezo,
fit the resulting fringe, report visibility ± error.  Works for two-photon
and four-photon (common-phase) scans.

The visibility-error bootstrap ships two implementations selected
with ``impl``: the loop reference resamples and refits one row at a
time; the vectorized default draws the whole ``(n_resamples, n_steps)``
block in one batched call and refits every resample through one
multi-right-hand-side least squares.  Both consume the caller's
:class:`RandomStream` positions identically, so the scanned counts are
bit-identical between implementations; the bootstrap error can differ
only at BLAS rounding level.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.quantum.states import DensityMatrix
from repro.timebin.postselect import coincidence_probability
from repro.timebin.stabilization import PhaseController
from repro.utils.dispatch import LOOP, validate_impl
from repro.utils.fitting import (
    FringeFit,
    HarmonicFringeFit,
    fit_fringe,
    fit_fringe_harmonics,
    fit_fringe_harmonics_many,
    fit_fringe_many,
)
from repro.utils.rng import RandomStream


@dataclasses.dataclass(frozen=True)
class FringeScanResult:
    """Outcome of one fringe scan."""

    phases_rad: np.ndarray
    counts: np.ndarray
    fit: FringeFit | HarmonicFringeFit
    visibility_error: float

    @property
    def visibility(self) -> float:
        """Fitted fringe visibility."""
        return self.fit.visibility


@dataclasses.dataclass(frozen=True)
class FringeScan:
    """A phase scan of post-selected coincidences.

    Parameters
    ----------
    state:
        The (noisy) n-photon time-bin state entering the analysers.
    event_rate_hz:
        Rate of generated n-photon events arriving at the analysers
        (already including upstream losses but not post-selection).
    dwell_time_s:
        Integration time per phase step.
    scanned_photon:
        Index of the photon whose analyser phase is scanned (the paper
        scans the second interferometer); ``None`` scans all analysers
        together (the four-photon, common-phase configuration).
    controller:
        Phase stabilisation model applied to the scanned analyser(s).
    """

    state: DensityMatrix
    event_rate_hz: float
    dwell_time_s: float = 30.0
    scanned_photon: int | None = 1
    controller: PhaseController = PhaseController()

    def __post_init__(self) -> None:
        if self.event_rate_hz < 0:
            raise ConfigurationError("event rate must be >= 0")
        if self.dwell_time_s <= 0:
            raise ConfigurationError("dwell time must be positive")
        n = self.state.num_subsystems
        if self.scanned_photon is not None and not 0 <= self.scanned_photon < n:
            raise ConfigurationError(
                f"scanned photon {self.scanned_photon} outside [0, {n})"
            )

    def expected_probability(self, scan_phase_rad: float) -> float:
        """Post-selected coincidence probability at one scan phase."""
        n = self.state.num_subsystems
        if self.scanned_photon is None:
            phases = [scan_phase_rad] * n
        else:
            phases = [0.0] * n
            phases[self.scanned_photon] = scan_phase_rad
        return coincidence_probability(self.state, phases)

    def run(
        self,
        rng: RandomStream,
        num_steps: int = 24,
        phase_span_rad: float = 2.0 * np.pi,
        impl: str = "vectorized",
    ) -> FringeScanResult:
        """Execute the scan with Poisson counting noise and phase errors.

        All randomness — phase errors, the per-step Poisson counts and
        the bootstrap resamples of the visibility error — derives from
        the caller's ``rng``, so the scan is reproducible end-to-end
        from the experiment seed (and cacheable by the run engine).
        """
        validate_impl(impl, "FringeScan impl")
        if num_steps < 6:
            raise ConfigurationError("need at least 6 phase steps")
        if phase_span_rad <= 0:
            raise ConfigurationError("phase span must be positive")
        set_points = np.linspace(0.0, phase_span_rad, num_steps, endpoint=False)
        actual = self.controller.sample_phase_errors(
            set_points, self.dwell_time_s, rng.child("phases")
        )
        scale = self.event_rate_hz * self.dwell_time_s
        means = np.array(
            [scale * self.expected_probability(float(phase)) for phase in actual]
        )
        # Per-step child streams (not one batched draw): keeps the scanned
        # counts bit-identical to the pre-batching implementation for any
        # given seed, and identical between impls.  num_steps is tiny, so
        # the batching win lives in the bootstrap below, not here.
        counts = np.array(
            [float(rng.child(f"step{k}").poisson(mean))
             for k, mean in enumerate(means)]
        )

        # The four-photon common-phase fringe oscillates at 2x the scan
        # phase; rescale so the fundamental of the fit is that component.
        fit_phases = set_points * self._fringe_harmonic()
        harmonic = self.scanned_photon is None and self.state.num_subsystems > 2
        if harmonic:
            # (1 + cos)^2-shaped fringe: fit two harmonics, visibility from
            # the fitted extrema (a pure sinusoid fit exceeds 1 here).
            fit = fit_fringe_harmonics(fit_phases, counts, harmonics=2)
        else:
            fit = fit_fringe(fit_phases, counts)
        visibility_error = _fringe_visibility_error(
            fit_phases,
            counts,
            rng.child("bootstrap"),
            harmonic=harmonic,
            impl=impl,
        )
        return FringeScanResult(
            phases_rad=set_points,
            counts=counts,
            fit=fit,
            visibility_error=visibility_error,
        )

    def _fringe_harmonic(self) -> int:
        """Fringe frequency in units of the scan phase.

        Scanning one analyser of an n-photon state changes the phase sum
        by 1x; scanning all analysers together changes it by n/2 x per
        Bell pair — i.e. 2 for the four-photon state.
        """
        if self.scanned_photon is not None:
            return 1
        return self.state.num_subsystems // 2


def _fringe_visibility_error(
    phases: np.ndarray,
    counts: np.ndarray,
    rng: RandomStream,
    n_resamples: int = 60,
    harmonic: bool = False,
    impl: str = "vectorized",
) -> float:
    """Parametric-bootstrap error of the fitted visibility.

    Counts are Poisson, so resample each point from Poisson(observed) and
    refit; the spread of refitted visibilities estimates the one-sigma
    error, matching how the papers quote fringe visibilities.  The
    resamples are drawn from the caller's stream (the loop reference one
    row at a time, the vectorized path as one block — bit-identical
    draws either way); the vectorized path then refits every resample in
    a single multi-right-hand-side least squares.
    """
    means = np.clip(counts, 0.01, None)
    if impl == LOOP:
        estimates = np.empty(n_resamples)
        for b in range(n_resamples):
            resampled = rng.poisson(means).astype(float)
            if not resampled.any():
                estimates[b] = 0.0  # empty resample: no fringe to fit
            elif harmonic:
                estimates[b] = fit_fringe_harmonics(phases, resampled).visibility
            else:
                estimates[b] = fit_fringe(phases, resampled).visibility
    else:
        resampled = rng.poisson(means, size=(n_resamples, means.size))
        estimates = _resample_visibilities(
            phases, resampled.astype(float), harmonic
        )
    return float(np.std(estimates, ddof=1))


def _resample_visibilities(
    phases: np.ndarray, resampled: np.ndarray, harmonic: bool
) -> np.ndarray:
    """Per-row visibilities of a resample block, zero-row safe.

    A low-statistics scan can resample a row to all zeros; its fringe
    has no fit (the offset is exactly zero), so — matching the loop
    reference — the row's visibility estimate is defined as 0.0 and the
    remaining rows go through one multi-right-hand-side fit.
    """
    populated = resampled.any(axis=1)
    estimates = np.zeros(resampled.shape[0])
    if populated.any():
        if harmonic:
            fitted = fit_fringe_harmonics_many(phases, resampled[populated])
        else:
            fitted = fit_fringe_many(phases, resampled[populated])
        estimates[populated] = fitted
    return estimates
