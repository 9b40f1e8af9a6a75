"""Curve fits used by the experiment drivers.

Two fits matter for the paper:

* a **sinusoidal fringe fit** for quantum-interference scans (Sections IV/V),
  from which the visibility is extracted;
* a **two-sided exponential convolved with a Gaussian** for the time-resolved
  coincidence histogram (Section II), from which the photon linewidth
  (110 MHz in the paper) is extracted in the presence of detector jitter.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import optimize, special

from repro.errors import FitError


@dataclasses.dataclass(frozen=True)
class FringeFit:
    """Result of fitting ``y = offset * (1 + visibility*cos(x + phase))``."""

    visibility: float
    phase: float
    offset: float
    residual_rms: float


def fit_fringe(phases: np.ndarray, counts: np.ndarray) -> FringeFit:
    """Fit a sinusoidal interference fringe and return its visibility.

    The model is ``counts = offset * (1 + V cos(phase + phi0))`` which is the
    standard form for two-photon (and, with the composite phase, four-photon)
    quantum-interference scans.  The fit is linear in the parameters
    ``(offset, offset*V*cos(phi0), -offset*V*sin(phi0))`` so it is solved in
    closed form by least squares — no iterative optimiser, no convergence
    worries.
    """
    phases = np.asarray(phases, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if phases.shape != counts.shape or phases.ndim != 1:
        raise ValueError("phases and counts must be 1-D arrays of equal length")
    if phases.size < 4:
        raise FitError("need at least 4 points to fit a fringe")

    design = np.column_stack(
        [np.ones_like(phases), np.cos(phases), np.sin(phases)]
    )
    solution, *_ = np.linalg.lstsq(design, counts, rcond=None)
    offset, a_cos, a_sin = solution
    if offset <= 0:
        raise FitError(f"fringe fit produced non-positive offset {offset:.3g}")
    amplitude = math.hypot(a_cos, a_sin)
    visibility = amplitude / offset
    phase = math.atan2(-a_sin, a_cos)
    residuals = counts - design @ solution
    residual_rms = float(np.sqrt(np.mean(residuals**2)))
    return FringeFit(
        visibility=float(visibility),
        phase=float(phase),
        offset=float(offset),
        residual_rms=residual_rms,
    )


def fit_fringe_many(phases: np.ndarray, counts_matrix: np.ndarray) -> np.ndarray:
    """Visibilities of many fringes sharing one phase grid, in one solve.

    ``counts_matrix`` has one fringe per row.  The design matrix depends
    only on the shared phases, so all rows are fitted by a single
    multi-right-hand-side least squares — this is what makes the
    parametric bootstrap of the visibility error a vectorized operation
    instead of ``n_resamples`` sequential :func:`fit_fringe` calls.
    """
    phases = np.asarray(phases, dtype=float)
    counts_matrix = np.atleast_2d(np.asarray(counts_matrix, dtype=float))
    if counts_matrix.shape[1] != phases.size or phases.ndim != 1:
        raise ValueError("counts_matrix rows must match the phase grid")
    if phases.size < 4:
        raise FitError("need at least 4 points to fit a fringe")
    design = np.column_stack(
        [np.ones_like(phases), np.cos(phases), np.sin(phases)]
    )
    solutions, *_ = np.linalg.lstsq(design, counts_matrix.T, rcond=None)
    offsets, a_cos, a_sin = solutions
    if np.any(offsets <= 0):
        raise FitError("fringe fit produced a non-positive offset")
    return np.hypot(a_cos, a_sin) / offsets


def fit_fringe_harmonics_many(
    phases: np.ndarray, counts_matrix: np.ndarray, harmonics: int = 2
) -> np.ndarray:
    """Extrema-based visibilities of many harmonic fringes, in one solve.

    The batched counterpart of :func:`fit_fringe_harmonics`: one
    multi-right-hand-side least squares plus one matrix product against
    the shared fine evaluation grid yields every row's fitted extrema.
    """
    phases = np.asarray(phases, dtype=float)
    counts_matrix = np.atleast_2d(np.asarray(counts_matrix, dtype=float))
    if counts_matrix.shape[1] != phases.size or phases.ndim != 1:
        raise ValueError("counts_matrix rows must match the phase grid")
    if harmonics < 1:
        raise ValueError(f"harmonics must be >= 1, got {harmonics}")
    if phases.size < 2 * harmonics + 2:
        raise FitError(
            f"need at least {2 * harmonics + 2} points for {harmonics} harmonics"
        )
    design = np.column_stack(_harmonic_columns(phases, harmonics))
    solutions, *_ = np.linalg.lstsq(design, counts_matrix.T, rcond=None)
    fine = np.linspace(0.0, 2.0 * math.pi, 2000)
    models = np.column_stack(_harmonic_columns(fine, harmonics)) @ solutions
    maxima = models.max(axis=0)
    minima = np.maximum(models.min(axis=0), 0.0)
    if np.any(maxima + minima <= 0):
        raise FitError("a fitted fringe is non-positive everywhere")
    return (maxima - minima) / (maxima + minima)


def _harmonic_columns(phases: np.ndarray, harmonics: int) -> list[np.ndarray]:
    """Design-matrix columns of a truncated Fourier series."""
    columns = [np.ones_like(phases)]
    for k in range(1, harmonics + 1):
        columns.append(np.cos(k * phases))
        columns.append(np.sin(k * phases))
    return columns


@dataclasses.dataclass(frozen=True)
class HarmonicFringeFit:
    """Result of a multi-harmonic fringe fit with extrema-based visibility.

    Four-photon common-phase fringes have the shape (1 + cos θ)², which
    carries a second harmonic; a pure sinusoid fit overestimates their
    visibility (it can exceed 1).  Fitting the first ``harmonics`` Fourier
    components and evaluating (max-min)/(max+min) on the fitted curve
    reproduces the definition the paper uses.
    """

    coefficients: np.ndarray
    visibility: float
    maximum: float
    minimum: float
    residual_rms: float


def fit_fringe_harmonics(
    phases: np.ndarray, counts: np.ndarray, harmonics: int = 2
) -> HarmonicFringeFit:
    """Least-squares Fourier fit; visibility from the fitted extrema."""
    phases = np.asarray(phases, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if phases.shape != counts.shape or phases.ndim != 1:
        raise ValueError("phases and counts must be 1-D arrays of equal length")
    if harmonics < 1:
        raise ValueError(f"harmonics must be >= 1, got {harmonics}")
    if phases.size < 2 * harmonics + 2:
        raise FitError(
            f"need at least {2 * harmonics + 2} points for {harmonics} harmonics"
        )
    design = np.column_stack(_harmonic_columns(phases, harmonics))
    solution, *_ = np.linalg.lstsq(design, counts, rcond=None)
    fine = np.linspace(0.0, 2.0 * math.pi, 2000)
    model = np.column_stack(_harmonic_columns(fine, harmonics)) @ solution
    maximum = float(model.max())
    minimum = float(max(model.min(), 0.0))
    if maximum + minimum <= 0:
        raise FitError("fitted fringe is non-positive everywhere")
    visibility = (maximum - minimum) / (maximum + minimum)
    residuals = counts - design @ solution
    return HarmonicFringeFit(
        coefficients=solution,
        visibility=float(visibility),
        maximum=maximum,
        minimum=minimum,
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
    )


@dataclasses.dataclass(frozen=True)
class ExponentialDecayFit:
    """Result of the coincidence-peak fit.

    ``decay_rate`` is the two-sided exponential rate Γ such that the
    jitter-free histogram is ``exp(-Γ|τ|)``; ``jitter_sigma`` is the Gaussian
    smearing of the measurement chain, and ``linewidth_hz`` the Lorentzian
    FWHM linewidth implied by Γ = 2π·Δν_HWHM·... — see
    :func:`decay_rate_to_linewidth`.
    """

    decay_rate: float
    jitter_sigma: float
    amplitude: float
    background: float
    residual_rms: float

    @property
    def coherence_time(self) -> float:
        """1/e coherence time of the two-sided exponential [s]."""
        return 1.0 / self.decay_rate

    @property
    def linewidth_hz(self) -> float:
        """Lorentzian FWHM linewidth implied by the fitted decay rate [Hz]."""
        return decay_rate_to_linewidth(self.decay_rate)


def linewidth_to_decay_rate(linewidth_fwhm_hz: float) -> float:
    """Map a Lorentzian FWHM linewidth to the coincidence-histogram decay rate.

    A resonance of FWHM Δν has cavity energy decay rate κ = 2π·Δν.  For a
    photon pair generated in a doubly-resonant cavity with equal signal and
    idler linewidths, each branch of the biphoton intensity
    cross-correlation decays at the cavity energy rate::

        G²(τ) ∝ exp(-κ |τ|) = exp(-2π Δν |τ|)

    so the histogram decay rate is Γ = 2π·Δν.  This is the convention
    sampled by :mod:`repro.detection.timetags` and inverted by
    :func:`decay_rate_to_linewidth`, making the round trip (generate at Δν,
    fit, report Δν) self-consistent — which is exactly how the paper reports
    its measured 110 MHz value.
    """
    if linewidth_fwhm_hz <= 0:
        raise ValueError(f"linewidth must be positive, got {linewidth_fwhm_hz!r}")
    return 2.0 * math.pi * linewidth_fwhm_hz


def decay_rate_to_linewidth(decay_rate: float) -> float:
    """Inverse of :func:`linewidth_to_decay_rate`."""
    if decay_rate <= 0:
        raise ValueError(f"decay rate must be positive, got {decay_rate!r}")
    return decay_rate / (2.0 * math.pi)


def exp_gauss_model(
    tau: np.ndarray,
    amplitude: float,
    decay_rate: float,
    jitter_sigma: float,
    background: float,
) -> np.ndarray:
    """Two-sided exponential convolved with a Gaussian, plus flat background.

    The analytic convolution of ``exp(-Γ|τ|)`` with a normal kernel of width
    σ is a sum of two mirrored exponentially-modified Gaussians::

        f(τ) = (A/2) e^{Γ²σ²/2} [ e^{-Γτ} erfc((Γσ² - τ)/(σ√2))
                                 + e^{+Γτ} erfc((Γσ² + τ)/(σ√2)) ] + B

    normalised so that ``f(0) → A`` in the σ → 0 limit.
    """
    tau = np.asarray(tau, dtype=float)
    if jitter_sigma < 0 or decay_rate <= 0:
        raise ValueError("jitter_sigma must be >= 0 and decay_rate > 0")
    if jitter_sigma == 0:
        return amplitude * np.exp(-decay_rate * np.abs(tau)) + background
    left = _emg_term(tau, decay_rate, jitter_sigma, branch=-1.0)
    right = _emg_term(tau, decay_rate, jitter_sigma, branch=+1.0)
    return amplitude * 0.5 * (left + right) + background


def _emg_term(
    tau: np.ndarray, decay_rate: float, sigma: float, branch: float
) -> np.ndarray:
    """One exponentially-modified-Gaussian term of the two-sided model.

    Computes ``exp(Γ²σ²/2 + branch·Γτ) · erfc((Γσ² + branch·τ)/(σ√2))``
    choosing, per element, whichever of two mathematically identical forms
    is numerically stable: the erfcx form ``exp(-τ²/2σ²)·erfcx(arg)``
    overflows for very negative ``arg``, while the direct form has a safely
    negative exponent exactly in that regime.
    """
    arg = (decay_rate * sigma**2 + branch * tau) / (math.sqrt(2.0) * sigma)
    stable = arg > -20.0
    exponent = decay_rate**2 * sigma**2 / 2.0 + branch * decay_rate * tau
    result = np.empty_like(tau)
    gauss = np.exp(-(tau[stable] ** 2) / (2.0 * sigma**2))
    result[stable] = gauss * special.erfcx(arg[stable])
    result[~stable] = np.exp(exponent[~stable]) * special.erfc(arg[~stable])
    return result


def fit_coincidence_peak(
    tau: np.ndarray,
    counts: np.ndarray,
    jitter_sigma_guess: float,
    fix_jitter: bool = False,
) -> ExponentialDecayFit:
    """Fit a time-resolved coincidence histogram.

    Parameters
    ----------
    tau:
        Bin centres [s] of the signal-idler delay histogram.
    counts:
        Histogram counts.
    jitter_sigma_guess:
        Known (or estimated) combined Gaussian jitter of the two detectors.
    fix_jitter:
        If true, the jitter is held at the guess and only the decay rate,
        amplitude and background are fitted — this mirrors the deconvolution
        the paper performs ("considering the time jitter of the detectors").
    """
    tau = np.asarray(tau, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if tau.shape != counts.shape or tau.ndim != 1:
        raise ValueError("tau and counts must be 1-D arrays of equal length")
    if tau.size < 8:
        raise FitError("need at least 8 histogram bins to fit the peak")
    peak = float(counts.max())
    if peak <= 0:
        raise FitError("histogram is empty; nothing to fit")
    background_guess = float(np.percentile(counts, 10))
    amplitude_guess = max(peak - background_guess, peak * 0.1)
    # Initial decay-rate guess from the histogram's second moment.
    weights = np.clip(counts - background_guess, 0, None)
    if weights.sum() <= 0:
        raise FitError("histogram has no counts above background")
    spread = math.sqrt(float(np.average(tau**2, weights=weights)))
    spread = max(spread, float(tau[1] - tau[0]))
    rate_guess = 1.0 / max(spread, 1e-15)

    if fix_jitter:
        def model(t, amplitude, rate, background):
            return exp_gauss_model(t, amplitude, rate, jitter_sigma_guess, background)

        starts = [[amplitude_guess, rate_guess, background_guess]]
        bounds = ([0, 1e3, 0], [np.inf, 1e15, np.inf])
    else:
        def model(t, amplitude, rate, sigma, background):
            return exp_gauss_model(t, amplitude, rate, sigma, background)

        # The (rate, sigma) surface has local minima when the two time
        # scales are comparable; multi-start over sigma and keep the best.
        sigma_base = max(jitter_sigma_guess, 1e-12)
        starts = [
            [amplitude_guess, rate_guess, sigma_base * factor, background_guess]
            for factor in (0.5, 1.0, 2.0, 4.0)
        ]
        bounds = ([0, 1e3, 1e-13, 0], [np.inf, 1e15, 1e-8, np.inf])

    best_popt = None
    best_rms = np.inf
    last_error: Exception | None = None
    for p0 in starts:
        # Parameters span ~20 orders of magnitude (counts vs seconds);
        # without per-parameter scaling the trust-region solver stalls.
        x_scale = [max(abs(p), 1e-12) for p in p0]
        try:
            popt, _ = optimize.curve_fit(
                model, tau, counts, p0=p0, bounds=bounds, maxfev=20000,
                x_scale=x_scale,
            )
        except (RuntimeError, optimize.OptimizeWarning) as exc:
            last_error = exc
            continue
        rms = float(np.sqrt(np.mean((counts - model(tau, *popt)) ** 2)))
        if rms < best_rms:
            best_rms = rms
            best_popt = popt
    if best_popt is None:
        raise FitError(f"coincidence-peak fit failed: {last_error}")

    if fix_jitter:
        amplitude, rate, background = best_popt
        sigma = jitter_sigma_guess
    else:
        amplitude, rate, sigma, background = best_popt
    return ExponentialDecayFit(
        decay_rate=float(rate),
        jitter_sigma=float(sigma),
        amplitude=float(amplitude),
        background=float(background),
        residual_rms=best_rms,
    )


def fit_power_law(powers: np.ndarray, outputs: np.ndarray) -> float:
    """Fit ``output = c * power^k`` and return the exponent ``k``.

    Used to verify the quadratic (k≈2) below-threshold and linear (k≈1)
    above-threshold scaling of the type-II OPO transfer curve.
    """
    powers = np.asarray(powers, dtype=float)
    outputs = np.asarray(outputs, dtype=float)
    if powers.shape != outputs.shape or powers.ndim != 1:
        raise ValueError("powers and outputs must be 1-D arrays of equal length")
    if np.any(powers <= 0) or np.any(outputs <= 0):
        raise ValueError("power-law fit requires strictly positive data")
    if powers.size < 2:
        raise FitError("need at least 2 points for a power-law fit")
    slope, _ = np.polyfit(np.log(powers), np.log(outputs), 1)
    return float(slope)
