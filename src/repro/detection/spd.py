"""Single-photon detector model.

The experiments used free-running InGaAs avalanche photodiodes: modest
quantum efficiency, tens-of-kHz dark rates and ~100 ps timing jitter.
Those three numbers — not the ring — set the measured CAR band of
Section II, which is why the model carries them explicitly.

Dead time is applied by an exact vectorised equivalent of the sequential
filter (kept as its oracle), whatever the stream length; its gap scan
runs in time blocks (:func:`repro.detection.tdc.gaps_below`).

:meth:`DetectorModel.detect` holds one stream-sized buffer: the darks
are drawn straight into the tail of the click buffer, which is sorted in
place and then compacted in place to the dead-time survivors.
"""

from __future__ import annotations

import bisect
import dataclasses

import numpy as np

from repro.detection import tdc
from repro.errors import ConfigurationError
from repro.utils.rng import RandomStream

#: Candidates a hop tries one by one before its binary search, on
#: streams where fewer than half the clicks are blocked.
_WALK_STEPS = 4

#: Open runs below which the dead-time filter stops hopping every run at
#: once: a vectorised hop costs about twenty numpy calls whatever its
#: size, as much as a dozen or two single hops in Python
#: (:func:`_follow_run`).
_MIN_VECTOR_RUNS = 16


@dataclasses.dataclass(frozen=True)
class DetectorModel:
    """A click detector with efficiency, darks, jitter and dead time.

    Parameters
    ----------
    efficiency:
        Overall click probability per arriving photon.  Collection losses
        between source and detector can either be folded in here or applied
        upstream; the experiment drivers fold the full arm budget in.
    dark_count_rate_hz:
        Free-running dark count rate.
    jitter_sigma_s:
        Gaussian timing jitter (one sigma).
    dead_time_s:
        Minimum separation between recorded clicks.
    """

    efficiency: float = 0.09
    dark_count_rate_hz: float = 20e3
    jitter_sigma_s: float = 120e-12
    dead_time_s: float = 10e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigurationError(
                f"efficiency must be in (0, 1], got {self.efficiency}"
            )
        if self.dark_count_rate_hz < 0:
            raise ConfigurationError("dark count rate must be >= 0")
        if self.jitter_sigma_s < 0:
            raise ConfigurationError("jitter must be >= 0")
        if self.dead_time_s < 0:
            raise ConfigurationError("dead time must be >= 0")

    def detect(
        self,
        photon_times_s: np.ndarray,
        duration_s: float,
        rng: RandomStream,
    ) -> np.ndarray:
        """Convert photon arrival times into recorded click times.

        Applies, in order: Bernoulli efficiency thinning, Gaussian jitter,
        dark-count injection (uniform Poisson process over the duration),
        time sorting and dead-time filtering.  Returns sorted click times.
        """
        photon_times = np.asarray(photon_times_s, dtype=float)
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")

        detected = photon_times[rng.random(photon_times.size) < self.efficiency]
        if self.jitter_sigma_s > 0 and detected.size:
            detected += rng.normal(0.0, self.jitter_sigma_s, detected.size)

        # The darks are drawn straight into the tail of the click buffer,
        # so the detected photons and the darks are never held twice.
        n_dark = int(rng.poisson(self.dark_count_rate_hz * duration_s))
        clicks = np.empty(detected.size + n_dark)
        clicks[: detected.size] = detected
        rng.uniform(0.0, duration_s, out=clicks[detected.size :])
        del detected
        clicks.sort()
        if self.dead_time_s > 0 and clicks.size > 1:
            keep = _dead_time_keep(clicks, self.dead_time_s)
            if keep is not None:
                _compact(clicks, keep)
        return clicks

    def expected_singles_rate_hz(self, photon_rate_hz: float) -> float:
        """Mean click rate for a given incident photon rate (darks included,
        dead time neglected — valid far below saturation)."""
        if photon_rate_hz < 0:
            raise ConfigurationError("photon rate must be >= 0")
        return self.efficiency * photon_rate_hz + self.dark_count_rate_hz


def _dead_time_loop(sorted_times: np.ndarray, dead_time_s: float) -> np.ndarray:
    """The sequential filter, kept as the oracle of :func:`_apply_dead_time`:
    keep a click iff it is a dead time clear of the previous kept click."""
    kept = np.empty_like(sorted_times)
    count = 0
    last = -np.inf
    for t in sorted_times:
        if t - last >= dead_time_s:
            kept[count] = t
            count += 1
            last = t
    return kept[:count]


def _apply_dead_time(times: np.ndarray, dead_time_s: float) -> np.ndarray:
    """Drop clicks closer than the dead time to the previous *kept* click.

    The filter is sequential (:func:`_dead_time_loop`); this is its exact
    equivalent (:func:`_dead_time_keep`), and leaves ``times`` untouched.
    """
    keep = _dead_time_keep(times, dead_time_s)
    return times if keep is None else times[keep]


def _dead_time_keep(
    times: np.ndarray, dead_time_s: float
) -> np.ndarray | None:
    """The keep mask of the dead-time filter (``None`` when it keeps all).

    A click whose gap to its immediate predecessor is at least the dead
    time is always kept: dropping earlier clicks only widens its gap.  The
    other ("blocked") clicks form runs, each headed by a kept click.  From
    a kept click ``k`` the next kept one is the first ``j`` with
    ``t[j] - t[k] >= dead_time`` — the loop's own comparison, monotone in
    ``j``.  A run of one blocked click needs no search: that click is
    dropped.  Longer runs hop to their next kept click
    (:func:`_next_clear`), every run at once, one kept click per step, so
    streams with short runs finish in a few vectorised steps.  A hop only
    moves forward within its own run, so each kept click is unblocked in
    place and the one mask becomes the keep mask.  Once fewer than
    :data:`_MIN_VECTOR_RUNS` runs are open (a saturated stream is one
    run), each is followed on its own, one kept click per scalar hop
    (:func:`_follow_run`), so no step costs more than the click it keeps.
    """
    n = times.size
    # A never-blocked slot past the end closes every run.
    blocked = np.zeros(n + 1, dtype=bool)
    tdc.gaps_below(times, dead_time_s, out=blocked[1:n])
    n_blocked = np.count_nonzero(blocked)
    if not n_blocked:
        return None
    # Where fewer than half the clicks are blocked, most hops end within a
    # click or two; on dense streams a hop spans many clicks and the
    # binary search is cheaper from the first step.
    walk = _WALK_STEPS if n_blocked < n // 2 else 0
    current = np.flatnonzero(np.greater(blocked[1:n], blocked[: n - 1]))
    current = current[blocked[current + 2]]
    while current.size >= _MIN_VECTOR_RUNS:
        current = _next_clear(times, current, dead_time_s, walk)
        current = current[blocked[current]]
        blocked[current] = False
    # A kept click followed by an unblocked one has ended its run; the
    # others' runs end at a blocked click followed by an unblocked one
    # (or by the closing slot).
    current = current[blocked[current + 1]]
    if current.size:
        ends = np.flatnonzero(np.greater(blocked[:n], blocked[1:]))
        for head, end in zip(current, ends[np.searchsorted(ends, current)]):
            blocked[head + _follow_run(times[head : end + 1], dead_time_s)] = False
    return np.logical_not(blocked[:n], out=blocked[:n])


def _follow_run(run: np.ndarray, dead_time_s: float) -> np.ndarray:
    """The kept clicks of one blocked run, as offsets into ``run`` (its
    kept head followed by its blocked clicks).

    Each hop bisects the run for the first click a dead time after the
    last kept one, nudged onto the loop's own comparison.  A hop past the
    run's end reaches its unblocked successor, which is kept anyway.
    """
    times = run.tolist()
    kept = []
    last = 0
    while True:
        start = times[last]
        j = bisect.bisect_left(times, start + dead_time_s, last + 1)
        while j > last + 1 and times[j - 1] - start >= dead_time_s:
            j -= 1
        while j < len(times) and times[j] - start < dead_time_s:
            j += 1
        if j == len(times):
            return np.asarray(kept, dtype=np.intp)
        kept.append(j)
        last = j


def _compact(values: np.ndarray, keep: np.ndarray) -> None:
    """Shrink ``values`` in place to ``values[keep]``.

    The kept values move forward one block of
    :data:`repro.detection.tdc.CLICK_BLOCK` at a time (a block never
    writes past its own start), so no second stream-sized buffer is
    allocated; the freed tail is then handed back.  ``values`` must own
    its data and have no views.
    """
    count = 0
    for lo in range(0, values.size, tdc.CLICK_BLOCK):
        hi = lo + tdc.CLICK_BLOCK
        block = values[lo:hi][keep[lo:hi]]
        values[count : count + block.size] = block
        count += block.size
    values.resize(count, refcheck=False)


def _next_clear(
    times: np.ndarray, indices: np.ndarray, dead_time_s: float, walk: int
) -> np.ndarray:
    """For each index k, the first j > k with ``times[j] - times[k] >=
    dead_time_s`` (``times.size`` when there is none).

    The first ``walk`` candidates are tried one by one, all indices at
    once; the indices still short of the dead time then jump by
    ``searchsorted``, nudged onto the exact comparison.
    """
    n = times.size
    start = times[indices]
    first = indices + 1
    if not walk:
        return _jump(times, start, first, dead_time_s)
    pending = np.arange(indices.size)
    for _ in range(walk):
        candidate = first[pending]
        ahead = candidate < n
        gap = times[candidate[ahead]] - start[pending[ahead]]
        ahead[ahead] = gap < dead_time_s
        pending = pending[ahead]
        if not pending.size:
            return first
        first[pending] += 1
    first[pending] = _jump(times, start[pending], first[pending], dead_time_s)
    return first


def _jump(
    times: np.ndarray, start: np.ndarray, lower: np.ndarray, dead_time_s: float
) -> np.ndarray:
    """For each ``start``, the first j >= ``lower`` with ``times[j] - start
    >= dead_time_s``, given that none before ``lower`` qualifies.

    ``searchsorted`` locates ``start + dead_time_s``, whose rounding can
    differ from the subtraction's by an ulp; the nudges settle the
    difference on the subtraction itself.
    """
    n = times.size
    first = np.maximum(
        np.searchsorted(times, start + dead_time_s, side="left"), lower
    )
    while True:
        back = first > lower
        back[back] = times[first[back] - 1] - start[back] >= dead_time_s
        if not back.any():
            break
        first[back] -= 1
    while True:
        ahead = first < n
        ahead[ahead] = times[first[ahead]] - start[ahead] < dead_time_s
        if not ahead.any():
            return first
        first[ahead] += 1
