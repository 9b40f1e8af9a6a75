"""Memory bounds of the full-stream click kernels.

The partner filter and the detector's dead-time scan and compaction run
in time blocks (:data:`repro.detection.tdc.CLICK_BLOCK`), so their
temporaries stay a few MB however long the streams run.  The detector
draws its darks into its click buffer and compacts that buffer in place,
and the pair source builds its delays in place.  tracemalloc counts
numpy's buffers exactly, so these bounds depend only on array sizes: not
on timing, machine speed or core count.
"""

import tracemalloc

import numpy as np
import pytest

from repro.detection.spd import DetectorModel
from repro.detection.tdc import partner_candidates
from repro.detection.timetags import BiphotonSource
from repro.utils.rng import RandomStream

#: Clicks per stream: ~67 s at the 15 kHz singles rate of E3.
CLICKS = 1_000_000
FLOAT_COPY = 8 * CLICKS


def _traced_peak(fn, *args):
    """(result, peak bytes allocated while ``fn`` ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def streams():
    rng = RandomStream(17, "working-set")
    duration_s = CLICKS / 15e3
    a = np.sort(rng.child("a").uniform(0.0, duration_s, CLICKS))
    b = np.sort(rng.child("b").uniform(0.0, duration_s, CLICKS))
    return a, b


def test_partner_filter_peak_is_a_fraction_of_one_copy(streams):
    a, b = streams
    (kept_a, kept_b), peak = _traced_peak(partner_candidates, [a, b], 8e-9)
    assert 0 < kept_a.size < a.size // 100  # the merge ran and filtered
    # One whole-stream merge would hold 2 + 2 copies (concatenation, diff).
    assert peak < FLOAT_COPY / 2


def test_ten_stream_partner_filter_peak_is_a_fraction_of_one_copy():
    # E1's set: five signal and five idler streams at 15 kHz each, one
    # copy in all, filtered at the reach of E1's widest window.
    rng = RandomStream(17, "working-set-ten")
    per_stream = CLICKS // 10
    streams = [
        np.sort(rng.child(f"s{k}").uniform(0.0, per_stream / 15e3, per_stream))
        for k in range(10)
    ]
    kept, peak = _traced_peak(partner_candidates, streams, 2.5e-7)
    # The merge ran and kept E1's share, ~7 %, which it maps back through
    # the merge's own order.
    assert 0.01 < sum(k.size for k in kept) / CLICKS < 0.2
    # One merge of the whole set would hold four copies (concatenation,
    # order, sorted values, gaps); the blocks plus the survivors stay
    # under three quarters of one.
    assert peak < 0.75 * FLOAT_COPY


def test_detect_holds_no_copy_beyond_its_input_and_output():
    rng = RandomStream(17, "working-set-detect")
    duration_s = CLICKS / 15e3
    photons = np.sort(rng.child("photons").uniform(0.0, duration_s, CLICKS // 5))
    detector = DetectorModel(
        efficiency=0.1, dark_count_rate_hz=15e3, dead_time_s=2e-6
    )
    clicks, peak = _traced_peak(
        detector.detect, photons, duration_s, rng.child("clicks")
    )
    assert clicks.size > 0.9 * CLICKS
    # A full-stream float diff alone would add one more copy.
    assert peak < 2.5 * clicks.nbytes
    # The click buffer is the one copy: the darks are drawn into it and
    # the survivors compacted within it, so only the gap mask and the run
    # heads (about a quarter copy) come on top.  Concatenating the darks
    # or gathering the survivors into a new array would add a whole copy.
    assert peak < 1.5 * clicks.nbytes


def test_pair_source_builds_its_delays_in_place():
    source = BiphotonSource(pair_rate_hz=15e3, linewidth_hz=110e6)
    pairs, peak = _traced_peak(
        source.generate, CLICKS / 15e3, RandomStream(17, "working-set-pairs")
    )
    copy = pairs.signal_times_s.nbytes
    # Keeping the magnitudes, signs and delay alongside both outputs took
    # seven copies.
    assert peak < 6 * copy
    # The emissions, the half delays and the sign uniforms are three
    # copies, plus the sign mask (an eighth); the samplers map their
    # draws in place.  Drawing the signs with ``choice`` (uniforms,
    # indices, values) or mapping into new arrays would add two more.
    assert peak < 3.5 * copy
