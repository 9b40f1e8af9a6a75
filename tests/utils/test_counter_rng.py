"""Counter-based RandomStream: split invariance, children, pickling.

A stream's draws are a pure function of ``(key, position)`` and every
sampler consumes one uniform per output element, so splitting a draw
sequence at any cursor position yields the same values as drawing it
in one call.  Hypothesis drives that invariant over arbitrary split
points; the remaining tests pin the children/pickle/multinomial
contracts that process-pool workers rely on.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import (
    RandomStream,
    choice_cdf,
    choice_indices_from_uniforms,
)


def _split_points(draw_total):
    """Strategy: a sorted list of split points inside ``[0, total]``."""
    return st.lists(
        st.integers(min_value=0, max_value=draw_total),
        min_size=0,
        max_size=8,
    ).map(sorted)


class TestSliceInvariance:
    """Drawing a sequence in consecutive pieces is bit-identical."""

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        total=st.integers(min_value=1, max_value=300),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_uniforms_invariant_under_arbitrary_splits(
        self, seed, total, data
    ):
        whole = RandomStream(seed, "split").random((total,))
        stream = RandomStream(seed, "split")
        cuts = [0, *data.draw(_split_points(total)), total]
        pieces = [stream.random((hi - lo,)) for lo, hi in zip(cuts, cuts[1:])]
        assert np.array_equal(whole, np.concatenate(pieces))
        assert stream.position == total

    def test_mapped_draws_invariant_under_splits(self, rng_factory):
        # Distribution draws consume one uniform per element, so drawing
        # k then n - k values reproduces one draw of n exactly.
        lam, n, p = 7.5, 20, 0.3
        samplers = {
            "poisson": lambda s, k: s.poisson(lam, size=k),
            "normal": lambda s, k: s.normal(1.0, 2.0, size=k),
            "exponential": lambda s, k: s.exponential(0.5, size=k),
            "uniform": lambda s, k: s.uniform(-1.0, 1.0, size=k),
            "binomial": lambda s, k: s.binomial(n, p, size=k),
        }
        for name, draw in samplers.items():
            expected = draw(rng_factory(name), 10)
            for k in (0, 3, 5, 10):
                stream = rng_factory(name)
                split = np.concatenate([draw(stream, k), draw(stream, 10 - k)])
                assert np.array_equal(expected, split), (name, k)
                assert stream.position == 10

    def test_choice_with_p_matches_cdf_mapping(self, rng_factory):
        p = [0.2, 0.5, 0.1, 0.2]
        drawn = rng_factory("choice").choice(4, size=50, p=p)
        uniforms = rng_factory("choice").random(50)
        assert np.array_equal(
            drawn, choice_indices_from_uniforms(uniforms, choice_cdf(p))
        )


class TestChildren:
    def test_seeded_child_equals_joined_label_stream(self):
        child = RandomStream(3).child("a").child("b")
        flat = RandomStream(3, "root/a/b")
        assert child.key == flat.key
        assert np.array_equal(child.random((8,)), flat.random((8,)))

    def test_unseeded_children_are_self_consistent(self):
        parent = RandomStream(seed=None)
        first = parent.child("det").random((6,))
        second = parent.child("det").random((6,))
        assert np.array_equal(first, second)
        assert not np.array_equal(first, parent.child("other").random((6,)))

    def test_unseeded_roots_differ(self):
        a = RandomStream(seed=None).random((4,))
        b = RandomStream(seed=None).random((4,))
        assert not np.array_equal(a, b)


class TestPickling:
    def test_round_trip_preserves_future_draws(self, rng_factory):
        stream = rng_factory("pickle")
        stream.random((17,))  # advance the cursor off a block boundary
        clone = pickle.loads(pickle.dumps(stream))
        assert clone.position == stream.position
        assert np.array_equal(stream.random((9,)), clone.random((9,)))

    def test_round_trip_resumes_at_every_cursor_in_a_block(
        self, rng_factory
    ):
        # Philox emits 4 words per counter block; a clone pickled at any
        # cursor must rebuild its generator at the exact next word.
        whole = rng_factory("blocks").random(12)
        for cursor in range(12):
            stream = rng_factory("blocks")
            stream.random(cursor)
            clone = pickle.loads(pickle.dumps(stream))
            assert clone.position == cursor
            assert np.array_equal(whole[cursor:], clone.random(12 - cursor))

    def test_unseeded_stream_pickles_realized_key(self):
        stream = RandomStream(seed=None)
        clone = pickle.loads(pickle.dumps(stream))
        assert clone.key == stream.key
        assert np.array_equal(stream.random((5,)), clone.random((5,)))


class TestMultinomial:
    def test_counts_sum_and_shape(self, rng):
        counts = rng.multinomial(250, [0.1, 0.2, 0.3, 0.4])
        assert counts.shape == (4,) and counts.dtype == np.int64
        assert counts.sum() == 250 and (counts >= 0).all()

    def test_deterministic_and_position_bounded(self, rng_factory):
        first = rng_factory("m").multinomial(100, [0.5, 0.25, 0.25])
        stream = rng_factory("m")
        second = stream.multinomial(100, [0.5, 0.25, 0.25])
        assert np.array_equal(first, second)
        # Exactly len(pvals) - 1 positions consumed, whatever came out.
        assert stream.position == 2

    def test_zero_probability_category_empty(self, rng):
        counts = rng.multinomial(500, [0.5, 0.0, 0.5])
        assert counts[1] == 0 and counts.sum() == 500
