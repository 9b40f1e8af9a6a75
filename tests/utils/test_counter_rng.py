"""Counter-based RandomStream: split invariance, children, pickling.

A stream's draws are a pure function of ``(key, position)`` and every
sampler consumes one uniform per output element, so splitting a draw
sequence at any cursor position yields the same values as drawing it
in one call.  Hypothesis drives that invariant over arbitrary split
points; the remaining tests pin the children/pickle/multinomial
contracts that process-pool workers rely on, and the discrete inverse
CDFs' bit-equality with the ``scipy.stats`` methods they replace.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.utils.rng import (
    RandomStream,
    binomial_from_uniforms,
    choice_cdf,
    choice_indices_from_uniforms,
    exponential_from_uniforms,
    poisson_from_uniforms,
    uniform_from_uniforms,
)
from repro.utils.stats import poisson_interval

#: Uniforms at both ends of what a stream can emit, plus interior ones.
EDGE_UNIFORMS = np.array([0.0, 5e-324, 1e-300, 0.25, 0.5, 0.9, 1 - 2**-53])


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


def _uniform_formula(u, low, high):
    return low + u * (high - low)


def _exponential_formula(u, scale):
    return -scale * np.log1p(-u)


class TestInPlaceMapping:
    """Scalar-parameter uniform and exponential draws map their uniforms
    in place (and ``uniform`` into a caller's ``out``): the same bits,
    cursor and pickle resume as mapping them into new arrays."""

    SAMPLERS = {
        "uniform": (lambda s, size: s.uniform(-1.5, 2.0, size),
                    lambda u: _uniform_formula(u, -1.5, 2.0)),
        "exponential": (lambda s, size: s.exponential(0.7, size),
                        lambda u: _exponential_formula(u, 0.7)),
    }

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    @pytest.mark.parametrize("size", [0, 1, 7, 1001, (3, 4), None])
    def test_values_cursor_and_resume(self, rng_factory, name, size):
        draw, formula = self.SAMPLERS[name]
        count = int(np.prod(size)) if size is not None else 1
        raw = rng_factory(name).random(count + 5)
        stream = rng_factory(name)
        drawn = draw(stream, size)
        expected = formula(raw[:count].reshape(np.shape(drawn)))
        assert _bitwise_equal(drawn, expected)
        assert stream.position == count
        clone = pickle.loads(pickle.dumps(stream))
        assert np.array_equal(clone.random(5), raw[count:])

    @pytest.mark.parametrize("size", [0, 5, 1001])
    def test_uniform_out_matches_sized_draw(self, rng_factory, size):
        expected_stream = rng_factory("out")
        expected = expected_stream.uniform(0.0, 600.0, size)
        buffer = np.full(size + 3, -1.0)
        stream = rng_factory("out")
        tail = buffer[3:]
        assert stream.uniform(0.0, 600.0, out=tail) is tail
        assert _bitwise_equal(buffer[3:], expected)
        assert np.array_equal(buffer[:3], [-1.0] * 3)
        assert stream.position == expected_stream.position == size
        clone = pickle.loads(pickle.dumps(stream))
        assert np.array_equal(clone.random(4), expected_stream.random(4))

    def test_uniform_out_rejects_what_it_cannot_fill_without_drawing(
        self, rng
    ):
        buffer = np.empty(4)
        with pytest.raises(ValueError):
            rng.uniform(np.zeros(4), 1.0, out=buffer)
        with pytest.raises(ValueError):
            rng.uniform(0.0, 1.0, size=3, out=buffer)
        assert rng.position == 0

    def test_array_parameters_broadcast_as_before(self, rng_factory):
        low = np.array([[0.0], [10.0]])
        high = np.array([1.0, 2.0, 4.0])
        scale = np.array([0.5, 2.0, 8.0])
        u = rng_factory("broadcast").random(12)
        stream = rng_factory("broadcast")
        assert _bitwise_equal(
            stream.uniform(low, high),
            _uniform_formula(u[:6].reshape(2, 3), low, high),
        )
        assert _bitwise_equal(
            stream.exponential(scale, size=(2, 3)),
            _exponential_formula(u[6:].reshape(2, 3), scale),
        )
        assert stream.position == 12

    def test_mappers_leave_the_callers_uniforms_alone(self):
        u = EDGE_UNIFORMS.copy()
        assert _bitwise_equal(
            uniform_from_uniforms(u, 2.0, 5.0),
            _uniform_formula(EDGE_UNIFORMS, 2.0, 5.0),
        )
        assert _bitwise_equal(
            exponential_from_uniforms(u, 3.0),
            _exponential_formula(EDGE_UNIFORMS, 3.0),
        )
        assert _bitwise_equal(u, EDGE_UNIFORMS)


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


def _bitwise_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    return (
        actual.shape == expected.shape
        and actual.dtype == expected.dtype
        and np.array_equal(actual.view(np.uint64), expected.view(np.uint64))
    )


def _reference(ppf, u, *params):
    """What the samplers computed through ``scipy.stats``: clamp, ppf, cast."""
    with np.errstate(invalid="ignore"):
        return np.asarray(ppf(np.clip(u, 5e-324, None), *params)).astype(
            np.int64
        )


class TestInverseCdfs:
    """The scipy.special inverse CDFs equal scipy.stats' ``ppf`` exactly."""

    @pytest.mark.parametrize(
        "lam", [0.0, 1e-12, 0.3, 1.0, 7.5, 250.0, 1.2e7, 3.3e9]
    )
    def test_poisson_matches_scipy_stats(self, lam):
        assert _bitwise_equal(
            poisson_from_uniforms(EDGE_UNIFORMS, lam),
            _reference(stats.poisson.ppf, EDGE_UNIFORMS, lam),
        )

    @pytest.mark.parametrize(
        "n, p",
        [(0, 0.3), (0, 0.0), (5, 0.0), (5, 1.0), (1, 0.5), (20, 0.3),
         (10**6, 1e-4), (10**6, 0.999)],
    )
    def test_binomial_matches_scipy_stats(self, n, p):
        assert _bitwise_equal(
            binomial_from_uniforms(EDGE_UNIFORMS, n, p),
            _reference(stats.binom.ppf, EDGE_UNIFORMS, n, p),
        )

    def test_array_and_broadcast_parameters(self):
        gen = np.random.default_rng(11)
        u = gen.random((40, 50))
        lam = 10 ** gen.uniform(-12, 9.5, size=(40, 1))
        assert _bitwise_equal(
            poisson_from_uniforms(u, lam), _reference(stats.poisson.ppf, u, lam)
        )
        n = np.floor(10 ** gen.uniform(0, 6, size=50))
        p = gen.random((40, 1))
        assert _bitwise_equal(
            binomial_from_uniforms(u, n, p), _reference(stats.binom.ppf, u, n, p)
        )

    @pytest.mark.parametrize(
        "lam", [-1.0, -np.inf, np.nan, np.inf, [1.0, -2.0, np.nan, 0.0]]
    )
    def test_invalid_poisson_mean_as_before(self, lam):
        with np.errstate(invalid="ignore"):
            drawn = poisson_from_uniforms(EDGE_UNIFORMS[1:5], lam)
        assert _bitwise_equal(
            drawn, _reference(stats.poisson.ppf, EDGE_UNIFORMS[1:5], lam)
        )

    @pytest.mark.parametrize(
        "n, p",
        [(2.5, 0.3), (-1, 0.3), (3, 1.5), (3, -0.1), (3, np.nan),
         (np.nan, 0.3), (np.inf, 0.3), ([1, 2.5, -3, 4], 0.2),
         (10, [0.1, 2.0, -1.0, 0.5])],
    )
    def test_invalid_binomial_parameters_as_before(self, n, p):
        with np.errstate(invalid="ignore"):
            drawn = binomial_from_uniforms(EDGE_UNIFORMS[1:5], n, p)
        assert _bitwise_equal(
            drawn, _reference(stats.binom.ppf, EDGE_UNIFORMS[1:5], n, p)
        )

    def test_stream_draws_match_scipy_stats(self, rng_factory):
        u = rng_factory("ref").random(200)
        assert _bitwise_equal(
            rng_factory("ref").poisson(3.5, size=200),
            _reference(stats.poisson.ppf, u, 3.5),
        )
        assert _bitwise_equal(
            rng_factory("ref").binomial(40, 0.2, size=200),
            _reference(stats.binom.ppf, u, 40, 0.2),
        )
        scalar = rng_factory("ref").poisson(3.5)
        assert scalar == _reference(stats.poisson.ppf, u[0], 3.5)[()]

    @pytest.mark.parametrize(
        "confidence", [1e-300, 0.5, 0.68, 0.95, 0.999999, 1 - 2**-53]
    )
    def test_poisson_interval_matches_chi2_ppf(self, confidence):
        alpha = 1.0 - confidence
        for counts in [*range(0, 50), 100, 999, 2000, 10**6]:
            low = (
                0.0
                if counts == 0
                else stats.chi2.ppf(alpha / 2, 2 * counts) / 2
            )
            high = stats.chi2.ppf(1 - alpha / 2, 2 * (counts + 1)) / 2
            assert poisson_interval(counts, confidence) == (
                float(low),
                float(high),
            )
