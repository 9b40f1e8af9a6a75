"""Unit tests for units, random streams and ASCII rendering."""

import numpy as np
import pytest

from repro.utils import rng as rng_mod
from repro.utils import tables, units


class TestUnits:
    def test_dbm_round_trip(self):
        for dbm in (-30.0, 0.0, 10.0, 20.0):
            assert np.isclose(units.watts_to_dbm(units.dbm_to_watts(dbm)), dbm)

    def test_zero_dbm_is_one_mw(self):
        assert np.isclose(units.dbm_to_watts(0.0), 1e-3)

    def test_watts_to_dbm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            units.watts_to_dbm(0.0)

    def test_db_linear_round_trip(self):
        assert np.isclose(units.linear_to_db(units.db_to_linear(3.0)), 3.0)

    def test_loss_db_to_transmission(self):
        assert np.isclose(units.loss_db_to_transmission(3.0), 0.501187, atol=1e-5)
        assert units.loss_db_to_transmission(0.0) == 1.0

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            units.loss_db_to_transmission(-1.0)

    def test_transmission_round_trip(self):
        for t in (0.1, 0.5, 1.0):
            assert np.isclose(
                units.loss_db_to_transmission(-10.0 * np.log10(t)), t
            )


class TestRandomStream:
    def test_reproducible(self):
        a = rng_mod.RandomStream(7).normal(size=5)
        b = rng_mod.RandomStream(7).normal(size=5)
        assert np.allclose(a, b)

    def test_children_independent(self):
        root = rng_mod.RandomStream(7)
        a = root.child("a").normal(size=100)
        b = root.child("b").normal(size=100)
        assert not np.allclose(a, b)

    def test_children_reproducible(self):
        a = rng_mod.RandomStream(7).child("x").poisson(10.0, size=10)
        b = rng_mod.RandomStream(7).child("x").poisson(10.0, size=10)
        assert np.array_equal(a, b)

    def test_derive_seed_stable(self):
        assert rng_mod.derive_seed(1, "a") == rng_mod.derive_seed(1, "a")
        assert rng_mod.derive_seed(1, "a") != rng_mod.derive_seed(1, "b")
        assert rng_mod.derive_seed(1, "a") != rng_mod.derive_seed(2, "a")

    def test_label_changes_stream(self):
        a = rng_mod.RandomStream(7, label="x").random(size=4)
        b = rng_mod.RandomStream(7, label="y").random(size=4)
        assert not np.allclose(a, b)


class TestTables:
    def test_format_table_alignment(self):
        text = tables.format_table(["a", "bb"], [[1, 2.5], [3, 4.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("|") for line in lines)

    def test_format_table_title(self):
        text = tables.format_table(["x"], [[1]], title="My title")
        assert text.splitlines()[0] == "My title"

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            tables.format_table(["a", "b"], [[1]])

    def test_bool_rendering(self):
        text = tables.format_table(["ok"], [[True], [False]])
        assert "yes" in text and "no" in text

    def test_sparkline_monotone(self):
        line = tables.sparkline([1, 2, 3, 4])
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_sparkline_constant(self):
        assert tables.sparkline([2, 2, 2]) == "▄▄▄"

    def test_sparkline_empty(self):
        assert tables.sparkline([]) == ""

    def test_format_series_mismatch(self):
        with pytest.raises(ValueError):
            tables.format_series([1, 2], [1])

    def test_format_series_contains_sparkline(self):
        text = tables.format_series([1, 2, 3], [1.0, 4.0, 9.0], "x", "y")
        assert "y: " in text.splitlines()[-1]
