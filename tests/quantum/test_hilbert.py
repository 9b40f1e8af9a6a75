"""Unit tests for Hilbert-space bookkeeping."""

import numpy as np
import pytest

from repro.quantum import hilbert


class TestBasisKet:
    def test_unit_vector(self):
        ket = hilbert.basis_ket(4, 2)
        assert ket.shape == (4,)
        assert ket[2] == 1.0
        assert np.linalg.norm(ket) == 1.0

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            hilbert.basis_ket(2, 2)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            hilbert.basis_ket(0, 0)


class TestTensor:
    def test_kets_combine(self):
        a = hilbert.basis_ket(2, 0)
        b = hilbert.basis_ket(2, 1)
        product = hilbert.tensor(a, b)
        expected = np.zeros(4)
        expected[1] = 1.0
        assert np.allclose(product, expected)

    def test_single_factor_is_copy(self):
        a = hilbert.basis_ket(2, 0)
        result = hilbert.tensor(a)
        result[0] = 99.0
        assert a[0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hilbert.tensor()

    def test_operator_tensor_dimensions(self):
        x = np.eye(2)
        y = np.eye(3)
        assert hilbert.tensor(x, y).shape == (6, 6)

    @pytest.mark.parametrize(
        "shapes",
        [
            [(2, 2), (2, 2)],
            [(2, 2), (4, 4), (8, 8)],
            [(2, 3), (5, 1), (1, 4)],
            [(3,), (2,), (4,)],
            [(2, 2), (3,)],
            [(4,), (2, 2)],
            [(2, 2), (3, 1, 2)],
        ],
    )
    def test_bitwise_equal_to_np_kron(self, shapes):
        # Random complex factors, operators (square or not) and kets,
        # mixed ranks included: the fast 2-D path must not move one bit.
        gen = np.random.default_rng(7)
        factors = [
            gen.normal(size=shape) + 1j * gen.normal(size=shape)
            for shape in shapes
        ]
        expected = factors[0]
        for factor in factors[1:]:
            expected = np.kron(expected, factor)
        product = hilbert.tensor(*factors)
        assert product.shape == expected.shape
        assert product.flags.c_contiguous
        assert np.array_equal(
            product.view(np.uint64), expected.view(np.uint64)
        )


class TestTotalDimension:
    def test_product(self):
        assert hilbert.total_dimension([2, 3, 4]) == 24

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hilbert.total_dimension([])
