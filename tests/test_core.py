"""Tensor primitives against brute-force oracles and hand-computed values."""
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from symtensor import (
    FactorModel,
    SymmetryPattern,
    khatri_rao,
    mode_n_matricize,
    reconstruct,
    residual_sq,
    square_matricize,
    symmetry_check,
    symmetry_defect,
)

from symtensor.core import _BLOCK, _product_layout

from _oracles import (
    khatri_rao_oracle,
    reconstruct_oracle,
    square_matricize_oracle,
    unfold_oracle,
)


# --------------------------------------------------------------------- #
# Matricization                                                          #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 4, 5), (4, 1, 2), (2, 3, 4, 2), (2, 2, 2, 2)])
def test_mode_n_matches_bruteforce(dims):
    rng = np.random.default_rng(1)
    t = rng.standard_normal(dims)
    for mode in range(len(dims)):
        np.testing.assert_array_equal(mode_n_matricize(t, mode), unfold_oracle(t, mode))


def test_mode_n_known_element():
    # 3x4x5 tensor: entry at 1-based index (2,3,4) lands in row 2, column 15
    # of the mode-1 unfolding (0-based: [1, 14]).
    t = np.arange(60, dtype=float).reshape(3, 4, 5)
    m = mode_n_matricize(t, 0)
    assert m.shape == (3, 20)
    assert m[1, 14] == t[1, 2, 3]


def test_mode_out_of_range():
    with pytest.raises(ValueError):
        mode_n_matricize(np.zeros((2, 2, 2)), 3)


def test_square_matricize_matches_bruteforce():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 4, 2, 5))
    np.testing.assert_array_equal(square_matricize(x), square_matricize_oracle(x))


def test_square_matricize_known_element():
    # 2x2x2x2: 1-based entry (2,1,1,2) maps to row 3, column 2.
    x = np.arange(16, dtype=float).reshape(2, 2, 2, 2)
    assert square_matricize(x)[2, 1] == x[1, 0, 0, 1]


def test_square_matricize_needs_order4():
    with pytest.raises(ValueError):
        square_matricize(np.zeros((2, 2, 2)))


# --------------------------------------------------------------------- #
# khatri_rao                                                            #
# --------------------------------------------------------------------- #


def test_khatri_rao_known_values():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    expected = np.array([[5.0, 12.0], [7.0, 16.0], [15.0, 24.0], [21.0, 32.0]])
    np.testing.assert_array_equal(khatri_rao(a, b), expected)


def test_khatri_rao_matches_kron_oracle():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(khatri_rao(a, b), khatri_rao_oracle(a, b))


def test_khatri_rao_column_mismatch():
    with pytest.raises(ValueError, match="column counts differ"):
        khatri_rao(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="expects matrices"):
        khatri_rao(np.zeros(2), np.zeros((2, 1)))


def test_unvec_of_khatri_rao_column_is_outer_product():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3))
    kr = khatri_rao(a, a)
    for r in range(3):
        np.testing.assert_array_equal(
            kr[:, r].reshape(4, 4, order="F"), np.outer(a[:, r], a[:, r])
        )


@given(
    hyp.integers(min_value=1, max_value=5),
    hyp.integers(min_value=1, max_value=5),
    hyp.integers(min_value=1, max_value=4),
    hyp.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_khatri_rao_entry_formula(rows_a, rows_b, rank, seed):
    """kr(a,b)[i*Jb + j, r] == a[i, r] * b[j, r] for all indices."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows_a, rank))
    b = rng.standard_normal((rows_b, rank))
    kr = khatri_rao(a, b)
    for i, j, r in itertools.product(range(rows_a), range(rows_b), range(rank)):
        assert kr[i * rows_b + j, r] == a[i, r] * b[j, r]


# --------------------------------------------------------------------- #
# Models, reconstruction, residual                                       #
# --------------------------------------------------------------------- #


def test_reconstruct_psym3_known():
    model = FactorModel(
        SymmetryPattern.PSYM3, [np.array([[1.0], [2.0]]), np.array([[3.0]])]
    )
    expected = np.array([[3.0, 6.0], [6.0, 12.0]])
    np.testing.assert_array_equal(reconstruct(model)[:, :, 0], expected)


def test_residual_sq_known():
    x = reconstruct(
        FactorModel(SymmetryPattern.PSYM3, [np.array([[1.0], [2.0]]), np.array([[3.0]])])
    )
    off = FactorModel(
        SymmetryPattern.PSYM3, [np.array([[1.0], [2.0]]), np.array([[2.0]])]
    )
    assert residual_sq(x, off) == 25.0


def test_residual_sq_zero_for_generator():
    rng = np.random.default_rng(6)
    model = FactorModel(
        SymmetryPattern.PSYM4_CASE2,
        [rng.standard_normal((4, 3)), rng.standard_normal((3, 3)), rng.standard_normal((5, 3))],
    )
    assert residual_sq(reconstruct(model), model) == 0.0


def test_residual_sq_shape_mismatch():
    model = FactorModel(SymmetryPattern.PSYM3, [np.ones((2, 1)), np.ones((3, 1))])
    with pytest.raises(ValueError):
        residual_sq(np.zeros((2, 2, 4)), model)


_PATTERN_ROWS = [
    (SymmetryPattern.GENERAL3, (3, 4, 5)),
    (SymmetryPattern.PSYM3, (4, 3)),
    (SymmetryPattern.PSYM4_CASE1, (3, 4)),
    (SymmetryPattern.PSYM4_CASE2, (3, 4, 2)),
    (SymmetryPattern.FSYM4, (3,)),
    (SymmetryPattern.GENERAL4, (2, 3, 4, 2)),
]


@pytest.mark.parametrize("pattern,rows", _PATTERN_ROWS)
def test_reconstruct_matches_outer_product_oracle(pattern, rows):
    rng = np.random.default_rng(7)
    factors = [rng.standard_normal((n, 2)) for n in rows]
    model = FactorModel(pattern, factors)
    expanded = [factors[i] for i in pattern.mode_factors]
    np.testing.assert_allclose(reconstruct(model), reconstruct_oracle(expanded), atol=1e-13)


@pytest.mark.parametrize("layout", ["C", "F", "transposed-view"])
@pytest.mark.parametrize("pattern,rows", _PATTERN_ROWS)
def test_residual_sq_matches_outer_product_oracle(pattern, rows, layout):
    rng = np.random.default_rng(13)
    factors = [rng.standard_normal((n, 3)) for n in rows]
    model = FactorModel(pattern, factors)
    oracle = reconstruct_oracle([factors[i] for i in pattern.mode_factors])
    x = oracle + 0.1 * rng.standard_normal(oracle.shape)
    expected = float(np.sum((x - oracle) ** 2))
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "transposed-view":
        perm = (1, 0, *range(2, x.ndim))
        x = np.ascontiguousarray(x.transpose(perm)).transpose(perm)
        assert not (x.flags.c_contiguous or x.flags.f_contiguous)
    assert residual_sq(x, model) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "pattern,rows", [(SymmetryPattern.GENERAL3, (6, 7, 8)), (SymmetryPattern.PSYM4_CASE2, (5, 6, 4))]
)
def test_residual_sq_bit_equal_across_layouts(pattern, rows):
    """The memory order of x changes how fast the residual reads it, never
    the value: C, F and product-layout copies give the same float."""
    rng = np.random.default_rng(17)
    model = FactorModel(pattern, [rng.standard_normal((n, 4)) for n in rows])
    x = reconstruct(model) + rng.standard_normal(model.dims)
    copies = [np.ascontiguousarray(x), np.asfortranarray(x), _product_layout(x)]
    perm = (0, 1, 2) if x.ndim == 3 else (0, 2, 1, 3)
    assert copies[2].transpose(perm).flags.c_contiguous
    if x.ndim == 4:
        assert not (copies[2].flags.c_contiguous or copies[2].flags.f_contiguous)
    values = [residual_sq(y, model) for y in copies]
    assert values[0] > 0.0
    assert values == [values[0]] * 3


# Sizes whose model product spans several of residual_sq's blocks, the last
# one partial. ``exact``: the residual against the model's own
# reconstruction is 0.0, not just roundoff. That needs the BLAS to give a
# slab's GEMM rows the bits it gives the same rows of the whole product,
# which OpenBLAS 0.3.31 does at these four sizes and not at the other two.
_MULTI_BLOCK = [
    (SymmetryPattern.GENERAL3, (70, 71, 33), True),
    (SymmetryPattern.PSYM3, (90, 20), True),
    (SymmetryPattern.PSYM4_CASE1, (20, 15), False),
    (SymmetryPattern.PSYM4_CASE2, (20, 12, 16), True),
    (SymmetryPattern.FSYM4, (22,), False),
    (SymmetryPattern.GENERAL4, (21, 22, 23, 24), True),
]


@pytest.mark.parametrize("pattern,rows,exact", _MULTI_BLOCK)
def test_residual_sq_across_blocks_matches_oracle(pattern, rows, exact):
    """Slabs of the product, a ragged last one included, add up to the
    whole residual, with the same float for C, F and strided copies of x."""
    rng = np.random.default_rng(19)
    factors = [rng.standard_normal((n, 4)) for n in rows]
    model = FactorModel(pattern, factors)
    dims = model.dims
    step = _BLOCK // (np.prod(dims) // dims[0])
    assert 0 < step < dims[0] and dims[0] % step
    oracle = reconstruct_oracle([factors[i] for i in pattern.mode_factors])
    x = oracle + 0.1 * rng.standard_normal(dims)
    expected = float(np.sum((x - oracle) ** 2))
    perm = (1, 0, *range(2, x.ndim))
    strided = np.ascontiguousarray(x.transpose(perm)).transpose(perm)
    values = [residual_sq(y, model) for y in (x, np.asfortranarray(x), strided)]
    assert values[0] == pytest.approx(expected, rel=1e-12)
    assert values == [values[0]] * 3
    own = reconstruct(model)
    for y in (own, np.asfortranarray(own)):
        zero = residual_sq(y, model)
        assert zero == 0.0 if exact else zero <= 1e-28 * float(np.sum(own * own))


def _plain_defect(x, pattern):
    """The defect as one whole-tensor difference per permutation."""
    with np.errstate(invalid="ignore"):
        diffs = [np.max(np.abs(x.transpose(p) - x)) for p in pattern.permutations]
    return float(np.max(diffs, initial=0.0))


@pytest.mark.parametrize("pattern,rows,exact", _MULTI_BLOCK)
def test_symmetry_defect_across_blocks_matches_plain_formula(pattern, rows, exact):
    """Slab by slab, the defect is the plain formula's float for C, F and
    strided inputs, and a NaN or an inf in any slab reaches it."""
    rng = np.random.default_rng(29)
    model = FactorModel(pattern, [rng.standard_normal((n, 3)) for n in rows])
    dims = model.dims
    assert 0 < _BLOCK // (np.prod(dims) // dims[0]) < dims[0]
    base = reconstruct(model) + 1e-6 * rng.standard_normal(dims)
    cases = [base]
    # at distinct indices each bad entry meets a finite one; on the diagonal,
    # inf meets itself
    apart = (dims[0] // 2, 0, 1, 2)[: len(dims)]
    for index, bad in [(apart, np.nan), (apart, np.inf), (apart, -np.inf), ((2,) * len(dims), np.inf)]:
        y = base.copy()
        y[index] = bad
        cases.append(y)
    for y in cases:
        want = _plain_defect(y, pattern)
        wide = np.zeros(dims[:-1] + (2 * dims[-1],))
        wide[..., ::2] = y
        for z in (y, np.asfortranarray(y), wide[..., ::2]):
            got = symmetry_defect(z, pattern)
            assert got == want or (np.isnan(got) and np.isnan(want))
    if pattern.permutations:
        assert _plain_defect(base, pattern) > 0.0
        assert [np.isnan(_plain_defect(y, pattern)) for y in cases[1:]] == [True, False, False, True]


def test_residual_sq_memory_is_one_block():
    """The residual streams the product through one block: on a 60^3 model
    its peak allocation stays well below the tensor itself."""
    rng = np.random.default_rng(23)
    model = FactorModel(SymmetryPattern.PSYM3, [rng.standard_normal((60, 10)) for _ in range(2)])
    x = reconstruct(model) + rng.standard_normal(model.dims)
    residual_sq(x, model)
    tracemalloc.start()
    try:
        residual_sq(x, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * x.nbytes


def test_symmetry_defect_memory_is_one_block():
    """The defect takes each permutation's difference through one block: on
    a 60^3 tensor its peak allocation stays well below the tensor itself."""
    x = np.random.default_rng(24).standard_normal((60, 60, 60))
    symmetry_defect(x, SymmetryPattern.PSYM3)
    tracemalloc.start()
    try:
        symmetry_defect(x, SymmetryPattern.PSYM3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * x.nbytes


def test_reconstruct_zero_column_contributes_nothing():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 2))
    c = rng.standard_normal((3, 2))
    a2 = np.column_stack([a, np.zeros(4)])
    c2 = np.column_stack([c, rng.standard_normal(3)])
    m1 = FactorModel(SymmetryPattern.PSYM3, [a, c])
    m2 = FactorModel(SymmetryPattern.PSYM3, [a2, c2])
    np.testing.assert_array_equal(reconstruct(m1), reconstruct(m2))


def test_model_validation():
    with pytest.raises(ValueError):
        FactorModel(SymmetryPattern.PSYM3, [np.ones((2, 1))])
    with pytest.raises(ValueError):
        FactorModel(SymmetryPattern.PSYM3, [np.ones((2, 1)), np.ones((3, 2))])
    with pytest.raises(ValueError):
        FactorModel(SymmetryPattern.PSYM3, [np.ones((2, 0)), np.ones((3, 0))])
    with pytest.raises(ValueError, match="2-D"):
        FactorModel(SymmetryPattern.PSYM3, [np.ones(2), np.ones((3, 1))])
    with pytest.raises(ValueError, match=r"needs positive dims, got \(0, 0, 4\)"):
        FactorModel(SymmetryPattern.PSYM3, [np.zeros((0, 2)), np.ones((4, 2))])


def test_model_dims():
    model = FactorModel(SymmetryPattern.PSYM4_CASE1, [np.ones((3, 2)), np.ones((4, 2))])
    assert model.dims == (3, 4, 3, 4)
    assert model.rank == 2
    assert reconstruct(model, (3, 4, 3, 4)).shape == (3, 4, 3, 4)
    with pytest.raises(ValueError, match="model generates dims"):
        reconstruct(model, (3, 4, 4, 3))


# --------------------------------------------------------------------- #
# Symmetry checks                                                        #
# --------------------------------------------------------------------- #


def test_psym3_reconstruction_is_bitwise_symmetric():
    rng = np.random.default_rng(9)
    model = FactorModel(
        SymmetryPattern.PSYM3, [rng.standard_normal((5, 3)), rng.standard_normal((4, 3))]
    )
    assert symmetry_check(reconstruct(model), SymmetryPattern.PSYM3, 0.0)


def test_case1_reconstruction_is_bitwise_symmetric():
    rng = np.random.default_rng(10)
    model = FactorModel(
        SymmetryPattern.PSYM4_CASE1, [rng.standard_normal((4, 3)), rng.standard_normal((3, 3))]
    )
    assert symmetry_check(reconstruct(model), SymmetryPattern.PSYM4_CASE1, 0.0)


def test_fsym4_reconstruction_symmetric():
    rng = np.random.default_rng(11)
    model = FactorModel(SymmetryPattern.FSYM4, [rng.standard_normal((4, 3))])
    x = reconstruct(model)
    assert symmetry_check(x, SymmetryPattern.FSYM4, 1e-12)
    # subgroup of the full symmetric group
    assert symmetry_check(x, SymmetryPattern.PSYM4_CASE2, 1e-12)


def test_symmetry_check_rejects_asymmetric():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 4, 3))
    assert not symmetry_check(x, SymmetryPattern.PSYM3)
    assert symmetry_defect(x, SymmetryPattern.PSYM3) > 0.1
    # a NaN entry, and an inf entry that meets itself (inf - inf is NaN)
    for bad in (np.nan, np.inf):
        x = np.ones((3, 3, 4))
        x[0, 0, 1] = bad
        assert not symmetry_check(x, SymmetryPattern.PSYM3)
        assert np.isnan(symmetry_defect(x, SymmetryPattern.PSYM3))


def test_symmetry_check_shape_mismatch_is_false_not_error():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ok = symmetry_check(np.zeros((3, 4, 5)), SymmetryPattern.PSYM3)
    assert ok is False
    assert caught
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("ignore")
        assert symmetry_check(np.zeros((3, 3)), SymmetryPattern.PSYM3) is False
    # a zero size fails the pattern's shape rule before any entry is read
    with pytest.warns(UserWarning, match="needs positive dims"):
        assert symmetry_check(np.zeros((0, 0, 3)), SymmetryPattern.PSYM3) is False


def test_symmetry_tolerance_boundary():
    x = np.zeros((2, 2, 1))
    x[0, 1, 0] = 1e-13
    assert symmetry_check(x, SymmetryPattern.PSYM3, 1e-12)
    assert not symmetry_check(x, SymmetryPattern.PSYM3, 1e-14)


def test_pattern_metadata_consistency():
    for pattern in SymmetryPattern:
        assert len(pattern.mode_factors) == pattern.order
        for perm in pattern.permutations:
            assert sorted(perm) == list(range(pattern.order))
            # each invariance permutation maps modes to modes sharing a factor
            assert all(
                pattern.mode_factors[perm[m]] == pattern.mode_factors[m]
                for m in range(pattern.order)
            )


def test_pattern_invariance_groups_are_exact():
    """Each pattern's whole invariance group, identity excluded; psym4-case1
    includes the composition of its two swaps."""
    groups = {
        SymmetryPattern.GENERAL3: set(),
        SymmetryPattern.PSYM3: {(1, 0, 2)},
        SymmetryPattern.PSYM4_CASE1: {(2, 1, 0, 3), (0, 3, 2, 1), (2, 3, 0, 1)},
        SymmetryPattern.PSYM4_CASE2: {(2, 1, 0, 3)},
        SymmetryPattern.FSYM4: {
            (0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1),
            (1, 0, 2, 3), (1, 0, 3, 2), (1, 2, 0, 3), (1, 2, 3, 0), (1, 3, 0, 2),
            (1, 3, 2, 0), (2, 0, 1, 3), (2, 0, 3, 1), (2, 1, 0, 3), (2, 1, 3, 0),
            (2, 3, 0, 1), (2, 3, 1, 0), (3, 0, 1, 2), (3, 0, 2, 1), (3, 1, 0, 2),
            (3, 1, 2, 0), (3, 2, 0, 1), (3, 2, 1, 0),
        },
        SymmetryPattern.GENERAL4: set(),
    }
    assert set(groups) == set(SymmetryPattern)
    for pattern, group in groups.items():
        assert len(pattern.permutations) == len(group), pattern
        assert set(pattern.permutations) == group, pattern
