"""State space: flip map, packing order, distributions, sawtooth pattern."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flipdiff as fd
from _stats import assert_freq_within, multinomial_bands_ok
from _reference import delta_table


def test_flip_first_coordinate():
    assert fd.flip([0, 0, 0, 0], 0).tolist() == [1, 0, 0, 0]


def test_flip_out_of_range():
    with pytest.raises(ValueError):
        fd.flip([0, 1], 2)
    with pytest.raises(ValueError):
        fd.flip([0, 1], -1)


@given(st.integers(1, 12), st.data())
@settings(max_examples=100, deadline=None)
def test_flip_involution_and_hamming(d, data):
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=d, max_size=d)))
    coord = data.draw(st.integers(0, d - 1))
    flipped = fd.flip(bits, coord)
    assert (fd.flip(flipped, coord) == bits).all()
    assert int(np.sum(flipped != bits)) == 1
    assert flipped.size == d


def test_state_packing_order():
    # component i is bit i of the integer index
    assert fd.state_index([1, 0, 0]) == 1
    assert fd.state_index([0, 1, 0]) == 2
    assert fd.state_index([1, 1, 0]) == 3
    for idx in range(8):
        assert fd.state_index(fd.index_to_state(idx, 3)) == idx
    states = fd.all_states(3)
    assert (fd.state_indices(states) == np.arange(8)).all()


def test_enumeration_limit():
    with pytest.raises(fd.EnumerationLimitError):
        fd.all_states(25)
    with pytest.raises(fd.EnumerationLimitError):
        fd.uniform_table(25)


def test_sawtooth_d2_is_plain_ramp():
    assert fd.sawtooth_params(2).probs.tolist() == [0.05, 0.95]


def test_sawtooth_range_and_endpoint_error():
    for d in range(2, 33):
        probs = fd.sawtooth_params(d).probs
        assert probs.min() >= 0.05 - 1e-15 and probs.max() <= 0.95 + 1e-15
    with pytest.raises(ValueError):
        fd.sawtooth_params(1)


def test_sawtooth_d16_shape():
    probs = fd.sawtooth_params(16).probs
    assert probs.max() == pytest.approx(0.95)
    assert probs.min() == pytest.approx(0.05)
    # exactly one local maximum: strictly up then strictly down
    diffs = np.sign(np.diff(probs))
    assert (diffs != 0).all()
    switches = np.sum(np.diff(diffs) != 0)
    assert switches == 1 and diffs[0] > 0 and diffs[-1] < 0


@given(st.integers(1, 8), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_prob_sums_to_one(d, seed):
    rng = np.random.default_rng(seed)
    product = fd.ProductBernoulli(rng.uniform(0.01, 0.99, size=d))
    table = fd.DenseTable.normalized(rng.uniform(0.0, 1.0, size=1 << d) + 1e-9)
    states = fd.all_states(d)
    for dist in (product, table):
        mass = dist.to_table().mass
        total = sum(mass[fd.state_index(x)] for x in states)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_table_from_product_matches_pointwise():
    rng = np.random.default_rng(3)
    product = fd.ProductBernoulli(rng.uniform(0.05, 0.95, size=6))
    table = product.to_table()
    for x in fd.all_states(6)[::7]:
        pointwise = np.prod(np.where(x == 1, product.probs, 1.0 - product.probs))
        assert abs(table.mass[fd.state_index(x)] - pointwise) < 1e-15


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 12])
def test_product_table_by_doublings_equals_the_statewise_product(d):
    """The table built one bit per doubling is, byte for byte, the product
    over each state's bits of p_i or 1 - p_i taken over the (2^d, d) state
    array, multiplied in bit order."""
    product = fd.ProductBernoulli(np.random.default_rng(60 + d).uniform(0.01, 0.99, d))
    spec = np.prod(np.where(fd.all_states(d) == 1, product.probs, 1.0 - product.probs), axis=1)
    assert (product.to_table().mass == spec).all()


def test_product_bernoulli_rejects_degenerate():
    with pytest.raises(ValueError):
        fd.ProductBernoulli([0.5, 1.0])
    with pytest.raises(ValueError):
        fd.ProductBernoulli([0.0])


def test_dense_table_mass_validation():
    with pytest.raises(ValueError):
        fd.DenseTable(np.array([0.5, 0.4]))  # does not sum to 1
    with pytest.raises(ValueError):
        fd.DenseTable(np.array([1.2, -0.2]))


@pytest.mark.parametrize("mass", [[np.nan, 1.0, 0.0, 0.0], [np.inf, 1.0]])
def test_dense_table_rejects_non_finite_mass(mass):
    with pytest.raises(ValueError, match="finite"):
        fd.DenseTable(np.array(mass))
    with pytest.raises(ValueError, match="finite"):
        fd.DenseTable.normalized(mass)


def test_sample_extreme_bit_frequency():
    dist = fd.ProductBernoulli([0.999, 0.5])
    draws = dist.sample(10_000, np.random.default_rng(0))
    assert_freq_within(draws.samples[:, 0].mean(), 0.999, 10_000, what="bit 0")


def test_sample_from_delta_table():
    x0 = np.array([1, 0, 1], dtype=np.int8)
    draws = delta_table(x0).sample(500, np.random.default_rng(1))
    assert (draws.samples == x0).all()


def test_sample_uniform_multinomial_bands():
    draws = fd.uniform_table(2).sample(100_000, np.random.default_rng(2))
    counts = np.bincount(fd.state_indices(draws.samples), minlength=4)
    assert multinomial_bands_ok(counts, np.full(4, 0.25))


def test_sampling_is_seed_deterministic():
    dist = fd.sawtooth_params(6)
    a = dist.sample(100, np.random.default_rng(42)).samples
    b = dist.sample(100, np.random.default_rng(42)).samples
    assert (a == b).all()


def test_empirical_set_validation():
    with pytest.raises(ValueError):
        fd.EmpiricalSet(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        fd.EmpiricalSet(np.array([[0, 2]]))
    counts = fd.EmpiricalSet(np.array([[0, 1], [0, 1], [1, 1]])).counts_table()
    assert counts.mass[fd.state_index([0, 1])] == pytest.approx(2 / 3)


@pytest.mark.parametrize("dtype", [np.int8, np.float64])
def test_distinct_rows(dtype):
    rng = np.random.default_rng(12)
    X = rng.integers(0, 2, (500, 5)).astype(dtype)
    first, inverse, counts = fd.distinct_rows(X)
    assert (X[first][inverse] == X).all()
    assert counts.sum() == 500 and (counts == np.bincount(inverse)).all()
    assert len({row.tobytes() for row in X}) == first.size
    # first occurrences, in an order that does not depend on the row order
    assert all((X[:i] != X[i]).any(axis=1).all() for i in first)
    perm = rng.permutation(500)
    first_p, _, counts_p = fd.distinct_rows(X[perm])
    assert (X[perm][first_p] == X[first]).all() and (counts_p == counts).all()


def byte_keyed_distinct_rows(X):
    """Distinct rows keyed by each row's raw bytes: the reference the
    packed-bit keys must reproduce on 0/1 rows."""
    X = np.ascontiguousarray(X)
    keys = X.view(np.dtype((np.void, X.itemsize * X.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True,
                                          return_counts=True)
    return first, inverse, counts


@pytest.mark.parametrize("d", [1, 3, 8, 9, 16, 17, 40, 70])
@pytest.mark.parametrize("dtype", [np.int8, np.int64, bool, np.float64])
def test_distinct_rows_match_byte_keys(d, dtype):
    rng = np.random.default_rng(d)
    # few distinct rows at large d too, so duplicates and first occurrences matter
    pool = rng.integers(0, 2, (min(1 << d, 50), d))
    X = pool[rng.integers(0, pool.shape[0], 800)].astype(dtype)
    for rows in (X, X[rng.permutation(800)]):
        got, want = fd.distinct_rows(rows), byte_keyed_distinct_rows(rows)
        for a, b in zip(got, want):
            assert a.shape == b.shape and (a == b).all()


def packbits_distinct_rows(X):
    """Distinct rows keyed by ``np.packbits`` of the 0/1 mask, column 0 the
    most significant bit, read as a big-endian uint16 for d <= 16: the keys
    the matrix-vector keys must reproduce as integers."""
    packed = np.packbits(np.asarray(X) == 1, axis=1)
    if X.shape[1] <= 16:
        wide = np.zeros((X.shape[0], 2), dtype=np.uint8)
        wide[:, :packed.shape[1]] = packed
        keys = wide.view(">u2").ravel()
    else:
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True,
                                          return_counts=True)
    return first, inverse, counts


@pytest.mark.parametrize("d", range(18))
@pytest.mark.parametrize("dtype", [np.int8, bool, np.int64, np.float64])
def test_distinct_rows_match_packbits_keys(d, dtype):
    rng = np.random.default_rng(100 + d)
    pool = rng.integers(0, 2, (min(1 << d, 60), 2 * d))
    wide = pool[rng.integers(0, pool.shape[0], 700)].astype(dtype)
    # a contiguous array, a non-contiguous column slice, and no rows at all
    for rows in (np.ascontiguousarray(wide[:, :d]), wide[:, ::2], wide[:0, :d]):
        got, want = fd.distinct_rows(rows), packbits_distinct_rows(rows)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all()


@pytest.mark.parametrize("shape", [(5,), (), (2, 3, 4)])
def test_distinct_rows_rejects_non_2d_input(shape):
    with pytest.raises(ValueError, match=r"states must have shape \(n, d\)"):
        fd.distinct_rows(np.zeros(shape, dtype=np.int8))


@pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
def test_distinct_rows_rejects_non_binary_entries(bad):
    X = np.zeros((4, 3))
    X[2, 1] = bad
    with pytest.raises(ValueError):
        fd.distinct_rows(X)


def test_distinct_rows_empty():
    first, inverse, counts = fd.distinct_rows(np.zeros((0, 5), dtype=np.int8))
    assert first.size == inverse.size == counts.size == 0
