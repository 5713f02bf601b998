"""Tests for the ℓ₀-sampling sketch substrate."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.l0_sampling import (
    FIELD_PRIME,
    L0Sampler,
    OneSparseRecovery,
    _hash64,
    level_of,
)


class TestOneSparse:
    def test_single_item_recovered(self):
        s = OneSparseRecovery(seed=1)
        s.update(42, 3)
        assert s.recover() == (42, 3)

    def test_negative_weight(self):
        s = OneSparseRecovery(seed=2)
        s.update(7, -1)
        assert s.recover() == (7, -1)

    def test_zero_vector(self):
        s = OneSparseRecovery(seed=3)
        assert s.recover() is None and s.is_zero

    def test_cancellation(self):
        s = OneSparseRecovery(seed=4)
        s.update(5, 1)
        s.update(5, -1)
        assert s.is_zero and s.recover() is None

    def test_two_items_rejected(self):
        s = OneSparseRecovery(seed=5)
        s.update(3, 1)
        s.update(9, 1)
        assert s.recover() is None  # fingerprint catches c1/c0 = 6

    def test_many_items_rejected(self):
        s = OneSparseRecovery(seed=6)
        for i in range(1, 30):
            s.update(i, 1)
        assert s.recover() is None

    def test_linearity(self):
        a = OneSparseRecovery(seed=7)
        b = OneSparseRecovery(seed=7)
        a.update(11, 2)
        b.update(11, -2)
        b.update(4, 1)
        combined = a.combine(b)
        assert combined.recover() == (4, 1)  # item 11 cancelled

    def test_combine_requires_same_seed(self):
        with pytest.raises(ValueError):
            OneSparseRecovery(seed=1).combine(OneSparseRecovery(seed=2))

    def test_invalid_item(self):
        with pytest.raises(ValueError):
            OneSparseRecovery(seed=1).update(0, 1)

    def test_state_roundtrip(self):
        s = OneSparseRecovery(seed=9)
        s.update(13, 5)
        again = OneSparseRecovery.from_state(9, s.state())
        assert again.recover() == (13, 5)


class TestLevels:
    def test_distribution_is_geometric(self):
        counts = [0] * 4
        for item in range(1, 4001):
            counts[min(level_of(seed=1, item=item, max_level=3), 3)] += 1
        # P(level = 0) = 1/2, P(level = 1) = 1/4 ...
        assert 1700 < counts[0] < 2300
        assert 800 < counts[1] < 1200

    def test_deterministic_in_seed(self):
        assert level_of(5, 99, 10) == level_of(5, 99, 10)


class TestL0Sampler:
    def test_samples_a_true_nonzero(self):
        rng = random.Random(0)
        for trial in range(20):
            sampler = L0Sampler(seed=trial, levels=12)
            support = rng.sample(range(1, 1000), rng.randint(1, 40))
            for item in support:
                sampler.update(item, 1)
            got = sampler.sample()
            if got is not None:  # constant success probability per sketch
                item, weight = got
                assert item in support and weight == 1

    def test_success_rate_reasonable(self):
        hits = 0
        for trial in range(50):
            sampler = L0Sampler(seed=trial + 100, levels=12)
            for item in range(1, 33):
                sampler.update(item, 1)
            if sampler.sample() is not None:
                hits += 1
        assert hits >= 20  # empirical; AGM theory gives a constant rate

    def test_singleton_always_recovered(self):
        for trial in range(20):
            sampler = L0Sampler(seed=trial, levels=8)
            sampler.update(17, -1)
            assert sampler.sample() == (17, -1)

    def test_linearity_cancels_interior(self):
        a = L0Sampler(seed=3, levels=8)
        b = L0Sampler(seed=3, levels=8)
        a.update(10, 1)
        b.update(10, -1)
        b.update(20, 1)
        combined = a.combine(b)
        assert combined.sample() == (20, 1)

    def test_zero_vector(self):
        assert L0Sampler(seed=1, levels=4).sample() is None
        assert L0Sampler(seed=1, levels=4).is_zero

    def test_incompatible_combine(self):
        with pytest.raises(ValueError):
            L0Sampler(seed=1, levels=4).combine(L0Sampler(seed=1, levels=5))

    def test_state_roundtrip(self):
        s = L0Sampler(seed=8, levels=6)
        s.update(3, 1)
        s.update(5, 1)
        again = L0Sampler.from_state(8, 6, s.state())
        assert again.sample() == s.sample()


@settings(max_examples=40)
@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=-3, max_value=3).filter(lambda w: w != 0),
        min_size=1,
        max_size=10,
    ),
    st.integers(min_value=0, max_value=1000),
)
def test_recovered_items_are_genuine_property(vector, seed):
    """Whatever an L0 sampler returns must be a true (item, weight) pair
    of the sketched vector — soundness under arbitrary updates."""
    sampler = L0Sampler(seed=seed, levels=10)
    for item, weight in vector.items():
        sampler.update(item, weight)
    got = sampler.sample()
    if got is not None:
        item, weight = got
        assert vector.get(item) == weight


class TestBatchUpdate:
    def test_matches_sequential_updates(self):
        a = L0Sampler(seed=21, levels=10)
        b = L0Sampler(seed=21, levels=10)
        items = [3, 17, 3, 99, 250]
        deltas = [1, -2, 4, 1, -1]
        for i, d in zip(items, deltas):
            a.update(i, d)
        b.batch_update(items, deltas)
        assert a.state() == b.state()

    def test_rejects_invalid_items(self):
        with pytest.raises(ValueError):
            L0Sampler(seed=1, levels=4).batch_update([1, 0], [1, 1])

    def test_empty_stream_is_identity(self):
        s = L0Sampler(seed=2, levels=5)
        s.batch_update([], [])
        assert s.is_zero


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=500),
            st.integers(min_value=-3, max_value=3),
        ),
        max_size=12,
    ),
    st.integers(min_value=0, max_value=1000),
)
def test_batch_update_is_linear_property(stream, seed):
    """Linearity of the batched path: sketching a stream in one batch,
    one update at a time, or split across two sketches that are then
    combined must all yield the identical state."""
    items = [i for i, _ in stream]
    deltas = [d for _, d in stream]

    batched = L0Sampler(seed=seed, levels=10)
    batched.batch_update(items, deltas)

    sequential = L0Sampler(seed=seed, levels=10)
    for i, d in zip(items, deltas):
        sequential.update(i, d)

    left = L0Sampler(seed=seed, levels=10)
    right = L0Sampler(seed=seed, levels=10)
    half = len(stream) // 2
    left.batch_update(items[:half], deltas[:half])
    right.batch_update(items[half:], deltas[half:])

    assert batched.state() == sequential.state() == left.combine(right).state()


def _per_update(seed, levels, items, deltas):
    """The reference: one :meth:`L0Sampler.update` call per item."""
    ref = L0Sampler(seed=seed, levels=levels)
    for i, d in zip(items, deltas):
        ref.update(i, d)
    return ref


class TestLongStreams:
    """Streams as long as a high-degree node's incidence list: the
    batched loop must match one ``update`` call per item."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=8),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=4000),
                st.integers(min_value=-9, max_value=9),
            ),
            min_size=32,
            max_size=128,
        ),
    )
    def test_batch_matches_per_update(self, seed, levels, stream):
        items = [i for i, _ in stream]
        deltas = [d for _, d in stream]
        batched = L0Sampler(seed=seed, levels=levels)
        batched.batch_update(items, deltas)
        assert batched.state() == _per_update(seed, levels, items, deltas).state()

    def test_huge_items_are_exact(self):
        """Items of 2^40 and above keep exact Python-int aggregates."""
        items = [(1 << 40) + i for i in range(40)]
        deltas = [1 if i % 2 else -1 for i in range(40)]
        batched = L0Sampler(seed=11, levels=4)
        batched.batch_update(items, deltas)
        assert batched.state() == _per_update(11, 4, items, deltas).state()

    def test_invalid_item_leaves_the_prefix(self):
        """A bad item after 32 good ones raises, and the updates before
        it have landed, exactly as in the per-update loop."""
        prefix = [7] * 32
        bad = prefix + [0] + [9] * 3
        s = L0Sampler(seed=13, levels=3)
        with pytest.raises(ValueError):
            s.batch_update(bad, [1] * len(bad))
        assert s.state() == _per_update(13, 3, prefix, [1] * 32).state()

    def test_long_stream_with_cancellation(self):
        rng = random.Random(17)
        items = [rng.randrange(1, 10_000) for _ in range(2000)]
        deltas = [rng.choice([-2, -1, 1, 3]) for _ in range(2000)]
        batched = L0Sampler(seed=19, levels=12)
        batched.batch_update(items, deltas)
        scalar = _per_update(19, 12, items, deltas)
        assert batched.state() == scalar.state()
        # the sketch still recovers a live coordinate after cancellation
        batched.batch_update(items[:1000], [-d for d in deltas[:1000]])
        for i, d in zip(items[:1000], deltas[:1000]):
            scalar.update(i, -d)
        assert batched.state() == scalar.state()


def _cell_z(seed, level):
    """A sampler cell's evaluation point, derived from the public coin
    without the module's caches."""
    return _hash64(_hash64(seed, 0xCE11, level), 0x5EED) % (FIELD_PRIME - 2) + 2


class TestFingerprintArithmetic:
    """The cached Python-int field arithmetic against bignum sums taken
    straight from the definition of each aggregate."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=(1 << 48) - 1),
        st.integers(min_value=-(1 << 62), max_value=1 << 62),
    )
    def test_unit_update_matches_bignum(self, seed, levels, item, delta):
        s = L0Sampler(seed=seed, levels=levels)
        s.batch_update([item], [delta])
        top = level_of(seed, item, levels)
        expected = []
        for l in range(levels + 1):
            if l > top:
                expected.append((0, 0, 0))
                continue
            power = pow(_cell_z(seed, l), item, FIELD_PRIME)
            expected.append((delta, delta * item, delta * power % FIELD_PRIME))
        assert s.state() == tuple(expected)

    def test_one_sparse_extremes(self):
        """Weights at and beyond the field size keep the fingerprint a
        canonical residue, and a lone coordinate is still recovered."""
        top = FIELD_PRIME - 1
        cases = [(1, top), (top, top), (top, -top), (1 << 40, 1 << 70),
                 ((1 << 31) - 1, -(1 << 61)), (2, FIELD_PRIME)]
        for item, weight in cases:
            r = OneSparseRecovery(seed=3)
            r.update(item, weight)
            z = _hash64(3, 0x5EED) % (FIELD_PRIME - 2) + 2
            assert r.fingerprint == weight * pow(z, item, FIELD_PRIME) % FIELD_PRIME
            assert 0 <= r.fingerprint < FIELD_PRIME
            assert r.recover() == (item, weight)

    def test_sampler_state_matches_definition(self):
        """Every level's ``(c0, c1, fingerprint)`` is the bignum sum over
        the coordinates whose geometric level reaches it."""
        rng = random.Random(5)
        items = [rng.randrange(1, FIELD_PRIME) for _ in range(257)]
        deltas = [rng.randrange(-(1 << 40), 1 << 40) for _ in range(257)]
        seed, levels = 23, 9
        s = L0Sampler(seed=seed, levels=levels)
        s.batch_update(items, deltas)
        expected = []
        for l in range(levels + 1):
            z = _cell_z(seed, l)
            live = [(i, d) for i, d in zip(items, deltas)
                    if level_of(seed, i, levels) >= l]
            expected.append((
                sum(d for _, d in live),
                sum(d * i for i, d in live),
                sum(d * pow(z, i, FIELD_PRIME) for i, d in live) % FIELD_PRIME,
            ))
        assert s.state() == tuple(expected)
