"""Unit + property tests for the byte-interval algebra."""

import math

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from repro.util.intervals import (SMALL_JOIN_PAIRS, Interval, IntervalSet,
                                  IntervalTable, datamap_intervals,
                                  overlap_join)


# ----------------------------------------------------------------------
# Interval basics
# ----------------------------------------------------------------------

class TestInterval:
    def test_length(self):
        assert len(Interval(3, 10)) == 7

    def test_empty(self):
        assert Interval(5, 5).is_empty()
        assert not Interval(5, 6).is_empty()

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Interval(10, 3)

    def test_overlap_positive(self):
        assert Interval(0, 10).overlaps(Interval(9, 20))

    def test_overlap_negative_adjacent(self):
        # half-open: [0,10) and [10,20) share no byte
        assert not Interval(0, 10).overlaps(Interval(10, 20))

    def test_overlap_contained(self):
        assert Interval(0, 100).overlaps(Interval(40, 41))

    def test_intersection(self):
        assert Interval(0, 10).intersection(Interval(5, 20)) == Interval(5, 10)

    def test_intersection_disjoint_is_empty(self):
        assert Interval(0, 5).intersection(Interval(7, 9)).is_empty()

    def test_contains(self):
        assert Interval(0, 10).contains(Interval(2, 8))
        assert not Interval(0, 10).contains(Interval(2, 12))

    def test_shift(self):
        assert Interval(1, 4).shift(10) == Interval(11, 14)


# ----------------------------------------------------------------------
# IntervalSet
# ----------------------------------------------------------------------

class TestIntervalSet:
    def test_normalization_merges_adjacent(self):
        s = IntervalSet([Interval(0, 5), Interval(5, 10)])
        assert s.intervals == (Interval(0, 10),)

    def test_normalization_merges_overlap(self):
        s = IntervalSet([Interval(0, 7), Interval(3, 10)])
        assert s.intervals == (Interval(0, 10),)

    def test_normalization_keeps_gaps(self):
        s = IntervalSet([Interval(0, 3), Interval(5, 8)])
        assert len(s) == 2

    def test_empty_intervals_dropped(self):
        assert not IntervalSet([Interval(4, 4)])

    def test_single_constructor(self):
        assert IntervalSet.single(10, 4).intervals == (Interval(10, 14),)

    def test_single_zero_length_is_empty(self):
        assert not IntervalSet.single(10, 0)

    def test_byte_count(self):
        s = IntervalSet([Interval(0, 3), Interval(10, 14)])
        assert s.byte_count() == 7

    def test_bounds(self):
        s = IntervalSet([Interval(2, 3), Interval(10, 14)])
        assert s.bounds() == Interval(2, 14)

    def test_overlaps_true(self):
        a = IntervalSet([Interval(0, 4), Interval(10, 14)])
        b = IntervalSet([Interval(12, 20)])
        assert a.overlaps(b)

    def test_overlaps_false_interleaved(self):
        a = IntervalSet([Interval(0, 4), Interval(10, 14)])
        b = IntervalSet([Interval(4, 10), Interval(14, 20)])
        assert not a.overlaps(b)

    def test_intersection(self):
        a = IntervalSet([Interval(0, 10)])
        b = IntervalSet([Interval(2, 4), Interval(8, 12)])
        assert a.intersection(b).intervals == (Interval(2, 4), Interval(8, 10))

    def test_union(self):
        a = IntervalSet([Interval(0, 4)])
        b = IntervalSet([Interval(2, 8)])
        assert a.union(b).intervals == (Interval(0, 8),)

    def test_contains_point(self):
        s = IntervalSet([Interval(0, 4), Interval(10, 14)])
        assert s.contains_point(0)
        assert s.contains_point(11)
        assert not s.contains_point(4)
        assert not s.contains_point(9)

    def test_shift(self):
        s = IntervalSet([Interval(0, 4)]).shift(100)
        assert s.intervals == (Interval(100, 104),)

    def test_equality_and_hash(self):
        a = IntervalSet([Interval(0, 5), Interval(5, 10)])
        b = IntervalSet([Interval(0, 10)])
        assert a == b
        assert hash(a) == hash(b)


# ----------------------------------------------------------------------
# data-map application
# ----------------------------------------------------------------------

class TestDatamapIntervals:
    def test_mpi_int_datamap(self):
        # the paper's example: MPI_INT is {(0, 4)}
        s = datamap_intervals(100, [(0, 4)], count=1, extent=4)
        assert s.intervals == (Interval(100, 104),)

    def test_two_ints_with_gap(self):
        # the paper's example: two MPI_INTs separated by an 8-byte gap
        s = datamap_intervals(0, [(0, 4), (12, 4)], count=1, extent=16)
        assert s.intervals == (Interval(0, 4), Interval(12, 16))

    def test_count_replication(self):
        s = datamap_intervals(0, [(0, 4)], count=3, extent=8)
        assert s.intervals == (Interval(0, 4), Interval(8, 12),
                               Interval(16, 20))

    def test_contiguous_count_coalesces(self):
        s = datamap_intervals(0, [(0, 4)], count=3, extent=4)
        assert s.intervals == (Interval(0, 12),)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            datamap_intervals(0, [(0, 4)], count=-1, extent=4)


# ----------------------------------------------------------------------
# property-based
# ----------------------------------------------------------------------

intervals_strategy = st.lists(
    st.tuples(st.integers(0, 500), st.integers(0, 50)).map(
        lambda p: Interval(p[0], p[0] + p[1])),
    max_size=12)


@given(intervals_strategy)
def test_prop_normalized_sorted_disjoint(ivs):
    s = IntervalSet(ivs)
    for a, b in zip(s.intervals, s.intervals[1:]):
        assert a.stop < b.start  # strictly disjoint with a gap


@given(intervals_strategy)
def test_prop_byte_count_equals_point_membership(ivs):
    s = IntervalSet(ivs)
    member_count = sum(1 for p in range(600) if s.contains_point(p))
    assert member_count == s.byte_count()


@given(intervals_strategy, intervals_strategy)
def test_prop_overlap_symmetric_and_consistent(ivs_a, ivs_b):
    a, b = IntervalSet(ivs_a), IntervalSet(ivs_b)
    assert a.overlaps(b) == b.overlaps(a)
    assert a.overlaps(b) == bool(a.intersection(b))


@given(intervals_strategy, intervals_strategy)
def test_prop_intersection_subset_of_both(ivs_a, ivs_b):
    a, b = IntervalSet(ivs_a), IntervalSet(ivs_b)
    inter = a.intersection(b)
    for p in range(600):
        if inter.contains_point(p):
            assert a.contains_point(p) and b.contains_point(p)
        elif a.contains_point(p) and b.contains_point(p):
            raise AssertionError(f"point {p} missing from intersection")


@given(intervals_strategy, intervals_strategy)
def test_prop_union_is_pointwise_or(ivs_a, ivs_b):
    a, b = IntervalSet(ivs_a), IntervalSet(ivs_b)
    u = a.union(b)
    for p in range(600):
        assert u.contains_point(p) == (a.contains_point(p)
                                       or b.contains_point(p))


@given(st.integers(0, 100), st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 10)), max_size=4),
    st.integers(0, 5), st.integers(1, 64))
def test_prop_datamap_byte_count(base, datamap, count, extent):
    s = datamap_intervals(base, datamap, count, extent)
    # bytes covered never exceeds count * sum(lengths); equality holds when
    # segments don't self-overlap across replications
    assert s.byte_count() <= count * sum(n for _d, n in datamap)


# ----------------------------------------------------------------------
# IntervalTable + the sweep join
# ----------------------------------------------------------------------

class TestIntervalTable:
    def test_zero_length_rows_dropped(self):
        t = IntervalTable([0, 5, 9], [4, 5, 12])
        assert len(t) == 2  # [5,5) vanishes
        assert list(t.owner) == [0, 2]  # owners keep their original ids

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IntervalTable([0, 1], [2])
        with pytest.raises(ValueError):
            IntervalTable([0, 1], [2, 3], owner=[0])

    def test_from_columns(self):
        t = IntervalTable.from_columns([10, 20], [4, 0])
        assert len(t) == 1
        assert (t.lo[0], t.hi[0]) == (10, 14)

    def test_from_sets_explicit_owners(self):
        sets = [IntervalSet([Interval(0, 4), Interval(8, 12)]),
                IntervalSet([Interval(20, 24)])]
        t = IntervalTable.from_sets(sets, owners=[7, 9])
        assert list(t.owner) == [7, 7, 9]

    def test_concat(self):
        a = IntervalTable([0], [4], owner=[1])
        b = IntervalTable([10], [14], owner=[2])
        c = IntervalTable.concat([a, IntervalTable((), ()), b])
        assert list(c.owner) == [1, 2]

    def test_concat_empty(self):
        assert len(IntervalTable.concat([])) == 0

    def test_join_empty_sides(self):
        t = IntervalTable([0], [4])
        empty = IntervalTable((), ())
        for a, b in ((t, empty), (empty, t), (empty, empty)):
            ai, bi = overlap_join(a, b)
            assert len(ai) == 0 and len(bi) == 0

    def test_join_adjacent_not_overlapping(self):
        # half-open ranges: [0,10) vs [10,20) share no byte
        ai, bi = overlap_join(IntervalTable([0], [10]),
                              IntervalTable([10], [20]))
        assert len(ai) == 0

    def test_join_duplicate_rows_unique_pairs(self):
        # two rows of the same owner overlapping one b row -> one pair
        a = IntervalTable([0, 2], [4, 6], owner=[5, 5])
        b = IntervalTable([3], [10], owner=[8])
        ai, bi = overlap_join(a, b)
        assert list(ai) == [5] and list(bi) == [8]

    def test_self_join_reports_self_pairs(self):
        t = IntervalTable([0, 2], [4, 6])
        ai, bi = overlap_join(t, t)
        pairs = set(zip(ai.tolist(), bi.tolist()))
        assert pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}


# owners span negatives and values >= 2**40 so no dedupe can rely on
# packing two owners into one key; up to 24 rows a side puts
# len(a) * len(b) on both sides of SMALL_JOIN_PAIRS
owner_strategy = st.one_of(st.integers(0, 6), st.integers(-6, -1),
                           st.integers(2**40, 2**40 + 6),
                           st.sampled_from([-2**63, 2**63 - 1]))

table_strategy = st.lists(
    st.tuples(st.integers(0, 300), st.integers(0, 40), owner_strategy),
    max_size=24).map(
        lambda rows: IntervalTable([r[0] for r in rows],
                                   [r[0] + r[1] for r in rows],
                                   owner=[r[2] for r in rows]))


def naive_join(a, b):
    """The join's contract from first principles: every row pair is
    tested, and the distinct owner pairs come back sorted."""
    pairs = sorted({(oa, ob)
                    for alo, ahi, oa in zip(a.lo.tolist(), a.hi.tolist(),
                                            a.owner.tolist())
                    for blo, bhi, ob in zip(b.lo.tolist(), b.hi.tolist(),
                                            b.owner.tolist())
                    if max(alo, blo) < min(ahi, bhi)})
    return (np.array([p[0] for p in pairs], dtype=np.int64),
            np.array([p[1] for p in pairs], dtype=np.int64))


def assert_same_pairs(got, want):
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)


@settings(max_examples=300)
@given(table_strategy, table_strategy)
def test_prop_overlap_join_matches_naive(a, b):
    assert_same_pairs(overlap_join(a, b), naive_join(a, b))


@given(table_strategy, table_strategy)
def test_prop_overlap_join_symmetric(a, b):
    ab_a, ab_b = overlap_join(a, b)
    ba_b, ba_a = overlap_join(b, a)
    order = np.lexsort((ba_b, ba_a))
    assert_same_pairs((ab_a, ab_b), (ba_a[order], ba_b[order]))


_EDGE = math.isqrt(SMALL_JOIN_PAIRS)


@pytest.mark.parametrize("rows", [1, _EDGE, _EDGE + 1, 40])
def test_join_paths_agree_around_cutoff(rows):
    # square joins on both sides of the small-input cutoff
    lo = np.arange(rows, dtype=np.int64) * 3
    a = IntervalTable(lo, lo + 5, owner=lo % 7 - 3)
    b = IntervalTable(lo + 1, lo + 4, owner=(lo % 5) * 2**40)
    assert_same_pairs(overlap_join(a, b), naive_join(a, b))
