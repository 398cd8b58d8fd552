"""Property-based tests (hypothesis) for the geometric substrate."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.geometry import (
    Interval,
    Rectangle,
    dominates_minmax,
    dominates_optimal,
    lp_distance,
    max_dist,
    max_dist_point,
    min_dist,
    min_dist_point,
)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)
small_positive = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def intervals(draw):
    lo = draw(finite)
    length = draw(small_positive)
    return Interval(lo, lo + length)


@st.composite
def rectangles(draw, dims=2):
    lows = [draw(finite) for _ in range(dims)]
    lengths = [draw(small_positive) for _ in range(dims)]
    return Rectangle.from_bounds(lows, [lo + ln for lo, ln in zip(lows, lengths)])


# Multiples of 2**-10: sums, differences and squares of these coordinates
# (and of their shifts by the dyadic offsets below) are exact in float64.
GRID = 2.0 ** -10
dyadic = st.integers(min_value=-100 * 1024, max_value=100 * 1024).map(lambda i: i * GRID)
dyadic_length = st.integers(min_value=0, max_value=10 * 1024).map(lambda i: i * GRID)


@st.composite
def dyadic_rectangles(draw, dims=2):
    lows = [draw(dyadic) for _ in range(dims)]
    lengths = [draw(dyadic_length) for _ in range(dims)]
    return Rectangle.from_bounds(lows, [lo + ln for lo, ln in zip(lows, lengths)])


@st.composite
def points(draw, dims=2):
    return [draw(finite) for _ in range(dims)]


class TestIntervalProperties:
    @given(intervals(), finite)
    def test_min_dist_at_most_max_dist(self, iv, x):
        assert iv.min_dist_to_point(x) <= iv.max_dist_to_point(x) + 1e-9

    @given(intervals(), finite)
    def test_clamped_point_has_zero_min_dist(self, iv, x):
        assert iv.min_dist_to_point(iv.clamp(x)) == 0.0

    @given(intervals(), intervals())
    def test_interval_distance_symmetry(self, a, b):
        assert abs(a.min_dist_to_interval(b) - b.min_dist_to_interval(a)) < 1e-9
        assert abs(a.max_dist_to_interval(b) - b.max_dist_to_interval(a)) < 1e-9

    @given(intervals(), intervals())
    def test_union_contains_both(self, a, b):
        union = a.union(b)
        assert union.contains_interval(a)
        assert union.contains_interval(b)

    @given(intervals())
    def test_split_preserves_extent(self, iv):
        if iv.is_degenerate:
            return
        left, right = iv.split()
        assert abs((left.length + right.length) - iv.length) < 1e-9


class TestRectangleProperties:
    @given(rectangles(), points())
    def test_min_max_dist_ordering(self, rect, point):
        assert min_dist_point(rect, point) <= max_dist_point(rect, point) + 1e-9

    @given(rectangles(), points())
    def test_contained_point_has_zero_min_dist(self, rect, point):
        clamped = rect.clamp_point(point)
        assert min_dist_point(rect, clamped) < 1e-9

    @given(rectangles(), rectangles())
    def test_rect_distance_symmetry(self, a, b):
        assert abs(min_dist(a, b) - min_dist(b, a)) < 1e-9
        assert abs(max_dist(a, b) - max_dist(b, a)) < 1e-9

    @given(rectangles(), rectangles())
    def test_min_dist_lower_bounds_center_distance(self, a, b):
        center_dist = lp_distance(a.center, b.center)
        assert min_dist(a, b) <= center_dist + 1e-9
        assert max_dist(a, b) >= center_dist - 1e-9

    @given(rectangles())
    def test_split_preserves_volume(self, rect):
        axis = rect.widest_axis()
        if rect.extents[axis] == 0.0:
            return
        left, right = rect.split(axis)
        assert abs(left.volume + right.volume - rect.volume) < 1e-6 * max(rect.volume, 1.0)

    @given(rectangles(), rectangles())
    def test_intersection_contained_in_both(self, a, b):
        inter = a.intersection(b)
        if inter is not None:
            assert a.contains_rectangle(inter)
            assert b.contains_rectangle(inter)


class TestDominationProperties:
    @settings(max_examples=150)
    @given(rectangles(), rectangles(), rectangles())
    def test_minmax_implies_optimal(self, a, b, r):
        if dominates_minmax(a, b, r):
            assert dominates_optimal(a, b, r)

    @settings(max_examples=150)
    @given(rectangles(), rectangles(), rectangles())
    def test_domination_is_antisymmetric(self, a, b, r):
        assert not (dominates_optimal(a, b, r) and dominates_optimal(b, a, r))

    @settings(max_examples=100)
    @given(rectangles(), rectangles(), rectangles(), st.integers(min_value=0, max_value=1000))
    def test_optimal_domination_sound_on_sampled_worlds(self, a, b, r, seed):
        """If complete domination is claimed, random possible worlds confirm it."""
        if not dominates_optimal(a, b, r):
            return
        rng = np.random.default_rng(seed)
        pa = rng.uniform(a.lows, a.highs, size=(20, 2))
        pb = rng.uniform(b.lows, b.highs, size=(20, 2))
        pr = rng.uniform(r.lows, r.highs, size=(20, 2))
        for i in range(20):
            da = np.linalg.norm(pa[i] - pr[i])
            db = np.linalg.norm(pb[i] - pr[i])
            assert da < db + 1e-12

    @settings(max_examples=100)
    @given(dyadic_rectangles(), dyadic_rectangles(), dyadic_rectangles())
    # the closest dominating pair on the grid: a one step from b towards r.
    # With sub-ulp coordinates, an inexact shift rounded such an a onto b.
    @example(
        Rectangle.from_bounds([0.0, GRID], [0.0, GRID]),
        Rectangle.from_bounds([0.0, 0.0], [0.0, 0.0]),
        Rectangle.from_bounds([0.0, 1.0], [0.0, 1.0]),
    )
    def test_domination_invariant_under_translation(self, a, b, r):
        # dyadic shift: translating grid coordinates by it is exact, so the
        # translated configuration is the same one, not a rounded neighbour
        shift = np.array([13.75, -4.25])
        translate = lambda rect: Rectangle.from_bounds(rect.lows + shift, rect.highs + shift)
        assert dominates_optimal(a, b, r) == dominates_optimal(
            translate(a), translate(b), translate(r)
        )
