"""Spatial simulator: field generation, neighborhoods, fault injection."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.spatial import cKDTree

from dualdetect import (
    FaultModel,
    FaultSpec,
    FieldConfig,
    Rectangle,
    SignalModel,
    fuse_decisions,
    gammas_from_lambdas,
    generate_field,
    run_detection,
)
from dualdetect import simulator
from dualdetect.decision_rules import LikelihoodThresholds
from dualdetect.fusion import quorum_label
from dualdetect.simulator import _inject_faults, _nearest_neighbors

# The decision arrays error_rates scores, in its column order.
RATED = ("local", "clean_final", "reported", "final")


def _layout(name, count, rng):
    """Sensor positions: a uniform field, a lattice full of duplicates, a
    thin strip, or a uniform field with half its sensors in a dense blob."""
    if name == "uniform":
        return rng.uniform(0.0, 20.0, size=(count, 2))
    if name == "lattice":
        return rng.integers(0, 5, size=(count, 2)).astype(float)
    if name == "cluster":
        # The blob's rows have many times the mean candidate count.
        blob = rng.normal(10.0, 0.1, size=(count // 2, 2))
        return np.vstack([rng.uniform(0.0, 20.0, size=(count - count // 2, 2)), blob])
    return rng.uniform((0.0, 0.0), (50.0, 3.0), size=(count, 2))


def _kd_tree_neighbors(positions, n, include_self):
    """For fields too large for the N x N oracle: a k-d tree proposes
    n + 3 candidates per row, which are re-ranked by the float64
    (dx*dx + dy*dy, index) key the search itself uses."""
    count = positions.shape[0]
    _, cand = cKDTree(positions).query(positions, k=n + 4)
    if include_self:
        cand = cand[:, :-1]
    else:
        cand = cand[cand != np.arange(count)[:, None]].reshape(count, n + 3)
    dx = positions[:, None, 0] - positions[cand, 0]
    dy = positions[:, None, 1] - positions[cand, 1]
    best = np.lexsort((cand, dx * dx + dy * dy), axis=1)[:, :n]
    return np.take_along_axis(cand, best, axis=1)


def _assert_same_sets(actual, expected, **kwargs):
    """Each row of ``actual`` holds the same indices as that of ``expected``:
    neighbour rows are sets, so both sides are sorted row by row."""
    np.testing.assert_array_equal(np.sort(actual, axis=1), np.sort(expected, axis=1),
                                  **kwargs)


def _oracle_neighbors(positions, n, include_self):
    """Brute force: sort every row of the full N x N matrix by (d2, index)."""
    dx = positions[:, None, 0] - positions[None, :, 0]
    dy = positions[:, None, 1] - positions[None, :, 1]
    d2 = dx * dx + dy * dy
    if not include_self:
        np.fill_diagonal(d2, np.inf)
    index = np.broadcast_to(np.arange(len(positions)), d2.shape)
    return np.lexsort((index, d2), axis=1)[:, :n]


class TestRectangle:
    def test_contains_closed_edges(self):
        r = Rectangle(0.0, 0.0, 10.0, 10.0)
        assert r.contains(0.0, 0.0)
        assert r.contains(10.0, 10.0)
        assert not r.contains(10.0001, 5.0)

    def test_overlap(self):
        a = Rectangle(0.0, 0.0, 10.0, 10.0)
        assert a.overlaps(Rectangle(9.0, 9.0, 12.0, 12.0))
        assert not a.overlaps(Rectangle(12.0, 12.0, 20.0, 20.0))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rectangle(5.0, 0.0, 4.0, 10.0)


class TestFieldConfig:
    def test_overlapping_regions_rejected(self):
        with pytest.raises(ValueError):
            FieldConfig(event2_region=Rectangle(8.0, 8.0, 20.0, 20.0))

    def test_region_outside_field_rejected(self):
        with pytest.raises(ValueError):
            FieldConfig(event2_region=Rectangle(12.0, 12.0, 22.0, 20.0))

    def test_quorum_bounds(self):
        with pytest.raises(ValueError):
            FieldConfig(quorum=6)
        with pytest.raises(ValueError):
            FieldConfig(quorum=0)

    def test_region_must_be_a_rectangle(self):
        with pytest.raises(TypeError, match="event1_region must be a Rectangle"):
            FieldConfig(event1_region=(0.0, 0.0, 5.0, 5.0))

    def test_neighborhood_without_self_needs_spare_sensor(self):
        with pytest.raises(ValueError):
            FieldConfig(sensor_count=5, include_self=False)

    @pytest.mark.parametrize(("width", "height"), [(1e160, 1e160), (1e154, 1e154), (1.4e308, 1.0)])
    def test_squared_dimensions_must_not_overflow(self, width, height):
        # A squared distance across such a field overflows to inf, and the
        # neighbour search could never settle its rows.
        with pytest.raises(ValueError, match=r"width\*width \+ height\*height at most 1\.79"):
            FieldConfig(width=width, height=height)
        assert FieldConfig(width=9e153, height=9e153).width == 9e153


class TestGenerateField:
    def test_truth_follows_regions(self):
        config = FieldConfig()
        field = generate_field(config, [np.random.default_rng(3)])
        for (x, y), truth in zip(field.positions, field.truth):
            if config.event1_region.contains(x, y):
                assert truth == 1
            elif config.event2_region.contains(x, y):
                assert truth == -1
            else:
                assert truth == 0

    def test_positions_inside_field(self):
        field = generate_field(FieldConfig(), [np.random.default_rng(3)])
        assert np.all(field.positions >= 0.0)
        assert np.all(field.positions[:, 0] <= 20.0)
        assert np.all(field.positions[:, 1] <= 20.0)

    def test_positions_match_uniform_draw(self):
        config = FieldConfig(width=30.0, height=7.5,
                             event1_region=Rectangle(0.0, 0.0, 10.0, 5.0),
                             event2_region=Rectangle(20.0, 2.5, 30.0, 7.5))
        field = generate_field(config, [np.random.default_rng(8), np.random.default_rng(9)])
        expected = np.concatenate([
            np.random.default_rng(seed).uniform(
                low=(0.0, 0.0), high=(config.width, config.height), size=(config.sensor_count, 2))
            for seed in (8, 9)
        ])
        np.testing.assert_array_equal(field.positions, expected)

    def test_deterministic(self):
        a = generate_field(FieldConfig(), [np.random.default_rng(11)])
        b = generate_field(FieldConfig(), [np.random.default_rng(11)])
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.neighbors, b.neighbors)

    def test_large_field_memory_is_linear(self):
        # An N x N distance matrix alone would take 3.2 GB here.
        config = FieldConfig(sensor_count=20_000)
        tracemalloc.start()
        try:
            field = generate_field(config, [np.random.default_rng(4)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert field.neighbors.shape == (20_000, 5)
        assert (field.neighbors == np.arange(20_000)[:, None]).any(axis=1).all()
        assert peak < 150 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestNumpyStreams:
    def test_generator_streams_are_pinned(self):
        # The golden digests rest on these streams. numpy is unpinned, so
        # when a release changes one, this names the method that moved.
        def rng():
            return np.random.default_rng(np.random.SeedSequence((1, 2024)))

        assert rng().random((2, 2)).tolist() == [
            [0.6221748809975794, 0.3026173358162496],
            [0.04608867679653572, 0.077942229912908]]
        assert rng().standard_normal(3).tolist() == [
            -1.2041464148779897, 1.2538093523274059, 0.6777434263070207]
        # choice without replacement picks its algorithm by population
        # and draw size: a draw above 1/50 of a population over 10,000
        # takes the other one.
        assert rng().choice(200, 24, replace=False)[:6].tolist() == [41, 88, 165, 110, 178, 172]
        assert rng().choice(100_000, 12_000, replace=False)[:6].tolist() == [
            86958, 21384, 38352, 44567, 67652, 47677]


class TestNearestNeighbors:
    def test_line_with_self(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [6.0, 0.0]])
        neighbors = _nearest_neighbors(positions, 2, include_self=True)
        _assert_same_sets(neighbors, [[0, 1], [1, 0], [2, 1], [3, 2]])

    def test_line_without_self(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [6.0, 0.0]])
        neighbors = _nearest_neighbors(positions, 2, include_self=False)
        _assert_same_sets(neighbors, [[1, 2], [0, 2], [1, 0], [2, 1]])

    def test_distance_ties_break_by_index(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        neighbors = _nearest_neighbors(positions, 3, include_self=True)
        # sensors 1, 2, 3 are all at distance 1 from sensor 0
        _assert_same_sets(neighbors[:1], [[0, 1, 2]])

    def test_self_always_listed_when_included(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0.0, 20.0, size=(50, 2))
        neighbors = _nearest_neighbors(positions, 4, include_self=True)
        # Rows are sets in no order; without coincident sensors each row
        # holds its own sensor somewhere.
        assert (neighbors == np.arange(50)[:, None]).any(axis=1).all()

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(42)
        positions = rng.uniform(0.0, 20.0, size=(60, 2))
        neighbors = _nearest_neighbors(positions, 5, include_self=True)
        deltas = positions[:, None, :] - positions[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", deltas, deltas)
        for i in range(60):
            order = sorted(range(60), key=lambda j: (d2[i, j], j))
            _assert_same_sets(neighbors[i:i + 1], [order[:5]])

    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("count", [2, 3, 9, 40, 150, 600])
    @pytest.mark.parametrize("layout", ["uniform", "lattice", "strip", "cluster"])
    def test_matches_oracle(self, layout, count, include_self):
        rng = np.random.default_rng(count)
        positions = _layout(layout, count, rng)
        for n in range(1, min(12, count - (not include_self)) + 1):
            _assert_same_sets(
                _nearest_neighbors(positions, n, include_self),
                _oracle_neighbors(positions, n, include_self),
                err_msg=f"n={n}",
            )

    @pytest.mark.parametrize("include_self", [True, False])
    def test_large_uniform_matches_kd_tree(self, include_self):
        positions = np.random.default_rng(20).uniform(0.0, 20.0, size=(20_000, 2))
        _assert_same_sets(
            _nearest_neighbors(positions, 5, include_self),
            _kd_tree_neighbors(positions, 5, include_self),
        )

    def test_dense_cluster_memory_is_bounded(self):
        # The blob puts 1,000 sensors into a few cells, so a round padded
        # to its widest row would hold 21,000 x 1,000+ candidates (over
        # 600 MiB); in chunks it stays small.
        rng = np.random.default_rng(21)
        positions = np.vstack([rng.uniform(0.0, 20.0, size=(20_000, 2)),
                               rng.normal(7.0, 0.02, size=(1_000, 2))])
        tracemalloc.start()
        try:
            neighbors = _nearest_neighbors(positions, 5, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        _assert_same_sets(neighbors, _kd_tree_neighbors(positions, 5, True))

    @pytest.mark.parametrize("include_self", [True, False])
    def test_large_uniform_field_memory(self, include_self):
        # The set-up arrays and each round's block bounds are freed once
        # read; kept through the chunk loop they peaked at 21.5 MiB here.
        positions = np.random.default_rng(22).uniform(0.0, 20.0, size=(100_000, 2))
        tracemalloc.start()
        try:
            neighbors = _nearest_neighbors(positions, 5, include_self)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert neighbors.shape == (100_000, 5)

    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("layout", ["uniform", "lattice", "strip", "cluster", "point"])
    def test_small_chunk_budget(self, monkeypatch, layout, include_self):
        # A budget of a few dozen candidates cuts every round into many
        # chunks and splits the rows of crowded cells across them; at a
        # single point all 60 sensors share one cell and each row alone
        # exceeds the budget.
        monkeypatch.setattr(simulator, "_CHUNK_CANDIDATES", 40)
        rng = np.random.default_rng(22)
        positions = np.full((60, 2), 3.0) if layout == "point" else _layout(layout, 300, rng)
        for n in (1, 2, 5, 8):
            _assert_same_sets(
                _nearest_neighbors(positions, n, include_self),
                _oracle_neighbors(positions, n, include_self),
                err_msg=f"n={n}",
            )

    @pytest.mark.parametrize("budget", [None, 40], ids=["default-chunks", "small-chunks"])
    @pytest.mark.parametrize("include_self", [True, False])
    def test_stacked_fields_match_oracle(self, monkeypatch, include_self, budget):
        # Five realizations of different layouts share one grid over the
        # stack's bounding box; each must get its own field's neighbours,
        # offset by its first row. A budget of 40 candidates cuts rounds
        # into chunks that hold rows of several realizations.
        if budget is not None:
            monkeypatch.setattr(simulator, "_CHUNK_CANDIDATES", budget)
        rng = np.random.default_rng(23)
        count = 60
        blocks = [np.full((count, 2), 3.0) if layout == "point" else _layout(layout, count, rng)
                  for layout in ("uniform", "lattice", "strip", "cluster", "point")]
        for n in (1, 2, 5, 8):
            expected = np.vstack([_oracle_neighbors(block, n, include_self) + r * count
                                  for r, block in enumerate(blocks)])
            _assert_same_sets(
                _nearest_neighbors(np.vstack(blocks), n, include_self, len(blocks)),
                expected,
                err_msg=f"n={n}",
            )

    @pytest.mark.parametrize("include_self", [True, False])
    def test_wide_cell_ids_match_kd_tree(self, monkeypatch, include_self):
        # Eight realizations of 10,000 sensors with n = 2 need about 80,000
        # cells, past the 65,535 a 16-bit sort key holds.
        min_scalar_type = np.min_scalar_type
        key_types = []

        def recording(value):
            key_types.append(min_scalar_type(value))
            return key_types[-1]

        monkeypatch.setattr(np, "min_scalar_type", recording)
        rng = np.random.default_rng(24)
        blocks = [rng.uniform(0.0, 20.0, size=(10_000, 2)) for _ in range(8)]
        neighbors = _nearest_neighbors(np.vstack(blocks), 2, include_self, len(blocks))
        assert key_types == [np.dtype(np.uint32)]
        expected = np.vstack([_kd_tree_neighbors(block, 2, include_self) + r * 10_000
                              for r, block in enumerate(blocks)])
        _assert_same_sets(neighbors, expected)

    @pytest.mark.parametrize("include_self", [True, False])
    def test_sensors_on_cell_edges(self, include_self):
        # Sensors at whole multiples of the cell side, and an ulp to either
        # side, where rounding decides the cell. The corners fix the
        # bounding box, so the side is the search's own:
        # 0.7 * sqrt(width * height * n / size), the larger term here.
        size, extent = 400, 20.0
        for n in (1, 5, 9):
            h = 0.7 * math.sqrt(extent * extent * n / size)
            marks = h * np.arange(int(extent / h) + 1)
            marks = np.concatenate([marks, np.nextafter(marks, -np.inf),
                                    np.nextafter(marks, np.inf)])
            marks = marks[(marks >= 0.0) & (marks <= extent)]
            grid = np.stack(np.meshgrid(marks, marks), axis=-1).reshape(-1, 2)
            rng = np.random.default_rng(25 + n)
            edge = grid[rng.choice(len(grid), size - 2, replace=False)]
            positions = np.vstack([[0.0, 0.0], [extent, extent], edge])
            _assert_same_sets(
                _nearest_neighbors(positions, n, include_self),
                _oracle_neighbors(positions, n, include_self),
                err_msg=f"n={n}",
            )

    def test_overflowing_span_raises(self):
        # Squared distances across this span are inf, so no row would settle.
        positions = np.array([[0.0, 0.0], [1e160, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="squared span"):
            _nearest_neighbors(positions, 2, True)

    def test_unequal_stack_raises(self):
        positions = np.random.default_rng(9).uniform(0.0, 1.0, size=(7, 2))
        with pytest.raises(ValueError, match="equal fields"):
            _nearest_neighbors(positions, 2, True, realizations=2)

    def test_lattice_ties_keep_lowest_indices(self):
        # Many sensors share each lattice point: every tie must go to
        # the lower index, not to whichever tied candidates a partial
        # selection happened to keep.
        positions = np.random.default_rng(12).integers(0, 3, size=(68, 2)).astype(float)
        neighbors = _nearest_neighbors(positions, 5, include_self=True)
        _assert_same_sets(neighbors[15:16], [[15, 26, 40, 65, 2]])
        _assert_same_sets(neighbors, _oracle_neighbors(positions, 5, True))

    def test_rows_short_of_n_candidates_wait_for_a_larger_ring(self):
        # Six sensors on every point of a 5 x 5 unit lattice but one, which
        # holds a single sensor. The cells are about 0.33 wide, so the lone
        # sensor finds only itself within two rings, and the second round
        # has no row with n = 2 candidates.
        points = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0)), axis=-1).reshape(-1, 2)
        positions = np.vstack([points[:1], np.repeat(points[1:], 6, axis=0)])
        _assert_same_sets(
            _nearest_neighbors(positions, 2, include_self=True),
            _oracle_neighbors(positions, 2, True),
        )

    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("layout", ["point", "horizontal", "vertical"])
    def test_degenerate_layouts(self, layout, include_self):
        count = 40
        along = np.random.default_rng(5).uniform(0.0, 20.0, size=count)
        positions = {
            "point": np.full((count, 2), 3.0),
            "horizontal": np.column_stack([along, np.full(count, 7.0)]),
            "vertical": np.column_stack([np.full(count, 7.0), along]),
        }[layout]
        largest = count if include_self else count - 1
        for n in (1, 5, largest):
            _assert_same_sets(
                _nearest_neighbors(positions, n, include_self),
                _oracle_neighbors(positions, n, include_self),
                err_msg=f"n={n}",
            )

    @pytest.mark.parametrize(("n", "include_self"), [(0, True), (4, True), (3, False)])
    def test_more_neighbours_than_sensors_raises(self, n, include_self):
        positions = np.random.default_rng(9).uniform(0.0, 1.0, size=(3, 2))
        with pytest.raises(ValueError, match="cannot list"):
            _nearest_neighbors(positions, n, include_self)

    @pytest.mark.parametrize("layout", ["uniform", "lattice", "strip"])
    def test_whole_field_as_neighborhood(self, layout):
        positions = _layout(layout, 30, np.random.default_rng(8))
        for n, include_self in ((30, True), (29, False)):
            _assert_same_sets(
                _nearest_neighbors(positions, n, include_self),
                _oracle_neighbors(positions, n, include_self),
            )


class TestFuseDecisions:
    def test_quorum_and_conflicts(self):
        neighbors = np.array([[0, 1, 2, 3, 4]])
        k = 3
        cases = [
            ([1, 1, 1, 0, 0], 1),     # quorum of event1 votes
            ([-1, -1, -1, 0, 1], -1), # quorum of event2 votes
            ([1, 1, 0, 0, 0], 0),     # below quorum
            ([1, 1, 1, -1, -1], 1),   # only event1 reaches quorum
        ]
        for votes, expected in cases:
            fused = fuse_decisions(np.array(votes, dtype=np.int8), neighbors, k)
            assert fused[0] == expected

    def test_double_quorum_majority_and_tie(self):
        # k = 1 lets both events reach quorum at once
        neighbors = np.array([[0, 1, 2, 3]])
        both = np.array([1, 1, -1, 0], dtype=np.int8)
        assert fuse_decisions(both, neighbors, 1)[0] == 1
        tie = np.array([1, -1, 0, 0], dtype=np.int8)
        assert fuse_decisions(tie, neighbors, 1)[0] == 0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_gathered_vote_counts(self, n):
        rng = np.random.default_rng(n)
        reported = rng.integers(-1, 2, size=500).astype(np.int8)
        neighbors = rng.integers(0, 500, size=(500, n))
        votes = reported[neighbors]
        for k in range(1, n + 1):
            expected = quorum_label((votes == 1).sum(axis=1), (votes == -1).sum(axis=1), k)
            np.testing.assert_array_equal(fuse_decisions(reported, neighbors, k), expected)

    @pytest.mark.parametrize(("n", "k"), [(5, 3), (4, 2), (5, 1), (6, 3), (8, 5)])
    def test_ignores_neighbour_order(self, n, k):
        # Fusion only counts votes, which is why neighbour rows can be
        # sets; 2k <= n lets both events reach quorum at once.
        rng = np.random.default_rng(10 * n + k)
        field = generate_field(FieldConfig(neighborhood_size=n, quorum=k), [rng])
        reported = rng.integers(-1, 2, size=field.truth.size).astype(np.int8)
        expected = fuse_decisions(reported, field.neighbors, k)
        for _ in range(3):
            shuffled = rng.permuted(field.neighbors, axis=1)
            np.testing.assert_array_equal(fuse_decisions(reported, shuffled, k), expected)

    def test_uses_only_listed_neighbors(self):
        reported = np.array([1, 1, -1, -1, 0, 0], dtype=np.int8)
        neighbors = np.array([[0, 1, 4], [2, 3, 5]])
        fused = fuse_decisions(reported, neighbors, 2)
        assert fused[0] == 1
        assert fused[1] == -1


class TestRunDetection:
    def setup_method(self):
        self.model = SignalModel(0.0, 3.0, 6.0)
        self.gammas = gammas_from_lambdas(
            self.model, LikelihoodThresholds(0.9829, 1.8496)
        )

    def _run(self, config=None, faults=None, seed=7):
        config = config or FieldConfig()
        rngs = [np.random.default_rng(seed)]
        return run_detection(generate_field(config, rngs), self.model, self.gammas, faults, rngs)

    def test_no_faults_keeps_reports_clean(self):
        result = self._run()
        np.testing.assert_array_equal(result.reported, result.local)
        np.testing.assert_array_equal(result.final, result.clean_final)
        assert result.fault_count == 0
        np.testing.assert_array_equal(result.error_rates[:, :2], result.error_rates[:, 2:])

    def test_error_rates_match_arrays(self):
        result = self._run()
        assert result.error_rates.shape == (1, 4)
        assert result.error_rates.dtype == np.float64
        for column, name in enumerate(RATED):
            wrong = getattr(result, name) != result.field.truth
            assert result.error_rates[0, column] == np.mean(wrong)

    def test_wide_separation_with_self_fusion_is_exact(self):
        model = SignalModel(0.0, 30.0, 60.0)
        gammas = gammas_from_lambdas(model, LikelihoodThresholds(1.0, 1.0))
        config = FieldConfig(neighborhood_size=1, quorum=1)
        rngs = [np.random.default_rng(5)]
        result = run_detection(generate_field(config, rngs), model, gammas, None, rngs)
        np.testing.assert_array_equal(result.error_rates, 0.0)

    def test_forced_change_count_exact(self):
        faults = FaultSpec(FaultModel.uniform_split(0.12), "forced-change")
        result = self._run(faults=faults)
        assert result.fault_count == math.floor(0.12 * 200)
        changed = result.reported != result.local
        assert int(changed.sum()) == 24
        np.testing.assert_array_equal(changed, result.faulty)

    @pytest.mark.parametrize("p_f, count, expected", [
        # The double nearest each of these p_f lies below it, so the
        # float product would floor one fault short.
        (0.29, 100, 29), (0.57, 100, 57), (0.58, 100, 58), (0.35, 700, 245),
        (np.float64(0.29), 100, 29), (0.004, 200, 0),
        # The experiments' rates keep the float product's count.
        *((p_f, count, math.floor(p_f * count))
          for p_f in (0.12, 0.24, 0.36) for count in (200, 400, 700, 1000, 4000)),
    ])
    def test_forced_change_count_is_decimal_floor(self, p_f, count, expected):
        spec = FaultSpec(FaultModel.uniform_split(p_f), "forced-change")
        local = np.zeros(count, dtype=np.int8)
        _, faulty = _inject_faults(local, spec, [np.random.default_rng(0)])
        assert int(faulty.sum()) == expected

    def test_forced_change_flips_every_selected_sensor(self):
        faults = FaultSpec(FaultModel.uniform_split(0.3), "forced-change")
        result = self._run(faults=faults)
        assert result.fault_count == 60
        assert np.all(result.reported[result.faulty] != result.local[result.faulty])

    def test_alpha_table_marks_changed_sensors(self):
        faults = FaultSpec(FaultModel.uniform_split(0.3), "alpha-table")
        result = self._run(faults=faults)
        np.testing.assert_array_equal(result.faulty, result.reported != result.local)
        # each label has two outgoing arcs of P_f/6, so a sensor changes
        # with probability P_f/3; allow wide Monte Carlo slack
        assert 0.04 <= result.fault_count / 200 <= 0.18

    def test_faults_leave_clean_columns_untouched(self):
        faults = FaultSpec(FaultModel.uniform_split(0.24), "forced-change")
        clean = self._run()
        faulty = self._run(faults=faults)
        np.testing.assert_array_equal(clean.local, faulty.local)
        np.testing.assert_array_equal(clean.clean_final, faulty.clean_final)
        # ld_bf and fd_bf, the before-fault columns.
        np.testing.assert_array_equal(clean.error_rates[:, :2], faulty.error_rates[:, :2])

    def test_fusion_reduces_error_on_average(self):
        local_rates, final_rates = [], []
        for seed in range(20):
            result = self._run(seed=seed)
            local_rates.append(result.error_rates[0, 2])
            final_rates.append(result.error_rates[0, 3])
        assert np.mean(final_rates) < np.mean(local_rates)

    @pytest.mark.parametrize("mode", [None, "forced-change", "alpha-table"])
    def test_batch_matches_realizations_run_alone(self, mode):
        # Each generator drives its own realization in the same order as
        # when it runs alone, so a batch is the realizations stacked.
        faults = None if mode is None else FaultSpec(FaultModel.uniform_split(0.24), mode)
        config = FieldConfig(sensor_count=90)
        seeds = (3, 4, 5)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        batch = run_detection(generate_field(config, rngs), self.model, self.gammas, faults, rngs)
        alone = [self._run(config, faults, seed) for seed in seeds]
        for r, single in enumerate(alone):
            rows = slice(r * 90, (r + 1) * 90)
            np.testing.assert_array_equal(batch.field.positions[rows], single.field.positions)
            _assert_same_sets(batch.field.neighbors[rows], single.field.neighbors + r * 90)
            for name in ("local", "reported", "faulty", "final", "clean_final"):
                np.testing.assert_array_equal(getattr(batch, name)[rows], getattr(single, name))
            np.testing.assert_array_equal(batch.error_rates[r], single.error_rates[0])
        assert batch.error_rates.shape == (len(seeds), 4)
        assert batch.fault_count == sum(single.fault_count for single in alone)

    def test_error_rate_columns_follow_sweep_csv(self):
        # Columns ld_bf, fd_bf, ld_af, fd_af: local, clean_final,
        # reported and final, each against truth over one realization's rows.
        faults = FaultSpec(FaultModel.uniform_split(0.24), "forced-change")
        config = FieldConfig(sensor_count=90)
        rngs = [np.random.default_rng(seed) for seed in (3, 4, 5)]
        result = run_detection(generate_field(config, rngs), self.model, self.gammas, faults, rngs)
        assert result.error_rates.shape == (3, 4)
        truth = result.field.truth.reshape(3, 90)
        for r in range(3):
            expected = [np.mean(getattr(result, name).reshape(3, 90)[r] != truth[r])
                        for name in RATED]
            assert result.error_rates[r].tolist() == expected
        # Faults move the after-fault columns in this batch.
        assert not np.array_equal(result.error_rates[:, :2], result.error_rates[:, 2:])

    def test_generators_must_match_field(self):
        rngs = [np.random.default_rng(seed) for seed in (1, 2)]
        field = generate_field(FieldConfig(), rngs)
        with pytest.raises(ValueError, match="generators"):
            run_detection(field, self.model, self.gammas, None, rngs[:1])

    def test_deterministic(self):
        a = self._run(seed=123)
        b = self._run(seed=123)
        np.testing.assert_array_equal(a.local, b.local)
        np.testing.assert_array_equal(a.final, b.final)


# The +1 row's arcs are unequal (0.1 to 0, 0.05 to -1), the quiet row's
# one-sided (0.3 to +1, 0 to -1) and the -1 row's both zero.
SKEWED_ALPHAS = (0.1, 0.0, 0.05, 0.0, 0.3, 0.0)
# Valid rows whose six alphas add up to 2: each event sensor leaves its
# label, half to quiet and half to the other event.
HEAVY_ALPHAS = (0.5, 0.5, 0.5, 0.5, 0.0, 0.0)


def _within_4_se(hits, trials, p):
    se = math.sqrt(p * (1.0 - p) / trials)
    return hits == p * trials if se == 0.0 else abs(hits / trials - p) <= 4.0 * se


class TestFaultLaw:
    @staticmethod
    def _inject(mode, alphas=SKEWED_ALPHAS):
        rng = np.random.default_rng(11)
        local = rng.permutation(np.repeat(np.array([0, 1, -1], dtype=np.int8), 20_000))
        spec = FaultSpec(FaultModel(*alphas), mode)
        reported, faulty = _inject_faults(local, spec, [rng])
        np.testing.assert_array_equal(faulty, reported != local)
        return local, reported, faulty

    @staticmethod
    def _assert_reports_follow_rows(local, reported, matrix):
        for label in (0, 1, -1):
            reports = reported[local == label]
            for to in (0, 1, -1):
                p = matrix[label % 3][to % 3]
                hits = int((reports == to).sum())
                assert _within_4_se(hits, reports.size, p), (label, to, hits)

    def test_forced_change_moves_in_proportion_to_its_row(self):
        local, reported, faulty = self._inject("forced-change")
        assert int(faulty.sum()) == math.floor(0.45 * 60_000)
        # One-sided quiet row: every faulted quiet sensor reports +1.
        quiet = faulty & (local == 0)
        assert quiet.any() and np.all(reported[quiet] == 1)
        # Arcs 0.1 : 0.05 send a faulted +1 sensor to 0 two times in three,
        # and the -1 row's zero arcs split evenly.
        for label, to_quiet in ((1, 2.0 / 3.0), (-1, 0.5)):
            moved = faulty & (local == label)
            hits = int((reported[moved] == 0).sum())
            assert _within_4_se(hits, int(moved.sum()), to_quiet), (label, hits)

    def test_alpha_table_reports_follow_matrix_rows(self):
        local, reported, _ = self._inject("alpha-table")
        self._assert_reports_follow_rows(local, reported, FaultModel(*SKEWED_ALPHAS).matrix)

    def test_alpha_table_needs_only_valid_rows(self):
        # Only forced-change, which faults floor(total * N) sensors, bounds
        # the alphas' total by 1.
        local, reported, _ = self._inject("alpha-table", HEAVY_ALPHAS)
        self._assert_reports_follow_rows(local, reported, FaultModel(*HEAVY_ALPHAS).matrix)
        with pytest.raises(ValueError, match="must not exceed 1, got 2.0"):
            FaultSpec(FaultModel(*HEAVY_ALPHAS), "forced-change")

    @given(st.tuples(*(st.floats(0.0, 1.0 / 6.0) for _ in range(6))))
    def test_arcs_state_each_mode_law(self, alphas):
        model = FaultModel(*alphas)
        forced = FaultSpec(model, "forced-change").arcs
        table = FaultSpec(model, "alpha-table").arcs
        for row, (first, second) in enumerate(forced):
            assert first + second == 1.0
            assert table[row] == tuple(model.matrix[row][c] for c in range(3) if c != row)
