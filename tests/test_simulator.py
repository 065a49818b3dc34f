"""Spatial simulator: field generation, neighborhoods, fault injection."""

import math

import numpy as np
import pytest

from dualdetect import (
    FaultModel,
    FaultSpec,
    FieldConfig,
    FusionParams,
    Rectangle,
    SignalModel,
    fuse_decisions,
    gammas_from_lambdas,
    generate_field,
    run_detection,
)
from dualdetect.decision_rules import LikelihoodThresholds
from dualdetect.simulator import _nearest_neighbors


def default_config(**overrides):
    values = dict(
        width=20.0,
        height=20.0,
        sensor_count=200,
        event1_region=Rectangle(0.0, 0.0, 10.0, 10.0),
        event2_region=Rectangle(12.0, 12.0, 20.0, 20.0),
        neighborhood_size=5,
        quorum=3,
        seed=1,
    )
    values.update(overrides)
    return FieldConfig(**values)


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
            default_config(event2_region=Rectangle(8.0, 8.0, 20.0, 20.0))

    def test_region_outside_field_rejected(self):
        with pytest.raises(ValueError):
            default_config(event2_region=Rectangle(12.0, 12.0, 22.0, 20.0))

    def test_quorum_bounds(self):
        with pytest.raises(ValueError):
            default_config(quorum=6)
        with pytest.raises(ValueError):
            default_config(quorum=0)

    def test_neighborhood_without_self_needs_spare_sensor(self):
        with pytest.raises(ValueError):
            FieldConfig(
                width=20.0, height=20.0, sensor_count=5,
                event1_region=Rectangle(0.0, 0.0, 10.0, 10.0),
                event2_region=Rectangle(12.0, 12.0, 20.0, 20.0),
                neighborhood_size=5, quorum=3, seed=1, include_self=False,
            )


class TestGenerateField:
    def test_truth_follows_regions(self):
        config = default_config()
        field = generate_field(config, np.random.default_rng(3))
        for (x, y), truth in zip(field.positions, field.truth):
            if config.event1_region.contains(x, y):
                assert truth == 1
            elif config.event2_region.contains(x, y):
                assert truth == -1
            else:
                assert truth == 0

    def test_positions_inside_field(self):
        field = generate_field(default_config(), np.random.default_rng(3))
        assert np.all(field.positions >= 0.0)
        assert np.all(field.positions[:, 0] <= 20.0)
        assert np.all(field.positions[:, 1] <= 20.0)

    def test_deterministic(self):
        a = generate_field(default_config(), np.random.default_rng(11))
        b = generate_field(default_config(), np.random.default_rng(11))
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.neighbors, b.neighbors)


class TestNearestNeighbors:
    def test_line_with_self(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [6.0, 0.0]])
        neighbors = _nearest_neighbors(positions, 2, include_self=True)
        np.testing.assert_array_equal(neighbors[0], [0, 1])
        np.testing.assert_array_equal(neighbors[1], [1, 0])
        np.testing.assert_array_equal(neighbors[2], [2, 1])
        np.testing.assert_array_equal(neighbors[3], [3, 2])

    def test_line_without_self(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [6.0, 0.0]])
        neighbors = _nearest_neighbors(positions, 2, include_self=False)
        np.testing.assert_array_equal(neighbors[0], [1, 2])
        np.testing.assert_array_equal(neighbors[1], [0, 2])
        np.testing.assert_array_equal(neighbors[2], [1, 0])
        np.testing.assert_array_equal(neighbors[3], [2, 1])

    def test_distance_ties_break_by_index(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        neighbors = _nearest_neighbors(positions, 3, include_self=True)
        # sensors 1, 2, 3 are all at distance 1 from sensor 0
        np.testing.assert_array_equal(neighbors[0], [0, 1, 2])

    def test_self_always_first_when_included(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0.0, 20.0, size=(50, 2))
        neighbors = _nearest_neighbors(positions, 4, include_self=True)
        np.testing.assert_array_equal(neighbors[:, 0], np.arange(50))

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(42)
        positions = rng.uniform(0.0, 20.0, size=(60, 2))
        neighbors = _nearest_neighbors(positions, 5, include_self=True)
        deltas = positions[:, None, :] - positions[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", deltas, deltas)
        for i in range(60):
            order = sorted(range(60), key=lambda j: (d2[i, j], j))
            np.testing.assert_array_equal(neighbors[i], order[:5])


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
        self.params = FusionParams(5, 3)

    def _run(self, config=None, faults=None, seed=7):
        config = config or default_config()
        rng = np.random.default_rng(seed)
        field = generate_field(config, rng)
        return run_detection(field, self.model, self.gammas, self.params, faults, rng)

    def test_no_faults_keeps_reports_clean(self):
        result = self._run()
        np.testing.assert_array_equal(result.reported, result.local)
        np.testing.assert_array_equal(result.final, result.clean_final)
        assert result.fault_count == 0
        assert result.local_error_rate == result.clean_local_error_rate

    def test_error_rates_match_arrays(self):
        result = self._run()
        assert result.local_error_rate == np.mean(result.reported != result.field.truth)
        assert result.final_error_rate == np.mean(result.final != result.field.truth)

    def test_wide_separation_with_self_fusion_is_exact(self):
        model = SignalModel(0.0, 30.0, 60.0)
        gammas = gammas_from_lambdas(model, LikelihoodThresholds(1.0, 1.0))
        config = default_config(neighborhood_size=1, quorum=1)
        rng = np.random.default_rng(5)
        field = generate_field(config, rng)
        result = run_detection(field, model, gammas, FusionParams(1, 1), None, rng)
        assert result.local_error_rate == 0.0
        assert result.final_error_rate == 0.0

    def test_forced_change_count_exact(self):
        faults = FaultSpec(0.12, FaultModel.uniform_split(0.12), "forced-change")
        result = self._run(faults=faults)
        assert result.fault_count == math.floor(0.12 * 200)
        changed = result.reported != result.local
        assert int(changed.sum()) == 24
        np.testing.assert_array_equal(changed, result.faulty)

    def test_forced_change_flips_every_selected_sensor(self):
        faults = FaultSpec(0.3, FaultModel.uniform_split(0.3), "forced-change")
        result = self._run(faults=faults)
        assert result.fault_count == 60
        assert np.all(result.reported[result.faulty] != result.local[result.faulty])

    def test_alpha_table_marks_changed_sensors(self):
        faults = FaultSpec(0.3, FaultModel.uniform_split(0.3), "alpha-table")
        result = self._run(faults=faults)
        np.testing.assert_array_equal(result.faulty, result.reported != result.local)
        # each label has two outgoing arcs of P_f/6, so a sensor changes
        # with probability P_f/3; allow wide Monte Carlo slack
        assert 0.04 <= result.fault_count / 200 <= 0.18

    def test_faults_leave_clean_columns_untouched(self):
        faults = FaultSpec(0.24, FaultModel.uniform_split(0.24), "forced-change")
        clean = self._run()
        faulty = self._run(faults=faults)
        np.testing.assert_array_equal(clean.local, faulty.local)
        assert clean.clean_local_error_rate == faulty.clean_local_error_rate

    def test_fusion_reduces_error_on_average(self):
        local_rates, final_rates = [], []
        for seed in range(20):
            result = self._run(seed=seed)
            local_rates.append(result.local_error_rate)
            final_rates.append(result.final_error_rate)
        assert np.mean(final_rates) < np.mean(local_rates)

    def test_deterministic(self):
        a = self._run(seed=123)
        b = self._run(seed=123)
        np.testing.assert_array_equal(a.observations, b.observations)
        np.testing.assert_array_equal(a.final, b.final)

    def test_params_must_match_field(self):
        config = default_config()
        rng = np.random.default_rng(1)
        field = generate_field(config, rng)
        with pytest.raises(ValueError):
            run_detection(field, self.model, self.gammas, FusionParams(7, 4), None, rng)

