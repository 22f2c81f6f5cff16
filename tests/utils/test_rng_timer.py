"""Tests for RNG plumbing and timers."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng
from repro.utils.timer import StageTimer, Timer


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        assert ensure_rng(42).random() == ensure_rng(42).random()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert ensure_rng(rng) is rng

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(5)
        assert isinstance(ensure_rng(seq), np.random.Generator)


class TestTimer:
    def test_context_manager_measures(self):
        with Timer() as timer:
            sum(range(10_000))
        assert timer.elapsed > 0.0

    def test_stop_returns_elapsed(self):
        timer = Timer()
        timer.restart()
        assert timer.stop() >= 0.0

    def test_restart_resets(self):
        timer = Timer()
        with timer:
            pass
        timer.restart()
        assert timer.stop() >= 0.0


class TestStageTimer:
    def test_accumulates_stages(self):
        stages = StageTimer()
        stages.add("a", 1.0)
        stages.add("a", 0.5)
        stages.add("b", 2.0)
        assert stages.stages["a"] == pytest.approx(1.5)
        assert stages.total == pytest.approx(3.5)

    def test_context_manager_records(self):
        stages = StageTimer()
        with stages.time("work"):
            sum(range(1000))
        assert stages.stages["work"] > 0.0

    def test_as_dict_preserves_order(self):
        stages = StageTimer()
        stages.add("later", 1.0)
        stages.add("earlier", 1.0)
        assert list(stages.as_dict()) == ["later", "earlier"]


class TestLatencyStats:
    def test_empty_is_all_zero(self):
        from repro.utils.timer import LatencyStats

        stats = LatencyStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.p50 == 0.0
        assert stats.p99 == 0.0

    def test_count_mean_min_max(self):
        from repro.utils.timer import LatencyStats

        stats = LatencyStats()
        for value in (0.010, 0.020, 0.030):
            stats.record(value)
        assert stats.count == 3
        assert stats.mean == pytest.approx(0.020)
        assert stats.min == pytest.approx(0.010)
        assert stats.max == pytest.approx(0.030)
        assert stats.total == pytest.approx(0.060)

    def test_nearest_rank_percentiles(self):
        from repro.utils.timer import LatencyStats

        stats = LatencyStats((i / 1000 for i in range(1, 101)))  # 1..100 ms
        assert stats.p50 == pytest.approx(0.050)
        assert stats.p95 == pytest.approx(0.095)
        assert stats.p99 == pytest.approx(0.099)
        assert stats.percentile(100) == pytest.approx(0.100)
        assert stats.percentile(0) == pytest.approx(0.001)

    def test_tail_percentiles_catch_outliers(self):
        from repro.utils.timer import LatencyStats

        stats = LatencyStats([0.001] * 99 + [1.0])
        assert stats.p50 == pytest.approx(0.001)
        assert stats.percentile(100) == pytest.approx(1.0)

    def test_percentile_out_of_range_rejected(self):
        from repro.utils.timer import LatencyStats

        with pytest.raises(ValueError):
            LatencyStats([0.1]).percentile(101)

    def test_merge_combines_samples(self):
        from repro.utils.timer import LatencyStats

        a = LatencyStats([0.010, 0.020])
        b = LatencyStats([0.030])
        merged = a.merge(b)
        assert merged is a
        assert a.count == 3
        assert b.count == 1  # the source accumulator is untouched
        assert a.max == pytest.approx(0.030)

    def test_record_after_percentile_invalidates_sort_cache(self):
        from repro.utils.timer import LatencyStats

        stats = LatencyStats([0.030, 0.010])
        assert stats.p50 == pytest.approx(0.010)
        stats.record(0.001)
        assert stats.p50 == pytest.approx(0.010)
        assert stats.min == pytest.approx(0.001)

    def test_as_dict_keys(self):
        from repro.utils.timer import LatencyStats

        payload = LatencyStats([0.5]).as_dict()
        assert payload["count"] == 1
        assert set(payload) == {
            "count",
            "total_seconds",
            "mean_seconds",
            "min_seconds",
            "max_seconds",
            "p50_seconds",
            "p95_seconds",
            "p99_seconds",
        }

    # -- edge cases pinned for the sharded router's constant merging -- #

    def test_single_sample_percentiles_collapse_to_it(self):
        from repro.utils.timer import LatencyStats

        stats = LatencyStats([0.042])
        assert stats.count == 1
        assert stats.mean == pytest.approx(0.042)
        assert stats.min == stats.max == pytest.approx(0.042)
        for p in (0, 1, 50, 95, 99, 100):
            assert stats.percentile(p) == pytest.approx(0.042)

    def test_merge_of_empty_accumulator_is_a_noop(self):
        from repro.utils.timer import LatencyStats

        stats = LatencyStats([0.010, 0.020])
        assert stats.p50 == pytest.approx(0.010)  # warm the sort cache
        merged = stats.merge(LatencyStats())
        assert merged is stats
        assert stats.count == 2
        assert stats.p50 == pytest.approx(0.010)

    def test_merge_into_empty_adopts_other_samples(self):
        from repro.utils.timer import LatencyStats

        stats = LatencyStats()
        stats.merge(LatencyStats([0.030, 0.010]))
        assert stats.count == 2
        assert stats.p50 == pytest.approx(0.010)

    def test_merge_with_self_does_not_double_samples(self):
        from repro.utils.timer import LatencyStats

        stats = LatencyStats([0.010, 0.020])
        assert stats.merge(stats) is stats
        assert stats.count == 2

    def test_merge_of_disjoint_counts_is_order_independent(self):
        from repro.utils.timer import LatencyStats

        left = [0.001, 0.004, 0.009]
        right = [0.002, 0.003, 0.005, 0.007, 0.008, 0.010, 0.020]
        a = LatencyStats(left).merge(LatencyStats(right))
        b = LatencyStats(right).merge(LatencyStats(left))
        assert a.count == b.count == len(left) + len(right)
        for p in (0, 25, 50, 75, 95, 99, 100):
            assert a.percentile(p) == pytest.approx(b.percentile(p))
        assert a.mean == pytest.approx(b.mean)
        assert (a.min, a.max) == (b.min, b.max)

    def test_merged_source_mutation_does_not_alias(self):
        from repro.utils.timer import LatencyStats

        source = LatencyStats([0.010])
        target = LatencyStats([0.020]).merge(source)
        source.record(0.500)
        assert target.count == 2
        assert target.max == pytest.approx(0.020)
