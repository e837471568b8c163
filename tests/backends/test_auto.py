"""The ``auto`` backend: cost model, planner and routing invariance.

Three layers:

* pure unit tests of :class:`CostModel` / :class:`DispatchPlanner` with
  synthetic (deterministic) models — the routing *logic* must not depend
  on what this host happens to measure;
* calibration contract tests on a real prepared backend (min_shard_size
  restored, models positive and recorded);
* result-invariance tests: whatever plan the model picks — including
  every plan it *could* have picked — the results are identical to the
  serial reference, because routing is a performance decision and must
  never be a correctness one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    AutoBackend,
    CostModel,
    DispatchPlan,
    DispatchPlanner,
    SerialBackend,
    ShardRule,
    backend_names,
    calibrate_backend,
    create_backend,
)
from tests.backends.strategies import build_test_amm

FEATURES = 16
TEMPLATES = 4


@pytest.fixture(scope="module")
def ideal_amm():
    return build_test_amm(FEATURES, TEMPLATES, 29)


@pytest.fixture(scope="module")
def auto_backend(ideal_amm):
    backend = AutoBackend(ideal_amm, workers=2, min_shard_size=4).prepare()
    yield backend
    backend.close()


def make_batch(amm, count, seed=500):
    rng = np.random.default_rng(seed)
    codes = rng.integers(
        0, amm.input_dacs.max_code + 1, size=(count, amm.crossbar.rows)
    )
    seeds = rng.integers(0, 2**31 - 1, size=count)
    return codes, seeds


class TestCostModel:
    def test_predict_is_affine_single_shard(self):
        model = CostModel(
            backend="x", fixed=1e-3, marginal=1e-4, workers=1, parallel_speedup=1.0
        )
        assert model.predict(10, 1) == pytest.approx(1e-3 + 10e-4)
        assert model.predict(0, 1) == 0.0

    def test_predict_divides_by_effective_concurrency(self):
        model = CostModel(
            backend="x", fixed=1e-3, marginal=1e-4, workers=4, parallel_speedup=2.0
        )
        serialised = 4 * 1e-3 + 100 * 1e-4
        assert model.predict(100, 4) == pytest.approx(serialised / 2.0)
        # One shard never benefits from parallelism.
        assert model.predict(100, 1) == pytest.approx(1e-3 + 100 * 1e-4)

    def test_shards_clamped_to_count(self):
        model = CostModel(
            backend="x", fixed=1e-3, marginal=1e-4, workers=8, parallel_speedup=8.0
        )
        # 2 images cannot occupy 8 shards: 2 shards, 2-way overlap.
        assert model.predict(2, 8) == pytest.approx((2 * 1e-3 + 2e-4) / 2)


class TestDispatchPlanner:
    def _planner(self, serial_fixed=1e-4, par_fixed=1e-3, par_marginal=2e-5):
        """Serial: cheap fixed, slow marginal.  Parallel: expensive fixed,
        fast marginal with real 4x speedup — the canonical crossover."""
        serial = CostModel(
            backend="serial", fixed=serial_fixed, marginal=1e-4,
            workers=1, parallel_speedup=1.0,
        )
        par = CostModel(
            backend="processes", fixed=par_fixed, marginal=par_marginal,
            workers=4, parallel_speedup=4.0,
        )
        return DispatchPlanner({
            "serial": (serial, ShardRule(workers=1, min_shard_size=1)),
            "processes": (par, ShardRule(workers=4, min_shard_size=8)),
        })

    def test_small_batches_stay_serial(self):
        planner = self._planner()
        for count in (1, 2, 4, 8):
            assert planner.plan(count).backend == "serial"

    def test_large_batches_cross_over(self):
        plan = self._planner().plan(512)
        assert plan.backend == "processes"
        assert plan.shards == 4
        assert plan.count == 512

    def test_ties_prefer_first_registered(self):
        model = CostModel(
            backend="a", fixed=1e-3, marginal=1e-4, workers=1, parallel_speedup=1.0
        )
        rule = ShardRule(workers=1, min_shard_size=1)
        planner = DispatchPlanner({"serial": (model, rule), "other": (model, rule)})
        assert planner.plan(32).backend == "serial"

    def test_parallelism_that_does_not_pay_never_wins(self):
        """A thread pool that measures speedup ~1 (one core) with equal
        marginal cost but higher fixed cost loses at every batch size."""
        serial = CostModel(
            backend="serial", fixed=1e-4, marginal=1e-4,
            workers=1, parallel_speedup=1.0,
        )
        threads = CostModel(
            backend="threads", fixed=5e-4, marginal=1e-4,
            workers=2, parallel_speedup=1.0,
        )
        planner = DispatchPlanner({
            "serial": (serial, ShardRule(workers=1, min_shard_size=1)),
            "threads": (threads, ShardRule(workers=2, min_shard_size=8)),
        })
        for count in (1, 16, 64, 1024):
            assert planner.plan(count).backend == "serial"

    def test_empty_planner_rejected(self):
        with pytest.raises(ValueError):
            DispatchPlanner({})

    def test_batches_below_min_shard_never_leave_incumbent(self):
        """Below a candidate's min_shard_size the predictions differ only
        in their noise-dominated fixed intercepts, so the candidate is
        not even considered — even when its model claims a decisive win."""
        serial = CostModel(
            backend="serial", fixed=1e-3, marginal=1e-4,
            workers=1, parallel_speedup=1.0,
        )
        threads = CostModel(  # "measured" 10x cheaper: pure noise
            backend="threads", fixed=1e-4, marginal=1e-5,
            workers=2, parallel_speedup=2.0,
        )
        planner = DispatchPlanner({
            "serial": (serial, ShardRule(workers=1, min_shard_size=1)),
            "threads": (threads, ShardRule(workers=2, min_shard_size=8)),
        })
        for count in (1, 4, 7):
            assert planner.plan(count).backend == "serial"
        assert planner.plan(8).backend == "threads"

    def test_margin_keeps_marginal_wins_on_incumbent(self):
        """A challenger predicting a few percent faster (well inside
        calibration noise) must not take batches away from serial."""
        serial = CostModel(
            backend="serial", fixed=0.0, marginal=1.00e-4,
            workers=1, parallel_speedup=1.0,
        )
        threads = CostModel(
            backend="threads", fixed=0.0, marginal=0.95e-4,
            workers=2, parallel_speedup=1.0,
        )
        entries = {
            "serial": (serial, ShardRule(workers=1, min_shard_size=1)),
            "threads": (threads, ShardRule(workers=2, min_shard_size=1)),
        }
        # Without a margin the 5% "win" flips the route...
        assert DispatchPlanner(entries).plan(64).backend == "threads"
        # ...with one it stays on the incumbent; a decisive win still moves.
        planner = DispatchPlanner(entries, margin=0.15)
        assert planner.plan(64).backend == "serial"
        fast = CostModel(
            backend="threads", fixed=0.0, marginal=0.5e-4,
            workers=2, parallel_speedup=2.0,
        )
        entries["threads"] = (fast, ShardRule(workers=2, min_shard_size=1))
        assert DispatchPlanner(entries, margin=0.15).plan(64).backend == "threads"

    def test_invalid_margin_rejected(self):
        model = CostModel(
            backend="serial", fixed=0.0, marginal=1e-4,
            workers=1, parallel_speedup=1.0,
        )
        entries = {"serial": (model, ShardRule(workers=1, min_shard_size=1))}
        for margin in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="margin"):
                DispatchPlanner(entries, margin=margin)


class TestCalibration:
    def test_calibrates_positive_model_and_restores_threshold(self, ideal_amm):
        backend = SerialBackend(ideal_amm).prepare()
        try:
            model = calibrate_backend(
                backend, lambda n: make_batch(ideal_amm, n), repeats=1
            )
        finally:
            backend.close()
        assert model.backend == "serial"
        assert model.fixed >= 0.0
        assert model.marginal > 0.0
        assert model.parallel_speedup == 1.0
        assert model.samples["large_seconds"] >= 0.0

    def test_threaded_calibration_restores_min_shard_size(self, ideal_amm):
        from repro.backends import ThreadedBackend

        backend = ThreadedBackend(ideal_amm, workers=2, min_shard_size=7).prepare()
        try:
            model = calibrate_backend(
                backend, lambda n: make_batch(ideal_amm, n), repeats=1
            )
            assert backend.min_shard_size == 7
            assert 1.0 <= model.parallel_speedup <= 2.0
            assert "parallel_seconds" in model.samples
        finally:
            backend.close()

    def test_max_speedup_caps_fitted_speedup(self, ideal_amm):
        """With a physical ceiling of 1 core the fitted speedup is exactly
        1.0 no matter what the fan-out point happened to measure."""
        from repro.backends import ThreadedBackend

        backend = ThreadedBackend(ideal_amm, workers=2, min_shard_size=4).prepare()
        try:
            model = calibrate_backend(
                backend,
                lambda n: make_batch(ideal_amm, n),
                repeats=1,
                max_speedup=1.0,
            )
            assert model.parallel_speedup == 1.0
        finally:
            backend.close()


class TestAutoBackend:
    def test_registered(self):
        assert "auto" in backend_names()

    def test_registry_constructs_auto(self, ideal_amm):
        backend = create_backend("auto", ideal_amm, workers=1)
        try:
            assert isinstance(backend, AutoBackend)
            assert backend._candidate_names == ["serial"]
        finally:
            backend.close()

    def test_default_candidates_scale_with_workers(self, ideal_amm):
        backend = AutoBackend(ideal_amm, workers=2)
        assert backend._candidate_names == ["serial", "threads", "processes"]
        backend.close()

    def test_unknown_candidate_rejected(self, ideal_amm):
        with pytest.raises(ValueError, match="unknown auto candidates"):
            AutoBackend(ideal_amm, candidates=["serial", "gpu"])

    def test_remote_candidate_requires_addresses(self, ideal_amm):
        with pytest.raises(ValueError, match="worker_addresses"):
            AutoBackend(ideal_amm, candidates=["remote"])

    def test_prepare_builds_models_and_planner(self, auto_backend):
        assert set(auto_backend.cost_models) == {"serial", "threads", "processes"}
        for model in auto_backend.cost_models.values():
            assert model.marginal > 0.0
            assert model.fixed >= 0.0
            assert 1.0 <= model.parallel_speedup <= model.workers
        plan = auto_backend.plan_for(1)
        assert isinstance(plan, DispatchPlan)
        # A 1-image batch can never justify a dispatch overhead: the
        # model must keep it on the caller's core.
        assert plan.backend == "serial"

    def test_dispatch_records_plan(self, auto_backend, ideal_amm):
        codes, seeds = make_batch(ideal_amm, 3)
        before = dict(auto_backend.plan_counts)
        auto_backend.recall_batch_seeded(codes, seeds)
        assert sum(auto_backend.plan_counts.values()) == sum(before.values()) + 1
        assert auto_backend.last_plan is not None
        assert auto_backend.last_plan.count == 3

    def test_results_bit_identical_to_serial(self, auto_backend, ideal_amm):
        codes, seeds = make_batch(ideal_amm, 40, seed=123)
        with SerialBackend(ideal_amm) as serial:
            reference = serial.recall_batch_seeded(codes, seeds)
        result = auto_backend.recall_batch_seeded(codes, seeds)
        assert np.array_equal(result.winner_column, reference.winner_column)
        assert np.array_equal(result.codes, reference.codes)
        assert np.array_equal(result.column_currents, reference.column_currents)
        assert list(result.events) == list(reference.events)

    def test_every_possible_plan_gives_identical_results(
        self, auto_backend, ideal_amm
    ):
        """Force the planner through each candidate in turn: different
        calibration outcomes on different runs may route the same batch
        differently, and that must be invisible in the results."""
        codes, seeds = make_batch(ideal_amm, 24, seed=321)
        with SerialBackend(ideal_amm) as serial:
            reference = serial.recall_batch_seeded(codes, seeds)
        saved = auto_backend._planner
        try:
            for name in auto_backend._candidate_names:
                model = auto_backend.cost_models[name]
                rule = (
                    ShardRule(workers=1, min_shard_size=1)
                    if name == "serial"
                    else ShardRule(workers=2, min_shard_size=4)
                )
                auto_backend._planner = DispatchPlanner({name: (model, rule)})
                result = auto_backend.recall_batch_seeded(codes, seeds)
                assert auto_backend.last_plan.backend == name
                assert np.array_equal(
                    result.winner_column, reference.winner_column
                ), name
                assert np.array_equal(
                    result.column_currents, reference.column_currents
                ), name
                assert list(result.events) == list(reference.events), name
        finally:
            auto_backend._planner = saved

    def test_solve_batch_routes_and_matches(self, auto_backend, ideal_amm):
        codes, _ = make_batch(ideal_amm, 12, seed=77)
        conductances = ideal_amm.input_dacs.conductances(codes)
        reference = ideal_amm.solver.solve_batch(
            conductances, include_parasitics=False
        )
        solution = auto_backend.solve_batch(conductances, include_parasitics=False)
        assert np.array_equal(solution.column_currents, reference.column_currents)

    def test_capabilities(self, auto_backend):
        capabilities = auto_backend.capabilities()
        assert capabilities.name == "auto"
        assert capabilities.workers == 2
        assert capabilities.shards_batches
        assert capabilities.escapes_gil  # the process candidate does

    def test_empty_batch_validation_delegates_to_serial(self, auto_backend):
        with pytest.raises(ValueError):
            auto_backend.recall_batch_seeded(
                np.empty((0, FEATURES), dtype=np.int64), []
            )

    def test_serving_pool_accepts_auto(self, ideal_amm):
        from repro.serving.workers import ShardedWorkerPool

        pool = ShardedWorkerPool(ideal_amm, workers=1, backend="auto")
        try:
            assert pool.backend.capabilities().name == "auto"
            assert pool.min_shard_size >= 1
        finally:
            pool.close()
