"""The micro-batching penalty service: warm path, overload, cold path.

Plain synchronous tests driving the event loop with ``asyncio.run``
(no pytest-asyncio dependency required to run the suite).
"""

import asyncio
from unittest import mock

import numpy as np
import pytest

from repro.obs import MetricsRegistry, RunReport
from repro.proxy import SweepOptions
from repro.serve import (
    ColdPathConfig,
    PenaltyService,
    Prediction,
    ServiceOverloadedError,
    SurrogateDomainError,
    SurrogateModel,
    predict_penalty,
)

from .conftest import SIZES, SLACKS, make_sweep

#: Cheap cold path for the DES-backed tests: tiny proxy runs, no disk.
FAST_COLD = ColdPathConfig(
    iterations=3,
    target_compute_s=2.0,
    options=SweepOptions(workers=1, cache=False),
)


def fresh_model():
    return SurrogateModel.fit(make_sweep())


# -- warm path ----------------------------------------------------------------

def test_single_prediction_matches_surrogate(model):
    async def _run():
        async with PenaltyService(surrogate=model) as svc:
            return await svc.predict(512, 1e-4, 1)

    got = asyncio.run(_run())
    assert isinstance(got, Prediction)
    assert got == model.predict(512, 1e-4, 1)


def test_concurrent_requests_coalesce_into_batches(model):
    n = 64
    svc = PenaltyService(surrogate=model)

    async def _run():
        async with svc:
            return await svc.predict_many(
                [(512, float(SLACKS[j % len(SLACKS)]), 1) for j in range(n)]
            )

    results = asyncio.run(_run())
    assert len(results) == n
    stats = svc.stats()
    assert stats["requests"] == n
    assert stats["answered_warm"] == n
    # gather enqueues every request before the batcher wakes, so the
    # drain coalesces them into far fewer vectorized evaluations.
    assert stats["batches"] < n
    assert stats["max_batch"] > 1
    assert stats["queue_high_water"] >= stats["max_batch"]


def test_predict_batch_arrays_round_trip(model):
    sizes = np.array([512, 2048, 512, 2048])
    slacks = np.array([1e-5, 1e-4, 1e-4, 1e-5])
    threads = np.array([1, 2, 2, 1])

    async def _run():
        async with PenaltyService(surrogate=model) as svc:
            return await svc.predict_batch(sizes, slacks, threads)

    pen, bound = asyncio.run(_run())
    expected, expected_bound, reason = model.evaluate(sizes, threads, slacks)
    assert (reason == 0).all()
    np.testing.assert_array_equal(pen, expected)
    np.testing.assert_array_equal(bound, expected_bound)


def test_predict_batch_defaults_to_one_thread(model):
    async def _run():
        async with PenaltyService(surrogate=model) as svc:
            return await svc.predict_batch([512, 2048], [1e-4, 1e-4])

    pen, _ = asyncio.run(_run())
    assert pen[0] == model.predict(512, 1e-4, 1).penalty
    assert pen[1] == model.predict(2048, 1e-4, 1).penalty


def test_predict_batch_refusal_names_the_element(model):
    async def _run():
        async with PenaltyService(surrogate=model) as svc:
            await svc.predict_batch([512, 4096], [1e-4, 1e-4], [1, 1])

    with pytest.raises(SurrogateDomainError) as exc:
        asyncio.run(_run())
    assert exc.value.reason == "unknown-series"
    assert exc.value.query == (4096, 1, 1e-4)


def test_overload_raises_instead_of_buffering(model):
    svc = PenaltyService(surrogate=model, max_queue=4)

    async def _run():
        async with svc:
            return await asyncio.gather(
                *(svc.predict(512, 1e-4, 1) for _ in range(10)),
                return_exceptions=True,
            )

    results = asyncio.run(_run())
    overloaded = [r for r in results if isinstance(r, ServiceOverloadedError)]
    answered = [r for r in results if isinstance(r, Prediction)]
    assert overloaded and answered
    assert len(overloaded) + len(answered) == 10
    assert svc.stats()["overloads"] == len(overloaded)


def test_refusal_without_cold_path_raises(model):
    async def _run():
        async with PenaltyService(surrogate=model) as svc:
            await svc.predict(4096, 1e-4, 1)

    with pytest.raises(SurrogateDomainError) as exc:
        asyncio.run(_run())
    assert exc.value.reason == "unknown-series"


def test_service_must_be_started():
    svc = PenaltyService(surrogate=fresh_model())
    with pytest.raises(RuntimeError, match="not running"):
        asyncio.run(svc.predict(512, 1e-4, 1))


def test_constructor_validates_limits(model):
    with pytest.raises(ValueError):
        PenaltyService(surrogate=model, max_queue=0)
    with pytest.raises(ValueError):
        PenaltyService(surrogate=model, max_batch=0)


# -- cold path ----------------------------------------------------------------

def test_cold_miss_measures_then_serves_warm():
    surrogate = fresh_model()
    svc = PenaltyService(surrogate=surrogate, cold_path=FAST_COLD)

    async def _run():
        async with svc:
            first = await svc.predict(256, 1e-5, 1)
            again = await svc.predict(256, 1e-5, 1)
            return first, again

    first, again = asyncio.run(_run())
    assert first.penalty == again.penalty
    stats = svc.stats()
    assert stats["cold_misses"] == 1
    # The companion point makes the refit series viable (>= 2 points).
    assert stats["cold_measured_points"] >= 2
    assert stats["observed_points"] >= 2
    assert stats["cold_wall_s"] > 0
    assert surrogate.series_points(256, 1) >= 2


def test_concurrent_cold_misses_share_one_measurement():
    svc = PenaltyService(surrogate=fresh_model(), cold_path=FAST_COLD)

    async def _run():
        async with svc:
            return await asyncio.gather(
                svc.predict(256, 1e-5, 1),
                svc.predict(256, 1e-5, 1),
                svc.predict(256, 1e-5, 1),
            )

    results = asyncio.run(_run())
    assert len({r.penalty for r in results}) == 1
    stats = svc.stats()
    assert stats["cold_misses"] == 1
    assert stats["cold_shared"] == 2


def test_negative_slack_is_never_measured():
    svc = PenaltyService(surrogate=fresh_model(), cold_path=FAST_COLD)

    async def _run():
        async with svc:
            await svc.predict(512, -1e-5, 1)

    with pytest.raises(SurrogateDomainError) as exc:
        asyncio.run(_run())
    assert exc.value.reason == "negative-slack"
    assert svc.stats()["cold_misses"] == 0


def test_one_shot_predict_penalty(model):
    got = predict_penalty(512, 1e-4, threads=1, surrogate=model)
    assert got == model.predict(512, 1e-4, 1)


# -- telemetry ----------------------------------------------------------------

def test_stats_include_refusal_breakdown():
    svc = PenaltyService(surrogate=fresh_model())

    async def _run():
        async with svc:
            await svc.predict(512, 1e-4, 1)
            with pytest.raises(SurrogateDomainError):
                await svc.predict(4096, 1e-4, 1)

    asyncio.run(_run())
    stats = svc.stats()
    assert stats["requests"] == 2
    assert stats["answered_warm"] == 1
    assert stats["refused"] == 1
    assert stats["refusal.unknown-series"] == 1


def test_publish_folds_counters_into_registry(model):
    svc = PenaltyService(surrogate=model)

    async def _run():
        async with svc:
            await svc.predict_many([(512, 1e-4, 1), (2048, 1e-5, 2)])

    asyncio.run(_run())
    reg = MetricsRegistry()
    svc.publish(reg)
    doc = reg.to_doc()
    assert doc["serve"]["requests"] == 2
    assert doc["serve"]["answered_warm"] == 2


def test_report_is_a_serve_runreport(model):
    svc = PenaltyService(surrogate=model)

    async def _run():
        async with svc:
            await svc.predict(512, 1e-4, 1)

    asyncio.run(_run())
    report = svc.report(meta={"origin": "test"})
    assert isinstance(report, RunReport)
    doc = report.to_doc()
    assert doc["kind"] == "serve"
    assert doc["meta"]["origin"] == "test"
    assert doc["meta"]["surrogate_method"] == "loglinear"
    assert doc["meta"]["series"] == len(SIZES) * 2


# -- intake semantics ---------------------------------------------------------

def test_mixed_batch_answers_each_item_from_its_own_slice(model):
    sizes_a = np.array([512, 2048, 512])
    slacks_a = np.array([1e-5, 2e-4, 7e-4])
    threads_a = np.array([1, 2, 2])
    calls = []
    evaluate = model.evaluate

    def counting(*args):
        calls.append(len(args[0]))
        return evaluate(*args)

    svc = PenaltyService(surrogate=model)

    async def _run():
        async with svc:
            with mock.patch.object(model, "evaluate", counting):
                return await asyncio.gather(
                    svc.predict(2048, 3e-5, 1),
                    svc.predict_batch(sizes_a, slacks_a, threads_a),
                    svc.predict(512, 4e-4, 2),
                    svc.predict_batch([2048], [1e-6], [2]),
                )

    one, arrays, two, single = asyncio.run(_run())
    assert calls == [6]  # one drained batch, one evaluation
    assert one == model.predict(2048, 3e-5, 1)
    assert two == model.predict(512, 4e-4, 2)
    pen, bound, _ = model.evaluate(sizes_a, threads_a, slacks_a)
    np.testing.assert_array_equal(arrays[0], pen)
    np.testing.assert_array_equal(arrays[1], bound)
    assert single[0][0] == model.predict(2048, 1e-6, 2).penalty
    assert type(one.penalty) is float and type(one.bound) is float
    assert svc.stats()["batches"] == 1
    assert svc.stats()["requests"] == 6


def test_cancelled_requests_are_skipped(model):
    svc = PenaltyService(surrogate=model)

    async def _run():
        async with svc:
            tasks = [
                asyncio.create_task(svc.predict(512, 1e-4, 1)),
                asyncio.create_task(svc.predict(2048, 1e-4, 1)),
                asyncio.create_task(svc.predict_batch([512], [1e-5])),
                asyncio.create_task(svc.predict(512, 1e-5, 2)),
            ]
            await asyncio.sleep(0)  # all four enqueued, batcher not run
            tasks[1].cancel()
            tasks[2].cancel()
            return await asyncio.gather(*tasks, return_exceptions=True)

    first, second, third, fourth = asyncio.run(_run())
    assert isinstance(second, asyncio.CancelledError)
    assert isinstance(third, asyncio.CancelledError)
    assert first == model.predict(512, 1e-4, 1)
    assert fourth == model.predict(512, 1e-5, 2)
    stats = svc.stats()
    assert stats["batches"] == 1
    assert stats["answered_warm"] == 2


def test_overload_is_immediate_at_max_queue(model):
    svc = PenaltyService(surrogate=model, max_queue=4)

    async def _run():
        async with svc:
            tasks = [
                asyncio.create_task(svc.predict(512, 1e-4, 1))
                for _ in range(4)
            ]
            await asyncio.sleep(0)  # four pending, batcher not run yet
            with pytest.raises(ServiceOverloadedError):
                await svc.predict(512, 1e-4, 1)
            with pytest.raises(ServiceOverloadedError):
                await svc.predict_batch([512], [1e-4])
            return await asyncio.gather(*tasks)

    answers = asyncio.run(_run())
    assert len(answers) == 4
    stats = svc.stats()
    assert stats["overloads"] == 2
    assert stats["queue_high_water"] == 4


def test_queue_high_water_counts_batch_plus_backlog(model):
    svc = PenaltyService(surrogate=model, max_batch=2)

    async def _run():
        async with svc:
            return await svc.predict_many([(512, 1e-4, 1)] * 5)

    assert len(asyncio.run(_run())) == 5
    stats = svc.stats()
    assert stats["max_batch"] == 2
    assert stats["batches"] == 3
    assert stats["queue_high_water"] == 5


def test_batches_equal_evaluate_calls(model):
    calls = []
    evaluate = model.evaluate

    def counting(*args):
        calls.append(1)
        return evaluate(*args)

    svc = PenaltyService(surrogate=model, max_batch=7)

    async def _run():
        async with svc:
            with mock.patch.object(model, "evaluate", counting):

                async def client(c):
                    for j in range(20):
                        await svc.predict(512, float(SLACKS[(c + j) % 7]), 1)

                await asyncio.gather(*(client(c) for c in range(9)))

    asyncio.run(_run())
    stats = svc.stats()
    assert stats["requests"] == 180
    assert stats["batches"] == len(calls) > 1


def test_stop_answers_everything_queued_before_it(model):
    svc = PenaltyService(surrogate=model, max_batch=3)

    async def _run():
        await svc.start()
        tasks = [
            asyncio.create_task(svc.predict(512, float(s), 1))
            for s in SLACKS
        ]
        tasks.append(asyncio.create_task(svc.predict_batch([2048], [1e-4])))
        await asyncio.sleep(0)  # all queued, batcher not run yet
        await svc.stop()
        assert all(task.done() for task in tasks)
        return [task.result() for task in tasks]

    answers = asyncio.run(_run())
    assert answers[0] == model.predict(512, float(SLACKS[0]), 1)
    assert svc.stats()["answered_warm"] == len(SLACKS) + 1


def test_request_enqueued_while_stop_drains_is_answered(model):
    svc = PenaltyService(surrogate=model)

    async def _run():
        await svc.start()
        await asyncio.sleep(0)  # the batcher parks on an empty intake
        stopper = asyncio.create_task(svc.stop())
        # Runs after stop() has begun waiting for the batcher.
        late = asyncio.create_task(svc.predict(512, 1e-4, 1))
        answer = await asyncio.wait_for(late, 5.0)
        await stopper
        return answer

    assert asyncio.run(_run()) == model.predict(512, 1e-4, 1)


def test_predict_after_stop_raises_not_running(model):
    svc = PenaltyService(surrogate=model)

    async def _run():
        async with svc:
            await svc.predict(512, 1e-4, 1)
        with pytest.raises(RuntimeError, match="not running"):
            await asyncio.wait_for(svc.predict(512, 1e-4, 1), 5.0)
        with pytest.raises(RuntimeError, match="not running"):
            await asyncio.wait_for(svc.predict_batch([512], [1e-4]), 5.0)
        # ... and a restarted service serves again.
        async with svc:
            return await svc.predict(512, 1e-4, 1)

    assert asyncio.run(_run()) == model.predict(512, 1e-4, 1)


def test_predict_batch_rejects_misaligned_columns(model):
    async def _run():
        async with PenaltyService(surrogate=model) as svc:
            with pytest.raises(ValueError, match="aligned"):
                await svc.predict_batch([512, 2048], [1e-4])
            return await svc.predict(512, 1e-4, 1)

    assert asyncio.run(_run()) == model.predict(512, 1e-4, 1)


# -- caller errors never reach the cold path ------------------------------------

@pytest.mark.parametrize(
    "size, slack, threads, reason",
    [
        (512, float("nan"), 1, "non-finite-slack"),
        (512, float("inf"), 1, "non-finite-slack"),
        (256, float("nan"), 1, "non-finite-slack"),  # unknown series too
        (256, float("-inf"), 1, "non-finite-slack"),
        (256, -1e-5, 1, "unknown-series"),  # negative, unknown series
        (512, 1e-4, (512 << 16) | 1, "unknown-series"),
        (512, 1e-4, 1 << 16, "unknown-series"),
        (0, 1e-4, 1, "unknown-series"),
    ],
)
def test_caller_errors_are_never_measured(size, slack, threads, reason):
    svc = PenaltyService(surrogate=fresh_model(), cold_path=FAST_COLD)

    async def _run():
        async with svc:
            await svc.predict(size, slack, threads)

    with mock.patch.object(
        svc, "_measure_sync", side_effect=AssertionError("DES ran")
    ):
        with pytest.raises(SurrogateDomainError) as exc:
            asyncio.run(_run())
    assert exc.value.reason == reason
    stats = svc.stats()
    assert stats["cold_misses"] == 0
    assert stats["refused"] == 1
