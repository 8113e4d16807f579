"""Admission control: token buckets, the bounded queue, and exact
offered = admitted + rejected + shed accounting."""

import pytest

from repro.sim.engine import Environment
from repro.traffic import (
    ADMITTED,
    REJECTED,
    SHED,
    AdmissionController,
    Request,
    TokenBucket,
)


class TestTokenBucket:
    def test_whole_or_nothing(self):
        b = TokenBucket(rate=10.0, burst=100.0)
        assert b.try_take(100, now=0.0)
        assert not b.try_take(1, now=0.0)

    def test_refills_with_time_up_to_burst(self):
        b = TokenBucket(rate=10.0, burst=50.0)
        assert b.try_take(50, now=0.0)
        assert not b.try_take(20, now=1.0)   # only 10 back
        assert b.try_take(20, now=2.0)
        assert not b.try_take(51, now=1e6)   # refill is capped at burst
        assert b.try_take(50, now=1e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestAdmissionController:
    def make(self, queue_limit=100, buckets=None):
        env = Environment()
        return env, AdmissionController(env, queue_limit=queue_limit,
                                        buckets=buckets)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request(tenant="t", arrival=0.0, count=0)

    def test_admit_then_shed_at_queue_limit(self):
        env, ac = self.make(queue_limit=100)
        assert ac.offer(Request("web", 0.0, count=60)) == ADMITTED
        assert ac.offer(Request("web", 0.0, count=40)) == ADMITTED
        assert ac.offer(Request("web", 0.0, count=1)) == SHED
        assert ac.queue_depth == 100
        assert ac.offered == 101
        assert ac.admitted == 100
        assert ac.shed == 1
        assert ac.offered == ac.admitted + ac.rejected + ac.shed

    def test_rate_limit_rejects_before_queue(self):
        env, ac = self.make(buckets={"batch": TokenBucket(rate=1.0,
                                                          burst=10.0)})
        assert ac.offer(Request("batch", 0.0, count=10)) == ADMITTED
        assert ac.offer(Request("batch", 0.0, count=1)) == REJECTED
        # Another tenant has no bucket and sails through.
        assert ac.offer(Request("web", 0.0, count=1)) == ADMITTED
        assert ac.counters_for("batch").rejected == 1
        assert ac.counters_for("web").rejected == 0

    def test_take_is_fifo_and_returns_none_after_close(self):
        env, ac = self.make()
        ac.offer(Request("a", 0.0, count=1))
        ac.offer(Request("b", 0.0, count=2))
        taken = []

        def consumer():
            while True:
                request = yield from ac.take()
                if request is None:
                    return
                taken.append(request.tenant)

        proc = env.process(consumer())

        def closer():
            yield env.timeout(1.0)
            ac.close()

        env.process(closer())
        env.run(until=proc)
        assert taken == ["a", "b"]
        assert ac.queue_depth == 0

    def test_offer_wakes_blocked_consumer(self):
        env, ac = self.make()
        got = []

        def consumer():
            request = yield from ac.take()
            got.append((env.now, request.tenant))

        proc = env.process(consumer())

        def producer():
            yield env.timeout(5.0)
            ac.offer(Request("late", arrival=env.now, count=1))

        env.process(producer())
        env.run(until=proc)
        assert got == [(5.0, "late")]

    def test_completion_and_abandon_accounting(self):
        env, ac = self.make()
        r = Request("web", 0.0, count=30)
        ac.offer(r)
        ac.note_completed(Request("web", 0.0, count=20))
        ac.note_abandoned(Request("web", 0.0, count=10))
        assert ac.completed == 20
        assert ac.abandoned == 10
        stats = ac.stats()
        assert stats["completed"] == 20
        assert stats["abandoned"] == 10
        assert ac.counters_for("web").as_dict()["abandoned"] == 10

    def test_offer_after_close_raises(self):
        env, ac = self.make()
        ac.close()
        with pytest.raises(RuntimeError):
            ac.offer(Request("web", 0.0, count=1))
