"""Network-crossing operators: the remote exchange and the prefetching
buffer operator.

The exchange is where the paper's Fig. 1 story lives: with one record
per ``next()`` call, every row pays a full RPC round trip; vectorised
calls amortise the latency over ``vector_size`` rows; the buffering
operator then overlaps the producer side with the consumer side,
"asynchronously prefetch[ing] records, thus, hiding the delay of
fetching the next set of records" (Sect. 3.3).
"""

from __future__ import annotations

import typing

from repro.hardware import specs
from repro.hardware.cpu import Cpu
from repro.hardware.network import Network, NetworkPort
from repro.sim.resources import Store
from repro.engine.row_source import ExecContext, Operator

#: Fixed framing bytes per shipped vector message.
MESSAGE_OVERHEAD_BYTES = 64


class RemoteExchange(Operator):
    """Volcano boundary between a producer node and a consumer node.

    Each ``next_vector`` call performs one RPC: request latency, the
    producer runs its subtree and serialises the vector, the payload
    crosses the wire, and the consumer deserialises.
    """

    def __init__(self, ctx: ExecContext, child: Operator, network: Network,
                 producer_cpu: Cpu, producer_port: NetworkPort,
                 consumer_cpu: Cpu, consumer_port: NetworkPort):
        super().__init__(ctx, child.output_columns)
        self.child = child
        self.network = network
        self.producer_cpu = producer_cpu
        self.producer_port = producer_port
        self.consumer_cpu = consumer_cpu
        self.consumer_port = consumer_port
        self.calls = 0
        self.bytes_shipped = 0

    def open(self):
        t0 = self.ctx.env.now
        yield from self.network.rpc_delay()
        self.ctx.charge("network_io", self.ctx.env.now - t0)
        yield from self.child.open()

    def next_vector(self):
        self.calls += 1
        t0 = self.ctx.env.now
        yield from self.network.rpc_delay()  # request/response round trip
        self.ctx.charge("network_io", self.ctx.env.now - t0)

        vector = yield from self.child.next_vector()
        if vector is None:
            return None

        n = len(vector)
        yield from self.producer_cpu.execute(
            n * specs.CPU_SERIALIZE_SECONDS_PER_RECORD
        )
        payload = self.vector_bytes(vector) + MESSAGE_OVERHEAD_BYTES
        t0 = self.ctx.env.now
        yield from self.network.transfer(
            self.producer_port, self.consumer_port, payload
        )
        self.ctx.charge("network_io", self.ctx.env.now - t0)
        self.bytes_shipped += payload
        yield from self.consumer_cpu.execute(
            n * specs.CPU_SERIALIZE_SECONDS_PER_RECORD
        )
        return vector

    def close(self):
        yield from self.child.close()


_END = object()


class PrefetchBuffer(Operator):
    """The paper's buffering operator: an asynchronous proxy between
    two operators that keeps ``depth`` vectors in flight."""

    def __init__(self, ctx: ExecContext, child: Operator, depth: int = 2):
        if depth < 1:
            raise ValueError("prefetch depth must be >= 1")
        super().__init__(ctx, child.output_columns)
        self.child = child
        self.depth = depth
        self._store: Store | None = None
        self._producer = None
        self._cancelled = False
        self.vectors_prefetched = 0

    def open(self):
        yield from self.child.open()
        self._store = Store(self.ctx.env, capacity=self.depth)
        self._cancelled = False
        self._producer = self.ctx.env.process(
            self._produce(), name="prefetch-producer"
        )

    def _produce(self):
        while not self._cancelled:
            vector = yield from self.child.next_vector()
            if self._cancelled:
                break
            yield self._store.put(vector if vector is not None else _END)
            if vector is None:
                break
            self.vectors_prefetched += 1

    def next_vector(self):
        if self._store is None:
            raise RuntimeError("next_vector before open")
        t0 = self.ctx.env.now
        item = yield self._store.get()
        # Waiting on the producer is (hidden) upstream latency.
        self.ctx.charge("network_io", self.ctx.env.now - t0)
        if item is _END:
            return None
        return item

    def close(self):
        self._cancelled = True
        # Unblock a producer stuck on a full store, then wait it out.
        if self._producer is not None and self._producer.is_alive:
            while self._producer.is_alive and len(self._store) > 0:
                yield self._store.get()
            if self._producer.is_alive:
                yield self._producer
        yield from self.child.close()
