"""Gigabit-Ethernet model: full-duplex ports on a non-blocking switch.

Each node owns a :class:`NetworkPort` with independent transmit and
receive lanes at GbE line rate.  A transfer occupies the sender's tx
lane and the receiver's rx lane for the whole wire time, so fan-in
(two senders shipping segments to one new node) correctly bottlenecks
at the receiver's port — the effect behind the paper's observation that
the intermediate network "may also induce a bandwidth bottleneck".

Deadlock freedom: a transfer acquires its two lane resources strictly
in ascending global lane id, the classic total-order acquisition rule.
"""

from __future__ import annotations

from repro.errors import TransientError
from repro.hardware import specs
from repro.sim.engine import Environment
from repro.sim.resources import Resource


class LinkDownError(TransientError):
    """A transfer touched a severed port (fault injection)."""


class NetworkPort:
    """One node's full-duplex GbE port (a tx lane and an rx lane)."""

    _next_lane_id = 0

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name
        self.tx = Resource(env, capacity=1, name=f"{name}.tx")
        self.rx = Resource(env, capacity=1, name=f"{name}.rx")
        self.tx_lane_id = NetworkPort._claim_lane_id()
        self.rx_lane_id = NetworkPort._claim_lane_id()
        self.bytes_sent = 0
        self.bytes_received = 0
        self.severed = False
        #: Gray-failure knobs (a flaky cable / duplex mismatch: the
        #: link stays up but loses frames and adds latency).  Zero on
        #: a healthy port — and a healthy transfer draws *no* random
        #: numbers, so fault-free runs are bit-identical to before.
        self.loss_probability = 0.0
        self.extra_delay = 0.0
        self.retransmits = 0

    def sever(self) -> None:
        """Cut both lanes (cable pull / NIC death)."""
        self.severed = True

    def restore(self) -> None:
        self.severed = False

    def make_flaky(self, loss_probability: float = 0.0,
                   extra_delay: float = 0.0) -> None:
        """Degrade the port without cutting it: each transfer pays
        ``extra_delay`` seconds, and with ``loss_probability`` per
        attempt the frame is lost and retransmitted (another full
        send's worth of wire time)."""
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1), got {loss_probability}"
            )
        if extra_delay < 0.0:
            raise ValueError(f"extra delay must be >= 0, got {extra_delay}")
        self.loss_probability = loss_probability
        self.extra_delay = extra_delay

    def heal(self) -> None:
        """Clear the flaky-link degradation (cable reseated)."""
        self.loss_probability = 0.0
        self.extra_delay = 0.0

    @classmethod
    def _claim_lane_id(cls) -> int:
        cls._next_lane_id += 1
        return cls._next_lane_id


class Network:
    """The cluster interconnect: a non-blocking switch joining ports."""

    def __init__(self, env: Environment):
        self.env = env
        self.transfer_count = 0
        self.bytes_total = 0

    def transfer(self, src: NetworkPort, dst: NetworkPort, nbytes: int):
        """Generator: move ``nbytes`` from ``src`` to ``dst``.

        Completes after one-way latency plus wire time at GbE line
        rate.  A loopback transfer (src is dst) costs nothing:
        "all records are transferred via main memory" (Sect. 3.3).
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if src.severed or dst.severed:
            down = src.name if src.severed else dst.name
            raise LinkDownError(f"port {down} is severed")
        if src is dst:
            return
        wire_time = nbytes / specs.NET_BANDWIDTH_BYTES_PER_S
        attempt = specs.NET_MESSAGE_LATENCY_SECONDS + wire_time
        duration = attempt
        # Flaky-link degradation.  Only a degraded port consumes random
        # numbers, so healthy runs keep their exact event timeline.
        extra = src.extra_delay + dst.extra_delay
        if extra:
            duration += extra
        loss = max(src.loss_probability, dst.loss_probability)
        if loss:
            rng = self.env.rng
            resends = 0
            while resends < 8 and rng.random() < loss:
                resends += 1
            if resends:
                duration += resends * attempt
                port = src if src.loss_probability >= dst.loss_probability \
                    else dst
                port.retransmits += resends

        # Total-order lane acquisition (see module docstring).
        lanes = sorted(
            [(src.tx_lane_id, src.tx), (dst.rx_lane_id, dst.rx)],
            key=lambda pair: pair[0],
        )
        first_req = yield from lanes[0][1].acquire()
        second_req = yield from lanes[1][1].acquire()
        try:
            yield from self.env.hold(duration)
        finally:
            lanes[0][1].release(first_req)
            lanes[1][1].release(second_req)

        src.bytes_sent += nbytes
        dst.bytes_received += nbytes
        self.transfer_count += 1
        self.bytes_total += nbytes

    def rpc_delay(self):
        """One software-stack round-trip latency, as a step
        (:meth:`Environment.hold`).

        Charged per remote next() call on top of payload transfer time;
        this is the cost that single-record volcano iteration cannot
        amortise (paper Fig. 1, third bar).
        """
        return self.env.hold(specs.NET_RPC_LATENCY_SECONDS)
