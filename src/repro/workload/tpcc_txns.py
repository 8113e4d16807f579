"""The five TPC-C transactions, adapted per the paper (Sect. 5.1):
no emulated user interaction, each executes in "a single run".

Each transaction is a simulation generator over the master's routed
access API and returns a small result summary.  Conflicts raise
:class:`~repro.txn.manager.TransactionAborted`; the client retries.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.cluster.master import RoutedMissError
from repro.workload.tpcc_schema import TpccConfig

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.txn.manager import Transaction

#: History rows written at runtime start above any loader-assigned id.
HISTORY_ID_BASE = 1_000_000_000

#: Transaction mix per the TPC-C guideline weights (the paper deviates
#: from the spec's exact mix; this is the conventional approximation).
DEFAULT_MIX: list[tuple[str, float]] = [
    ("new_order", 0.45),
    ("payment", 0.43),
    ("order_status", 0.04),
    ("delivery", 0.04),
    ("stock_level", 0.04),
]


@dataclasses.dataclass
class TpccContext:
    """Workload-side state shared by all clients."""

    cluster: "Cluster"
    config: TpccConfig
    cc: str = "mvcc"
    rng: random.Random = dataclasses.field(default_factory=lambda: random.Random(7))

    def random_warehouse(self) -> int:
        return self.rng.randint(1, self.config.warehouses)

    def random_district(self) -> int:
        return self.rng.randint(1, self.config.districts_per_warehouse)

    def random_customer(self) -> int:
        return self._nurand(1023, 1, self.config.customers_per_district, 259)

    def random_item(self) -> int:
        return self._nurand(8191, 1, self.config.items, 7911)

    def _nurand(self, a: int, x: int, y: int, c: int) -> int:
        if y <= x:
            return x
        r = self.rng
        return ((r.randint(0, a) | r.randint(x, y)) + c) % (y - x + 1) + x


def _require(row, what: str):
    if row is None:
        raise RoutedMissError(f"tpcc: missing {what}")
    return row


def new_order(ctx: TpccContext, txn: "Transaction"):
    """NewOrder: the write-heavy backbone of the mix."""
    master = ctx.cluster.master
    w = ctx.random_warehouse()
    d = ctx.random_district()
    c = ctx.random_customer()
    ol_cnt = ctx.rng.randint(5, 15)

    warehouse = _require(
        (yield from master.read("warehouse", w, txn)),
        f"warehouse {w}",
    )
    district = _require(
        (yield from master.read("district", (w, d), txn)),
        f"district {(w, d)}",
    )
    o_id = district[9]  # d_next_o_id
    updated = district[:9] + (o_id + 1,)
    yield from master.update("district", (w, d), updated, txn)
    customer = _require(
        (yield from master.read("customer", (w, d, c), txn)),
        f"customer {(w, d, c)}",
    )

    total = 0.0
    for number in range(1, ol_cnt + 1):
        i = ctx.random_item()
        item = yield from master.read("item", i, txn)
        if item is None:
            continue  # spec: 1% unused item -> rollback; we tolerate
        stock = yield from master.read("stock", (w, i), txn)
        if stock is not None:
            quantity = stock[2]
            new_quantity = quantity - 5 if quantity >= 15 else quantity + 86
            new_stock = (stock[:2] + (new_quantity,) + stock[3:4]
                         + (stock[4] + 5, stock[5] + 1) + stock[6:])
            yield from master.update("stock", (w, i), new_stock, txn)
        amount = 5 * item[3]
        total += amount
        yield from master.insert(
            "order_line",
            (w, d, o_id, number, i, w, "", 5, amount, "x" * 24),
            txn,
        )

    yield from master.insert(
        "orders", (w, d, o_id, c, "2015-01-01", 0, ol_cnt, 1),
        txn,
    )
    yield from master.insert("new_order", (w, d, o_id), txn)
    total *= (1 + warehouse[6]) * (1 - customer[14])
    return {"kind": "new_order", "w": w, "d": d, "o_id": o_id, "total": total}


def payment(ctx: TpccContext, txn: "Transaction"):
    """Payment: short read-modify-write plus a history append."""
    master = ctx.cluster.master
    w = ctx.random_warehouse()
    d = ctx.random_district()
    c = ctx.random_customer()
    amount = ctx.rng.uniform(1.0, 5000.0)

    warehouse = _require(
        (yield from master.read("warehouse", w, txn)),
        f"warehouse {w}",
    )
    yield from master.update(
        "warehouse", w, warehouse[:7] + (warehouse[7] + amount,),
        txn,
    )
    by_name = (
        ctx.config.index_customer_name and ctx.rng.random() < 0.6
    )
    district = _require(
        (yield from master.read("district", (w, d), txn)),
        f"district {(w, d)}",
    )
    yield from master.update(
        "district", (w, d),
        district[:8] + (district[8] + amount, district[9]),
        txn,
    )
    if by_name:
        # Spec clause 2.5.2.2: select by last name, take the middle
        # match (ordered by first name; our ids serve as the order).
        matches = yield from master.read_by_secondary(
            "customer", (w, d, 1), "customer_by_name", "name-%04d" % c,
            txn,
        )
        matches = [m for m in matches if m[0] == w and m[1] == d]
        customer = _require(
            matches[len(matches) // 2] if matches else None,
            f"customer named name-{c:04d} in {(w, d)}",
        )
        c = customer[2]
    else:
        customer = _require(
            (yield from master.read("customer", (w, d, c), txn)),
            f"customer {(w, d, c)}",
        )
    new_customer = (
        customer[:15]
        + (customer[15] - amount, customer[16] + amount, customer[17] + 1)
        + customer[18:]
    )
    yield from master.update("customer", (w, d, c), new_customer, txn)
    # txn ids are unique cluster-wide: a natural history key.  Offset
    # past any loader-assigned history ids.
    h_id = HISTORY_ID_BASE + txn.txn_id
    yield from master.insert(
        "history", (w, h_id, w, d, c, d, "2015-01-01", amount, "pay"),
        txn,
    )
    return {"kind": "payment", "amount": amount}


def order_status(ctx: TpccContext, txn: "Transaction"):
    """OrderStatus: read-only — a customer's most recent order.

    With the name index enabled, 60% of lookups go by last name (spec
    clause 2.6.1.2), like Payment.
    """
    master = ctx.cluster.master
    w = ctx.random_warehouse()
    d = ctx.random_district()
    c = ctx.random_customer()

    if ctx.config.index_customer_name and ctx.rng.random() < 0.6:
        matches = yield from master.read_by_secondary(
            "customer", (w, d, 1), "customer_by_name", "name-%04d" % c,
            txn,
        )
        matches = [m for m in matches if m[0] == w and m[1] == d]
        customer = _require(
            matches[len(matches) // 2] if matches else None,
            f"customer named name-{c:04d} in {(w, d)}",
        )
        c = customer[2]
    else:
        _require(
            (yield from master.read("customer", (w, d, c), txn)),
            f"customer {(w, d, c)}",
        )
    district = _require(
        (yield from master.read("district", (w, d), txn)),
        f"district {(w, d)}",
    )
    next_o_id = district[9]
    # Adapted: walk back from the newest order until one is found.
    order = None
    for o_id in range(next_o_id - 1, max(next_o_id - 6, 0), -1):
        order = yield from master.read("orders", (w, d, o_id), txn)
        if order is not None:
            break
    lines = []
    if order is not None:
        lines = yield from master.read_range(
            "order_line", (w, d, order[2], 0), (w, d, order[2] + 1, 0),
            txn,
        )
    return {"kind": "order_status", "lines": len(lines)}


def delivery(ctx: TpccContext, txn: "Transaction"):
    """Delivery: consume the oldest undelivered order of one district."""
    master = ctx.cluster.master
    w = ctx.random_warehouse()
    d = ctx.random_district()

    pending = yield from master.read_range(
        "new_order", (w, d, 0), (w, d + 1, 0), txn, limit=1,
    )
    if not pending:
        return {"kind": "delivery", "delivered": 0}
    o_id = pending[0][2]
    yield from master.delete("new_order", (w, d, o_id), txn)
    order = yield from master.read("orders", (w, d, o_id), txn)
    if order is None:
        return {"kind": "delivery", "delivered": 0}
    carrier = ctx.rng.randint(1, 10)
    yield from master.update(
        "orders", (w, d, o_id),
        order[:5] + (carrier,) + order[6:],
        txn,
    )
    lines = yield from master.read_range(
        "order_line", (w, d, o_id, 0), (w, d, o_id + 1, 0),
        txn,
    )
    total = sum(line[8] for line in lines)
    c = order[3]
    customer = yield from master.read("customer", (w, d, c), txn)
    if customer is not None:
        new_customer = (
            customer[:15]
            + (customer[15] + total, customer[16], customer[17])
            + (customer[18] + 1,)
            + customer[19:]
        )
        yield from master.update("customer", (w, d, c), new_customer, txn)
    return {"kind": "delivery", "delivered": 1, "o_id": o_id}


def stock_level(ctx: TpccContext, txn: "Transaction"):
    """StockLevel: read-heavy scan over recent order lines + stock."""
    master = ctx.cluster.master
    w = ctx.random_warehouse()
    d = ctx.random_district()
    threshold = ctx.rng.randint(10, 20)

    district = _require(
        (yield from master.read("district", (w, d), txn)),
        f"district {(w, d)}",
    )
    next_o_id = district[9]
    lines = yield from master.read_range(
        "order_line",
        (w, d, max(next_o_id - 20, 0), 0), (w, d, next_o_id, 0),
        txn,
    )
    items = {line[4] for line in lines}
    low = 0
    for i in sorted(items):
        stock = yield from master.read("stock", (w, i), txn)
        if stock is not None and stock[2] < threshold:
            low += 1
    return {"kind": "stock_level", "low": low, "checked": len(items)}


TRANSACTIONS: dict[str, typing.Callable] = {
    "new_order": new_order,
    "payment": payment,
    "order_status": order_status,
    "delivery": delivery,
    "stock_level": stock_level,
}
