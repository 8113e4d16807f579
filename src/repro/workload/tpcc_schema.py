"""TPC-C schema: the nine tables, composite keys leading with the
warehouse id so range partitioning by warehouse works uniformly.

Column widths are trimmed against the spec (we model byte sizes, not
payload semantics), but the relative row sizes and table cardinalities
follow TPC-C so access skew and storage ratios carry over.
"""

from __future__ import annotations

import dataclasses

from repro.storage.record import Column, Schema


@dataclasses.dataclass(frozen=True)
class TpccConfig:
    """Scaled-down TPC-C sizing (spec values in comments)."""

    warehouses: int = 2              # paper: 1,000
    districts_per_warehouse: int = 10
    customers_per_district: int = 30  # spec: 3,000
    items: int = 200                  # spec: 100,000
    orders_per_district: int = 30     # spec: 3,000
    order_lines_per_order: int = 5    # spec: 5-15 (avg 10)
    #: Fixed-width blob appended to customer and stock rows — the
    #: scaling device that gives the *hot* working set paper-scale
    #: bytes (SF-1000 customer/stock are tens of GB against 2 GB DRAM)
    #: without paper-scale row counts.  0 disables it.
    pad_blob_bytes: int = 0
    #: Maintain a customer last-name secondary index and let Payment
    #: look customers up by name (TPC-C spec: 60% of payments).
    index_customer_name: bool = False
    seed: int = 42

    def __post_init__(self):
        if self.warehouses < 1 or self.districts_per_warehouse < 1:
            raise ValueError("need at least one warehouse and district")
        if self.customers_per_district < 1 or self.items < 1:
            raise ValueError("need customers and items")
        if self.pad_blob_bytes < 0:
            raise ValueError("pad_blob_bytes must be >= 0")


def _schema(columns, key):
    return Schema(columns, key)


TPCC_TABLES: dict[str, Schema] = {
    "warehouse": _schema(
        [Column("w_id"), Column("w_name", "str", width=10),
         Column("w_street", "str", width=20), Column("w_city", "str", width=20),
         Column("w_state", "str", width=2), Column("w_zip", "str", width=9),
         Column("w_tax", "float"), Column("w_ytd", "float")],
        key=("w_id",),
    ),
    "district": _schema(
        [Column("d_w_id"), Column("d_id"),
         Column("d_name", "str", width=10), Column("d_street", "str", width=20),
         Column("d_city", "str", width=20), Column("d_state", "str", width=2),
         Column("d_zip", "str", width=9), Column("d_tax", "float"),
         Column("d_ytd", "float"), Column("d_next_o_id")],
        key=("d_w_id", "d_id"),
    ),
    "customer": _schema(
        [Column("c_w_id"), Column("c_d_id"), Column("c_id"),
         Column("c_first", "str", width=16), Column("c_middle", "str", width=2),
         Column("c_last", "str", width=16), Column("c_street", "str", width=20),
         Column("c_city", "str", width=20), Column("c_state", "str", width=2),
         Column("c_zip", "str", width=9), Column("c_phone", "str", width=16),
         Column("c_since", "str", width=10), Column("c_credit", "str", width=2),
         Column("c_credit_lim", "float"), Column("c_discount", "float"),
         Column("c_balance", "float"), Column("c_ytd_payment", "float"),
         Column("c_payment_cnt"), Column("c_delivery_cnt"),
         Column("c_data", "str", width=250)],  # spec: 500
        key=("c_w_id", "c_d_id", "c_id"),
    ),
    "history": _schema(
        [Column("h_w_id"), Column("h_id"),
         Column("h_c_w_id"), Column("h_c_d_id"), Column("h_c_id"),
         Column("h_d_id"), Column("h_date", "str", width=10),
         Column("h_amount", "float"), Column("h_data", "str", width=24)],
        key=("h_w_id", "h_id"),
    ),
    "new_order": _schema(
        [Column("no_w_id"), Column("no_d_id"), Column("no_o_id")],
        key=("no_w_id", "no_d_id", "no_o_id"),
    ),
    "orders": _schema(
        [Column("o_w_id"), Column("o_d_id"), Column("o_id"),
         Column("o_c_id"), Column("o_entry_d", "str", width=10),
         Column("o_carrier_id"), Column("o_ol_cnt"), Column("o_all_local")],
        key=("o_w_id", "o_d_id", "o_id"),
    ),
    "order_line": _schema(
        [Column("ol_w_id"), Column("ol_d_id"), Column("ol_o_id"),
         Column("ol_number"), Column("ol_i_id"), Column("ol_supply_w_id"),
         Column("ol_delivery_d", "str", width=10), Column("ol_quantity"),
         Column("ol_amount", "float"), Column("ol_dist_info", "str", width=24)],
        key=("ol_w_id", "ol_d_id", "ol_o_id", "ol_number"),
    ),
    "item": _schema(
        [Column("i_id"), Column("i_im_id"), Column("i_name", "str", width=24),
         Column("i_price", "float"), Column("i_data", "str", width=50)],
        key=("i_id",),
    ),
    "stock": _schema(
        [Column("s_w_id"), Column("s_i_id"), Column("s_quantity"),
         Column("s_dist_01", "str", width=24), Column("s_ytd"),
         Column("s_order_cnt"), Column("s_remote_cnt"),
         Column("s_data", "str", width=50)],
        key=("s_w_id", "s_i_id"),
    ),
}

#: Tables partitioned by warehouse (everything except the item catalog).
WAREHOUSE_PARTITIONED = [t for t in TPCC_TABLES if t != "item"]

#: Tables that receive the optional pad blob (the hot, big ones).
PADDED_TABLES = ("customer", "stock")


def tables_for(config: TpccConfig) -> dict[str, Schema]:
    """The nine schemas, with the pad blob applied per ``config``."""
    if config.pad_blob_bytes <= 0:
        return dict(TPCC_TABLES)
    out = dict(TPCC_TABLES)
    for name in PADDED_TABLES:
        base = TPCC_TABLES[name]
        out[name] = Schema(
            list(base.columns) + [
                Column("pad", "blob", width=config.pad_blob_bytes)
            ],
            key=base.key,
        )
    return out
