"""Deterministic mini TPC-H data generator for the SQL engines.

Generates laptop-sized tables that follow the TPC-H schema and key
relationships (foreign keys join correctly), so the examples can run Fig. 1
style queries end to end.  Sizes are controlled by ``scale``: the defaults
give a database of a few thousand rows.
"""

from __future__ import annotations

import random

from .batch import ColumnTable
from .semantics import Database, Row

NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]
REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_COLORS = ["green", "blue", "red", "ivory", "azure", "plum", "khaki", "puff"]
_TYPES = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
_SEGMENTS = ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"]
_MODES = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]


def _date(rng: random.Random, start_year: int = 1992, end_year: int = 1998) -> str:
    year = rng.randint(start_year, end_year)
    month = rng.randint(1, 12)
    day = rng.randint(1, 28)
    return f"{year:04d}-{month:02d}-{day:02d}"


def generate_database(
    scale: float = 1.0,
    seed: int = 7,
    suppliers: int = 20,
    parts: int = 80,
    customers: int = 60,
    orders: int = 300,
    max_lines_per_order: int = 4,
    layout: str = "rows",
) -> Database:
    """Build an in-memory mini TPC-H database with valid foreign keys.

    ``layout="rows"`` (the default) stores each table as a list of row
    dicts; ``layout="columnar"`` stores :class:`~repro.sql.batch.ColumnTable`
    objects — the same logical data, already encoded as typed arrays, so
    the columnar engine scans with zero per-row transposition.  Both
    layouts work with both engines (a ColumnTable iterates as row dicts).
    """
    if layout not in ("rows", "columnar"):
        raise ValueError(f"layout must be 'rows' or 'columnar', got {layout!r}")
    rng = random.Random(seed)
    n_suppliers = max(1, int(suppliers * scale))
    n_parts = max(1, int(parts * scale))
    n_customers = max(1, int(customers * scale))
    n_orders = max(1, int(orders * scale))

    database: Database = {}
    database["region"] = [
        {"r_regionkey": i, "r_name": name, "r_comment": ""}
        for i, name in enumerate(REGIONS)
    ]
    database["nation"] = [
        {"n_nationkey": i, "n_name": name, "n_regionkey": region, "n_comment": ""}
        for i, (name, region) in enumerate(NATIONS)
    ]
    database["supplier"] = [
        {
            "s_suppkey": i,
            "s_name": f"Supplier#{i:06d}",
            "s_address": f"addr-{i}",
            "s_nationkey": rng.randrange(len(NATIONS)),
            "s_phone": f"{rng.randint(10, 34)}-{rng.randint(100, 999)}",
            "s_acctbal": round(rng.uniform(-999.0, 9999.0), 2),
            "s_comment": "",
        }
        for i in range(n_suppliers)
    ]
    database["part"] = [
        {
            "p_partkey": i,
            "p_name": f"{rng.choice(_COLORS)} {rng.choice(_COLORS)} part{i}",
            "p_mfgr": f"Manufacturer#{rng.randint(1, 5)}",
            "p_brand": f"Brand#{rng.randint(11, 55)}",
            "p_type": f"{rng.choice(_TYPES)} BRUSHED",
            "p_size": rng.randint(1, 50),
            "p_container": "SM BOX",
            "p_retailprice": round(900 + i / 10 + rng.uniform(0, 100), 2),
            "p_comment": "",
        }
        for i in range(n_parts)
    ]
    partsupp: list[Row] = []
    for part in database["part"]:
        for supplier_offset in range(min(4, n_suppliers)):
            suppkey = (part["p_partkey"] + supplier_offset * 7) % n_suppliers
            partsupp.append(
                {
                    "ps_partkey": part["p_partkey"],
                    "ps_suppkey": suppkey,
                    "ps_availqty": rng.randint(1, 9999),
                    "ps_supplycost": round(rng.uniform(1.0, 1000.0), 2),
                    "ps_comment": "",
                }
            )
    database["partsupp"] = partsupp
    database["customer"] = [
        {
            "c_custkey": i,
            "c_name": f"Customer#{i:06d}",
            "c_address": f"caddr-{i}",
            "c_nationkey": rng.randrange(len(NATIONS)),
            "c_phone": f"{rng.randint(10, 34)}-{rng.randint(100, 999)}",
            "c_acctbal": round(rng.uniform(-999.0, 9999.0), 2),
            "c_mktsegment": rng.choice(_SEGMENTS),
            "c_comment": "",
        }
        for i in range(n_customers)
    ]
    orders_rows: list[Row] = []
    lineitem_rows: list[Row] = []
    ps_index: dict[int, list[Row]] = {}
    for entry in partsupp:
        ps_index.setdefault(entry["ps_partkey"], []).append(entry)
    for okey in range(n_orders):
        order = {
            "o_orderkey": okey,
            "o_custkey": rng.randrange(n_customers),
            "o_orderstatus": rng.choice(["F", "O", "P"]),
            "o_totalprice": 0.0,
            "o_orderdate": _date(rng),
            "o_orderpriority": rng.choice(_PRIORITIES),
            "o_clerk": f"Clerk#{rng.randint(1, 50):06d}",
            "o_shippriority": 0,
            "o_comment": "",
        }
        total = 0.0
        for line in range(1, rng.randint(1, max_lines_per_order) + 1):
            partkey = rng.randrange(n_parts)
            supplier_entry = rng.choice(ps_index[partkey])
            quantity = float(rng.randint(1, 50))
            extended = round(quantity * (900 + partkey / 10), 2)
            total += extended
            lineitem_rows.append(
                {
                    "l_orderkey": okey,
                    "l_partkey": partkey,
                    "l_suppkey": supplier_entry["ps_suppkey"],
                    "l_linenumber": line,
                    "l_quantity": quantity,
                    "l_extendedprice": extended,
                    "l_discount": round(rng.uniform(0.0, 0.1), 2),
                    "l_tax": round(rng.uniform(0.0, 0.08), 2),
                    "l_returnflag": rng.choice(["A", "N", "R"]),
                    "l_linestatus": rng.choice(["O", "F"]),
                    "l_shipdate": _date(rng),
                    "l_commitdate": _date(rng),
                    "l_receiptdate": _date(rng),
                    "l_shipinstruct": "NONE",
                    "l_shipmode": rng.choice(_MODES),
                    "l_comment": "",
                }
            )
        order["o_totalprice"] = round(total, 2)
        orders_rows.append(order)
    database["orders"] = orders_rows
    database["lineitem"] = lineitem_rows
    if layout == "columnar":
        return {
            name: ColumnTable.from_rows(rows) for name, rows in database.items()
        }
    return database
