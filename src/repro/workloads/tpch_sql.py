"""TPC-H query texts in the Swift SQL dialect.

A representative subset of TPC-H, written in the language of the paper's
Fig. 1, that both the physical planner (SQL -> job DAG) and the row-level
executor can handle end to end.  Queries are lightly adapted to the
dialect: no correlated subqueries (Q2/Q17-style inner queries are
flattened or omitted), date arithmetic replaced with string prefixes.

``TPCH_SQL`` maps query number -> SQL text; ``runnable_queries()`` lists
them in order.
"""

from __future__ import annotations

TPCH_SQL: dict[int, str] = {
    1: """
        select l_returnflag, l_linestatus,
            sum(l_quantity) as sum_qty,
            sum(l_extendedprice) as sum_base_price,
            sum(l_extendedprice * (1 - l_discount)) as sum_disc_price,
            sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge,
            avg(l_quantity) as avg_qty,
            avg(l_extendedprice) as avg_price,
            avg(l_discount) as avg_disc,
            count(*) as count_order
        from tpch_lineitem
        where l_shipdate <= '1998-09-02'
        group by l_returnflag, l_linestatus
        order by l_returnflag, l_linestatus;
    """,
    3: """
        select l_orderkey,
            sum(l_extendedprice * (1 - l_discount)) as revenue,
            o_orderdate, o_shippriority
        from tpch_customer c
        join tpch_orders o on c.c_custkey = o.o_custkey
        join tpch_lineitem l on l.l_orderkey = o.o_orderkey
        where c_mktsegment = 'BUILDING'
            and o_orderdate < '1995-03-15'
            and l_shipdate > '1995-03-15'
        group by l_orderkey, o_orderdate, o_shippriority
        order by revenue desc, o_orderdate
        limit 10;
    """,
    5: """
        select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
        from tpch_customer c
        join tpch_orders o on c.c_custkey = o.o_custkey
        join tpch_lineitem l on l.l_orderkey = o.o_orderkey
        join tpch_supplier s on l.l_suppkey = s.s_suppkey
        join tpch_nation n on s.s_nationkey = n.n_nationkey
        join tpch_region r on n.n_regionkey = r.r_regionkey
        where r_name = 'ASIA'
            and o_orderdate >= '1994-01-01' and o_orderdate < '1995-01-01'
        group by n_name
        order by revenue desc;
    """,
    6: """
        select sum(l_extendedprice * l_discount) as revenue
        from tpch_lineitem
        where l_shipdate >= '1994-01-01' and l_shipdate < '1995-01-01'
            and l_discount between 0.05 and 0.07
            and l_quantity < 24;
    """,
    9: """
        select nation, o_year, sum(amount) as sum_profit
        from (
            select n_name as nation, substr(o_orderdate, 1, 4) as o_year,
                l_extendedprice * (1 - l_discount)
                    - ps_supplycost * l_quantity as amount
            from tpch_supplier s
            join tpch_lineitem l on s.s_suppkey = l.l_suppkey
            join tpch_partsupp ps on ps.ps_suppkey = l.l_suppkey
                and ps.ps_partkey = l.l_partkey
            join tpch_part p on p.p_partkey = l.l_partkey
            join tpch_orders o on o.o_orderkey = l.l_orderkey
            join tpch_nation n on s.s_nationkey = n.n_nationkey
            where p_name like '%green%'
        )
        group by nation, o_year
        order by nation, o_year desc
        limit 999999;
    """,
    10: """
        select c_custkey, c_name,
            sum(l_extendedprice * (1 - l_discount)) as revenue,
            c_acctbal, n_name
        from tpch_customer c
        join tpch_orders o on c.c_custkey = o.o_custkey
        join tpch_lineitem l on l.l_orderkey = o.o_orderkey
        join tpch_nation n on c.c_nationkey = n.n_nationkey
        where o_orderdate >= '1993-10-01' and o_orderdate < '1994-10-01'
            and l_returnflag = 'R'
        group by c_custkey, c_name, c_acctbal, n_name
        order by revenue desc
        limit 20;
    """,
    12: """
        select l_shipmode,
            sum(case when o_orderpriority = '1-URGENT'
                    or o_orderpriority = '2-HIGH'
                then 1 else 0 end) as high_line_count,
            sum(case when o_orderpriority <> '1-URGENT'
                    and o_orderpriority <> '2-HIGH'
                then 1 else 0 end) as low_line_count
        from tpch_orders o
        join tpch_lineitem l on o.o_orderkey = l.l_orderkey
        where l_shipmode in ('MAIL', 'SHIP', 'AIR')
            and l_receiptdate >= '1994-01-01' and l_receiptdate < '1995-01-01'
        group by l_shipmode
        order by l_shipmode;
    """,
    13: """
        select c_count, count(*) as custdist
        from (
            select c.c_custkey as c_custkey, count(o_orderkey) as c_count
            from tpch_customer c
            left join tpch_orders o on c.c_custkey = o.o_custkey
            group by c.c_custkey
        )
        group by c_count
        order by custdist desc, c_count desc;
    """,
    14: """
        select 100.00 * sum(case when p_type like 'PROMO%'
                then l_extendedprice * (1 - l_discount) else 0 end)
            / sum(l_extendedprice * (1 - l_discount)) as promo_revenue
        from tpch_lineitem l
        join tpch_part p on l.l_partkey = p.p_partkey
        where l_shipdate >= '1995-09-01' and l_shipdate < '1995-10-01';
    """,
    19: """
        select sum(l_extendedprice * (1 - l_discount)) as revenue
        from tpch_lineitem l
        join tpch_part p on p.p_partkey = l.l_partkey
        where p_size between 1 and 15
            and l_shipmode in ('AIR', 'RAIL')
            and l_quantity >= 1 and l_quantity <= 30;
    """,
}


def runnable_queries() -> tuple[int, ...]:
    """Query numbers with a Swift-dialect text available."""
    return tuple(sorted(TPCH_SQL))


def query_sql(query: int) -> str:
    """The Swift-dialect SQL text for ``query``."""
    if query not in TPCH_SQL:
        raise KeyError(
            f"no Swift-dialect text for Q{query}; available: {runnable_queries()}"
        )
    return TPCH_SQL[query]


def run_tpch_query(query: int, database, engine: str = "columnar", **kwargs):
    """Execute TPC-H ``query`` over ``database``.

    ``engine`` is ``"columnar"`` (default) or ``"row"``, the reference
    executor; extra keyword arguments (``batch_size``, ``tracer``,
    ``metrics``) pass through to :func:`repro.sql.dispatch.run_query`.
    """
    from ..sql.dispatch import run_query

    return run_query(query_sql(query), database, engine=engine, **kwargs)
