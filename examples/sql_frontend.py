#!/usr/bin/env python3
"""The Fig. 1 path: a Swift-language (SQL-like) job, end to end.

Shows both halves of the front end:

* the *planning* path — SQL text -> AST -> logical plan -> Swift job DAG ->
  graphlet partitioning -> simulated execution at cloud scale; and
* the *answer* path — the same query executed on the columnar engine over
  a generated mini TPC-H database, so you can see actual results.
"""

from repro import Cluster, Job, SwiftRuntime, swift_policy
from repro.core import partition_job
from repro.sql import (
    FIG1_QUERY,
    compile_sql,
    explain,
    generate_database,
    parse,
    plan_statement,
    run_sql,
)


def main() -> None:
    print("=== The paper's Fig. 1 job (TPC-H Q9 in Swift language) ===")
    print(FIG1_QUERY.strip()[:300] + " ...")

    print("\n=== Logical plan ===")
    statement = parse(FIG1_QUERY)
    logical = plan_statement(statement)
    print(explain(logical))

    print("\n=== Physical plan: the Swift job DAG ===")
    dag = compile_sql(FIG1_QUERY, scale_factor=1000, job_id="tpch_q9_sql")
    for stage in dag:
        operators = " -> ".join(str(op) for op in stage.operators)
        print(f"  {stage.name:<4} x{stage.task_count:<4} [{operators}]")
    print(f"  edges: {[(e.src, e.dst) for e in dag.edges]}")

    print("\n=== Graphlets (shuffle-mode-aware partitioning) ===")
    graph = partition_job(dag)
    for graphlet in graph.graphlets:
        print(f"  graphlet {graphlet.graphlet_id}: {graphlet.stage_names}")

    print("\n=== Simulated execution on a 100-node cluster ===")
    runtime = SwiftRuntime(Cluster.build(100, 32), swift_policy())
    result = runtime.execute(Job(dag=dag))
    print(f"  run time: {result.metrics.run_time:.1f}s with "
          f"{len(result.metrics.tasks)} tasks")
    print(f"  shuffle schemes: {result.metrics.shuffle_schemes}")

    print("\n=== Answers on a mini TPC-H database ===")
    database = generate_database()
    rows = run_sql(FIG1_QUERY, database).rows
    print(f"  {len(rows)} (nation, year) groups; top 5 by profit:")
    for row in sorted(rows, key=lambda r: -r["sum_profit"])[:5]:
        print(f"    {row['nation']:<16} {row['o_year']}  "
              f"profit={row['sum_profit']:12.2f}")


if __name__ == "__main__":
    main()
