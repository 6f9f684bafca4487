"""Command-line interface: regenerate the paper's artifacts.

Usage::

    python -m repro example              # Figures 3–8 (running example)
    python -m repro fig9 [--scale 0.1]   # per-query economics
    python -m repro fig10 [--scale 0.1]  # cumulative economics + savings
    python -m repro dispatch             # the Figure 8 dispatch table
    python -m repro ablate-mix           # uniform-visibility ablation
    python -m repro workload [--repeat 3] [--workers 4]
                    [--deadline-ms 500] [--cost-ceiling 0.01]
                                         # multi-user service session demo
    python -m repro metrics [--tenants 3] [--repeat 2]
                    [--deadline-ms 500] [--cost-ceiling 0.01]
                                         # gateway demo + Prometheus scrape

Every knob is validated at parse time: a bad value exits with status 2
and a one-line message naming the valid range, never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.experiments.ablation import mix_split_ablation
from repro.experiments.economics import run_economics
from repro.experiments.running_example import run_running_example

#: Upper bound for ``metrics --tenants``: the demo gateway is a smoke
#: scrape, not a load test.
MAX_TENANTS = 64


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0 (0 = inline execution), "
            f"got {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not value > 0.0:
        raise argparse.ArgumentTypeError(
            f"expected a number > 0, got {text!r}")
    return value


def _tenant_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= MAX_TENANTS:
        raise argparse.ArgumentTypeError(
            f"expected an integer in 1..{MAX_TENANTS}, got {text!r}")
    return value


def _deadline_ms(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not value > 0.0:
        raise argparse.ArgumentTypeError(
            f"expected a deadline in milliseconds > 0, got {text!r}")
    return value


def _cost_ceiling(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not value > 0.0:
        raise argparse.ArgumentTypeError(
            f"expected a cost ceiling in USD > 0, got {text!r}")
    return value


def _query_list(text: str) -> tuple[int, ...] | None:
    if not text.strip():
        return None
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated query numbers (e.g. 3,5,10), "
            f"got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'An Authorization Model for "
                    "Multi-Provider Queries' (VLDB).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "example", help="regenerate Figures 3-8 (the running example)")

    fig9 = commands.add_parser(
        "fig9", help="per-query TPC-H economics (Figure 9)")
    fig9.add_argument("--scale", type=_positive_float, default=0.1,
                      help="TPC-H scale factor for the estimates (> 0)")
    fig9.add_argument("--queries", type=_query_list, default=None,
                      help="comma-separated query numbers (default: all)")

    fig10 = commands.add_parser(
        "fig10", help="cumulative TPC-H economics (Figure 10)")
    fig10.add_argument("--scale", type=_positive_float, default=0.1)

    commands.add_parser(
        "dispatch", help="print the Figure 8 dispatch table")

    ablate = commands.add_parser(
        "ablate-mix",
        help="UAPmix attribute-split ablation (uniform visibility)")
    ablate.add_argument("--scale", type=_positive_float, default=0.1)
    ablate.add_argument("--queries", type=_query_list,
                        default=(3, 5, 10, 18))

    workload = commands.add_parser(
        "workload",
        help="run a multi-user SQL workload through the service layer")
    workload.add_argument("--repeat", type=_positive_int, default=3,
                          help="times each user repeats each query (>= 1)")
    workload.add_argument("--workers", type=_nonnegative_int, default=0,
                          help="data-plane worker processes "
                               "(0 = inline single-core execution)")
    workload.add_argument("--deadline-ms", type=_deadline_ms,
                          default=None,
                          help="per-query wall-clock deadline in "
                               "milliseconds (> 0; default: none)")
    workload.add_argument("--cost-ceiling", type=_cost_ceiling,
                          default=None,
                          help="per-query §7 cost ceiling in USD "
                               "(> 0; default: none)")

    metrics = commands.add_parser(
        "metrics",
        help="run a short gateway workload and dump a Prometheus scrape")
    metrics.add_argument("--tenants", type=_tenant_count, default=3,
                         help=f"tenants sharing the gateway "
                              f"(1..{MAX_TENANTS})")
    metrics.add_argument("--repeat", type=_positive_int, default=2,
                         help="queries per tenant (>= 1)")
    metrics.add_argument("--deadline-ms", type=_deadline_ms,
                         default=None,
                         help="per-query wall-clock deadline in "
                              "milliseconds (> 0; default: none)")
    metrics.add_argument("--cost-ceiling", type=_cost_ceiling,
                         default=None,
                         help="per-query §7 cost ceiling in USD "
                              "(> 0; default: none)")

    return parser


#: The paper's running-example query, shared by the demo commands.
DEMO_SQL = ("select T, avg(P) from Hosp join Ins on S=C "
            "where D='stroke' group by T having avg(P)>100")


def _demo_service(workers: int = 0):
    """The running example's service over a small concrete dataset."""
    from repro.engine.table import Table
    from repro.paper_example import build_running_example
    from repro.service import QueryService

    example = build_running_example()
    hosp = Table("Hosp", ("S", "B", "D", "T"), [
        ("s1", 1980, "stroke", "tpa"),
        ("s2", 1975, "stroke", "tpa"),
        ("s3", 1990, "flu", "rest"),
        ("s4", 1960, "stroke", "surgery"),
        ("s5", 1955, "stroke", "surgery"),
    ])
    ins = Table("Ins", ("C", "P"), [
        ("s1", 150.0), ("s2", 90.0), ("s3", 200.0),
        ("s4", 60.0), ("s5", 50.0),
    ])
    return QueryService(
        example.schema, example.policy, example.subjects,
        example.owners, {"H": {"Hosp": hosp}, "I": {"Ins": ins}},
        user="U", workers=workers,
    )


def _budget_from_flags(deadline_ms: float | None,
                       cost_ceiling: float | None):
    """The ``QueryBudget`` the CLI flags describe, or ``None``."""
    from repro.core.budget import QueryBudget

    if deadline_ms is None and cost_ceiling is None:
        return None
    return QueryBudget(
        deadline_seconds=None if deadline_ms is None
        else deadline_ms / 1000.0,
        cost_ceiling_usd=cost_ceiling)


def run_workload(repeat: int, workers: int = 0,
                 deadline_ms: float | None = None,
                 cost_ceiling: float | None = None) -> str:
    """A small multi-user workload over the running example's service.

    Users U and Y repeat the paper's query (Y is entitled to the
    plaintext result: its view covers T and P); X is refused — the
    assignment pipeline blocks users the policy does not authorize for
    the result, before anything executes.  ``workers`` sizes the data
    plane; ``deadline_ms``/``cost_ceiling`` bound each query with a
    :class:`~repro.core.budget.QueryBudget`.  An invalid worker count
    exits with a clear message.
    """
    from repro.exceptions import QueryAbortedError, UnauthorizedError
    from repro.parallel import shared_pool

    try:
        shared_pool(workers)
    except ValueError as error:
        print(f"workload: {error}", file=sys.stderr)
        raise SystemExit(2) from None
    budget = _budget_from_flags(deadline_ms, cost_ceiling)
    repeat = max(1, repeat)
    service = _demo_service(workers)
    sql = DEMO_SQL
    lines = [f"query: {sql}", ""]
    for user in ("U", "Y", "X"):
        session = service.session(user)
        try:
            for _ in range(repeat):
                outcome = session.run(sql, budget=budget)
            lines.append(f"  {outcome.describe()}")
            lines.append(f"  {session.describe()}")
        except UnauthorizedError as error:
            lines.append(f"  {user}: DENIED — {error}")
        except QueryAbortedError as error:
            lines.append(f"  {user}: ABORTED — {error}")
        lines.append("")
    lines.append(service.describe())
    return "\n".join(lines)


def run_metrics(tenants: int = 3, repeat: int = 2,
                deadline_ms: float | None = None,
                cost_ceiling: float | None = None) -> str:
    """Drive a demo gateway and return the Prometheus scrape.

    ``tenants`` weighted tenants (weights cycling 1..3, users
    alternating U and Y) each run the paper's query ``repeat`` times
    through a shared :class:`~repro.gateway.Gateway`; the return value
    is the registry's text exposition — admission counters, queue
    depths, fragment latencies, breaker states, cache hit rates, and
    (when ``deadline_ms``/``cost_ceiling`` budget the queries) the
    deadline/shed counters and budget-remaining histogram.  Queries the
    budget aborts or the predictor sheds are reported in the scrape,
    not raised.
    """
    from repro.exceptions import QueryAbortedError, SheddedError
    from repro.gateway import Gateway, TenantConfig

    budget = _budget_from_flags(deadline_ms, cost_ceiling)
    service = _demo_service()
    configs = [
        TenantConfig(f"tenant-{index}", weight=(index % 3) + 1,
                     user="U" if index % 2 == 0 else "Y")
        for index in range(tenants)
    ]
    gateway = Gateway(service, configs, max_inflight=2)
    try:
        for _ in range(max(1, repeat)):
            for config in configs:
                try:
                    gateway.execute(config.name, DEMO_SQL,
                                    budget=budget)
                except (QueryAbortedError, SheddedError):
                    continue  # counted in the scrape below
        return gateway.metrics_text()
    finally:
        gateway.close()


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = build_parser().parse_args(argv)

    if arguments.command == "example":
        print(run_running_example().describe())
    elif arguments.command == "fig9":
        results = run_economics(
            scale=arguments.scale,
            queries=arguments.queries,
        )
        print(results.figure9_table())
    elif arguments.command == "fig10":
        results = run_economics(scale=arguments.scale)
        print(results.figure10_table())
    elif arguments.command == "dispatch":
        print(run_running_example().figure8.describe())
    elif arguments.command == "ablate-mix":
        queries = arguments.queries or (3, 5, 10, 18)
        totals = mix_split_ablation(queries, scale=arguments.scale)
        print(f"prefix split:      ${totals['prefix']:.6f}")
        print(f"alternating split: ${totals['alternating']:.6f}")
        penalty = totals["alternating"] / totals["prefix"]
        print(f"uniform-visibility penalty: {penalty:.2f}x")
    elif arguments.command == "workload":
        print(run_workload(arguments.repeat, arguments.workers,
                           arguments.deadline_ms, arguments.cost_ceiling))
    elif arguments.command == "metrics":
        print(run_metrics(arguments.tenants, arguments.repeat,
                          arguments.deadline_ms, arguments.cost_ceiling))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
