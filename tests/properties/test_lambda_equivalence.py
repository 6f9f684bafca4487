"""Every assignment in Λ computes the query, not just the one ``assign``
picks (Theorem 5.3 with §6).

The running example's Λ (Definition 5.3) holds 300 assignments.  Each
one is minimally extended (so it passes ``verify_assignment``), keyed,
dispatched and run by the distributed runtime (so every node it
evaluates passes ``check_profile``), the delivery monitor judges every
table the run handed a subject, and stdlib ``sqlite3`` judges the
answer from the query's own SQL.  The soak switch runs all 300; tier-1
runs a seeded slice.  A test id is the assignment itself, one assignee
per operation in plan order, and a failure prints it as
``label → subject``: :func:`run_member` replays it from that alone.
"""

import random

import pytest

from repro.core.candidates import compute_candidates
from repro.core.dispatch import dispatch
from repro.core.extension import minimally_extend
from repro.core.keys import establish_keys
from repro.core.plan import QueryPlan
from repro.crypto.keymanager import DistributedKeys
from repro.distributed import build_runtime
from repro.paper_example import build_running_example

from helpers import draws
from oracles.delivery_monitor import violations
from oracles.sqlite_answer import answer_difference, sqlite_answer

#: The running example's query, its aggregate named as the plan names it.
SQL = ("select T, avg(P) as P from Hosp join Ins on S = C "
       "where D = 'stroke' group by T having avg(P) > 100")


def members() -> list[tuple[str, ...]]:
    """Λ as assignee tuples over the operations in plan order."""
    example = build_running_example()
    candidates = compute_candidates(
        example.plan, example.policy, example.subject_names)
    every = [()]
    for node in example.plan.operations():
        every = [chosen + (subject,) for chosen in every
                 for subject in sorted(candidates[node])]
    return every


LAMBDA = members()
DRAWN = random.Random(20170828).sample(LAMBDA, draws(len(LAMBDA), 20))


def run_member(labels: dict[str, str], tables) -> list:
    """Run the running example under ``labels`` (operation label →
    subject), judge every table it handed a subject with the delivery
    monitor, and return ``(columns, rows)`` of the user's answer."""
    example = build_running_example()
    assignment = {node: labels[node.label()]
                  for node in example.plan.operations()}
    extended = minimally_extend(example.plan, example.policy, assignment,
                                owners=example.owners)
    keys = establish_keys(extended, example.policy)
    plan = dispatch(extended, keys, owners=example.owners, user="U")
    runtime = build_runtime(
        example.policy, list(example.subjects),
        {"H": {"Hosp": tables["Hosp"]}, "I": {"Ins": tables["Ins"]}},
        user="U")
    result, trace = runtime.run(
        plan, extended, keys, DistributedKeys.from_assignment(keys))
    assert not violations(trace.deliveries, example.policy)
    return tuple(result.columns), list(result)


def test_lambda_holds_the_300_assignments():
    assert len(LAMBDA) == 300


@pytest.mark.parametrize("opportunistic", [True, False])
def test_every_member_is_extended_with_the_profiles_it_computes(
        opportunistic):
    """The profiles ``minimally_extend`` hands the extended plan (it
    derived them as it built each node) equal ``profiles()`` computed
    afresh, for all 300 members; without opportunistic decryption the
    harmonising Decrypt is built too."""
    example = build_running_example()
    operations = example.plan.operations()
    for member in LAMBDA:
        extended = minimally_extend(
            example.plan, example.policy, dict(zip(operations, member)),
            owners=example.owners, deliver_to="U",
            opportunistic_decryption=opportunistic)
        plan = extended.plan
        fresh = QueryPlan(plan.root, plan.columns).profiles()
        assert plan.profiles() == fresh, member


@pytest.mark.parametrize("member", DRAWN, ids="-".join)
def test_lambda_member_answers_like_sqlite(member, example_tables):
    operations = build_running_example().plan.operations()
    labels = {node.label(): subject
              for node, subject in zip(operations, member)}
    replay = ", ".join(f"{label} → {subject}"
                       for label, subject in labels.items())
    actual = run_member(labels, example_tables)
    difference = answer_difference(
        sqlite_answer(example_tables, SQL), actual)
    assert difference is None, f"{replay}: {difference}"
