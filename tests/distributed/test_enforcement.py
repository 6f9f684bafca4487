"""The run-time enforcement sites, each removed by at least one case here.

The paper's guarantee is enforced while a query runs by two checks
(:mod:`repro.distributed.enforcement`): Definition 4.1 on every relation
a subject produces, and the representation of every column a subject
receives.  These cases run TPC-H queries whose planned execution is
authorized and then break one thing the planner could not have seen —
a faulty authority, a rule narrowed after planning, a plan run under
another policy — so only the run-time check stands between the provider
and the data.  Remove ``check_values``, ``check_profile``, the per-node
call in ``_evaluate`` or the call in ``_receive_input`` and one of them
delivers a result instead of raising.

The last case is the one nobody is exempt from: a provider that takes
the reserved name of a stand-in (``authority:<relation>``) and is
assigned the whole running example must be refused by every layer on
its own.
"""

import types

import pytest

from repro.core.assignment import assign
from repro.core.authorization import Authorization, Subject, SubjectKind
from repro.core.dispatch import dispatch
from repro.core.extension import minimally_extend
from repro.core.keys import establish_keys
from repro.core.visibility import verify_assignment
from repro.cost.pricing import PriceList
from repro.crypto.keymanager import DistributedKeys
from repro.distributed import build_runtime
from repro.distributed import runtime as runtime_module
from repro.distributed.nodes import SubjectNode, build_nodes
from repro.distributed.runtime import DistributedRuntime
from repro.engine import executor as executor_module
from repro.exceptions import (
    AuthorizationError,
    KeyManagementError,
    UnauthorizedError,
)
from repro.tpch import TPCH_UDFS, all_scenarios

from test_envelope_batching import Query, tpch  # noqa: F401  (fixture)


def delivered_to(query, subject):
    """Attributes visible in any table ``subject`` is sent."""
    profiles = query.extended.plan.profiles()
    return frozenset().union(*(
        profiles[query.plan.fragment(child).root].visible
        for fragment in query.by_subject[subject]
        for child in fragment.requests.values()))


def test_plaintext_from_a_faulty_authority_is_refused_on_receipt(
        tpch, monkeypatch):  # noqa: F811
    """Value level, receive side: Q16's authorities encrypt what they
    ship to P1; one that ships in the clear must be stopped at P1's door,
    before P1 computes on it."""
    query = Query(tpch, 16)
    assert "P1" in query.by_subject
    monkeypatch.setattr(
        executor_module, "encrypt_column",
        lambda material, values, pool=None: list(values))
    with pytest.raises(
            UnauthorizedError,
            match=r"P1 received plaintext column \w+ "
                  r"without plaintext authorization"):
        query.run(query.runtime())


def test_implicit_attribute_narrowed_after_planning_is_refused(
        tpch):  # noqa: F811
    """Model level: in Q17 P1 joins two encrypted key columns and is
    never sent ``p_brand``, but the authority filtered on it, so what P1
    produces carries it implicitly (Def. 4.1 asks for encrypted
    visibility).  No received value can show that."""
    query = Query(tpch, 17)
    (fragment,) = query.by_subject["P1"]
    produced = query.extended.plan.profiles()[fragment.root]
    assert "p_brand" in produced.implicit_encrypted
    assert "p_brand" not in delivered_to(query, "P1")
    query.run(query.runtime())

    policy = query.scenario.policy
    rule = policy.revoke("part", "P1")
    policy.grant(Authorization(
        query.schema.relation("part"), rule.plaintext - {"p_brand"},
        rule.encrypted - {"p_brand"}, "P1"))
    with pytest.raises(UnauthorizedError, match="p_brand") as refused:
        query.run(query.runtime())
    assert refused.value.subject == "P1"


def test_plan_run_under_a_policy_without_provider_rules_is_refused(
        tpch):  # noqa: F811
    """Q16 dispatched for UAPenc, executed where providers hold no
    authorization at all: P1 may see nothing, in any representation."""
    query = Query(tpch, 16)
    stricter = all_scenarios(query.schema)["UA"]
    assert not [rule for rule in stricter.policy.rules()
                if rule.subject == "P1"]
    runtime = build_runtime(
        stricter.policy, list(query.scenario.subjects), query.tables,
        user=query.scenario.user, udfs=TPCH_UDFS, rsa_keys=query.rsa_keys)
    with pytest.raises(UnauthorizedError) as refused:
        query.run(runtime)
    assert refused.value.subject == "P1"


EVIL = "authority:evil"


def test_provider_named_like_a_stand_in_is_refused_by_every_layer(
        example, example_tables, monkeypatch):
    """``authority:evil`` is a provider like X: the policy's ``any``
    default gives it ``P=DT, E=P``, so it may not see S or C at all.  As
    a plain string the name slips past ``Subject``; it is then assigned
    every operation of the running example.  Each layer below must
    refuse on its own — an assertion per layer, the earlier ones stepped
    around, so none hides behind another."""
    with pytest.raises(AuthorizationError, match="reserved"):
        Subject(EVIL, SubjectKind.PROVIDER)
    impostor = types.SimpleNamespace(name=EVIL)
    with pytest.raises(AuthorizationError, match="reserved"):
        assign(example.plan, example.policy,
               [*example.subject_names, EVIL],
               PriceList.from_subjects(example.subjects), user="U",
               owners=example.owners)
    with pytest.raises(AuthorizationError, match="no runtime node"):
        build_nodes([*example.subjects, impostor], {})

    assignment = {node: EVIL for node in example.plan.operations()}
    with pytest.raises(UnauthorizedError, match="stands in for"):
        minimally_extend(example.plan, example.policy, assignment,
                         owners=example.owners, deliver_to="U")
    extended = minimally_extend(
        example.plan, example.policy, assignment, owners=example.owners,
        deliver_to="U", verify=False)
    with pytest.raises(UnauthorizedError) as refused:
        verify_assignment(extended.plan, example.policy,
                          extended.assignment)
    assert refused.value.subject == EVIL

    with pytest.raises(KeyManagementError, match=r"not for dec\[P\]"):
        establish_keys(extended, example.policy)

    keys = establish_keys(extended)
    plan = dispatch(extended, keys, owners=example.owners, user="U")
    nodes = build_nodes(list(example.subjects),
                        {"H": {"Hosp": example_tables["Hosp"]},
                         "I": {"Ins": example_tables["Ins"]}})
    nodes[EVIL] = SubjectNode.create(impostor)
    runtime = DistributedRuntime(example.policy, nodes, "U")

    def run():
        return runtime.run(plan, extended, keys,
                           DistributedKeys.from_assignment(keys))

    with pytest.raises(
            UnauthorizedError,
            match=f"{EVIL} received plaintext column [SC] "
                  "without plaintext authorization"):
        run()
    monkeypatch.setattr(runtime_module, "check_values",
                        lambda view, table: None)
    with pytest.raises(UnauthorizedError, match="condition 1") as refused:
        run()
    assert refused.value.subject == EVIL
    assert refused.value.violations
