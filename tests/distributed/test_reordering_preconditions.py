"""The two preconditions of filter-before-encrypt, as enforcement sites.

A subject may decide a selection ahead of the Encrypt below it only when
(A) that Encrypt is its own — in the same fragment, not a table another
subject sealed and sent — and (B) no column of the predicate is visible
encrypted in the Encrypt's operand, both read off the extended plan and
its dispatch (``repro.core.plan.physical_step``).
Drop A and a provider evaluates an authority's sub-plan; drop B and a
subject opens a column it was sent sealed.  Each case here runs a query
whose plan has the shape one precondition exists for and reads, from
the run's node rows (``ExecutionTrace.nodes``), which subject evaluated
each node and what it sealed and opened, and from ``watched`` what the
executor was handed.
"""

import pytest

from repro.core.authorization import (
    Authorization,
    Policy,
    Subject,
    SubjectKind,
)
from repro.core.dispatch import dispatch
from repro.core.extension import minimally_extend
from repro.core.keys import establish_keys, schemes_for_extended_plan
from repro.core.operators import (
    Aggregate,
    AggregateFunction,
    BaseRelationNode,
    Encrypt,
    GroupBy,
    Selection,
)
from repro.core.plan import QueryPlan
from repro.core.predicates import (
    AttributeComparisonPredicate,
    AttributeValuePredicate,
    ComparisonOp,
    Conjunction,
)
from repro.core.schema import Relation, Schema
from repro.crypto.keymanager import DistributedKeys
from repro.distributed import build_runtime, enforcement
from repro.engine import EncryptedValue, Executor, Table

from test_envelope_batching import Query, tpch  # noqa: F401  (fixture)


@pytest.fixture
def watched(monkeypatch):
    """Plan node → the operand tables an executor was handed for it."""
    operands = {}
    execute_node = Executor.execute_node

    def node(self, node, children):
        operands[node] = children
        return execute_node(self, node, children)

    monkeypatch.setattr(Executor, "execute_node", node)
    return operands


def ran(trace, subject):
    """(node, values sealed, values opened) of every node ``subject``
    evaluated, in order."""
    return [(node, sealed, opened)
            for _, who, node, _, _, sealed, opened, _ in trace.nodes
            if who == subject]


def test_encrypt_received_from_another_subject_is_not_filtered_ahead_of(
        tpch, watched, monkeypatch):  # noqa: F811
    """A: in Q7, P1 selects ``n_name in (…)`` directly over A2's
    ``enc[n_name,n_nationkey]``.  That Encrypt is A2's fragment: P1 is
    handed its result and must never run what is below it.  Where A2
    does filter ahead of its own Encrypt, Def. 4.1 is still checked for
    both nodes."""
    query = Query(tpch, 7)
    (fragment,) = query.by_subject["P1"]
    (selection,) = [node for node in fragment.nodes
                    if isinstance(node, Selection)]
    sealed = selection.children[0]
    assert isinstance(sealed, Encrypt) and "n_name" in sealed.attributes
    assert id(sealed) in fragment.requests
    assert query.extended.assignee(sealed) == "A2"

    checked = []
    relation_authorized = enforcement.relation_authorized
    monkeypatch.setattr(
        enforcement, "relation_authorized",
        lambda view, profile: checked.append(profile)
        or relation_authorized(view, profile))
    _, trace = query.run(query.runtime())
    assert len(checked) == 1 + sum(  # the delivery, then every operator
        not isinstance(node, BaseRelationNode)
        for fragment in query.plan.fragments.values()
        for node in fragment.nodes)
    at_p1 = ran(trace, "P1")
    assert selection in [node for node, _, _ in at_p1]
    assert all(isinstance(cell, EncryptedValue)
               for cell in watched[selection][0].column_values("n_name"))
    assert not sum(sealed for _, sealed, _ in at_p1)
    assert not [node for node, _, _ in at_p1
                if isinstance(node, (Encrypt, BaseRelationNode))]
    # A2, whose Encrypt over lineitem it is, did filter first: it sealed
    # no l_shipdate at all (the next projection drops the column).
    lineitem = [watched[node][0] for node, _, _ in ran(trace, "A2")
                if isinstance(node, Selection)]
    assert lineitem and not any(
        isinstance(cell, EncryptedValue)
        for table in lineitem for cell in table.column_values("l_shipdate"))


def test_column_that_arrived_sealed_is_compared_sealed():
    """B: ``σ[a=b ∧ b>=1]`` at authority A under a provider that sees
    only ciphertext.  Def. 5.4(ii) seals ``b`` below the selection (it
    turns implicit there), and the comparison's other side is then made
    uniform by a second Encrypt, ``enc[a]``, directly under the
    selection.  ``enc[a]`` is A's own, but ``b`` reaches it sealed: the
    selection runs on the two columns' tokens, after ``enc[a]``, and
    nothing is opened."""
    schema = Schema()
    relation = schema.add(Relation("R", ["a", "b", "c"], cardinality=12))
    policy = Policy(schema)
    for subject in ("U", "A"):
        policy.grant(Authorization(relation, "abc", (), subject))
    policy.grant(Authorization(relation, (), "abc", "P"))
    leaf = BaseRelationNode(relation)
    selection = Selection(leaf, Conjunction([
        AttributeComparisonPredicate("a", ComparisonOp.EQ, "b"),
        AttributeValuePredicate("b", ComparisonOp.GE, 1)]))
    plan = QueryPlan(GroupBy(selection, ["c"], [
        Aggregate(AggregateFunction.COUNT, None, "n")]))
    owners = {"R": "A"}
    extended = minimally_extend(
        plan, policy, {selection: "A", plan.root: "P"}, owners=owners,
        deliver_to="U")
    (placed,) = [node for node in extended.plan.postorder()
                 if isinstance(node, Selection)]
    inner, outer = placed.children[0].children[0], placed.children[0]
    assert (outer.attributes, inner.attributes) == ({"a"}, {"b"})
    assert isinstance(inner.children[0], BaseRelationNode)
    assert {extended.assignee(node) for node in (placed, outer, inner)} \
        == {"A"}

    # Schemes chosen without §5 note 2, which would let A compare on
    # plaintext: the tokens must serve the comparison here.
    keys = establish_keys(extended, policy,
                          schemes=schemes_for_extended_plan(extended))
    table = Table("R", ("a", "b", "c"), [
        (n % 3, n % 2 + (n % 5 == 0), n // 3) for n in range(12)
    ] + [(None, 1, 9), (1, None, 9)])
    runtime = build_runtime(
        policy,
        [Subject("U", SubjectKind.USER), Subject("A", SubjectKind.AUTHORITY),
         Subject("P", SubjectKind.PROVIDER)],
        {"A": {"R": table}}, user="U")
    result, trace = runtime.run(
        dispatch(extended, keys, owners=owners, user="U"), extended, keys,
        DistributedKeys.from_assignment(keys))
    assert result.sorted_rows() \
        == Executor({"R": table}).execute(plan).sorted_rows() != []

    order = [node for node, _, _ in ran(trace, "A")]
    assert order[:4] == [inner.children[0], inner, outer, placed]
    assert not sum(opened for _, _, opened in ran(trace, "A"))
