"""The two preconditions of filter-before-encrypt, as enforcement sites.

A subject may decide a selection ahead of the Encrypt below it only when
(A) that Encrypt is its own — evaluated in the same fragment, not a
table another subject sealed and sent — and (B) every column of the
predicate is plaintext in what the Encrypt is about to seal
(``repro.engine.executor.physical_step`` / ``Executor.execute_step``).
Drop A and a provider evaluates an authority's sub-plan; drop B and a
subject opens a column it was sent sealed.  Each case here runs a query
whose plan has the shape one precondition exists for and watches what
the evaluating subject's executor is handed and what it calls.
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
from repro.core.keys import establish_keys
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
from repro.distributed import runtime as runtime_module
from repro.engine import EncryptedValue, Executor, Table
from repro.engine import executor as executor_module

from test_envelope_batching import Query, tpch  # noqa: F401  (fixture)


@pytest.fixture
def watched(monkeypatch):
    """(subject, what) of every operator a subject's executor runs —
    ``what`` is the node and its operand tables — and of every column
    call it makes, ``what`` being the values."""
    seen = []
    subject = [None]  # outside any fragment: the test's own executor
    run_fragment = runtime_module.DistributedRuntime._execute_with_retries

    def as_subject(self, context, fragment, *rest):
        subject.append(fragment.subject)
        try:
            return run_fragment(self, context, fragment, *rest)
        finally:
            subject.pop()

    monkeypatch.setattr(runtime_module.DistributedRuntime,
                        "_execute_with_retries", as_subject)
    execute_node = Executor.execute_node

    def node(self, node, children):
        seen.append((subject[-1], "node", (node, children)))
        return execute_node(self, node, children)

    monkeypatch.setattr(Executor, "execute_node", node)
    for name in ("encrypt_column", "decrypt_column"):
        def column(material, values, pool=None, _name=name,
                   _raw=getattr(executor_module, name)):
            seen.append((subject[-1], _name, values))
            return _raw(material, values, pool=pool)

        monkeypatch.setattr(executor_module, name, column)
    return seen


def ran(seen, subject, kind):
    return [what for who, label, what in seen
            if who == subject and label == kind]


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
    check_relation = enforcement.check_relation
    monkeypatch.setattr(
        enforcement, "check_relation",
        lambda view, profile: checked.append(view.subject)
        or check_relation(view, profile))
    query.run(query.runtime())
    assert len(checked) == 1 + sum(  # the delivery, then every operator
        not isinstance(node, BaseRelationNode)
        for fragment in query.plan.fragments.values()
        for node in fragment.nodes)
    (operands,) = [children for node, children in ran(watched, "P1", "node")
                   if node is selection]
    assert all(isinstance(cell, EncryptedValue)
               for cell in operands[0].column_values("n_name"))
    assert not ran(watched, "P1", "encrypt_column")
    assert not [node for node, _ in ran(watched, "P1", "node")
                if isinstance(node, (Encrypt, BaseRelationNode))]
    # A2, whose Encrypt over lineitem it is, did filter first: it sealed
    # no l_shipdate at all (the next projection drops the column).
    lineitem = [children[0] for node, children in ran(watched, "A2", "node")
                if isinstance(node, Selection)]
    assert lineitem and not any(
        isinstance(cell, EncryptedValue)
        for table in lineitem for cell in table.column_values("l_shipdate"))


def test_column_that_arrived_sealed_is_compared_sealed(watched):
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

    keys = establish_keys(extended, policy)
    table = Table("R", ("a", "b", "c"), [
        (n % 3, n % 2 + (n % 5 == 0), n // 3) for n in range(12)
    ] + [(None, 1, 9), (1, None, 9)])
    runtime = build_runtime(
        policy,
        [Subject("U", SubjectKind.USER), Subject("A", SubjectKind.AUTHORITY),
         Subject("P", SubjectKind.PROVIDER)],
        {"A": {"R": table}}, user="U")
    result, _ = runtime.run(
        dispatch(extended, keys, owners=owners, user="U"), extended, keys,
        DistributedKeys.from_assignment(keys))
    assert result.sorted_rows() \
        == Executor({"R": table}).execute(plan).sorted_rows() != []

    order = [node for node, _ in ran(watched, "A", "node")]
    assert order[:4] == [inner.children[0], inner, outer, placed]
    assert not ran(watched, "A", "decrypt_column")
