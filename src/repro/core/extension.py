"""Minimally extended authorized query plans (Definition 5.4).

Given a query plan and an assignment ``λ`` of operations to candidate
subjects, this module injects encryption and decryption operations so that
``λ`` becomes an *authorized* assignment (Definition 4.2) while encrypting
a minimal set of attributes (Theorem 5.3):

* **decryption before an operation** — attributes the operation needs in
  plaintext (``Ap``) that arrive encrypted are decrypted
  (Def. 5.4(i));
* **encryption after an operation** — attributes are encrypted when the
  parent operation's assignee may only see them encrypted
  (``E_So ∩ Rvp``), or when the parent turns them implicit and some
  ancestor's assignee may only see them encrypted (the ``A`` term of
  Def. 5.4(ii)), which prevents plaintext traces that would invalidate
  later assignments.

Encryption/decryption operations are assigned to the same subject as the
node they complement; encryption at the sources is performed by the data
authority owning the base relation (§5, Figure 7).

Beyond the letter of Definition 5.4, :func:`minimally_extend` harmonises
comparison operands that arrive in mixed representations (one side
encrypted by an earlier step, the other plaintext): the encrypted side is
decrypted when the assignee is authorized for its plaintext (adding no
encrypted attributes, hence preserving minimality).  Uniform visibility
guarantees this is always possible for assignments drawn from Λ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.authorization import Policy, SubjectView, holder_of
from repro.core.lineage import plan_view
from repro.core.operators import BaseRelationNode, Decrypt, Encrypt, PlanNode
from repro.core.plan import QueryPlan
from repro.core.profile import RelationProfile
from repro.core.requirements import infer_plaintext_requirements
from repro.core.visibility import verify_assignment
from repro.exceptions import PlanError, UnauthorizedError


@dataclass
class ExtendedPlan:
    """A minimally extended authorized query plan and its metadata.

    Attributes
    ----------
    plan:
        The extended plan (original operators plus Encrypt/Decrypt nodes).
    original:
        The input plan.
    assignment:
        Subject name for every non-leaf node of the extended plan.
    encrypted_attributes:
        All attributes appearing in some encryption operation (the ``Ak``
        set of Definition 6.1).
    source_encryption:
        Relation name → attributes encrypted at the source (by the owning
        data authority, as in Figure 7 where I encrypts C and P of Ins).
    """

    plan: QueryPlan
    original: QueryPlan
    assignment: dict[PlanNode, str]
    encrypted_attributes: frozenset[str]
    source_encryption: dict[str, frozenset[str]] = field(default_factory=dict)

    def assignee(self, node: PlanNode) -> str:
        """Assignee of an extended-plan node.

        Plan nodes hash by identity, so this is a live O(1) lookup in
        the public ``assignment`` dict.
        """
        subject = self.assignment.get(node)
        if subject is None:
            raise PlanError(f"node {node!r} has no assignee")
        return subject

    def encryption_operations(self) -> tuple[Encrypt, ...]:
        """All encryption nodes, in post-order."""
        return tuple(
            n for n in self.plan.postorder() if isinstance(n, Encrypt)
        )

    def decryption_operations(self) -> tuple[Decrypt, ...]:
        """All decryption nodes, in post-order."""
        return tuple(
            n for n in self.plan.postorder() if isinstance(n, Decrypt)
        )

    def describe(self) -> str:
        """Tree rendering with assignees and profiles (Figure 7 style)."""
        profiles = self.plan.profiles()
        annotations = {}
        for node in self.plan.nodes():
            subject = self.assignment.get(node)
            tag = profiles[node].describe()
            annotations[node] = f"@{subject}  {tag}" if subject else tag
        return self.plan.pretty(annotations)


def minimally_extend(
    plan: QueryPlan,
    policy: Policy,
    assignment: Mapping[PlanNode, str],
    owners: Mapping[str, str] | None = None,
    deliver_to: str | None = None,
    verify: bool = True,
    opportunistic_decryption: bool = True,
) -> ExtendedPlan:
    """Build the minimally extended authorized plan for ``assignment``.

    Parameters
    ----------
    plan:
        The original query plan (must not already contain Encrypt/Decrypt
        nodes).
    policy:
        Authorization policy, used for the subjects' ``E_S`` sets.
    assignment:
        ``λ``: subject name for every operation of ``plan``; must be drawn
        from the candidate sets Λ for the result to verify.
    owners:
        Relation name → data-authority subject performing encryption at
        the source.  A relation without an entry has its source
        encryption assigned to its stand-in
        (:func:`~repro.core.authorization.holder_of`).
    deliver_to:
        When given, a final decryption of all visible encrypted attributes
        is appended for delivery to this subject (the querying user).
    verify:
        Re-check Definition 4.2 on the extended plan (Theorem 5.3(i)).
    opportunistic_decryption:
        §6 combines assignment and extension: when an operation's
        assignee is authorized for the plaintext of an attribute it
        computes on, decrypt it and evaluate in the clear rather than on
        ciphertext — avoiding Paillier/OPE where a cheap randomized
        scheme suffices.  Trace-protected attributes (the Def. 5.4(ii)
        ``A`` term) are never decrypted.  Adds decryption operations
        only — the encrypted attribute set of Theorem 5.3(ii) is
        untouched.  Disable to get the letter of Definition 5.4.

    Returns
    -------
    ExtendedPlan
        The extended plan with assignees for every operation, including
        the injected encryption/decryption steps.
    """
    for node in plan.postorder():
        if isinstance(node, (Encrypt, Decrypt)):
            raise PlanError(
                "minimally_extend expects a plan without crypto operations"
            )
    views: dict[str, SubjectView] = {}

    def subject_view(subject: str) -> SubjectView:
        view = views.get(subject)
        if view is None:
            view = views[subject] = plan_view(policy, subject, plan)
        return view

    requirements = infer_plaintext_requirements(plan)

    def lam(node: PlanNode) -> str:
        subject = assignment.get(node)
        if subject is None:
            raise PlanError(f"assignment does not cover node {node.label()}")
        return subject

    def plaintext_needed(node: PlanNode) -> frozenset[str]:
        return requirements.get(node, frozenset())

    # Union of E_Sx over the strict ancestors of each node (the ``A`` term
    # of Definition 5.4(ii) ranges over the assignees above the node).
    ancestor_encrypted: dict[PlanNode, frozenset[str]] = {
        plan.root: frozenset()}
    for node in reversed(plan.nodes()):  # reverse post-order = parents first
        if node.is_leaf:
            continue
        inherited = (ancestor_encrypted[node]
                     | subject_view(lam(node)).encrypted)
        for child in node.children:
            ancestor_encrypted[child] = inherited

    extended: dict[PlanNode, PlanNode] = {}
    #: Every node built → its Figure 2 profile, handed to the plan.
    profiles: dict[PlanNode, RelationProfile] = {}
    new_assignment: dict[PlanNode, str] = {}
    encrypted_attributes: set[str] = set()
    source_encryption: dict[str, frozenset[str]] = {}

    for node in plan.postorder():
        if node.is_leaf:
            built: PlanNode = node.with_children(())
            profile = profiles[built] = built.output_profile()
            subject = None
        else:
            subject = lam(node)
            needed = plaintext_needed(node)
            protected = (node.implicit_introduced()
                         & ancestor_encrypted[node])
            if opportunistic_decryption:
                view = subject_view(subject)
                decryptable = {
                    attribute
                    for attribute in node.operand_attributes()
                    if attribute in view.plaintext
                    and attribute not in protected
                }
                needed = needed | decryptable
            operands: list[PlanNode] = []
            operand_profiles: list[RelationProfile] = []
            for child in node.children:
                child_built = extended[child]
                child_profile = profiles[child_built]
                to_decrypt = needed & child_profile.visible_encrypted
                if to_decrypt:
                    child_built = Decrypt(child_built, to_decrypt)
                    child_profile = profiles[child_built] = \
                        child_profile.decrypt(to_decrypt)
                    new_assignment[child_built] = subject
                operands.append(child_built)
                operand_profiles.append(child_profile)

            operands, operand_profiles = _harmonise_forms(
                node, operands, operand_profiles, subject_view(subject),
                subject, new_assignment, encrypted_attributes, profiles,
                protected,
            )
            built = node.with_children(operands)
            profile = profiles[built] = node.output_profile(*operand_profiles)
            new_assignment[built] = subject

        parent = plan.parent(node)
        if parent is not None:
            parent_subject = lam(parent)
            encrypted_only = subject_view(parent_subject).encrypted
            implicit_at_parent = (
                parent.implicit_introduced() & profile.visible_plaintext
            )
            trace_term = implicit_at_parent & ancestor_encrypted[node]
            conflict = trace_term & plaintext_needed(parent)
            if conflict:
                raise UnauthorizedError(
                    f"attributes {sorted(conflict)} must stay plaintext for "
                    f"{parent.label()} but an ancestor assignee may only see "
                    f"them encrypted; the assignment is not in Λ"
                )
            to_encrypt = (encrypted_only & profile.visible_plaintext) | trace_term
            if to_encrypt:
                built = Encrypt(built, to_encrypt)
                profile = profiles[built] = profile.encrypt(to_encrypt)
                encrypted_attributes |= to_encrypt
                if node.is_leaf:
                    assert isinstance(node, BaseRelationNode)
                    relation_name = node.relation.name
                    new_assignment[built] = holder_of(relation_name, owners)
                    source_encryption[relation_name] = frozenset(to_encrypt)
                else:
                    new_assignment[built] = subject
        elif deliver_to is not None and profile.visible_encrypted:
            built = Decrypt(built, profile.visible_encrypted)
            profiles[built] = profile.decrypt(profile.visible_encrypted)
            new_assignment[built] = deliver_to

        extended[node] = built

    result = ExtendedPlan(
        plan=QueryPlan(extended[plan.root], plan.columns, profiles),
        original=plan,
        assignment=new_assignment,
        encrypted_attributes=frozenset(encrypted_attributes),
        source_encryption=source_encryption,
    )
    if verify:
        verify_assignment(result.plan, policy, result.assignment)
    return result


def _harmonise_forms(
    node: PlanNode,
    operands: list[PlanNode],
    operand_profiles: list[RelationProfile],
    view,
    subject: str,
    new_assignment: dict[PlanNode, str],
    encrypted_attributes: set[str],
    profiles: dict[PlanNode, RelationProfile],
    protected: frozenset[str] = frozenset(),
) -> tuple[list[PlanNode], list[RelationProfile]]:
    """Make the operation's uniform groups representation-uniform.

    Each of ``node.uniform_groups()`` (comparison sides, udf inputs) must
    be seen all plaintext or all encrypted (§3.2).  When earlier steps
    left a mix, decrypt the encrypted side if the assignee is authorized
    for its plaintext (no new encrypted attributes → minimality
    preserved); otherwise encrypt the plaintext side.  Attributes in ``protected`` were
    encrypted for the Definition 5.4(ii) trace term — this operation is
    about to turn them implicit and some ancestor may only see them
    encrypted — so they must never be decrypted here: their comparison
    partners are encrypted instead.  With opportunistic decryption an
    encrypted side the assignee may read, and not protected, was already
    decrypted as an operand, so only its ablation reaches the decrypt.
    Each node added is entered in ``profiles`` with its profile.
    """
    groups = node.uniform_groups()
    if not groups:
        return operands, operand_profiles

    decrypt_per_operand: list[set[str]] = [set() for _ in operands]
    encrypt_per_operand: list[set[str]] = [set() for _ in operands]

    def locate(attribute: str) -> int:
        for index, profile in enumerate(operand_profiles):
            if attribute in profile.visible:
                return index
        raise PlanError(f"attribute {attribute!r} not visible in any operand")

    combined_plain: set[str] = set()
    combined_encrypted: set[str] = set()
    for profile in operand_profiles:
        combined_plain |= profile.visible_plaintext
        combined_encrypted |= profile.visible_encrypted
    # Account for decryptions/encryptions planned in this very pass, and
    # iterate to a fixpoint: encrypting one comparison's operand can make
    # another comparison of the same conjunction mixed.
    locally_pinned: set[str] = set()
    changed = True
    while changed:
        changed = False
        for group in groups:
            plain = group & combined_plain
            encrypted = group & combined_encrypted
            if not plain or not encrypted:
                continue
            may_decrypt = (not encrypted & protected
                           and not encrypted & locally_pinned
                           and all(a in view.plaintext for a in encrypted))
            if may_decrypt:
                for attribute in encrypted:
                    decrypt_per_operand[locate(attribute)].add(attribute)
                    encrypt_per_operand[locate(attribute)].discard(attribute)
                    combined_plain.add(attribute)
                    combined_encrypted.discard(attribute)
            else:
                for attribute in plain:
                    encrypt_per_operand[locate(attribute)].add(attribute)
                    decrypt_per_operand[locate(attribute)].discard(attribute)
                    combined_encrypted.add(attribute)
                    combined_plain.discard(attribute)
                    locally_pinned.add(attribute)
            changed = True
            break
    # Drop no-ops introduced while searching for the fixpoint.
    for index, profile in enumerate(operand_profiles):
        decrypt_per_operand[index] &= set(profile.visible_encrypted)
        encrypt_per_operand[index] &= set(profile.visible_plaintext)

    for index in range(len(operands)):
        if decrypt_per_operand[index]:
            operands[index] = Decrypt(operands[index], decrypt_per_operand[index])
            operand_profiles[index] = profiles[operands[index]] = \
                operand_profiles[index].decrypt(decrypt_per_operand[index])
            new_assignment[operands[index]] = subject
        if encrypt_per_operand[index]:
            operands[index] = Encrypt(operands[index], encrypt_per_operand[index])
            operand_profiles[index] = profiles[operands[index]] = \
                operand_profiles[index].encrypt(encrypt_per_operand[index])
            encrypted_attributes |= encrypt_per_operand[index]
            new_assignment[operands[index]] = subject
    return operands, operand_profiles
