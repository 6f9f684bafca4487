"""The authorization model of Section 2.

Each data authority independently specifies, for each of its relations,
rules of the form ``[P, E] → S`` (Definition 2.1): subject ``S`` may see
attributes ``P`` in plaintext and attributes ``E`` encrypted.  The policy
is *closed*: anything not explicitly granted is not visible.  A rule for
the pseudo-subject :data:`ANY` acts as the default for subjects without an
explicit rule on that relation.

:class:`Policy` aggregates the rules of all authorities and computes, for
any subject, the *overall view* ``P_S`` / ``E_S`` used throughout Sections
4–6 (see Figure 4 of the paper).
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.core.schema import Relation, Schema
from repro.exceptions import AuthorizationError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.attrsets import MaskView

#: Pseudo-subject matching every subject without an explicit authorization.
ANY = "any"

#: Reserved name prefix of the *stand-in* for a relation nobody owns: the
#: placeholder that holds the leaf and seals it at the source when
#: ``owners`` has no entry for the relation.  It has no policy view, no
#: keys and no runtime node, so it exists at plan time only, where it may
#: run exactly one thing (:func:`repro.core.visibility.is_source_encryption`),
#: and no real subject may take a name that starts with the prefix.
STAND_IN_PREFIX = "authority:"


def holder_of(relation_name: str, owners: Mapping[str, str] | None) -> str:
    """Who holds ``relation_name``: its owner, else its stand-in.

    >>> holder_of("Hosp", {"Hosp": "H"}), holder_of("Ins", {"Hosp": "H"})
    ('H', 'authority:Ins')
    """
    return (owners or {}).get(relation_name, STAND_IN_PREFIX + relation_name)


def stands_in_for(subject_name: str) -> str | None:
    """The relation ``subject_name`` stands in for; ``None`` if it is real.

    >>> stands_in_for("authority:Ins"), stands_in_for("H")
    ('Ins', None)
    """
    if subject_name.startswith(STAND_IN_PREFIX):
        return subject_name[len(STAND_IN_PREFIX):]
    return None


class SubjectKind(enum.Enum):
    """The three subject roles of the paper's scenario (§1)."""

    USER = "user"
    AUTHORITY = "authority"
    PROVIDER = "provider"


@dataclass(frozen=True)
class Subject:
    """A user, data authority, or cloud provider.

    Examples
    --------
    >>> Subject("X", SubjectKind.PROVIDER).name
    'X'
    """

    name: str
    kind: SubjectKind = SubjectKind.PROVIDER

    def __post_init__(self) -> None:
        if not self.name:
            raise AuthorizationError("subject name must be non-empty")
        if self.name == ANY:
            raise AuthorizationError(
                "'any' is reserved for the default authorization subject"
            )
        if stands_in_for(self.name) is not None:
            raise AuthorizationError(
                f"subject name {self.name!r} is reserved for the stand-in "
                "of a relation nobody owns"
            )

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Authorization:
    """A rule ``[P, E] → S`` over one relation (Definition 2.1).

    ``subject`` is a subject name, or :data:`ANY` for the default rule.
    ``P`` and ``E`` must be disjoint subsets of the relation's attributes.
    """

    relation: str
    plaintext: frozenset[str]
    encrypted: frozenset[str]
    subject: str

    def __init__(self, relation: str | Relation,
                 plaintext: Iterable[str],
                 encrypted: Iterable[str],
                 subject: str | Subject) -> None:
        relation_name = relation.name if isinstance(relation, Relation) else relation
        subject_name = subject.name if isinstance(subject, Subject) else subject
        p = frozenset(plaintext)
        e = frozenset(encrypted)
        if p & e:
            raise AuthorizationError(
                f"P and E must be disjoint; overlap: {sorted(p & e)}"
            )
        if isinstance(relation, Relation):
            unknown = (p | e) - relation.attribute_set
            if unknown:
                raise AuthorizationError(
                    f"authorization over {relation_name} references unknown "
                    f"attributes {sorted(unknown)}"
                )
        object.__setattr__(self, "relation", relation_name)
        object.__setattr__(self, "plaintext", p)
        object.__setattr__(self, "encrypted", e)
        object.__setattr__(self, "subject", subject_name)

    def describe(self) -> str:
        """Render in the paper's ``[P,E]→S`` notation."""
        p = "".join(sorted(self.plaintext))
        e = "".join(sorted(self.encrypted))
        return f"[{p},{e}]→{self.subject}"

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class SubjectView:
    """The overall view ``P_S`` / ``E_S`` of a subject (§4, Figure 4).

    ``plaintext`` collects every attribute the subject may access in
    plaintext across all relations; ``encrypted`` collects the attributes
    accessible only in encrypted form.  Plaintext visibility subsumes
    encrypted visibility (Def. 4.1, condition 2), which is why
    :meth:`can_view_encrypted` also checks ``plaintext``.
    """

    subject: str
    plaintext: frozenset[str] = frozenset()
    encrypted: frozenset[str] = frozenset()

    def can_view_plaintext(self, attribute: str) -> bool:
        """Whether the subject may see ``attribute`` in plaintext."""
        return attribute in self.plaintext

    def can_view_encrypted(self, attribute: str) -> bool:
        """Whether the subject may see ``attribute`` at least encrypted."""
        return attribute in self.plaintext or attribute in self.encrypted

    def masks(self, universe) -> "MaskView":
        """Bitmask fast path: ``P_S`` / ``E_S`` interned into ``universe``.

        ``universe`` is an
        :class:`~repro.core.attrsets.AttributeUniverse`; the conversion
        is memoised there, so repeated calls are dictionary lookups.
        """
        return universe.view_masks(self)

    def describe(self) -> str:
        """Render as in Figure 4, e.g. ``P_X=DT  E_X=SCP``."""
        p = "".join(sorted(self.plaintext)) or "-"
        e = "".join(sorted(self.encrypted)) or "-"
        return f"P_{self.subject}={p}  E_{self.subject}={e}"


@dataclass(frozen=True)
class PolicyDelta:
    """One journalled policy mutation and what it may have changed.

    ``version`` is the policy version *after* the mutation applied.
    ``touched`` over-approximates the attribute names whose visibility
    may have changed for the affected subjects: the mutated rule's own
    ``P ∪ E``, plus — because an explicit rule shadows the relation's
    :data:`ANY` default — the attributes of the default rule the grant
    displaced or the revocation restored.

    The affected subjects are ``{subject}`` for an explicit rule, and
    *unknown* (every subject without an explicit rule on the relation,
    including subjects named only in the future) for an :data:`ANY`
    mutation; :meth:`touches` is correspondingly conservative.
    """

    version: int
    kind: str  # "grant" | "revoke"
    relation: str
    subject: str
    touched: frozenset[str]

    @property
    def any_subject(self) -> bool:
        """Whether the mutation hit the :data:`ANY` default rule."""
        return self.subject == ANY

    def touches(self, subjects: "frozenset[str] | set[str]",
                attributes: frozenset[str] | None = None) -> bool:
        """Whether this delta may change how ``subjects`` see ``attributes``.

        ``attributes=None`` means "any attribute" (subject-granularity
        callers).  Must stay conservative: a ``False`` is a promise that
        every view in ``subjects``, restricted to ``attributes``, is
        bit-identical across the mutation.
        """
        if not self.any_subject and self.subject not in subjects:
            return False
        if attributes is None:
            return True
        return bool(self.touched & attributes)


#: Default bound on the per-policy delta journal.  Old deltas beyond it
#: are dropped; caches that fell further behind must flush instead of
#: reconciling (``deltas_since`` returns ``None``).
DEFAULT_JOURNAL_LIMIT = 512


@dataclass
class Policy:
    """All authorization rules in force, indexed by relation and subject.

    At most one rule per (relation, subject) pair is allowed, as the paper
    assumes ("for each relation, a subject can hold at most one
    authorization").  The rule for :data:`ANY` applies to every subject
    with no explicit rule on that relation (closed policy otherwise).

    The policy carries a monotone :attr:`version` counter, bumped by
    every effective :meth:`grant` and :meth:`revoke`, plus a bounded
    **delta journal** of :class:`PolicyDelta` records.  Caches keyed on
    the version (notably :class:`repro.core.plancache.AssignmentCache`
    and the runtime caches of
    :class:`repro.distributed.runtime.DistributedRuntime`) call
    :meth:`deltas_since` to decide *surgically* which entries a policy
    change actually affects instead of flushing wholesale.  No-op
    mutations — granting a rule identical to the one in force, or
    revoking a rule that does not exist — are version- and
    journal-neutral.

    :meth:`view` memoises each subject's view until the next effective
    mutation.  :meth:`grant`, :meth:`revoke` and the memo's
    compute-and-store hold one re-entrant lock, so a view read
    concurrently with a mutation is the view from before or after it,
    and never a pre-mutation view once the mutation has returned.
    """

    schema: Schema | None = None
    _rules: dict[str, dict[str, Authorization]] = field(default_factory=dict)
    _version: int = 0
    journal_limit: int = DEFAULT_JOURNAL_LIMIT
    _journal: list[PolicyDelta] = field(default_factory=list)
    _views: dict[str, SubjectView] = field(
        default_factory=dict, repr=False, compare=False)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False)

    @property
    def version(self) -> int:
        """Monotone change counter (grants and revocations bump it)."""
        return self._version

    def _record_delta(self, kind: str, relation: str, subject: str,
                      touched: frozenset[str]) -> None:
        """Bump the version, drop the view memo, journal one mutation."""
        self._views.clear()
        self._version += 1
        self._journal.append(PolicyDelta(
            version=self._version, kind=kind, relation=relation,
            subject=subject, touched=touched,
        ))
        while len(self._journal) > max(0, self.journal_limit):
            self._journal.pop(0)

    def deltas_since(self, version: int) -> tuple[PolicyDelta, ...] | None:
        """The journalled deltas after ``version``, oldest first.

        Returns ``()`` when ``version`` is current, and ``None`` when the
        journal no longer reaches back to ``version`` (or ``version`` is
        from the future) — the caller must then treat *everything* as
        potentially changed and flush.
        """
        if version == self._version:
            return ()
        if version > self._version or \
                version < self._version - len(self._journal):
            return None
        return tuple(d for d in self._journal if d.version > version)

    def grant(self, authorization: Authorization) -> Authorization:
        """Register one rule; rejects conflicting duplicates for the pair.

        Granting a rule *identical* to the one already in force is a
        no-op: the existing rule is returned and neither the version nor
        the journal moves (downstream caches stay warm).
        """
        if self.schema is not None and authorization.relation not in self.schema:
            raise AuthorizationError(
                f"authorization references unknown relation "
                f"{authorization.relation!r}"
            )
        if self.schema is not None:
            relation = self.schema.relation(authorization.relation)
            unknown = (
                authorization.plaintext | authorization.encrypted
            ) - relation.attribute_set
            if unknown:
                raise AuthorizationError(
                    f"authorization over {authorization.relation} references "
                    f"unknown attributes {sorted(unknown)}"
                )
        with self._lock:
            per_relation = self._rules.setdefault(authorization.relation, {})
            existing = per_relation.get(authorization.subject)
            if existing is not None:
                if existing == authorization:
                    return existing
                raise AuthorizationError(
                    f"duplicate authorization for subject "
                    f"{authorization.subject} on relation "
                    f"{authorization.relation}"
                )
            # An explicit grant shadows the relation's ANY default for
            # this subject, so the displaced default's attributes may
            # *lose* visibility — they belong in the delta's touched set.
            displaced: frozenset[str] = frozenset()
            if authorization.subject != ANY:
                default = per_relation.get(ANY)
                if default is not None:
                    displaced = default.plaintext | default.encrypted
            per_relation[authorization.subject] = authorization
            self._record_delta(
                "grant", authorization.relation, authorization.subject,
                authorization.plaintext | authorization.encrypted | displaced,
            )
            return authorization

    def grant_all(self, authorizations: Iterable[Authorization]) -> None:
        """Register many rules at once."""
        for authorization in authorizations:
            self.grant(authorization)

    def revoke(self, relation: str | Relation,
               subject: str | Subject) -> Authorization | None:
        """Remove and return the rule for (relation, subject).

        Returns ``None`` — version- and journal-neutrally — when no
        explicit rule exists for the pair (the :data:`ANY` default must
        be revoked as subject :data:`ANY` explicitly).  Bumps
        :attr:`version` otherwise.
        """
        relation_name = relation.name if isinstance(relation, Relation) \
            else relation
        subject_name = subject.name if isinstance(subject, Subject) \
            else subject
        with self._lock:
            per_relation = self._rules.get(relation_name)
            if per_relation is None or subject_name not in per_relation:
                return None
            rule = per_relation.pop(subject_name)
            # Revoking an explicit rule un-shadows the ANY default: the
            # subject may *gain* the default's attributes.
            restored: frozenset[str] = frozenset()
            if subject_name != ANY:
                default = per_relation.get(ANY)
                if default is not None:
                    restored = default.plaintext | default.encrypted
            if not per_relation:
                del self._rules[relation_name]
            self._record_delta(
                "revoke", relation_name, subject_name,
                rule.plaintext | rule.encrypted | restored,
            )
            return rule

    def rule_for(self, relation: str, subject: str | Subject) -> Authorization | None:
        """The rule applying to ``subject`` on ``relation``.

        Falls back to the relation's :data:`ANY` rule; returns ``None``
        when the closed policy denies everything.
        """
        subject_name = subject.name if isinstance(subject, Subject) else subject
        per_relation = self._rules.get(relation, {})
        explicit = per_relation.get(subject_name)
        if explicit is not None:
            return explicit
        return per_relation.get(ANY)

    def view(self, subject: str | Subject) -> SubjectView:
        """The overall view ``P_S`` / ``E_S`` of ``subject`` (Figure 4).

        Memoised until the next effective grant or revoke.
        """
        subject_name = subject.name if isinstance(subject, Subject) else subject
        view = self._views.get(subject_name)
        if view is not None:
            return view
        with self._lock:
            plaintext: set[str] = set()
            encrypted: set[str] = set()
            for relation in self._rules:
                rule = self.rule_for(relation, subject_name)
                if rule is not None:
                    plaintext |= rule.plaintext
                    encrypted |= rule.encrypted
            # Plaintext subsumes encrypted: normalise so they are disjoint.
            encrypted -= plaintext
            view = SubjectView(
                subject=subject_name,
                plaintext=frozenset(plaintext),
                encrypted=frozenset(encrypted),
            )
            self._views[subject_name] = view
            return view

    def relations(self) -> frozenset[str]:
        """Relations with at least one rule."""
        return frozenset(self._rules)

    def subjects(self) -> frozenset[str]:
        """Subjects explicitly named in some rule (excluding ``any``)."""
        names: set[str] = set()
        for per_relation in self._rules.values():
            names |= set(per_relation) - {ANY}
        return frozenset(names)

    def rules(self) -> Iterator[Authorization]:
        """Iterate over every registered rule."""
        for per_relation in self._rules.values():
            yield from per_relation.values()
