"""The three authorization scenarios of §7.

The 8 TPC-H tables are split between two data authorities (A1: part,
supplier, partsupp, nation, region; A2: customer, orders, lineitem), and
queries are issued by user U with three cloud providers P1, P2, P3
available:

* **UA** — authorizations permit access to the base relations only to the
  querying user (each authority keeps plaintext access to its own data);
* **UAPenc** — additionally, providers may access *all* attributes of all
  relations in encrypted form;
* **UAPmix** — as UAPenc, but providers get plaintext visibility on half
  of each relation's attributes (the first half, deterministically) and
  encrypted visibility on the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.authorization import (
    Authorization,
    Policy,
    Subject,
    SubjectKind,
)
from repro.core.schema import Schema
from repro.exceptions import AuthorizationError
from repro.tpch.schema import AUTHORITY_TABLES, table_owners

#: Scenario identifiers, in presentation order (Figures 9–10).
SCENARIOS = ("UA", "UAPenc", "UAPmix")

USER = "U"
AUTHORITIES = ("A1", "A2")
PROVIDERS = ("P1", "P2", "P3")


@dataclass(frozen=True)
class Scenario:
    """A named authorization scenario, ready for the pipeline."""

    name: str
    policy: Policy
    subjects: tuple[Subject, ...]
    user: str
    owners: dict[str, str]

    @property
    def subject_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.subjects)


def build_subjects() -> tuple[Subject, ...]:
    """U, the two authorities, and the three providers."""
    subjects = [Subject(USER, SubjectKind.USER)]
    subjects += [Subject(a, SubjectKind.AUTHORITY) for a in AUTHORITIES]
    subjects += [Subject(p, SubjectKind.PROVIDER) for p in PROVIDERS]
    return tuple(subjects)


def scenario(name: str, schema: Schema,
             mix_split: str = "prefix") -> Scenario:
    """Build one of the §7 scenarios over a TPC-H schema.

    ``mix_split`` selects which half of each relation's attributes the
    UAPmix scenario opens to providers in plaintext: ``"prefix"`` (the
    leading half — keys and names, which keeps visibility *uniform*
    across join pairs) or ``"alternating"`` (every other attribute).
    The alternating split scatters plaintext across join equivalences and
    triggers Definition 4.1's condition 3 — non-uniform visibility — so
    providers lose eligibility for most joins: a built-in ablation of the
    uniform-visibility rule (``python -m repro ablate-mix``).

    Examples
    --------
    >>> from repro.tpch.schema import build_tpch_schema
    >>> s = scenario("UAPenc", build_tpch_schema())
    >>> sorted(s.policy.view("P1").encrypted) == \
        sorted(build_tpch_schema().all_attributes())
    True
    """
    if name not in SCENARIOS:
        raise AuthorizationError(
            f"unknown scenario {name!r}; choose from {SCENARIOS}"
        )
    if mix_split not in ("prefix", "alternating"):
        raise AuthorizationError(
            f"unknown mix_split {mix_split!r}"
        )
    policy = Policy(schema)
    owners = table_owners()

    for authority, tables in AUTHORITY_TABLES.items():
        for table in tables:
            relation = schema.relation(table)
            attributes = relation.attribute_names
            # The user can access every relation in plaintext (it issues
            # the queries); the owning authority keeps its own data.
            policy.grant(Authorization(relation, attributes, (), USER))
            policy.grant(Authorization(relation, attributes, (), authority))
            if name == "UA":
                continue
            for provider in PROVIDERS:
                if name == "UAPenc":
                    policy.grant(Authorization(
                        relation, (), attributes, provider
                    ))
                else:  # UAPmix
                    # "half of the attributes that were previously only
                    # accessible in encrypted form" become plaintext; the
                    # paper does not fix which half.
                    if mix_split == "prefix":
                        half = (len(attributes) + 1) // 2
                        plaintext = attributes[:half]
                        encrypted = attributes[half:]
                    else:
                        plaintext = attributes[0::2]
                        encrypted = attributes[1::2]
                    policy.grant(Authorization(
                        relation, plaintext, encrypted, provider
                    ))

    return Scenario(
        name=name,
        policy=policy,
        subjects=build_subjects(),
        user=USER,
        owners=owners,
    )


def all_scenarios(schema: Schema,
                  mix_split: str = "prefix") -> dict[str, Scenario]:
    """All three scenarios over one schema."""
    return {name: scenario(name, schema, mix_split) for name in SCENARIOS}
