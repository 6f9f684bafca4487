"""Decomposed edge-cost tables of the §6 search: pure value → cost.

For one plan edge (child output handed to the parent's subject) the
pairwise cost the DP minimises factors into a receiver part, a sender
part and a coupling correction (:class:`_EdgeTable`), so scoring a
(sender, receiver) pair is a table lookup plus three multiply-adds.

Contract: a table is a function of values only — the child's estimate,
the parent's operand/``Ap`` attributes, the scheme map and the mode — and
holds no plan node and no policy object, so :class:`EdgeTableCache` can
share it between queries.  Everything policy- or price-dependent sits in
the per-receiver rows, and :meth:`_EdgeTable.receiver` re-checks on every
lookup the ``(plain mask, enc mask, cpu rate)`` a row was built from:
that identity check is the one mechanism keeping a cached table from
serving a row of an older policy (no journal walk here;
:mod:`repro.core.cache` holds the only one).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.attrsets import AttributeUniverse
from repro.core.cache import LRU
from repro.core.requirements import EncryptionScheme
from repro.cost.estimator import NodeEstimate
from repro.cost.factors import (
    DECRYPT_SECONDS_PER_VALUE,
    ENCRYPT_SECONDS_PER_VALUE,
    encrypted_width,
)


class _ReceiverEntry:
    """Per-(edge, receiver) precomputation of the decomposed edge cost.

    ``identity`` records the (plain mask, enc mask, cpu rate) the entry
    was built from; :meth:`_EdgeTable.receiver` rebuilds the entry when
    the subject's current masks no longer match, which makes cached
    tables safe across policy and price changes by construction.
    """

    __slots__ = ("needs_mask", "enc_w", "delta_w", "total_enc_seconds",
                 "vol_needs_bytes", "dec_base_seconds", "cpu_rate",
                 "identity", "memo")

    def __init__(self, needs_mask: int, enc_w: dict[int, float],
                 delta_w: dict[int, float], total_enc_seconds: float,
                 vol_needs_bytes: float, dec_base_seconds: float,
                 cpu_rate: float,
                 identity: tuple[int, int, float]) -> None:
        self.needs_mask = needs_mask
        self.enc_w = enc_w
        self.delta_w = delta_w
        self.total_enc_seconds = total_enc_seconds
        self.vol_needs_bytes = vol_needs_bytes
        self.dec_base_seconds = dec_base_seconds
        self.cpu_rate = cpu_rate
        self.identity = identity
        #: sender-encrypted-mask → (enc overlap s, extra volume B, extra dec s)
        self.memo: dict[int, tuple[float, float, float]] = {}


class _EdgeTable:
    """Approximate cost of handing a child's output to the parent's subject.

    An edge costs: encryption at the sender of the visible attributes
    the receiver may only see encrypted (skipping those the sender
    itself already held encrypted), the network transfer of the
    (partially encrypted) output, and decryption at the receiver of the
    attributes the parent operation needs in plaintext.  An attribute
    the receiver may see in plaintext travels randomized (note 2 /
    opportunistic decryption); otherwise one the parent computes on — or
    any, in ``"conservative"`` mode — needs the scheme its capability
    demands, and one merely passing through only randomized encryption
    (§6's highest-protection rule).

    For a fixed (child, parent) edge that pairwise cost factors into

    * a **receiver part** — which visible attributes the receiver may
      only see encrypted (``needs``), the scheme each attribute travels
      under, the encryption seconds if the sender held everything
      plaintext, the ciphertext volume inflation of ``needs``, and the
      receiver-side decryption of ``Ap ∩ needs``;
    * a **sender part** — the attributes the sender already holds
      encrypted, as one bitmask ``m``, plus its CPU/egress rates;
    * a **coupling correction** depending only on ``(receiver, m)`` —
      encryption work saved on ``needs ∧ m``, extra ciphertext volume and
      extra ``Ap`` decryption from ``m ∖ needs`` — memoized per distinct
      sender mask, of which there are few (providers share policies).

    ``cost(sender, receiver)`` is then three multiply-adds, reproducing
    the per-pair formula (``tests/oracles/dp_reference.py``) exactly, up
    to float reassociation.

    Construction is pure-value — the table reads only the child's
    estimate, the parent's operand/``Ap`` attributes, the scheme map and
    the mode — so structurally matching edges of *different* queries can
    share one table through :class:`EdgeTableCache`.  The policy- and
    price-dependent receiver parts are rebuilt lazily: every lookup
    passes the subject's current ``(plain, enc, cpu)`` masks and a stale
    entry (mismatching identity) is rebuilt on the spot, so a cached
    table can never serve receiver rows computed under an older policy.
    """

    __slots__ = ("mode", "rows", "bits", "visible_mask",
                 "demand_bits", "none_mask", "base_bytes", "ap_mask", "dec_w",
                 "enc_rand", "enc_demand", "delta_rand", "delta_demand",
                 "receivers", "masks_of")

    def __init__(self, universe: AttributeUniverse, estimate: NodeEstimate,
                 operand_attrs: Iterable[str], ap_attrs: Iterable[str],
                 schemes: Mapping[str, EncryptionScheme], mode: str) -> None:
        self.mode = mode
        rows = estimate.rows
        self.rows = rows
        self.bits = tuple(universe.bit(a) for a in estimate.plain_width)
        self.visible_mask = universe.mask(estimate.plain_width)
        operand_mask = universe.mask(operand_attrs)
        self.none_mask = universe.mask(
            a for a in estimate.plain_width if estimate.scheme.get(a) is None
        )
        self.base_bytes = rows * sum(
            estimate.width_of(a) for a in estimate.plain_width
        )
        self.ap_mask = universe.mask(ap_attrs) & self.visible_mask
        # An attribute travels under one of two schemes: randomized, or
        # the scheme its capability demands (mode/operand dependent) —
        # precompute both weight tables so receiver entries are lookups.
        randomized = EncryptionScheme.RANDOMIZED
        enc_rand = rows * ENCRYPT_SECONDS_PER_VALUE[randomized]
        self.enc_rand = enc_rand
        conservative = mode == "conservative"
        demand_bits = 0
        enc_demand: dict[int, float] = {}
        delta_rand: dict[int, float] = {}
        delta_demand: dict[int, float] = {}
        dec_w: dict[int, float] = {}
        for attribute, bit in zip(estimate.plain_width, self.bits):
            demand_scheme = schemes.get(
                attribute, EncryptionScheme.DETERMINISTIC)
            if conservative or bit & operand_mask:
                demand_bits |= bit
                enc_demand[bit] = rows * ENCRYPT_SECONDS_PER_VALUE[
                    demand_scheme]
            if bit & self.none_mask:
                plain_w = estimate.plain_width[attribute]
                delta_rand[bit] = rows * (
                    encrypted_width(randomized, plain_w) - plain_w
                )
                delta_demand[bit] = rows * (
                    encrypted_width(demand_scheme, plain_w) - plain_w
                )
            if bit & self.ap_mask:
                dec_w[bit] = rows * DECRYPT_SECONDS_PER_VALUE[demand_scheme]
        self.demand_bits = demand_bits
        self.enc_demand = enc_demand
        self.delta_rand = delta_rand
        self.delta_demand = delta_demand
        self.dec_w = dec_w
        self.receivers: dict[str, _ReceiverEntry] = {}
        #: subject name → (plain mask, enc mask, cpu $/s, net $/byte);
        #: rebound by every search that picks the table up.
        self.masks_of = None

    def receiver(self, name: str) -> _ReceiverEntry:
        """The receiver part for one subject (rebuilt when its masks move)."""
        plain_mask, enc_mask, cpu_rate, _net = self.masks_of(name)
        identity = (plain_mask, enc_mask, cpu_rate)
        entry = self.receivers.get(name)
        if entry is None or entry.identity != identity:
            needs = enc_mask & self.visible_mask
            # The scheme per attribute, mask-backed: attributes the
            # receiver may see plaintext travel randomized; otherwise the
            # demand scheme applies on demand_bits, randomized elsewhere.
            demand = self.demand_bits & ~plain_mask
            enc_w: dict[int, float] = {}
            delta_w: dict[int, float] = {}
            total_enc = 0.0
            vol_needs = 0.0
            dec_base = 0.0
            enc_rand = self.enc_rand
            enc_demand = self.enc_demand
            delta_rand = self.delta_rand
            delta_demand = self.delta_demand
            none_mask = self.none_mask
            ap_mask = self.ap_mask
            dec_w = self.dec_w
            for bit in self.bits:
                demanded = bit & demand
                if bit & needs:
                    weight = enc_demand[bit] if demanded else enc_rand
                    enc_w[bit] = weight
                    total_enc += weight
                if bit & none_mask:
                    delta = (delta_demand[bit] if demanded
                             else delta_rand[bit])
                    delta_w[bit] = delta
                    if bit & needs:
                        vol_needs += delta
                if bit & needs and bit & ap_mask:
                    dec_base += dec_w[bit]
            entry = _ReceiverEntry(needs, enc_w, delta_w, total_enc,
                                   vol_needs, dec_base, cpu_rate, identity)
            self.receivers[name] = entry
        return entry

    def memo_parts(self, entry: _ReceiverEntry,
                   mask: int) -> tuple[float, float, float]:
        """Coupling corrections for one sender-encrypted ``mask``.

        Returns (encryption seconds already covered by the sender, extra
        ciphertext volume in bytes from sender-encrypted pass-through
        attributes, extra ``Ap`` decryption seconds at the receiver);
        memoized on the entry per distinct mask.
        """
        enc_overlap = 0.0
        overlap = mask & entry.needs_mask
        while overlap:
            low = overlap & -overlap
            overlap ^= low
            enc_overlap += entry.enc_w[low]
        extra = mask & ~entry.needs_mask
        extra_vol = 0.0
        vol_bits = extra & self.none_mask
        while vol_bits:
            low = vol_bits & -vol_bits
            vol_bits ^= low
            extra_vol += entry.delta_w[low]
        dec_extra = 0.0
        dec_bits = extra & self.ap_mask
        while dec_bits:
            low = dec_bits & -dec_bits
            dec_bits ^= low
            dec_extra += self.dec_w[low]
        parts = (enc_overlap, extra_vol, dec_extra)
        entry.memo[mask] = parts
        return parts

    def cost(self, sender: str, receiver: str) -> float:
        """Exact edge cost of handing the child's output sender→receiver."""
        _plain, sender_enc, sender_cpu, sender_net = self.masks_of(sender)
        entry = self.receiver(receiver)
        mask = sender_enc & self.visible_mask
        parts = entry.memo.get(mask)
        if parts is None:
            parts = self.memo_parts(entry, mask)
        enc_overlap, extra_vol, dec_extra = parts
        cost = sender_cpu * (entry.total_enc_seconds - enc_overlap)
        if sender != receiver:
            cost += ((self.base_bytes + entry.vol_needs_bytes + extra_vol)
                     * sender_net)
        cost += entry.cpu_rate * (entry.dec_base_seconds + dec_extra)
        return cost


class EdgeTableCache:
    """Cross-query cache of decomposed edge-cost tables.

    Distinct queries over the same federation keep re-deriving identical
    DP substructure: an edge whose child estimate (rows, per-attribute
    widths and encryption states), parent operand/``Ap`` attributes,
    scheme choices and mode all match produces the *same*
    :class:`_EdgeTable` regardless of which plan it came from.  This
    cache keys tables by exactly that value signature, over one shared
    :class:`AttributeUniverse` so masks from different queries are
    congruent, and lets every :func:`assign` call that passes
    ``edge_cache=`` reuse them.

    Policy churn needs no reconcile pass here (see the module
    docstring): a revoke can never be served from a row built before it.
    """

    def __init__(self, maxsize: int = 512) -> None:
        self.universe = AttributeUniverse()
        #: value signature → _EdgeTable.
        self._tables = LRU(maxsize)

    @staticmethod
    def signature(estimate: NodeEstimate, operand_attrs: Iterable[str],
                  ap_attrs: Iterable[str],
                  schemes: Mapping[str, EncryptionScheme],
                  mode: str) -> tuple:
        """The value signature capturing every input of ``_EdgeTable``."""
        visible = tuple(sorted(estimate.plain_width))
        per_attr = tuple(
            (
                name,
                estimate.plain_width[name],
                getattr(estimate.scheme.get(name), "value", None),
                schemes.get(name, EncryptionScheme.DETERMINISTIC).value,
            )
            for name in visible
        )
        return (
            mode,
            estimate.rows,
            per_attr,
            tuple(sorted(frozenset(operand_attrs) & set(visible))),
            tuple(sorted(frozenset(ap_attrs) & set(visible))),
        )

    def table(self, estimate: NodeEstimate, operand_attrs: Iterable[str],
              ap_attrs: Iterable[str],
              schemes: Mapping[str, EncryptionScheme],
              mode: str) -> _EdgeTable:
        """The cached table for this edge signature, built on first use."""
        key = self.signature(estimate, operand_attrs, ap_attrs, schemes,
                             mode)
        table = self._tables.get(key)
        if table is None:
            table = _EdgeTable(self.universe, estimate, operand_attrs,
                               ap_attrs, schemes, mode)
            self._tables.put(key, table)
        return table

    def info(self) -> dict[str, int]:
        """Hit/miss/size counters of the table store."""
        return {**self._tables.info(), "tables": len(self._tables)}
