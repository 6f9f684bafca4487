"""Provider price lists (§7).

The paper charges a query as ``Cq = Σ Ccpu + Cio + Cnet_io`` — CPU time ×
price per unit time, local I/O volume × price per volume, and transferred
volume × network price — "in line with the price lists of cloud
providers".  The experiments assume the user costs **10×** and the data
authorities **3×** the CPU price of cloud providers (estimates based on
government-backed price lists), with provider prices set from the public
2017-era listings of Amazon S3 / Google Compute Engine.

Absolute magnitudes only scale the results; the figures of the paper are
normalized, so the *ratios* are what matters (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from repro.core.authorization import Subject, SubjectKind, stands_in_for
from repro.exceptions import EstimationError

#: Baseline provider rates (2017-era public cloud list prices).  The
#: network price models the paper's dedicated 10 Gbps links between
#: authorities and providers — same-region/peered interconnect rates,
#: not internet egress.
PROVIDER_CPU_USD_PER_HOUR = 0.050
PROVIDER_IO_USD_PER_GB = 0.0004
PROVIDER_NET_USD_PER_GB = 0.001

#: Paper ratios for non-provider subjects.
AUTHORITY_CPU_MULTIPLIER = 3.0
USER_CPU_MULTIPLIER = 10.0


@dataclass(frozen=True)
class ResourceRates:
    """Unit prices of one subject's resources.

    Attributes
    ----------
    cpu_usd_per_second:
        Price of one second of CPU time.
    io_usd_per_gb:
        Price of one gigabyte of local I/O.
    net_usd_per_gb:
        Price of one gigabyte of outbound network transfer.
    """

    cpu_usd_per_second: float
    io_usd_per_gb: float = PROVIDER_IO_USD_PER_GB
    net_usd_per_gb: float = PROVIDER_NET_USD_PER_GB

    def __post_init__(self) -> None:
        if min(self.cpu_usd_per_second, self.io_usd_per_gb,
               self.net_usd_per_gb) < 0:
            raise EstimationError("rates must be non-negative")

    def scaled(self, cpu_factor: float) -> "ResourceRates":
        """Rates with the CPU price multiplied by ``cpu_factor``."""
        return replace(
            self, cpu_usd_per_second=self.cpu_usd_per_second * cpu_factor
        )


def provider_rates() -> ResourceRates:
    """Baseline rates of an open-market cloud provider."""
    return ResourceRates(
        cpu_usd_per_second=PROVIDER_CPU_USD_PER_HOUR / 3600.0)


class PriceList:
    """Per-subject resource prices with paper-ratio defaults.

    Examples
    --------
    >>> prices = PriceList.paper_defaults(
    ...     providers=["X", "Y", "Z"], authorities=["H", "I"], user="U")
    >>> ratio = (prices.rates("U").cpu_usd_per_second
    ...          / prices.rates("X").cpu_usd_per_second)
    >>> round(ratio, 1)
    10.0
    """

    def __init__(self, rates: Mapping[str, ResourceRates],
                 default: ResourceRates | None = None) -> None:
        self._rates = dict(rates)
        self._default = default

    @classmethod
    def paper_defaults(
        cls,
        providers: Iterable[str],
        authorities: Iterable[str],
        user: str,
        provider_spread: float = 0.25,
    ) -> "PriceList":
        """The §7 configuration.

        Providers get the baseline CPU price staggered by
        ``provider_spread`` (the paper notes savings grow with the spread
        of provider prices: the cheapest provider is the baseline, each
        further provider costs ``1 + k·spread`` times more).  Authorities
        cost 3× and the user 10× the baseline.
        """
        base = provider_rates()
        rates: dict[str, ResourceRates] = {}
        for index, name in enumerate(sorted(providers)):
            rates[name] = base.scaled(1.0 + provider_spread * index)
        for name in authorities:
            rates[name] = base.scaled(AUTHORITY_CPU_MULTIPLIER)
        rates[user] = base.scaled(USER_CPU_MULTIPLIER)
        return cls(rates, default=base)

    @classmethod
    def from_subjects(cls, subjects: Iterable[Subject],
                      provider_spread: float = 0.25) -> "PriceList":
        """Paper defaults derived from typed :class:`Subject` objects."""
        subjects = list(subjects)
        providers = [s.name for s in subjects
                     if s.kind is SubjectKind.PROVIDER]
        authorities = [s.name for s in subjects
                       if s.kind is SubjectKind.AUTHORITY]
        users = [s.name for s in subjects if s.kind is SubjectKind.USER]
        if len(users) != 1:
            raise EstimationError(
                f"expected exactly one user subject, got {users}"
            )
        return cls.paper_defaults(
            providers, authorities, users[0],
            provider_spread=provider_spread,
        )

    def rates(self, subject: str) -> ResourceRates:
        """Rates of ``subject`` (authorities fall back to the default)."""
        if subject in self._rates:
            return self._rates[subject]
        if stands_in_for(subject) is not None \
                and self._default is not None:
            return self._default.scaled(AUTHORITY_CPU_MULTIPLIER)
        if self._default is not None:
            return self._default
        raise EstimationError(f"no rates for subject {subject!r}")

    def with_rates(self, subject: str, rates: ResourceRates) -> "PriceList":
        """A copy with ``subject``'s rates replaced."""
        updated = dict(self._rates)
        updated[subject] = rates
        return PriceList(updated, default=self._default)

    def subjects(self) -> frozenset[str]:
        """Subjects with explicit rates."""
        return frozenset(self._rates)
