"""Multi-tenant serving gateway: admission, quotas, metering, metrics.

The production front-end the ROADMAP's north star asks for: many
tenants share one :class:`~repro.service.QueryService` under bounded
concurrency, weighted fair queueing, token-bucket rate limits, credit
metering priced from the §7 cost model, and a Prometheus scrape read
off the records those keep.  See :mod:`repro.gateway.gateway` for the
execution model and ``docs/architecture.md`` for where the gateway sits
in the stack.
"""

from repro.exceptions import (
    AdmissionRejected,
    GatewayError,
    QuotaExceeded,
    SheddedError,
)
from repro.gateway.admission import (
    DEFAULT_PREDICTOR_ALPHA,
    DEFAULT_PREDICTOR_SIZE,
    DEFAULT_QUEUE_DEPTH,
    AdmissionController,
    FairScheduler,
    LatencyPredictor,
)
from repro.gateway.gateway import Gateway, TenantConfig
from repro.gateway.quotas import TenantQuota, TokenBucket

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "DEFAULT_PREDICTOR_ALPHA",
    "DEFAULT_PREDICTOR_SIZE",
    "DEFAULT_QUEUE_DEPTH",
    "FairScheduler",
    "Gateway",
    "GatewayError",
    "LatencyPredictor",
    "QuotaExceeded",
    "SheddedError",
    "TenantConfig",
    "TenantQuota",
    "TokenBucket",
]
