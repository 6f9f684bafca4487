"""Distributed execution simulator: subjects, envelopes, enforcement.

Runs a dispatched query across simulated subjects with real signed and
encrypted sub-query envelopes, per-subject key stores, and runtime
re-checking of the paper's authorization conditions — plus the
resilience layer: per-subject health state and circuit breakers,
deterministic fault injection, transient-fault retries, and policy-aware
mid-query fragment failover.
"""

from repro.distributed.faults import FaultInjector, FaultSpec
from repro.distributed.health import HealthRegistry, SubjectHealth
from repro.distributed.messages import (
    SubQueryPayload,
    decode_payload,
    encode_payload,
    keystore_signature,
    open_envelope,
    seal_envelope,
)
from repro.distributed.nodes import SubjectNode, generate_subject_keys
from repro.distributed.runtime import (
    DistributedRuntime,
    ExecutionTrace,
    FailoverEvent,
    build_runtime,
)

__all__ = [
    "DistributedRuntime", "ExecutionTrace", "FailoverEvent",
    "FaultInjector", "FaultSpec", "HealthRegistry",
    "SubQueryPayload", "SubjectHealth", "SubjectNode", "build_runtime",
    "decode_payload", "encode_payload", "generate_subject_keys",
    "keystore_signature", "open_envelope", "seal_envelope",
]
