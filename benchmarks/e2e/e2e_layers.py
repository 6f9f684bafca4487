"""Micro-timings of each layer's public functions, measured from outside.

Every number here is taken on the same TPC-H inputs the workloads use
(the 22 plans, the 17 SQL templates, dataset 0), with product defaults,
by calling a public function and reading the clock around it.  They are
diagnostics: each names the end-to-end metric it should move (see
``README.md``) and none has a regression bound.
"""

from __future__ import annotations

import random
import statistics
import time

from repro.core.assignment import assign
from repro.core.authorization import Authorization
from repro.core.candidates import compute_candidates
from repro.core.dispatch import dispatch
from repro.core.keys import QueryKey
from repro.core.plancache import AssignmentCache
from repro.core.requirements import EncryptionScheme, chosen_schemes
from repro.cost.estimator import PlanEstimator
from repro.cost.pricing import PriceList
from repro.crypto.keymanager import DistributedKeys, KeyStore
from repro.distributed.messages import (
    SubQueryPayload,
    open_envelope,
    seal_envelope,
)
from repro.distributed.runtime import generate_subject_keys
from repro.engine import Executor
from repro.engine.codec import decrypt_column, encrypt_column
from repro.gateway import Gateway, TenantConfig
from repro.sql.planner import plan_query
from repro.tpch import (
    SCENARIOS,
    TPCH_UDFS,
    all_queries,
    all_scenarios,
    build_tpch_schema,
    generate,
)

from e2e_workloads import (
    DATA_SEEDS,
    DISPATCH_GAPS,
    ESTIMATE_SCALE,
    SCALE,
    TEMPLATES,
    authority_tables,
    build_service,
    wide_setting,
)

#: Values in the column the crypto kernels are timed on.
COLUMN_VALUES = 2000


def _ms(function, repeats: int = 3) -> float:
    """Median wall time of ``function()`` in ms."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def _mean_ms(function, inputs) -> float:
    """Mean wall time of ``function(x)`` over ``inputs`` in ms."""
    inputs = list(inputs)
    started = time.perf_counter()
    for item in inputs:
        function(item)
    return (time.perf_counter() - started) * 1000.0 / len(inputs)


def crypto_kernels() -> dict[str, float]:
    """µs per value of ``encrypt_column``/``decrypt_column`` per scheme,
    on a fixed column under fresh key material."""
    rng = random.Random(20170801)
    column = [rng.randrange(1, 10 ** 6) for _ in range(COLUMN_VALUES)]
    metrics = {}
    for label, scheme in (("det", EncryptionScheme.DETERMINISTIC),
                          ("rnd", EncryptionScheme.RANDOMIZED),
                          ("ope", EncryptionScheme.OPE),
                          ("paillier_enc", EncryptionScheme.PAILLIER)):
        key = QueryKey(frozenset({"x"}), scheme)
        material = KeyStore.generate([key]).material(key.name)
        started = time.perf_counter()
        encrypted = encrypt_column(material, column)
        elapsed = time.perf_counter() - started
        metrics[f"crypto.{label}_us_per_value"] = \
            elapsed * 1e6 / COLUMN_VALUES
    started = time.perf_counter()
    decrypted = decrypt_column(material, encrypted)
    metrics["crypto.paillier_dec_us_per_value"] = \
        (time.perf_counter() - started) * 1e6 / COLUMN_VALUES
    if decrypted != column:
        raise RuntimeError("Paillier column did not round-trip")
    return metrics


def planning_layers() -> dict[str, float]:
    """sql / core / cost on the 22 plans at the Fig. 9/10 estimate scale."""
    schema = build_tpch_schema(ESTIMATE_SCALE)
    settings = all_scenarios(schema)
    queries = all_queries()
    plans = [q.plan(schema) for q in queries]
    metrics = {
        "sql.plan_query_ms": _mean_ms(
            lambda t: plan_query(t.sql, schema), TEMPLATES),
        "cost.estimate_ms": _mean_ms(
            lambda p: PlanEstimator(chosen_schemes(p)).estimate(p), plans),
    }
    enc = settings["UAPenc"]
    metrics["core.candidates_ms"] = _mean_ms(
        lambda p: compute_candidates(p, enc.policy, enc.subject_names),
        plans)

    def assign_all(setting, prices=None, cache=None):
        prices = prices or PriceList.from_subjects(setting.subjects)
        return [assign(p, setting.policy, setting.subject_names, prices,
                       user=setting.user, owners=setting.owners, cache=cache)
                for p in plans]

    started = time.perf_counter()
    results = {name: assign_all(settings[name]) for name in SCENARIOS}
    metrics["core.assign_ms"] = (time.perf_counter() - started) * 1000.0 \
        / (len(plans) * len(SCENARIOS))
    for name in SCENARIOS:
        metrics[f"cost.planned_usd_{name.lower()}"] = sum(
            r.cost.total_usd for r in results[name])
    wide = wide_setting(schema)
    metrics["core.assign_wide_ms"] = _ms(
        lambda: assign_all(wide), repeats=1) / len(plans)
    metrics["core.dispatch_ms"] = _mean_ms(
        lambda r: dispatch(r.extended, r.keys, owners=enc.owners,
                           user=enc.user),
        [r for q, r in zip(queries, results["UAPenc"])
         if (q.number, "UAPenc") not in DISPATCH_GAPS])
    # A hit needs the same live policy and price list (identity-compared).
    cache = AssignmentCache(maxsize=64)
    prices = PriceList.from_subjects(enc.subjects)
    assign_all(enc, prices, cache)
    metrics["core.assign_cached_us"] = _ms(
        lambda: assign_all(enc, prices, cache)) * 1000.0 / len(plans)

    relation = schema.relation("orders")
    rule = Authorization(relation, (), relation.attribute_names, "W0")

    def mutate():
        for _ in range(50):
            enc.policy.grant(rule)
            enc.policy.revoke("orders", "W0")

    metrics["core.policy_mutation_us"] = _ms(mutate) * 1000.0 / 100
    return metrics


def execution_layers() -> dict[str, float]:
    """tpch / engine / crypto envelopes / distributed / service / obs on
    dataset 0 under UAPenc."""
    metrics = {"tpch.generate_s": _ms(
        lambda: generate(SCALE, seed=DATA_SEEDS[0])) / 1000.0}
    schema = build_tpch_schema(SCALE)
    data = generate(SCALE, seed=DATA_SEEDS[0])
    plans = [plan_query(t.sql, schema) for t in TEMPLATES]
    metrics["engine.plain_exec_ms"] = _mean_ms(
        lambda p: Executor(data.catalog(), udfs=TPCH_UDFS).execute(p), plans)

    service = build_service(schema, data)
    metrics["crypto.rsa_keygen_ms"] = _ms(
        lambda: generate_subject_keys(list(service.subjects)))
    sqls = [t.sql for t in TEMPLATES]
    outcomes = [service.execute(sql) for sql in sqls]
    tables = authority_tables(data)
    metrics["distributed.refresh_tables_ms"] = _ms(
        lambda: service.refresh_tables(tables))
    metrics["service.execute_cold_ms"] = _mean_ms(service.execute, sqls)
    metrics["service.execute_warm_ms"] = _mean_ms(service.execute, sqls)

    user = service.user
    started = time.perf_counter()
    keyed = [DistributedKeys.from_assignment(o.assignment.keys)
             for o in outcomes]
    metrics["crypto.query_keygen_ms"] = \
        (time.perf_counter() - started) * 1000.0 / len(outcomes)
    prepared = [
        (dispatch(o.assignment.extended, o.assignment.keys,
                  owners=service.owners, user=user),
         o.assignment.extended, o.assignment.keys, keys)
        for o, keys in zip(outcomes, keyed)]

    def run(item):
        service.runtime.run(*item, user=user)

    service.runtime.invalidate_caches()
    metrics["distributed.run_cold_ms"] = _mean_ms(run, prepared)
    metrics["distributed.run_warm_ms"] = _mean_ms(run, prepared)

    user_private = service.rsa_keys[user][1]
    user_public = service.rsa_keys[user][0]
    envelopes = [
        (SubQueryPayload(f.fragment_id, f.text, keys.store_for(f.subject)),
         service.rsa_keys[f.subject])
        for plan, _, _, keys in prepared for f in plan.fragments.values()
        if f.subject in service.rsa_keys]

    def seal_and_open(item):
        payload, (public, private) = item
        blob = seal_envelope(payload, user_private, public)
        open_envelope(blob, private, user_public)

    metrics["crypto.envelope_ms"] = _mean_ms(seal_and_open, envelopes)

    with Gateway(service, [TenantConfig("a")], max_inflight=1) as gateway:
        gateway.execute("a", sqls[0])
        metrics["obs.scrape_ms"] = _ms(gateway.metrics_text, repeats=5)
    return metrics


def measure_layers() -> dict[str, float]:
    """Every micro-timing, keyed by its per-layer metric name."""
    metrics = crypto_kernels()
    metrics.update(planning_layers())
    metrics.update(execution_layers())
    return metrics
