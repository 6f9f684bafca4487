"""The ISSUE-7 multicore data plane: pool mechanics, parallel ≡
sequential pins for column crypto and joins, background obfuscator
refill, and the CLI knob.

Worker tasks must be importable in spawn children, so every process
test goes through the :mod:`repro.parallel.kernels` functions — never a
function defined in this module.  One two-worker pool is shared across
the module (spawning processes is the slow part)."""

import pickle
import random
import threading
import time

import pytest

from repro.cli import run_workload
from repro.core.keys import QueryKey
from repro.core.operators import BaseRelationNode, Join
from repro.core.predicates import (
    AttributeComparisonPredicate,
    ComparisonOp,
    Conjunction,
)
from repro.core.requirements import EncryptionScheme
from repro.core.schema import Relation
from repro.crypto import primitives
from repro.crypto.keymanager import KeyMaterial
from repro.crypto.paillier import (
    _POOL_LOW_WATER,
    _POOL_TARGET,
    generate_keypair,
)
from repro.engine import Executor, Table
from repro.engine.codec import decrypt_column, encrypt_column
from repro.engine.values import EncryptedValue
from repro.exceptions import CryptoError, ExecutionError
from repro.parallel import (
    ExecutionSettings,
    WorkerPool,
    shared_pool,
)
from repro.parallel import kernels

from oracles.nested_loop import nested_loop_join

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def pool():
    pool = WorkerPool(2, min_parallel_items=1)
    yield pool
    pool.close()


@pytest.fixture(scope="module")
def paillier_keys():
    return generate_keypair(256)


def material_for(scheme, paillier_keys):
    key = QueryKey(frozenset({"A"}), scheme)
    if scheme is EncryptionScheme.PAILLIER:
        public, private = paillier_keys
        return KeyMaterial(query_key=key, paillier_public=public,
                           paillier_private=private)
    return KeyMaterial(query_key=key, symmetric=primitives.generate_key())


class TestExecutionSettings:
    def test_defaults_are_inline_single_core(self):
        settings = ExecutionSettings()
        assert settings.workers == 0
        assert settings.join_strategy == "hash"
        assert settings.pool() is None

    @pytest.mark.parametrize("workers", [-1, -100, 1.5, True, "4"])
    def test_bad_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be"):
            ExecutionSettings(workers=workers)

    def test_unknown_join_strategy_lists_valid_ones(self):
        with pytest.raises(ValueError, match="parallel-hash"):
            ExecutionSettings(join_strategy="sort-merge")

    @pytest.mark.parametrize("threshold", [0, -5, "many"])
    def test_bad_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="min_parallel_items"):
            ExecutionSettings(min_parallel_items=threshold)

    def test_shared_pool_is_per_configuration(self):
        a = ExecutionSettings(workers=3, min_parallel_items=512)
        b = ExecutionSettings(workers=3, min_parallel_items=512,
                              join_strategy="parallel-hash")
        c = ExecutionSettings(workers=3, min_parallel_items=1024)
        assert a.pool() is b.pool()
        assert a.pool() is not c.pool()
        assert shared_pool(0) is None


class TestWorkerPool:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            WorkerPool(-1)

    def test_zero_workers_always_runs_inline(self):
        inline = WorkerPool(0, min_parallel_items=1)
        assert not inline.should_parallelize(10 ** 9)
        # Inline fallback never pickles, so a local closure is fine here.
        calls = []

        def task(payload, items):
            calls.append((payload, list(items)))
            return [item * 2 for item in items]

        assert inline.map_chunks(task, "p", [1, 2, 3]) == [2, 4, 6]
        assert calls == [("p", [1, 2, 3])]
        assert inline._executor is None  # no process was ever spawned

    def test_small_inputs_run_inline_even_with_workers(self):
        pool = WorkerPool(4, min_parallel_items=100)
        assert not pool.should_parallelize(99)
        assert pool.should_parallelize(100)
        assert pool._executor is None


class TestColumnCryptoEquivalence:
    SCHEMES = [EncryptionScheme.DETERMINISTIC, EncryptionScheme.RANDOMIZED,
               EncryptionScheme.OPE, EncryptionScheme.PAILLIER]

    def values_for(self, scheme):
        rng = random.Random(5)
        if scheme in (EncryptionScheme.PAILLIER, EncryptionScheme.OPE):
            values = [rng.randrange(10_000) for _ in range(20)]
        else:
            values = ["alpha", "beta", 7, b"raw", "alpha", -3.5] * 4
        values[3] = None
        values[11] = None
        return values

    @pytest.mark.parametrize("scheme", SCHEMES,
                             ids=lambda scheme: scheme.value)
    def test_roundtrip_matches_sequential(self, scheme, pool,
                                          paillier_keys):
        material = material_for(scheme, paillier_keys)
        values = self.values_for(scheme)
        parallel = encrypt_column(material, values, pool=pool)
        sequential = encrypt_column(material, values)
        if scheme in (EncryptionScheme.DETERMINISTIC, EncryptionScheme.OPE):
            # Deterministic schemes: the ciphertexts themselves match.
            assert [cell.token for cell in parallel if cell is not None] \
                == [cell.token for cell in sequential if cell is not None]
        assert [cell for cell in parallel if cell is None] \
            == [cell for cell in sequential if cell is None]
        # Every combination of parallel/sequential encrypt and decrypt
        # recovers the exact column, NULLs in place.
        assert decrypt_column(material, parallel, pool=pool) == values
        assert decrypt_column(material, parallel) == values
        assert decrypt_column(material, sequential, pool=pool) == values

    def test_tampered_token_raises_through_pool(self, pool):
        material = material_for(EncryptionScheme.DETERMINISTIC, None)
        cells = encrypt_column(material, ["x", "y", "z"])
        token = cells[1].token
        cells[1] = EncryptedValue(
            material.name, EncryptionScheme.DETERMINISTIC,
            token[:-1] + bytes([token[-1] ^ 1]))
        with pytest.raises(CryptoError, match="authentication failed"):
            decrypt_column(material, cells, pool=pool)

    def test_foreign_key_cell_rejected_before_workers_run(self, pool):
        mine = material_for(EncryptionScheme.DETERMINISTIC, None)
        theirs = KeyMaterial(
            query_key=QueryKey(frozenset({"B"}),
                               EncryptionScheme.DETERMINISTIC),
            symmetric=primitives.generate_key())
        cells = encrypt_column(mine, ["x"]) + encrypt_column(theirs, ["y"])
        with pytest.raises(ExecutionError, match="encrypted under"):
            decrypt_column(mine, cells, pool=pool)

    def test_paillier_decrypt_many_matches_inline(self, pool,
                                                  paillier_keys):
        public, private = paillier_keys
        ciphertexts = public.encrypt_many(list(range(-10, 30)))
        assert private.decrypt_many(ciphertexts, pool=pool) \
            == private.decrypt_many(ciphertexts)

    def test_paillier_wrong_key_rejected_parent_side(self, pool):
        public, _ = generate_keypair(256)
        _, other_private = generate_keypair(256)
        ciphertexts = public.encrypt_many([1, 2])
        with pytest.raises(CryptoError, match="different Paillier key"):
            other_private.decrypt_many(ciphertexts, pool=pool)


class TestParallelHashJoin:
    def catalog(self, rows=400, seed=9):
        rng = random.Random(seed)
        return {
            "L": Table("L", ("a", "x"), [
                (rng.randrange(20), rng.randrange(50))
                for _ in range(rows)
            ]),
            "R": Table("R", ("b", "y"), [
                (rng.randrange(20), rng.randrange(50))
                for _ in range(rows)
            ]),
        }

    def node(self, *predicates):
        left = Relation("L", ["a", "x"], cardinality=100)
        right = Relation("R", ["b", "y"], cardinality=100)
        return Join(BaseRelationNode(left), BaseRelationNode(right),
                    Conjunction(list(predicates)))

    def test_parallel_hash_matches_hash_exactly(self, pool):
        node = self.node(
            AttributeComparisonPredicate("a", ComparisonOp.EQ, "b"),
            AttributeComparisonPredicate("x", ComparisonOp.LT, "y"),
        )
        catalog = self.catalog()
        sequential = Executor(dict(catalog)).execute(node)
        parallel = Executor(dict(catalog), join_strategy="parallel-hash",
                            pool=pool).execute(node)
        nested = nested_loop_join(node, catalog["L"], catalog["R"])
        assert len(sequential) > 0
        # Output row order is preserved, not just the multiset.
        assert list(parallel.rows) == list(sequential.rows)
        assert parallel.same_content(nested)

    def test_parallel_hash_without_pool_degrades_to_hash(self):
        node = self.node(
            AttributeComparisonPredicate("a", ComparisonOp.EQ, "b"))
        catalog = self.catalog(rows=60)
        sequential = Executor(dict(catalog)).execute(node)
        degraded = Executor(dict(catalog),
                            join_strategy="parallel-hash").execute(node)
        assert list(degraded.rows) == list(sequential.rows)

    def test_theta_only_join_under_parallel_hash(self, pool):
        node = self.node(
            AttributeComparisonPredicate("a", ComparisonOp.LT, "b"))
        catalog = self.catalog(rows=80)
        sequential = Executor(dict(catalog)).execute(node)
        parallel = Executor(dict(catalog), join_strategy="parallel-hash",
                            pool=pool).execute(node)
        assert list(parallel.rows) == list(sequential.rows)

    def test_unknown_strategy_still_rejected(self):
        with pytest.raises(ExecutionError, match="unknown join strategy"):
            Executor({}, join_strategy="sort-merge")


class TestObfuscatorPool:
    def test_background_refill_below_low_water(self):
        public, _ = generate_keypair(256)
        public.precompute_obfuscators()
        # Drain to exactly the low-water mark: the next pop arms the
        # background refill daemon.
        while len(public._obfuscators) > _POOL_LOW_WATER:
            public._next_obfuscator()
        public._next_obfuscator()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with public._pool_lock:
                if (len(public._obfuscators) >= _POOL_TARGET
                        and not public.__dict__.get("_refilling")):
                    break
            time.sleep(0.01)
        assert len(public._obfuscators) >= _POOL_TARGET

    def test_locks_are_per_key(self):
        a, _ = generate_keypair(256)
        b, _ = generate_keypair(256)
        assert a._pool_lock is not b._pool_lock
        assert a._pool_lock is a._pool_lock  # memoized, not re-created
        assert isinstance(a._pool_lock, type(threading.Lock()))

    def test_obfuscator_pool_stays_home_on_pickle(self):
        public, private = generate_keypair(256)
        public.precompute_obfuscators()
        restored = pickle.loads(pickle.dumps(public))
        assert "_obfuscators" not in restored.__dict__
        assert "_lock" not in restored.__dict__
        assert private.decrypt(restored.encrypt(77)) == 77


class TestWorkloadCli:
    def test_negative_workers_exit_with_clear_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_workload(1, workers=-2)
        assert excinfo.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_unknown_join_strategy_exits_with_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_workload(1, join_strategy="merge")
        assert excinfo.value.code == 2
        assert "hash, parallel-hash" in capsys.readouterr().err


class TestServiceSettings:
    def test_parallel_settings_reproduce_inline_results(self):
        from repro.engine.table import Table as EngineTable
        from repro.paper_example import build_running_example
        from repro.service import QueryService

        example = build_running_example()
        hosp = EngineTable("Hosp", ("S", "B", "D", "T"), [
            ("s1", 1980, "stroke", "tpa"),
            ("s2", 1975, "stroke", "tpa"),
            ("s3", 1990, "flu", "rest"),
        ])
        ins = EngineTable("Ins", ("C", "P"), [
            ("s1", 150.0), ("s2", 90.0), ("s3", 200.0),
        ])
        sql = ("select T, avg(P) from Hosp join Ins on S=C "
               "where D='stroke' group by T")

        def run(settings):
            service = QueryService(
                example.schema, example.policy, example.subjects,
                example.owners,
                {"H": {"Hosp": hosp}, "I": {"Ins": ins}},
                user="U", settings=settings,
            )
            return service.execute(sql).result

        baseline = run(None)
        # workers=0 with a parallel strategy must degrade to the exact
        # single-core rows: no pool exists, every path runs inline.
        tuned = run(ExecutionSettings(workers=0,
                                      join_strategy="parallel-hash"))
        assert list(tuned.rows) == list(baseline.rows)
        assert tuned.columns == baseline.columns
