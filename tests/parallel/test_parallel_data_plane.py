"""The multicore data plane: pool mechanics, parallel ≡ sequential pins
for column crypto, the obfuscator pool's per-process state, and the
``workers`` knob from the CLI and the service down to the executor.

Worker tasks must be importable in spawn children, so every process
test goes through the :mod:`repro.parallel.kernels` functions — never a
function defined in this module.  One two-worker pool is shared across
the module (spawning processes is the slow part)."""

import inspect
import pickle
import random
import threading

import pytest

from repro.cli import run_workload
from repro.core.keys import QueryKey
from repro.core.requirements import EncryptionScheme
from repro.crypto import primitives
from repro.crypto.keymanager import KeyMaterial
from repro.crypto.paillier import generate_keypair
from repro.engine.codec import decrypt_column, encrypt_column
from repro.engine.values import EncryptedValue
from repro.exceptions import CryptoError, ExecutionError
from repro.parallel import WorkerPool, shared_pool
from repro.parallel.pool import MIN_PARALLEL_ITEMS
from repro.service import QueryService

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def pool():
    pool = WorkerPool(2)
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
    """The data plane has one setting left, ``workers``; the shared pool
    it names validates it."""

    def test_defaults_are_inline_single_core(self):
        default = inspect.signature(QueryService).parameters["workers"]
        assert default.default == 0
        assert shared_pool(0) is None

    @pytest.mark.parametrize("workers", [-1, -100, 1.5, True, "4"])
    def test_bad_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be"):
            shared_pool(workers)

    def test_shared_pool_is_per_configuration(self):
        assert shared_pool(3) is shared_pool(3)
        assert shared_pool(3) is not shared_pool(5)
        assert shared_pool(3).workers == 3
        assert shared_pool(3)._executor is None  # nothing spawned yet


class TestWorkerPool:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            WorkerPool(-1)

    def test_zero_workers_always_runs_inline(self):
        inline = WorkerPool(0)
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
        pool = WorkerPool(4)
        assert not pool.should_parallelize(MIN_PARALLEL_ITEMS - 1)
        assert pool.should_parallelize(MIN_PARALLEL_ITEMS)
        assert pool._executor is None


class TestColumnCryptoEquivalence:
    SCHEMES = [EncryptionScheme.DETERMINISTIC, EncryptionScheme.RANDOMIZED,
               EncryptionScheme.OPE, EncryptionScheme.PAILLIER]

    def values_for(self, scheme):
        """A column long enough that the pool really takes it."""
        rng = random.Random(5)
        if scheme in (EncryptionScheme.PAILLIER, EncryptionScheme.OPE):
            values = [rng.randrange(10_000)
                      for _ in range(MIN_PARALLEL_ITEMS + 20)]
        else:
            values = ["alpha", "beta", 7, b"raw", "alpha", -3.5] \
                * (MIN_PARALLEL_ITEMS // 6 + 4)
        values[3] = None
        values[11] = None
        return values

    @pytest.mark.parametrize("scheme", SCHEMES,
                             ids=lambda scheme: scheme.value)
    def test_roundtrip_matches_sequential(self, scheme, pool,
                                          paillier_keys):
        material = material_for(scheme, paillier_keys)
        values = self.values_for(scheme)
        assert pool.should_parallelize(len(values) - 2)  # NULLs stay home
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
        cells = encrypt_column(
            material, [f"v{i}" for i in range(MIN_PARALLEL_ITEMS)])
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
        ciphertexts = public.encrypt_many(
            list(range(-10, MIN_PARALLEL_ITEMS)))
        assert private.decrypt_many(ciphertexts, pool=pool) \
            == private.decrypt_many(ciphertexts)

    def test_paillier_wrong_key_rejected_parent_side(self, pool):
        public, _ = generate_keypair(256)
        _, other_private = generate_keypair(256)
        ciphertexts = public.encrypt_many([1, 2])
        with pytest.raises(CryptoError, match="different Paillier key"):
            other_private.decrypt_many(ciphertexts, pool=pool)


class TestObfuscatorPool:
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


class TestServiceSettings:
    def test_parallel_settings_reproduce_inline_results(self):
        """``workers`` reaches the executors: with columns long enough
        for the pool, the service's answer is the inline answer."""
        from repro.engine.table import Table
        from repro.paper_example import build_running_example

        example = build_running_example()
        size = MIN_PARALLEL_ITEMS + 40
        hosp = Table("Hosp", ("S", "B", "D", "T"), [
            (f"s{i}", 1950 + i % 40, "stroke" if i % 3 else "flu",
             ("tpa", "rest", "surgery")[i % 3 - 1])
            for i in range(size)
        ])
        ins = Table("Ins", ("C", "P"), [
            (f"s{i}", 50.0 + i % 170) for i in range(size)
        ])
        sql = ("select T, avg(P) from Hosp join Ins on S=C "
               "where D='stroke' group by T")

        def run(**options):
            service = QueryService(
                example.schema, example.policy, example.subjects,
                example.owners,
                {"H": {"Hosp": hosp}, "I": {"Ins": ins}},
                user="U", **options,
            )
            return service.execute(sql).result

        baseline = run()
        pool = shared_pool(2)
        try:
            tuned = run(workers=2)
            assert pool._executor is not None  # the workers really ran
        finally:
            pool.close()
        assert tuned.sorted_rows() == baseline.sorted_rows()
        assert tuned.columns == baseline.columns
