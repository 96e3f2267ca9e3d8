"""The kernel tier contract: compiled and NumPy tiers are bit-identical,
and the engine's execute path is safe under concurrent dispatch.

Three layers of guarantees:

* **kernel level** — ``threshold_keys`` / ``threshold_block`` /
  ``threshold_grid`` produce identical bits under either tier for
  hypothesis-generated inputs (counters near the lane boundaries, full
  uint64 keys, degenerate thresholds), and the compiled ``subkeys``
  BLAKE2b equals its ``hashlib`` twin for any key length, unicode id and
  prefix length, raising the same errors, also under concurrent calls;
* **PRF level** — every ``CounterPRF`` entry point (``evaluate``,
  ``evaluate_keys``, ``evaluate_block``, ``evaluate_grid``,
  ``evaluate_many``) answers identically with ``kernels.select("c")``
  and ``kernels.select("numpy")``, so artifacts never depend on which
  tier produced them;
* **serving level** — N threads hammering one ``QueryEngine.execute``
  (cold and warm, overlapping requests) get byte-identical responses to
  a sequential reference run, and the evaluation cache stays coherent.

When the extension is not built the cross-tier tests are skipped (the
NumPy tier is then the only tier, trivially self-identical); CI builds
the extension and runs this file under both ``REPRO_KERNEL`` settings.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CounterPRF, kernels
from repro.core import philox as _philox
from repro.core.prf import _subset_blob

needs_c = pytest.mark.skipif(
    not kernels.available(), reason="compiled kernel extension not built"
)


@pytest.fixture
def both_tiers():
    """Restore whatever tier was active, whatever the test selected.

    Only used by non-hypothesis tests; the @given tests go through
    _with_tier, which restores the tier itself (hypothesis forbids
    function-scoped fixtures shared across generated examples).
    """
    before = kernels.active()
    yield
    kernels.select(before)


def _with_tier(name, fn, *args, **kwargs):
    before = kernels.active()
    try:
        kernels.select(name)
        return fn(*args, **kwargs)
    finally:
        kernels.select(before)


uint64s = st.integers(min_value=0, max_value=(1 << 64) - 1)
thresholds = st.sampled_from(
    [0, 1, 1 << 32, int(0.3 * 2**64), (1 << 64) - 1, 1 << 63]
)


# ----------------------------------------------------------------------
# Kernel level: raw threshold_* functions, both tiers, hypothesis inputs
# ----------------------------------------------------------------------
@needs_c
class TestKernelBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        block=uint64s,
        keys=st.lists(uint64s, min_size=0, max_size=40),
        k0=uint64s,
        k1=uint64s,
        lane=st.integers(min_value=0, max_value=3),
        threshold=thresholds,
    )
    def test_threshold_keys(self, block, keys, k0, k1, lane, threshold):
        key_array = np.asarray(keys, dtype=np.uint64)
        c = _with_tier(
            "c", kernels.threshold_keys, block, key_array, k0, k1, lane, threshold
        )
        ref = _with_tier(
            "numpy", kernels.threshold_keys, block, key_array, k0, k1, lane, threshold
        )
        np.testing.assert_array_equal(c, ref)
        assert c.dtype == ref.dtype == np.int8

    @settings(max_examples=40, deadline=None)
    @given(
        blocks=st.lists(uint64s, min_size=1, max_size=12),
        data=st.data(),
        threshold=thresholds,
    )
    def test_threshold_block(self, blocks, data, threshold):
        num_users = data.draw(st.integers(min_value=1, max_value=10))
        draw_col = lambda: np.asarray(
            data.draw(
                st.lists(uint64s, min_size=num_users, max_size=num_users)
            ),
            dtype=np.uint64,
        )
        user_keys, subkey0, subkey1 = draw_col(), draw_col(), draw_col()
        block_ids = np.asarray(blocks, dtype=np.uint64)
        c = _with_tier(
            "c", kernels.threshold_block, block_ids, user_keys, subkey0, subkey1, threshold
        )
        ref = _with_tier(
            "numpy", kernels.threshold_block, block_ids, user_keys, subkey0, subkey1, threshold
        )
        np.testing.assert_array_equal(c, ref)
        assert c.shape == (num_users, 4 * block_ids.size)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), threshold=thresholds)
    def test_threshold_grid(self, data, threshold):
        num_users = data.draw(st.integers(min_value=1, max_value=8))
        num_keys = data.draw(st.integers(min_value=1, max_value=16))
        draw = lambda n: np.asarray(
            data.draw(st.lists(uint64s, min_size=n, max_size=n)), dtype=np.uint64
        )
        vblocks, subkey0, subkey1 = draw(num_users), draw(num_users), draw(num_users)
        lanes = np.asarray(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=3),
                    min_size=num_users,
                    max_size=num_users,
                )
            ),
            dtype=np.uint64,
        )
        key_rows = draw(num_users * num_keys).reshape(num_users, num_keys)
        c = _with_tier(
            "c", kernels.threshold_grid, vblocks, lanes, key_rows, subkey0, subkey1, threshold
        )
        ref = _with_tier(
            "numpy", kernels.threshold_grid, vblocks, lanes, key_rows, subkey0, subkey1, threshold
        )
        np.testing.assert_array_equal(c, ref)

    def test_philox_constants_agree(self):
        # The C file hard-codes the Philox bump constants; if the Python
        # side ever re-parameterised, identity above would catch it — this
        # pins the root cause message.
        assert int(_philox._W0) == 0x9E3779B97F4A7C15
        assert int(_philox._W1) == 0xBB67AE8584CAA73B


# ----------------------------------------------------------------------
# Subkeys: the compiled RFC 7693 BLAKE2b against its hashlib twin
# ----------------------------------------------------------------------
PERSON = CounterPRF._PERSON

#: Arbitrary unicode, minus lone surrogates (UTF-8 cannot encode them).
user_ids = st.text(st.characters(blacklist_categories=("Cs",)), max_size=80)


def _subkeys_both_tiers(key, ids, subset):
    args = (key, PERSON, ids, len(subset), _subset_blob(subset))
    c = _with_tier("c", kernels.subkeys, *args)
    ref = _with_tier("numpy", kernels.subkeys, *args)
    for c_words, ref_words in zip(c, ref):
        assert c_words.dtype == ref_words.dtype == np.uint64
        np.testing.assert_array_equal(c_words, ref_words)
    return c


@needs_c
class TestSubkeysBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        key=st.binary(min_size=16, max_size=64),
        ids=st.lists(user_ids, max_size=12),
        subset=st.lists(st.integers(0, (1 << 32) - 1), max_size=62).map(tuple),
    )
    def test_matches_hashlib(self, key, ids, subset):
        subkey0, subkey1 = _subkeys_both_tiers(key, ids, subset)
        # ... and the scalar hashlib oracle, id by id.
        prf = CounterPRF(p=0.3, global_key=key)
        assert [prf._subkey(uid, subset) for uid in ids] == list(
            zip(subkey0.tolist(), subkey1.tolist())
        )

    def test_block_boundaries(self):
        # Prefix = 8 header bytes + id + b"|B|" + 4 per position: with one
        # position, ids of 112-114 and 240-242 bytes put the prefix at
        # 127-129 and 255-257 bytes, either side of each 128-byte block.
        ids = ["a" * n for n in (112, 113, 114, 240, 241, 242)]
        ids += ["é" * 56, "é" * 57, "𝄞" * 60, "𝄞" * 61]
        for key in (b"k" * 16, bytes(range(64))):
            _subkeys_both_tiers(key, ids, (7,))
            _subkeys_both_tiers(key, ids, tuple(range(62)))

    def test_empty_list(self):
        subkey0, subkey1 = _subkeys_both_tiers(b"k" * 32, [], (0, 1))
        assert subkey0.shape == subkey1.shape == (0,)

    def test_accepts_any_sequence(self):
        ids = ["a", "b", "ç"]
        expected = _subkeys_both_tiers(b"k" * 32, ids, (2,))
        for form in (tuple(ids), iter(ids)):
            got = _with_tier(
                "c", kernels.subkeys, b"k" * 32, PERSON, form, 1, _subset_blob((2,))
            )
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])

    @pytest.mark.parametrize("tier", ["c", "numpy"])
    def test_lone_surrogate_raises_unicode_error(self, tier):
        with pytest.raises(UnicodeEncodeError):
            _with_tier(
                tier, kernels.subkeys, b"k" * 32, PERSON, ["ok", "bad\ud800"], 1, b"|B|"
            )

    @pytest.mark.parametrize("item", [1, b"bytes", None, 2.5])
    def test_non_str_raises_type_error(self, item):
        with pytest.raises(TypeError, match="user_ids must be str"):
            _with_tier(
                "c", kernels.subkeys, b"k" * 32, PERSON, ["ok", item], 1, b"|B|"
            )

    def test_concurrent_calls_match_sequential(self):
        # The hash loop runs with the GIL released: overlapping calls on
        # distinct inputs must each equal their sequential answer.
        key = b"concurrent-subkeys-key"
        batches = [
            [f"user-{worker}-{i}" for i in range(4000)] + ["ünï-" * worker]
            for worker in range(8)
        ]
        tail = _subset_blob((1, 4, 9))
        expected = [
            _with_tier("numpy", kernels.subkeys, key, PERSON, ids, 3, tail)
            for ids in batches
        ]
        barrier = threading.Barrier(8)

        def hammer(worker):
            barrier.wait(timeout=60)
            ids = batches[worker]
            return [kernels.subkeys(key, PERSON, ids, 3, tail) for _ in range(3)]

        before, interval = kernels.active(), sys.getswitchinterval()
        kernels.select("c")
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(hammer, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
            kernels.select(before)
        for worker, repeats in enumerate(results):
            for subkey0, subkey1 in repeats:
                np.testing.assert_array_equal(subkey0, expected[worker][0])
                np.testing.assert_array_equal(subkey1, expected[worker][1])


# ----------------------------------------------------------------------
# PRF level: every CounterPRF entry point, c tier vs numpy tier
# ----------------------------------------------------------------------
@needs_c
class TestEntryPointBitIdentity:
    # Class-level, not a fixture: CounterPRF is stateless, and hypothesis
    # forbids function-scoped fixtures shared across generated examples.
    PRF = CounterPRF(p=0.3, global_key=b"kernel-parity-test-key")

    SUBSET = (0, 2, 5)

    @settings(max_examples=30, deadline=None)
    @given(
        value=st.tuples(*[st.integers(0, 1)] * 3),
        key=st.integers(min_value=0, max_value=(1 << 20) - 1),
    )
    def test_evaluate(self, value, key):
        c = _with_tier("c", self.PRF.evaluate, "user-a", self.SUBSET, value, key)
        ref = _with_tier("numpy", self.PRF.evaluate, "user-a", self.SUBSET, value, key)
        assert c == ref

    @settings(max_examples=25, deadline=None)
    @given(
        value=st.tuples(*[st.integers(0, 1)] * 3),
        keys=st.lists(st.integers(0, (1 << 16) - 1), min_size=0, max_size=64),
    )
    def test_evaluate_keys(self, value, keys):
        c = _with_tier("c", self.PRF.evaluate_keys, "user-b", self.SUBSET, value, keys)
        ref = _with_tier("numpy", self.PRF.evaluate_keys, "user-b", self.SUBSET, value, keys)
        np.testing.assert_array_equal(c, ref)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_evaluate_block_and_many(self, data):
        num_users = data.draw(st.integers(min_value=1, max_value=12))
        user_ids = [f"user-{i}" for i in range(num_users)]
        keys = data.draw(
            st.lists(
                st.integers(0, (1 << 16) - 1),
                min_size=num_users,
                max_size=num_users,
            )
        )
        values = data.draw(
            st.lists(
                st.tuples(*[st.integers(0, 1)] * 3), min_size=1, max_size=8
            )
        )
        c = _with_tier("c", self.PRF.evaluate_block, user_ids, self.SUBSET, values, keys)
        ref = _with_tier(
            "numpy", self.PRF.evaluate_block, user_ids, self.SUBSET, values, keys
        )
        np.testing.assert_array_equal(c, ref)
        c1 = _with_tier(
            "c", self.PRF.evaluate_many, user_ids, self.SUBSET, values[0], keys
        )
        ref1 = _with_tier(
            "numpy", self.PRF.evaluate_many, user_ids, self.SUBSET, values[0], keys
        )
        np.testing.assert_array_equal(c1, ref1)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_evaluate_grid(self, data):
        num_users = data.draw(st.integers(min_value=1, max_value=10))
        num_keys = data.draw(st.integers(min_value=1, max_value=20))
        user_ids = [f"user-{i}" for i in range(num_users)]
        values = data.draw(
            st.lists(
                st.tuples(*[st.integers(0, 1)] * 3),
                min_size=num_users,
                max_size=num_users,
            )
        )
        key_rows = np.asarray(
            data.draw(
                st.lists(
                    st.lists(
                        st.integers(0, (1 << 16) - 1),
                        min_size=num_keys,
                        max_size=num_keys,
                    ),
                    min_size=num_users,
                    max_size=num_users,
                )
            ),
            dtype=np.uint64,
        )
        c = _with_tier("c", self.PRF.evaluate_grid, user_ids, self.SUBSET, values, key_rows)
        ref = _with_tier(
            "numpy", self.PRF.evaluate_grid, user_ids, self.SUBSET, values, key_rows
        )
        np.testing.assert_array_equal(c, ref)

    def test_scalar_contract_under_both_tiers(self, both_tiers):
        # evaluate_keys/block/grid equal looping evaluate — the cross-
        # entry-point contract, asserted under each tier separately.
        keys = list(range(16))
        values = [(0, 1, 0), (1, 1, 1)]
        for tier in ("c", "numpy"):
            kernels.select(tier)
            key_bits = self.PRF.evaluate_keys("u", self.SUBSET, values[0], keys)
            block = self.PRF.evaluate_block(["u", "v"], self.SUBSET, values, [3, 9])
            grid = self.PRF.evaluate_grid(
                ["u", "v"],
                self.SUBSET,
                values,
                np.asarray([[1, 2], [3, 4]], dtype=np.uint64),
            )
            for k in keys:
                assert key_bits[k] == self.PRF.evaluate("u", self.SUBSET, values[0], k)
            for u, (uid, key) in enumerate((("u", 3), ("v", 9))):
                for j, value in enumerate(values):
                    assert block[u, j] == self.PRF.evaluate(uid, self.SUBSET, value, key)
            for u, uid in enumerate(("u", "v")):
                for j in range(2):
                    assert grid[u, j] == self.PRF.evaluate(
                        uid, self.SUBSET, values[u], int([[1, 2], [3, 4]][u][j])
                    )


# ----------------------------------------------------------------------
# Serving level: concurrent execute against a sequential reference
# ----------------------------------------------------------------------
class TestConcurrentExecute:
    @pytest.fixture
    def engine(self, tmp_path):
        from repro.core import PrivacyParams, SketchEstimator, Sketcher
        from repro.data import salary_table
        from repro.server import (
            QueryEngine,
            attribute_subsets,
            per_bit_subsets,
            publish_database,
        )

        rng = np.random.default_rng(77)
        params = PrivacyParams(p=0.3)
        prf = CounterPRF(p=0.3, global_key=b"concurrent-serving-test")
        db = salary_table(1200, bits=5, attributes=("a", "b"), rng=rng)
        sketcher = Sketcher(params, prf, sketch_bits=8, rng=rng)
        subsets = list(
            dict.fromkeys(per_bit_subsets(db.schema) + attribute_subsets(db.schema))
        )
        store = publish_database(db, sketcher, subsets)
        estimator = SketchEstimator(params, prf)
        return QueryEngine(db.schema, store, estimator), db

    def _requests(self, db):
        from repro.protocol import (
            CountsBlockRequest,
            EstimateManyRequest,
            FractionRequest,
            MarginalRequest,
        )

        subset_a = db.schema.bits("a")
        subset_b = db.schema.bits("b")
        values = [
            tuple(int(bit) for bit in np.binary_repr(v, 5)) for v in range(8)
        ]
        requests = []
        for v in values[:4]:
            requests.append(FractionRequest.build(subset_a, v))
            requests.append(FractionRequest.build(subset_b, v))
        requests.append(CountsBlockRequest.build(subset_a, values))
        requests.append(EstimateManyRequest.build(subset_b, values))
        requests.append(MarginalRequest.build(subset_a))
        # Repeat the whole list so every request is answered both cold
        # (first pass fills the evaluation cache) and warm.
        return requests * 3

    def test_concurrent_matches_sequential(self, engine):
        from repro.protocol import dumps_response

        engine, db = engine
        requests = self._requests(db)
        reference = [dumps_response(engine.execute(r)) for r in requests]

        # Fresh engine (cold cache) for the concurrent run.
        barrier = threading.Barrier(8)

        def hammer(worker):
            barrier.wait()  # maximise overlap: all workers start together
            return [
                (i, dumps_response(engine.execute(requests[i])))
                for i in range(worker, len(requests), 8)
            ]

        with ThreadPoolExecutor(max_workers=8) as pool:
            chunks = list(pool.map(hammer, range(8)))
        for chunk in chunks:
            for index, payload in chunk:
                assert payload == reference[index], (
                    f"concurrent response {index} diverged from sequential run"
                )

    def test_repeated_concurrent_runs_stay_identical(self, engine):
        # Cache now warm (previous calls in this test fill it): repeated
        # concurrent sweeps must stay byte-stable — corruption of cached
        # columns would surface as drift between sweeps.
        from repro.protocol import dumps_response

        engine, db = engine
        requests = self._requests(db)[:10]

        def sweep():
            with ThreadPoolExecutor(max_workers=6) as pool:
                return list(
                    pool.map(lambda r: dumps_response(engine.execute(r)), requests)
                )

        first = sweep()
        for _ in range(3):
            assert sweep() == first
