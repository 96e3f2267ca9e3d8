/* CounterPRF hot loops as a CPython extension.
 *
 * Two stages of the counter-mode PRF, both releasing the GIL for their
 * whole duration:
 *
 *   subkeys         — the per-(id, B) keyed BLAKE2b subkey of every user
 *                     (RFC 7693, pinned against hashlib.blake2b);
 *
 * and one fused function family, three drive shapes — the same three bulk
 * layouts repro/core/philox.py serves with NumPy array arithmetic, here
 * fused into single C passes (Philox4x64-10 expansion -> threshold
 * compare -> int8 bit output):
 *
 *   threshold_keys  — one (id, B, v) head against a run of candidate
 *                     keys (Algorithm 1's rejection-loop axis);
 *   threshold_block — the (users x blocks) aggregator lattice behind
 *                     evaluate_block, emitted as the flat (M, 4B)
 *                     lane-interleaved layout the gather step consumes;
 *   threshold_grid  — per-user (value, key-run) rows behind
 *                     evaluate_grid and sketch_many.
 *
 * The Philox core is the Random123 / numpy.random.Philox parameterisation
 * (4x64, 10 rounds); Python-side tests pin every entry point bitwise
 * against the NumPy reference path, which is itself pinned against
 * numpy.random.Philox, and pin subkeys against hashlib.  uint64
 * arithmetic wraps identically everywhere, so compiled and NumPy tiers
 * are interchangeable bit for bit.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

#include <stdint.h>
#include <string.h>

#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL
#define PHILOX_ROUNDS 10

/* Philox4x64-10 at counter (c0, c1, 0, 0) — the zero-tail form every
 * hot path uses (their counter layouts never touch the two high words).
 * Matches philox4x64(c0, c1, 0, 0, k0, k1) in repro/core/philox.py:
 * per round, c0..c3 <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0). */
static inline void
philox4x64_10_zero_tail(uint64_t c0, uint64_t c1, uint64_t k0, uint64_t k1,
                        uint64_t out[4])
{
    uint64_t c2 = 0, c3 = 0;
    int r;
    for (r = 0; r < PHILOX_ROUNDS; r++) {
        __uint128_t p0, p1;
        uint64_t lo0, hi0, lo1, hi1, n0, n2;
        if (r) {
            k0 += PHILOX_W0;
            k1 += PHILOX_W1;
        }
        p0 = (__uint128_t)PHILOX_M0 * c0;
        p1 = (__uint128_t)PHILOX_M1 * c2;
        lo0 = (uint64_t)p0;
        hi0 = (uint64_t)(p0 >> 64);
        lo1 = (uint64_t)p1;
        hi1 = (uint64_t)(p1 >> 64);
        n0 = hi1 ^ c1 ^ k0;
        n2 = hi0 ^ c3 ^ k1;
        c1 = lo1;
        c3 = lo0;
        c0 = n0;
        c2 = n2;
    }
    out[0] = c0;
    out[1] = c1;
    out[2] = c2;
    out[3] = c3;
}

/* Fetch a C-contiguous aligned uint64 view of `obj` (new reference). */
static PyArrayObject *
as_u64_array(PyObject *obj, int ndim_required, const char *name)
{
    PyArrayObject *array = (PyArrayObject *)PyArray_FROM_OTF(
        obj, NPY_UINT64, NPY_ARRAY_IN_ARRAY);
    if (array == NULL)
        return NULL;
    if (PyArray_NDIM(array) != ndim_required) {
        PyErr_Format(PyExc_ValueError, "%s must be %d-dimensional, got %d",
                     name, ndim_required, PyArray_NDIM(array));
        Py_DECREF(array);
        return NULL;
    }
    return array;
}

/* threshold_keys(block, keys, k0, k1, lane, threshold) -> int8[K]
 *
 * bits[k] = (philox(block, keys[k], sk)[lane] < threshold). */
static PyObject *
threshold_keys(PyObject *self, PyObject *args)
{
    unsigned long long block, k0, k1, threshold;
    int lane;
    PyObject *keys_obj;
    PyArrayObject *keys, *out;
    npy_intp num_keys;
    const uint64_t *key_data;
    int8_t *out_data;

    (void)self;
    if (!PyArg_ParseTuple(args, "KOKKiK", &block, &keys_obj, &k0, &k1,
                          &lane, &threshold))
        return NULL;
    if (lane < 0 || lane > 3) {
        PyErr_Format(PyExc_ValueError, "lane must be in 0..3, got %d", lane);
        return NULL;
    }
    keys = as_u64_array(keys_obj, 1, "keys");
    if (keys == NULL)
        return NULL;
    num_keys = PyArray_DIM(keys, 0);
    out = (PyArrayObject *)PyArray_SimpleNew(1, &num_keys, NPY_INT8);
    if (out == NULL) {
        Py_DECREF(keys);
        return NULL;
    }
    key_data = (const uint64_t *)PyArray_DATA(keys);
    out_data = (int8_t *)PyArray_DATA(out);
    Py_BEGIN_ALLOW_THREADS
    {
        npy_intp k;
        for (k = 0; k < num_keys; k++) {
            uint64_t words[4];
            philox4x64_10_zero_tail((uint64_t)block, key_data[k],
                                    (uint64_t)k0, (uint64_t)k1, words);
            out_data[k] = words[lane] < (uint64_t)threshold;
        }
    }
    Py_END_ALLOW_THREADS
    Py_DECREF(keys);
    return (PyObject *)out;
}

/* threshold_block(block_ids, user_keys, sk0, sk1, threshold) -> int8[M, 4B]
 *
 * out[m, 4b + lane] = (philox(block_ids[b], user_keys[m], sk[m])[lane]
 *                      < threshold) — the flat lane-interleaved lattice
 * CounterPRF.evaluate_block gathers candidate-value columns from. */
static PyObject *
threshold_block(PyObject *self, PyObject *args)
{
    unsigned long long threshold;
    PyObject *blocks_obj, *keys_obj, *sk0_obj, *sk1_obj;
    PyArrayObject *blocks, *keys, *sk0, *sk1, *out;
    npy_intp num_blocks, num_users, out_dims[2];
    const uint64_t *block_data, *key_data, *sk0_data, *sk1_data;
    int8_t *out_data;

    (void)self;
    if (!PyArg_ParseTuple(args, "OOOOK", &blocks_obj, &keys_obj, &sk0_obj,
                          &sk1_obj, &threshold))
        return NULL;
    blocks = as_u64_array(blocks_obj, 1, "block_ids");
    keys = as_u64_array(keys_obj, 1, "user_keys");
    sk0 = as_u64_array(sk0_obj, 1, "subkey0");
    sk1 = as_u64_array(sk1_obj, 1, "subkey1");
    if (blocks == NULL || keys == NULL || sk0 == NULL || sk1 == NULL)
        goto fail;
    num_blocks = PyArray_DIM(blocks, 0);
    num_users = PyArray_DIM(keys, 0);
    if (PyArray_DIM(sk0, 0) != num_users || PyArray_DIM(sk1, 0) != num_users) {
        PyErr_Format(PyExc_ValueError,
                     "user_keys (%zd), subkey0 (%zd) and subkey1 (%zd) must "
                     "align on the user axis", (Py_ssize_t)num_users,
                     (Py_ssize_t)PyArray_DIM(sk0, 0),
                     (Py_ssize_t)PyArray_DIM(sk1, 0));
        goto fail;
    }
    out_dims[0] = num_users;
    out_dims[1] = num_blocks * 4;
    out = (PyArrayObject *)PyArray_SimpleNew(2, out_dims, NPY_INT8);
    if (out == NULL)
        goto fail;
    block_data = (const uint64_t *)PyArray_DATA(blocks);
    key_data = (const uint64_t *)PyArray_DATA(keys);
    sk0_data = (const uint64_t *)PyArray_DATA(sk0);
    sk1_data = (const uint64_t *)PyArray_DATA(sk1);
    out_data = (int8_t *)PyArray_DATA(out);
    Py_BEGIN_ALLOW_THREADS
    {
        npy_intp m, b;
        for (m = 0; m < num_users; m++) {
            const uint64_t c1 = key_data[m];
            const uint64_t k0 = sk0_data[m];
            const uint64_t k1 = sk1_data[m];
            int8_t *row = out_data + m * num_blocks * 4;
            for (b = 0; b < num_blocks; b++) {
                uint64_t words[4];
                philox4x64_10_zero_tail(block_data[b], c1, k0, k1, words);
                row[4 * b + 0] = words[0] < (uint64_t)threshold;
                row[4 * b + 1] = words[1] < (uint64_t)threshold;
                row[4 * b + 2] = words[2] < (uint64_t)threshold;
                row[4 * b + 3] = words[3] < (uint64_t)threshold;
            }
        }
    }
    Py_END_ALLOW_THREADS
    Py_DECREF(blocks);
    Py_DECREF(keys);
    Py_DECREF(sk0);
    Py_DECREF(sk1);
    return (PyObject *)out;

fail:
    Py_XDECREF(blocks);
    Py_XDECREF(keys);
    Py_XDECREF(sk0);
    Py_XDECREF(sk1);
    return NULL;
}

/* threshold_grid(vblocks, lanes, key_rows, sk0, sk1, threshold) -> int8[U, K]
 *
 * out[u, k] = (philox(vblocks[u], key_rows[u, k], sk[u])[lanes[u]]
 *              < threshold) — each user's own candidate value against
 * that user's run of keys (the sketch_many / evaluate_grid axis). */
static PyObject *
threshold_grid(PyObject *self, PyObject *args)
{
    unsigned long long threshold;
    PyObject *vblocks_obj, *lanes_obj, *rows_obj, *sk0_obj, *sk1_obj;
    PyArrayObject *vblocks, *lanes, *rows, *sk0, *sk1, *out;
    npy_intp num_users, num_keys, out_dims[2];
    const uint64_t *vblock_data, *row_data, *sk0_data, *sk1_data;
    const uint8_t *lane_data;
    int8_t *out_data;

    (void)self;
    if (!PyArg_ParseTuple(args, "OOOOOK", &vblocks_obj, &lanes_obj, &rows_obj,
                          &sk0_obj, &sk1_obj, &threshold))
        return NULL;
    vblocks = as_u64_array(vblocks_obj, 1, "vblocks");
    rows = as_u64_array(rows_obj, 2, "key_rows");
    sk0 = as_u64_array(sk0_obj, 1, "subkey0");
    sk1 = as_u64_array(sk1_obj, 1, "subkey1");
    lanes = (PyArrayObject *)PyArray_FROM_OTF(lanes_obj, NPY_UINT8,
                                              NPY_ARRAY_IN_ARRAY);
    if (vblocks == NULL || rows == NULL || sk0 == NULL || sk1 == NULL ||
        lanes == NULL)
        goto fail;
    if (PyArray_NDIM(lanes) != 1) {
        PyErr_Format(PyExc_ValueError, "lanes must be 1-dimensional, got %d",
                     PyArray_NDIM(lanes));
        goto fail;
    }
    num_users = PyArray_DIM(rows, 0);
    num_keys = PyArray_DIM(rows, 1);
    if (PyArray_DIM(vblocks, 0) != num_users ||
        PyArray_DIM(lanes, 0) != num_users ||
        PyArray_DIM(sk0, 0) != num_users ||
        PyArray_DIM(sk1, 0) != num_users) {
        PyErr_SetString(PyExc_ValueError,
                        "vblocks, lanes, key_rows, subkey0 and subkey1 must "
                        "align on the user axis");
        goto fail;
    }
    {
        npy_intp u;
        lane_data = (const uint8_t *)PyArray_DATA(lanes);
        for (u = 0; u < num_users; u++) {
            if (lane_data[u] > 3) {
                PyErr_Format(PyExc_ValueError,
                             "lanes must be in 0..3, got %d at row %zd",
                             (int)lane_data[u], (Py_ssize_t)u);
                goto fail;
            }
        }
    }
    out_dims[0] = num_users;
    out_dims[1] = num_keys;
    out = (PyArrayObject *)PyArray_SimpleNew(2, out_dims, NPY_INT8);
    if (out == NULL)
        goto fail;
    vblock_data = (const uint64_t *)PyArray_DATA(vblocks);
    row_data = (const uint64_t *)PyArray_DATA(rows);
    sk0_data = (const uint64_t *)PyArray_DATA(sk0);
    sk1_data = (const uint64_t *)PyArray_DATA(sk1);
    out_data = (int8_t *)PyArray_DATA(out);
    Py_BEGIN_ALLOW_THREADS
    {
        npy_intp u, k;
        for (u = 0; u < num_users; u++) {
            const uint64_t c0 = vblock_data[u];
            const uint64_t k0 = sk0_data[u];
            const uint64_t k1 = sk1_data[u];
            const int lane = (int)lane_data[u];
            const uint64_t *row = row_data + u * num_keys;
            int8_t *out_row = out_data + u * num_keys;
            for (k = 0; k < num_keys; k++) {
                uint64_t words[4];
                philox4x64_10_zero_tail(c0, row[k], k0, k1, words);
                out_row[k] = words[lane] < (uint64_t)threshold;
            }
        }
    }
    Py_END_ALLOW_THREADS
    Py_DECREF(vblocks);
    Py_DECREF(lanes);
    Py_DECREF(rows);
    Py_DECREF(sk0);
    Py_DECREF(sk1);
    return (PyObject *)out;

fail:
    Py_XDECREF(vblocks);
    Py_XDECREF(lanes);
    Py_XDECREF(rows);
    Py_XDECREF(sk0);
    Py_XDECREF(sk1);
    return NULL;
}

/* ------------------------------------------------------------------
 * Keyed BLAKE2b (RFC 7693) — CounterPRF's per-(id, B) subkeys
 * ------------------------------------------------------------------
 *
 * A portable transcription of the RFC 7693 reference: 64-bit words,
 * 12 rounds, little-endian message and digest words.  Only the shape
 * subkeys() needs is implemented — a keyed, personalised 16-byte digest
 * with fanout 1 and depth 1 — and it is pinned bitwise against
 * hashlib.blake2b by the Python test suite. */

static const uint64_t BLAKE2B_IV[8] = {
    0x6A09E667F3BCC908ULL, 0xBB67AE8584CAA73BULL,
    0x3C6EF372FE94F82BULL, 0xA54FF53A5F1D36F1ULL,
    0x510E527FADE682D1ULL, 0x9B05688C2B3E6C1FULL,
    0x1F83D9ABFB41BD6BULL, 0x5BE0CD19137E2179ULL
};

static const uint8_t BLAKE2B_SIGMA[12][16] = {
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
    {14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
    {11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4},
    {7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8},
    {9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13},
    {2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9},
    {12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11},
    {13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10},
    {6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5},
    {10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0},
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
    {14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3}
};

#define BLAKE2B_BLOCK 128
#define SUBKEY_DIGEST 16

static inline uint64_t
load64_le(const uint8_t *p)
{
    return (uint64_t)p[0] | ((uint64_t)p[1] << 8) | ((uint64_t)p[2] << 16) |
           ((uint64_t)p[3] << 24) | ((uint64_t)p[4] << 32) |
           ((uint64_t)p[5] << 40) | ((uint64_t)p[6] << 48) |
           ((uint64_t)p[7] << 56);
}

static inline uint64_t
rotr64(uint64_t x, int n)
{
    return (x >> n) | (x << (64 - n));
}

#define BLAKE2B_G(a, b, c, d, x, y)        \
    do {                                   \
        v[a] = v[a] + v[b] + (x);          \
        v[d] = rotr64(v[d] ^ v[a], 32);    \
        v[c] = v[c] + v[d];                \
        v[b] = rotr64(v[b] ^ v[c], 24);    \
        v[a] = v[a] + v[b] + (y);          \
        v[d] = rotr64(v[d] ^ v[a], 16);    \
        v[c] = v[c] + v[d];                \
        v[b] = rotr64(v[b] ^ v[c], 63);    \
    } while (0)

#define BLAKE2B_ROUND(r)                                \
    do {                                                \
        const uint8_t *s = BLAKE2B_SIGMA[r];            \
        BLAKE2B_G(0, 4, 8, 12, m[s[0]], m[s[1]]);       \
        BLAKE2B_G(1, 5, 9, 13, m[s[2]], m[s[3]]);       \
        BLAKE2B_G(2, 6, 10, 14, m[s[4]], m[s[5]]);      \
        BLAKE2B_G(3, 7, 11, 15, m[s[6]], m[s[7]]);      \
        BLAKE2B_G(0, 5, 10, 15, m[s[8]], m[s[9]]);      \
        BLAKE2B_G(1, 6, 11, 12, m[s[10]], m[s[11]]);    \
        BLAKE2B_G(2, 7, 8, 13, m[s[12]], m[s[13]]);     \
        BLAKE2B_G(3, 4, 9, 14, m[s[14]], m[s[15]]);     \
    } while (0)

/* RFC 7693 section 3.2, F: compress one 128-byte block into h.  `t` is
 * the byte count absorbed so far including this block (inputs here stay
 * far below 2**64 bytes, so the high counter word is always zero). */
static void
blake2b_compress(uint64_t h[8], const uint8_t block[BLAKE2B_BLOCK],
                 uint64_t t, int last)
{
    uint64_t v[16], m[16];
    int i;
    for (i = 0; i < 16; i++)
        m[i] = load64_le(block + 8 * i);
    for (i = 0; i < 8; i++) {
        v[i] = h[i];
        v[i + 8] = BLAKE2B_IV[i];
    }
    v[12] ^= t;
    if (last)
        v[14] = ~v[14];
    /* Rounds unrolled with constant indices, so the SIGMA lookups
     * resolve at compile time. */
    BLAKE2B_ROUND(0);
    BLAKE2B_ROUND(1);
    BLAKE2B_ROUND(2);
    BLAKE2B_ROUND(3);
    BLAKE2B_ROUND(4);
    BLAKE2B_ROUND(5);
    BLAKE2B_ROUND(6);
    BLAKE2B_ROUND(7);
    BLAKE2B_ROUND(8);
    BLAKE2B_ROUND(9);
    BLAKE2B_ROUND(10);
    BLAKE2B_ROUND(11);
    for (i = 0; i < 8; i++)
        h[i] ^= v[i] ^ v[i + 8];
}

/* Finish a digest from a state that has absorbed `t` bytes: absorb the
 * non-empty `msg` (every block but the last plainly, the zero-padded
 * last one with the final flag) and leave the digest words in h. */
static void
blake2b_absorb_final(uint64_t h[8], uint64_t t, const uint8_t *msg,
                     size_t len)
{
    uint8_t block[BLAKE2B_BLOCK];
    while (len > BLAKE2B_BLOCK) {
        t += BLAKE2B_BLOCK;
        blake2b_compress(h, msg, t, 0);
        msg += BLAKE2B_BLOCK;
        len -= BLAKE2B_BLOCK;
    }
    memset(block, 0, sizeof block);
    memcpy(block, msg, len);
    blake2b_compress(h, block, t + len, 1);
}

static inline void
store32_be(uint8_t *p, uint32_t x)
{
    p[0] = (uint8_t)(x >> 24);
    p[1] = (uint8_t)(x >> 16);
    p[2] = (uint8_t)(x >> 8);
    p[3] = (uint8_t)x;
}

/* One user's id as the hash loop reads it: its UTF-8 bytes and its
 * character count (the canonical prefix's first header word). */
typedef struct {
    const char *utf8;
    Py_ssize_t size;
    uint32_t chars;
} id_view;

/* subkeys(key, person, user_ids, subset_length, tail) -> (uint64[M], uint64[M])
 *
 * For every id, the 16-byte keyed, personalised BLAKE2b digest of the
 * canonical prefix
 *     be32(len(id)) || be32(subset_length) || utf8(id) || tail
 * (tail = b"|B|" + be32 positions), returned as its two little-endian
 * words — byte-identical to CounterPRF._subkey per id.  The ids are read
 * under the GIL from a tuple snapshot that keeps each one alive (non-ASCII
 * ids are encoded into owned bytes objects, so a lone surrogate raises
 * UnicodeEncodeError exactly as str.encode does); the hash loop then runs
 * with the GIL released.  The key block is compressed once per call. */
static PyObject *
subkeys(PyObject *self, PyObject *args)
{
    Py_buffer key = {0}, person = {0}, tail = {0};
    PyObject *ids_obj, *ids = NULL, *owned = NULL, *result = NULL;
    PyArrayObject *out0 = NULL, *out1 = NULL;
    Py_ssize_t subset_length, num_users, i, max_size = 0;
    id_view *views = NULL;
    uint8_t *scratch = NULL;
    uint64_t base[8], absorbed = 0;
    npy_intp dims[1];

    (void)self;
    if (!PyArg_ParseTuple(args, "y*y*Ony*", &key, &person, &ids_obj,
                          &subset_length, &tail))
        return NULL;
    if (key.len > 64) {
        PyErr_Format(PyExc_ValueError, "key must be at most 64 bytes, got %zd",
                     key.len);
        goto done;
    }
    if (person.len > 16) {
        PyErr_Format(PyExc_ValueError,
                     "person must be at most 16 bytes, got %zd", person.len);
        goto done;
    }
    if (subset_length < 0 || (uint64_t)subset_length > 0xFFFFFFFFULL) {
        PyErr_SetString(PyExc_OverflowError,
                        "subset_length does not fit the 4-byte header");
        goto done;
    }

    /* Parameter block (RFC 7693 section 2.8): digest length, key length,
     * fanout 1, depth 1, zero salt, the personalisation in words 6-7. */
    memcpy(base, BLAKE2B_IV, sizeof base);
    base[0] ^= 0x01010000ULL ^ ((uint64_t)key.len << 8) ^ SUBKEY_DIGEST;
    {
        uint8_t padded[16] = {0};
        memcpy(padded, person.buf, (size_t)person.len);
        base[6] ^= load64_le(padded);
        base[7] ^= load64_le(padded + 8);
    }
    if (key.len > 0) {
        /* The zero-padded key block; never final, since every prefix
         * carries at least its 8 header bytes. */
        uint8_t block[BLAKE2B_BLOCK] = {0};
        memcpy(block, key.buf, (size_t)key.len);
        absorbed = BLAKE2B_BLOCK;
        blake2b_compress(base, block, absorbed, 0);
    }

    ids = PySequence_Tuple(ids_obj);
    if (ids == NULL)
        goto done;
    num_users = PyTuple_GET_SIZE(ids);
    owned = PyList_New(0);
    views = PyMem_Malloc((size_t)(num_users ? num_users : 1) * sizeof *views);
    if (owned == NULL || views == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < num_users; i++) {
        PyObject *item = PyTuple_GET_ITEM(ids, i);
        Py_ssize_t chars;
        if (!PyUnicode_Check(item)) {
            PyErr_Format(PyExc_TypeError,
                         "user_ids must be str, got %.100s at index %zd",
                         Py_TYPE(item)->tp_name, i);
            goto done;
        }
#if PY_VERSION_HEX < 0x030C0000
        if (PyUnicode_READY(item) < 0)
            goto done;
#endif
        chars = PyUnicode_GET_LENGTH(item);
        if ((uint64_t)chars > 0xFFFFFFFFULL) {
            PyErr_SetString(PyExc_OverflowError,
                            "user id does not fit the 4-byte header");
            goto done;
        }
        views[i].chars = (uint32_t)chars;
        if (PyUnicode_IS_ASCII(item)) {
            /* ASCII is its own UTF-8: read in place, kept alive by ids. */
            views[i].utf8 = (const char *)PyUnicode_DATA(item);
            views[i].size = chars;
        }
        else {
            PyObject *encoded = PyUnicode_AsUTF8String(item);
            int appended;
            if (encoded == NULL)
                goto done;
            appended = PyList_Append(owned, encoded);
            Py_DECREF(encoded);
            if (appended < 0)
                goto done;
            views[i].utf8 = PyBytes_AS_STRING(encoded);
            views[i].size = PyBytes_GET_SIZE(encoded);
        }
        if (views[i].size > max_size)
            max_size = views[i].size;
    }

    dims[0] = num_users;
    out0 = (PyArrayObject *)PyArray_SimpleNew(1, dims, NPY_UINT64);
    out1 = (PyArrayObject *)PyArray_SimpleNew(1, dims, NPY_UINT64);
    scratch = PyMem_Malloc((size_t)(8 + max_size + tail.len));
    if (out0 == NULL || out1 == NULL || scratch == NULL) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        goto done;
    }
    {
        uint64_t *k0 = (uint64_t *)PyArray_DATA(out0);
        uint64_t *k1 = (uint64_t *)PyArray_DATA(out1);
        const size_t tail_len = (size_t)tail.len;
        Py_BEGIN_ALLOW_THREADS
        store32_be(scratch + 4, (uint32_t)subset_length);
        for (i = 0; i < num_users; i++) {
            uint64_t h[8];
            const size_t size = (size_t)views[i].size;
            memcpy(h, base, sizeof h);
            store32_be(scratch, views[i].chars);
            memcpy(scratch + 8, views[i].utf8, size);
            memcpy(scratch + 8 + size, tail.buf, tail_len);
            blake2b_absorb_final(h, absorbed, scratch, 8 + size + tail_len);
            k0[i] = h[0];
            k1[i] = h[1];
        }
        Py_END_ALLOW_THREADS
    }
    result = PyTuple_Pack(2, (PyObject *)out0, (PyObject *)out1);

done:
    PyMem_Free(scratch);
    PyMem_Free(views);
    Py_XDECREF(out0);
    Py_XDECREF(out1);
    Py_XDECREF(owned);
    Py_XDECREF(ids);
    PyBuffer_Release(&key);
    PyBuffer_Release(&person);
    PyBuffer_Release(&tail);
    return result;
}

static PyMethodDef kernel_methods[] = {
    {"threshold_keys", threshold_keys, METH_VARARGS,
     "threshold_keys(block, keys, k0, k1, lane, threshold) -> int8[K]"},
    {"threshold_block", threshold_block, METH_VARARGS,
     "threshold_block(block_ids, user_keys, sk0, sk1, threshold) "
     "-> int8[M, 4B]"},
    {"threshold_grid", threshold_grid, METH_VARARGS,
     "threshold_grid(vblocks, lanes, key_rows, sk0, sk1, threshold) "
     "-> int8[U, K]"},
    {"subkeys", subkeys, METH_VARARGS,
     "subkeys(key, person, user_ids, subset_length, tail) "
     "-> (uint64[M], uint64[M])"},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    "_ckernel",
    "GIL-releasing CounterPRF kernels: keyed BLAKE2b subkeys and fused "
    "Philox4x64-10 threshold passes.",
    -1,
    kernel_methods,
    NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    PyObject *module = PyModule_Create(&ckernel_module);
    if (module == NULL)
        return NULL;
    import_array();
    if (PyErr_Occurred()) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
