"""Counter-based random streams with labeled sub-seeding.

All randomness in the package flows from one root seed.  Sub-streams are
addressed by (seed, label..., stream_id) tuples: string labels are hashed
to 64-bit integers and fed, together with the seed and stream id, into a
``SeedSequence`` keying a Philox counter-based generator.  Distinct labels
or stream ids give statistically independent streams, and regeneration is
bit-exact across runs, platforms, and worker counts.

Philox4x64-10 enciphers a 256-bit counter under a 128-bit key into a block
of four 64-bit words, and a uniform double consumes one word.  numpy bumps
the counter before each block, so word ``j`` of a stream is word ``j % 4``
of the block enciphered from counter ``j // 4 + 1``: any draw is addressed
directly, without generating the prefix.

Every noise value is read from an ``engine._BlockTable``, one row per
stream; a single stream is a one-row table.  A table derives all its keys
at once with :func:`stream_keys` and fills an extension one of two ways:
:func:`philox_uniforms` enciphers every (key, counter block) pair in one
numpy pass, or one Philox, re-keyed per row, fills each row in C.  The
numpy pass takes extensions of at most 64 uniforms per row of tables of at
least 192 rows, where it is the faster (see ``_BlockTable``).  Either way
every row holds exactly the draws of its own ``stream_generator``, which
is left for the draws that are not noise.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "hash64",
    "seed_sequence",
    "stream_generator",
    "derive_seed",
    "stream_keys",
    "philox_uniforms",
]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# Philox4x64-10 constants (Salmon et al., SC 2011; numpy/random/src/philox/philox.h).
_PHILOX_MULT = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)


def hash64(label) -> int:
    """Stable 64-bit hash of a label; ints pass through, strings are digested."""
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK64
    digest = hashlib.blake2b(str(label).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def seed_sequence(seed: int, *labels) -> np.random.SeedSequence:
    entropy = [int(seed) & _MASK64] + [hash64(lab) for lab in labels]
    return np.random.SeedSequence(entropy)


def stream_generator(seed: int, *labels) -> np.random.Generator:
    """Fresh Philox-backed generator for the labeled sub-stream."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *labels)))


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of ``n >= 0`` as ``SeedSequence`` coerces it: 0 gives [0]."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_sequence_keys(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(2, np.uint64)`` for every row of (N, L) uint32 words."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> 16)

    n, length = entropy.shape
    zeros = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zeros) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    # entropy words past the pool size are mixed into every pool word
    for i_src in range(_POOL_SIZE, length):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))

    state = np.empty((n, 4), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(4):
        word = pool[i] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        word = word * np.uint32(hash_const)
        state[:, i] = word ^ (word >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def stream_keys(seed: int, *labels) -> np.ndarray:
    """Philox keys of the streams at ``stream_generator``'s address, one (N, 2) uint64 row per stream.

    A trailing non-string sequence of ids gives one row per id: row ``i`` is
    bit for bit the key of ``stream_generator(seed, *labels[:-1], ids[i])``,
    all derived at once.  Ids are non-negative and below 2**64; ids of one
    and of two 32-bit words give entropy of different lengths and are keyed
    as separate groups.  Any other address is one stream, keyed by
    ``seed_sequence`` itself, which is faster for one row (about 19 us
    against 150 us per call, numpy 2.4 on a 2-vCPU Xeon); so is a sequence
    of one id.
    """
    if labels and np.ndim(labels[-1]) and np.size(labels[-1]) == 1:
        labels = (*labels[:-1], int(np.asarray(labels[-1], dtype=np.uint64).reshape(-1)[0]))
    if not (labels and np.ndim(labels[-1])):
        return seed_sequence(seed, *labels).generate_state(2, np.uint64)[None]
    *labels, ids = labels
    ids = np.asarray(ids, dtype=np.uint64).reshape(-1)
    prefix = [w for x in (int(seed), *labels) for w in _words(hash64(x))]
    p = len(prefix)
    keys = np.empty((ids.size, 2), dtype=np.uint64)
    wide = ids > _MASK32
    for n_words, rows in ((1, np.nonzero(~wide)[0]), (2, np.nonzero(wide)[0])):
        if rows.size == 0:
            continue
        entropy = np.empty((rows.size, p + n_words), dtype=np.uint32)
        entropy[:, :p] = prefix
        for w in range(n_words):
            entropy[:, p + w] = (ids[rows] >> (32 * w)) & _MASK32
        keys[rows] = _seed_sequence_keys(entropy)
    return keys


def _mulhilo(a, mult: int, hi, lo, s, t, v) -> None:
    """Write the high and low words of the 128-bit products ``a * mult`` into ``hi`` and ``lo``.

    The high word is built from the 32-bit halves of both factors, whose
    products fit in 64 bits; ``s``, ``t`` and ``v`` are scratch arrays.
    """
    m_lo, m_hi = np.uint64(mult & _MASK32), np.uint64(mult >> 32)
    np.multiply(a, np.uint64(mult), out=lo)  # the low word wraps mod 2**64
    np.bitwise_and(a, _LO32, out=s)  # a_lo
    np.right_shift(a, _SHIFT32, out=t)  # a_hi
    np.multiply(t, m_hi, out=hi)
    np.multiply(t, m_lo, out=t)
    np.multiply(s, m_lo, out=v)
    np.right_shift(v, _SHIFT32, out=v)
    np.multiply(s, m_hi, out=s)
    np.add(s, v, out=s)  # a_lo m_hi + (a_lo m_lo >> 32): below 2**64
    np.right_shift(s, _SHIFT32, out=v)
    np.add(hi, v, out=hi)
    np.bitwise_and(s, _LO32, out=s)
    np.add(t, s, out=t)  # a_hi m_lo + the middle carry word: below 2**64
    np.right_shift(t, _SHIFT32, out=t)
    np.add(hi, t, out=hi)


def _philox_words(keys: np.ndarray, start: int, count: int) -> np.ndarray:
    """Raw words ``start .. start+count-1`` of the Philox stream of every key, (N, count) uint64.

    Row ``i`` is bit for bit ``Philox(key=keys[i, 0] + 2**64 keys[i, 1],
    counter=start // 4).random_raw(start % 4 + count)[start % 4:]``: word
    ``j`` of a stream is word ``j % 4`` of the block enciphered from the
    256-bit counter ``j // 4 + 1`` (numpy bumps the counter before each
    block).  All (key, counter block) pairs go through the ten rounds
    together, in place.
    """
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 2)
    first = start // 4
    n_blocks = (start + count + 3) // 4 - first
    shape = (keys.shape[0], n_blocks)
    base = (first + 1) % 2**256
    x0 = np.empty(shape, dtype=np.uint64)
    x0[:] = np.arange(n_blocks, dtype=np.uint64) + np.uint64(base & _MASK64)  # wraps mod 2**64
    wrapped = x0 < np.uint64(base & _MASK64)  # carries into the counter's upper words
    upper = [(base >> 64) % 2**192, ((base >> 64) + 1) % 2**192]
    x1, x2, x3 = (
        np.where(wrapped, np.uint64((upper[1] >> shift) & _MASK64), np.uint64((upper[0] >> shift) & _MASK64))
        for shift in (0, 64, 128)
    )
    hi0, lo0, hi1, lo1, s, t, v = (np.empty(shape, dtype=np.uint64) for _ in range(7))
    k0, k1 = keys[:, :1], keys[:, 1:]
    for r in range(_PHILOX_ROUNDS):
        _mulhilo(x0, _PHILOX_MULT[0], hi0, lo0, s, t, v)
        _mulhilo(x2, _PHILOX_MULT[1], hi1, lo1, s, t, v)
        # the round key is the key bumped r times, wrapping mod 2**64
        np.bitwise_xor(hi1, x1, out=hi1)
        np.bitwise_xor(hi1, k0 + np.uint64((r * _PHILOX_BUMP[0]) & _MASK64), out=hi1)
        np.bitwise_xor(hi0, x3, out=hi0)
        np.bitwise_xor(hi0, k1 + np.uint64((r * _PHILOX_BUMP[1]) & _MASK64), out=hi0)
        # (x0, x1, x2, x3) <- (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0); the old words become scratch
        x0, x1, x2, x3, hi0, lo0, hi1, lo1 = hi1, lo1, hi0, lo0, x0, x1, x2, x3
    words = np.stack([x0, x1, x2, x3], axis=-1).reshape(shape[0], 4 * n_blocks)
    skip = start % 4
    return words[:, skip : skip + count]


def philox_uniforms(keys: np.ndarray, start: int, count: int) -> np.ndarray:
    """Uniforms ``start .. start+count-1`` of the stream of every Philox key, (N, count) float64.

    Row ``i`` is bit for bit ``Generator(Philox(key=k)).random(start +
    count)[start:]`` for ``k = keys[i, 0] + 2**64 keys[i, 1]``, the key
    :func:`stream_keys` derives: a double is ``(word >> 11) * 2**-53``.  The cost is about the same
    per uniform whatever the rows, with no per-row overhead, so callers pass
    a few thousand counter blocks at a time to bound the temporaries.
    """
    return (_philox_words(keys, start, count) >> np.uint64(11)) * 2.0**-53


def derive_seed(seed: int, label) -> int:
    """New root seed deterministically derived from (seed, label)."""
    h = hashlib.blake2b(digest_size=8)
    h.update(int(seed).to_bytes(8, "little", signed=False))
    h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest(), "little")
