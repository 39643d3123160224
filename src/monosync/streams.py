"""Counter-based random streams with labeled sub-seeding.

All randomness in the package flows from one root seed.  Sub-streams are
addressed by (seed, label..., stream_id) tuples: string labels are hashed
to 64-bit integers and fed, together with the seed and stream id, into a
``SeedSequence`` keying a Philox counter-based generator.  Distinct labels
or stream ids give statistically independent streams, and regeneration is
bit-exact across runs, platforms, and worker counts.

Philox advances its counter in blocks of four 64-bit words while a uniform
double consumes one word, so random-access addressing of draw ``j`` uses
``advance(j // 4)`` plus ``j % 4`` discarded draws.

With a counter-based generator, deriving the key is the only per-stream
work.  Noise tables of many streams (``engine._BlockTable``) therefore
derive all their keys together with :func:`stream_keys`, a vectorized
``SeedSequence``, and fill every row from one Philox: re-keyed per row, its
counter set to ``start // 4`` with an empty buffer, and the first
``start % 4`` draws dropped.  Every row holds exactly the draws of its own
``stream_generator``.
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


def uniforms_at(seed: int, labels: tuple, start: int, count: int) -> np.ndarray:
    """Uniform draws ``start .. start+count-1`` of a stream without generating the prefix."""
    bitgen = np.random.Philox(seed_sequence(seed, *labels))
    bitgen.advance(start // 4)
    skip = start % 4
    return np.random.Generator(bitgen).random(skip + count)[skip:]


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


def stream_keys(seed: int, label, stream_ids) -> np.ndarray:
    """Philox keys of the streams ``(seed, label, id)``, one (N, 2) uint64 row per id.

    Row ``i`` is bit for bit the key ``stream_generator(seed, label,
    stream_ids[i])`` gives its Philox, derived for all ids at once.  Ids are
    non-negative and below 2**64; ids of one and of two 32-bit words give
    entropy of different lengths and are keyed as separate groups.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64).reshape(-1)
    prefix = _words(int(seed) & _MASK64) + _words(hash64(label))
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


def derive_seed(seed: int, label) -> int:
    """New root seed deterministically derived from (seed, label)."""
    h = hashlib.blake2b(digest_size=8)
    h.update(int(seed).to_bytes(8, "little", signed=False))
    h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest(), "little")
