"""Counter-based random streams with labeled sub-seeding.

All randomness in the package flows from one root seed.  A stream is
addressed by a (seed, label...) tuple: string labels are hashed to 64-bit
integers and fed, together with the seed, into a ``SeedSequence`` keying a
Philox counter-based generator.  Distinct addresses give statistically
independent streams, and regeneration is bit-exact across runs, platforms,
and worker counts.

Philox4x64-10 enciphers a 256-bit counter under a 128-bit key into a block
of four 64-bit words, and a uniform double consumes one word, so any draw
is addressed through the counter without generating its prefix (Salmon,
Moraes, Dror & Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC
2011).  Noise addresses its replicas through the counter too, in the layout
:data:`NOISE_LAYOUT` names: the noise of one purpose is keyed once, by its
address without the replica ids, and uniform ``j`` of replica ``r`` is word
``j % 4`` of the block enciphered from counter ``r + 2**128 (j // 4)``.  An
address with no ids, like every :func:`stream_generator`, reads uniform
``j`` from counter ``j // 4 + 1``, as a fresh numpy ``Philox`` does.  Every
noise value is read from an ``engine._BlockTable``; ``stream_generator`` is
left for the draws that are not noise.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "NOISE_LAYOUT",
    "hash64",
    "stream_generator",
    "derive_seed",
]

# Written into every manifest: a manifest of another layout draws other noise.
NOISE_LAYOUT = "philox4x64-10 key=address counter=id+2**128*block"

_MASK64 = (1 << 64) - 1


def hash64(label) -> int:
    """Stable 64-bit hash of a label; ints pass through, strings are digested."""
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK64
    digest = hashlib.blake2b(str(label).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stream_generator(seed: int, *labels) -> np.random.Generator:
    """Fresh Philox-backed generator for the labeled sub-stream."""
    entropy = [int(seed) & _MASK64] + [hash64(lab) for lab in labels]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, label) -> int:
    """New root seed deterministically derived from (seed, label); the seed is taken mod 2**64."""
    h = hashlib.blake2b(digest_size=8)
    h.update((int(seed) & _MASK64).to_bytes(8, "little"))
    h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest(), "little")
