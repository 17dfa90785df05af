"""Vectorized CPython Mersenne-Twister streams.

The Monte-Carlo engine derives one :class:`random.Random` stream per
trial (see :func:`repro.keys.derive_seed`), which makes sharding trivial
— but seeding a Mersenne Twister costs ~6us per stream in CPython
(``init_by_array`` mixes a 624-word state twice), and at thousands of
trials with only a handful of draws each, stream *setup* dominates the
whole verification run.

This module reproduces CPython's ``_random.Random`` bit-for-bit in numpy
across the *trial axis*: every step of ``init_by_array``, the twist, the
tempering, and the 53-bit double construction is the same 32-bit
arithmetic the C implementation performs, executed for thousands of
seeds at once.

Draws are generated on demand by one path, :class:`MersenneStream`: it
holds the post-seeding ``(624, B)`` state and, when asked for more
draws, twists only the next words, in chunks of at most 227 words.  The
twist recurrence makes that exact (Matsumoto & Nishimura, ACM TOMACS
1998): new word ``i`` depends on new word ``i - 227``, so a chunk that
long reads only words an earlier chunk finished.  A caller that does not
know how many draws it will read (the Monte-Carlo fault kernel) extends
the stream as it goes instead of generating a worst-case width upfront.
After ``ensure(k)`` every column holds exactly
``[random.Random(int(s)).random() for _ in range(k)]`` — a claim the
test suite pins both against ``Random.getstate()`` and against the draws
themselves.

Seeds below ``2**32``, which CPython seeds with a one-word key instead
of two (probability ~2**-31 for SHA-derived seeds), fall back to
per-trial ``random.Random`` (correctness over speed): their columns are
overwritten with its draws.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Optional, Sequence

import numpy as np

#: Mersenne-Twister state size / twist offset (CPython `_randommodule.c`).
_N = 624
_M = 397

_U32 = np.uint32
_MATRIX_A = _U32(0x9908B0DF)
_UPPER = _U32(0x80000000)
_LOWER = _U32(0x7FFFFFFF)


def _init_genrand_base() -> np.ndarray:
    """``init_genrand(19650218)`` — the seed-independent base state."""
    state = np.empty(_N, dtype=np.uint32)
    x = 19650218
    state[0] = x
    for i in range(1, _N):
        x = (1812433253 * (x ^ (x >> 30)) + i) & 0xFFFFFFFF
        state[i] = x
    return state


_GENRAND_BASE = _init_genrand_base()


def derive_seed_block(root_seed: int, prefix: str, lo: int, hi: int) -> np.ndarray:
    """``derive_seed(root_seed, f"{prefix}{i}")`` for ``i`` in ``[lo, hi)``.

    Byte-identical to calling :func:`repro.keys.derive_seed` per index —
    the constant ``"{root_seed}:{prefix}"`` hash prefix is absorbed once
    and only the per-index suffix is hashed per trial.
    """
    base = hashlib.sha256(f"{root_seed}:{prefix}".encode("utf-8"))
    copy = base.copy
    digests: List[bytes] = []
    for i in range(lo, hi):
        h = copy()
        h.update(b"%d" % i)  # == str(i).encode("utf-8") for non-negative i
        digests.append(h.digest())
    # The big-endian first 8 bytes of each 32-byte digest, top bit dropped —
    # one strided view over the joined digests instead of a per-index
    # slice and int.from_bytes.
    words = np.frombuffer(b"".join(digests), dtype=">u8")[::4]
    return words.astype(np.uint64) >> np.uint64(1)


def _init_by_array_two_words(seeds: np.ndarray) -> np.ndarray:
    """CPython ``init_by_array`` for two-word keys, across all seeds.

    ``random_seed`` splits an int seed into little-endian 32-bit words;
    for seeds in ``[2**32, 2**64)`` the key is exactly two words.  Each
    of the 1247 mixing steps is sequential in the state index but
    independent across seeds, so it runs as a handful of elementwise
    uint32 operations (wraparound arithmetic, matching C) per step.  The
    state is laid out ``(624, batch)`` so every step touches contiguous
    rows instead of strided columns — the difference between cache-line
    sized accesses and thrashing the whole 10 MB state per step.
    """
    batch = seeds.shape[0]
    # ``+ init_key[j] + j`` folded into one per-word addend.
    key = (
        (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32),
        (seeds >> np.uint64(32)).astype(np.uint32) + _U32(1),
    )
    mt = np.empty((_N, batch), dtype=np.uint32)
    mt[:] = _GENRAND_BASE[:, None]
    scratch = np.empty(batch, dtype=np.uint32)
    # The 1247 steps below are pure dispatch overhead at small batch sizes,
    # so everything loop-invariant — row views, ufunc bindings, uint32
    # scalars (converted per call otherwise) — is hoisted out.
    rows = [mt[i] for i in range(_N)]
    rshift, xor = np.right_shift, np.bitwise_xor
    mul, add, sub = np.multiply, np.add, np.subtract
    thirty = _U32(30)
    mult1 = _U32(1664525)
    mult2 = _U32(1566083941)
    # ``out`` passed positionally — the kwargs path re-parses the dict on
    # every call, measurable at 6235 calls.  ``prev`` is carried across
    # iterations instead of re-indexed: the row written by one step is the
    # next step's input.
    i, j = 1, 0
    prev = rows[0]
    for _ in range(_N):
        row = rows[i]
        rshift(prev, thirty, scratch)
        xor(scratch, prev, scratch)
        mul(scratch, mult1, scratch)
        xor(row, scratch, scratch)
        add(scratch, key[j], row)
        prev = row
        i += 1
        j ^= 1
        if i >= _N:
            rows[0][:] = prev
            i = 1
    addends2 = [_U32(i) for i in range(_N)]
    for _ in range(_N - 1):
        row = rows[i]
        rshift(prev, thirty, scratch)
        xor(scratch, prev, scratch)
        mul(scratch, mult2, scratch)
        xor(row, scratch, scratch)
        sub(scratch, addends2[i], row)
        prev = row
        i += 1
        if i >= _N:
            rows[0][:] = prev
            i = 1
    rows[0][:] = _UPPER
    return mt


def _mix(y: np.ndarray) -> np.ndarray:
    return (y >> _U32(1)) ^ ((y & _U32(1)) * _MATRIX_A)


#: Offsets inside one twist where the in-place recurrence changes shape.
#: Word ``i`` reads word ``(i + 397) % 624``: for ``i < 227`` a word of the
#: previous generation, from 227 on a word this generation already
#: rewrote — so a vectorized segment spans at most 227 words.  Word 623
#: reads the *new* word 0 as its neighbour.
_SEGMENT_ENDS = (227, 454, 623, _N)


def _twist_range(mt: np.ndarray, lo: int, hi: int) -> None:
    """Rewrite state words ``lo..hi-1`` in place, as the C twist loop does.

    ``[lo, hi)`` must lie inside one segment of :data:`_SEGMENT_ENDS`,
    which makes every word the segment reads either untouched (old) or
    rewritten by an earlier segment (new), exactly as in the sequential
    loop.  Layout ``(624, B)``.
    """
    nxt = mt[lo + 1 : hi + 1] if hi < _N else mt[0:1]
    src = (lo + _M) % _N
    y = (mt[lo:hi] & _UPPER) | (nxt & _LOWER)
    mt[lo:hi] = mt[src : src + hi - lo] ^ _mix(y)


def _temper(y: np.ndarray) -> np.ndarray:
    y = y ^ (y >> _U32(11))
    y = y ^ ((y << _U32(7)) & _U32(0x9D2C5680))
    y = y ^ ((y << _U32(15)) & _U32(0xEFC60000))
    return y ^ (y >> _U32(18))


def state_block(seeds: np.ndarray) -> np.ndarray:
    """The post-seeding MT state per seed — what ``getstate()`` exposes.

    Only valid for seeds in ``[2**32, 2**64)`` (two-word keys); callers
    route smaller seeds through :class:`random.Random` directly.
    """
    return _init_by_array_two_words(
        np.ascontiguousarray(seeds, dtype=np.uint64)
    ).T


class MersenneStream:
    """``random()`` doubles for a batch of seeds, generated on demand.

    ``draws`` is a draw-major ``(capacity + 1, B)`` buffer: after
    ``ensure(n)``, column ``t`` of rows ``0..n-1`` equals ``n`` calls of
    ``random.Random(int(seeds[t])).random()`` bit-for-bit.  Each call
    generates only the words past what earlier calls produced, twisting
    the held ``(624, B)`` state one :func:`_twist_range` segment at a time
    and writing the 53-bit doubles straight into the buffer.  Row
    ``capacity`` is never written: a zero sentinel a cursor parked at the
    end of the stream may read without consuming.  The buffer is
    zero-allocated, so rows never reached cost no resident memory.
    """

    __slots__ = ("capacity", "filled", "draws", "_mt", "_rngs")

    def __init__(
        self,
        seeds: np.ndarray,
        capacity: int,
        state: Optional[np.ndarray] = None,
    ) -> None:
        seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
        self.capacity = capacity
        self.filled = 0
        self.draws = np.zeros((capacity + 1, seeds.shape[0]), dtype=np.float64)
        if state is None and seeds.size and capacity:
            state = _init_by_array_two_words(seeds)
        self._mt = state
        # Seeds below 2**32 take a one-word key in CPython; their columns
        # are generated with the rest, then overwritten per trial.
        self._rngs = [
            (int(t), random.Random(int(seeds[t])))
            for t in np.nonzero(seeds < np.uint64(1 << 32))[0]
        ]

    @classmethod
    def fused(
        cls, seed_blocks: Sequence[np.ndarray], capacities: Sequence[int]
    ) -> List["MersenneStream"]:
        """One stream per seed family, seeded by a single pass.

        ``init_by_array`` costs the same per seed whatever the draw count,
        and its 1247 sequential steps are per-call overhead at small
        batches, so the families share one pass over the concatenated
        seeds.  Each stream then twists its own column slice of that state
        to its own capacity; columns are independent, so sharing the pass
        cannot change a draw.
        """
        if not seed_blocks:
            return []
        blocks = [np.ascontiguousarray(s, dtype=np.uint64) for s in seed_blocks]
        state = _init_by_array_two_words(np.concatenate(blocks))
        streams: List[MersenneStream] = []
        col = 0
        for block, capacity in zip(blocks, capacities):
            own = state[:, col : col + block.size]
            streams.append(cls(block, capacity, state=own))
            col += block.size
        return streams

    def ensure(self, n: int) -> None:
        """Make rows ``0..n-1`` hold the first ``n`` draws (clamped to capacity)."""
        n = min(n, self.capacity)
        lo = self.filled
        if n <= lo:
            return
        if self._mt is not None:
            self._generate(lo, n)
        for t, rng in self._rngs:
            self.draws[lo:n, t] = [rng.random() for _ in range(n - lo)]
        self.filled = n

    def _generate(self, lo: int, hi: int) -> None:
        """Doubles ``lo..hi-1``: words ``2*lo..2*hi-1`` of the twist stream.

        Every call starts and ends on a whole double, so only a double
        whose two words straddle a segment end (words 226/227 and 622/623
        of each generation) pairs across pieces — joined here.
        """
        mt = self._mt
        word, end = 2 * lo, 2 * hi
        pieces: List[np.ndarray] = []
        while word < end:
            j = word % _N
            stop = min(next(b for b in _SEGMENT_ENDS if b > j), j + end - word)
            _twist_range(mt, j, stop)
            pieces.append(_temper(mt[j:stop]))
            word += stop - j
        words = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        out = self.draws[lo:hi]
        # ``(a * 2**26 + b) / 2**53`` with a, b the top 27/26 bits — the
        # same float64 operations, in the same order, as ``random_random``.
        np.multiply(words[0::2] >> _U32(5), 67108864.0, out=out)
        out += words[1::2] >> _U32(6)
        out *= 1.0 / 9007199254740992.0


__all__ = [
    "MersenneStream",
    "derive_seed_block",
    "state_block",
]
