"""Deterministic random-number streams.

Every stochastic run derives its generator from an integer seed and a key
tuple (typically the trajectory index) through a counter-based Philox
generator.  Draw j of stream (seed, key) is therefore a pure function of
(seed, key, j), independent of scheduling, worker count, or batch layout.

A stream's Philox key comes from ``SeedSequence(entropy=seed,
spawn_key=key)``, and there are two derivations of it that agree bit for
bit:

* :func:`stream` builds the SeedSequence, Philox and Generator of one
  stream, about 15-20 us each.  It stays the independent reference.
* :func:`stream_keys` repeats SeedSequence's hash for a whole batch of
  single-index keys: the seed's part once per seed, in Python integers, and
  the indices' part in vectorized uint32 arithmetic (seeds and indices of
  any size, multi-word ones included).  :class:`Streams` re-keys one Philox
  generator to counter 0 and an empty buffer for each row, for a batch
  that draws one row at a time; :func:`generators` builds one generator
  per row from the keys, for a batch whose rows draw in turns.  Philox is
  counter-based (Salmon et al., SC'11), so either draws what a fresh
  :func:`stream` of that index draws.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ValidationError

# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx), after
# M. E. O'Neill's seed_seq_fe.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for the given seed and key tuple."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def _hash(value, const, nxt):
    """SeedSequence's hashmix of uint32 words (Python integers or arrays):
    xor with the hash constant const, times the next one, nxt."""
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = (x * _MIX_L - y * _MIX_R) & _MASK32
    return value ^ value >> 16


def _constants(const: int, mult: int):
    """Successive hash constants from const, as the (this, next) pair that
    each hash of a sequence uses."""
    while True:
        nxt = const * mult & _MASK32
        yield const, nxt
        const = nxt


def _block(constants) -> tuple[np.ndarray, np.ndarray]:
    """The next _POOL constant pairs as (4, 1) uint32 columns, one per pool
    word."""
    pairs = np.array([next(constants) for _ in range(_POOL)], dtype=np.uint32)
    return pairs[:, :1], pairs[:, 1:]


# The hash constants of generate_state, one per pool word.
_STATE_CONSTANTS = _block(_constants(_INIT_B, _MULT_B))


@lru_cache(maxsize=8)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """The pool words a seed fills before its spawn key, and the hash
    constant that comes next."""
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    # Padded to the pool size, because a spawn key follows.
    words += [0] * (_POOL - len(words))
    constants = _constants(_INIT_A, _MULT_A)
    pool = [_hash(w, *next(constants)) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(constants)))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hash(word, *next(constants)))
    return tuple(pool), next(constants)[0]


def stream_keys(seed: int, indices) -> np.ndarray:
    """(n, 2) uint64 Philox keys of stream(seed, i) for each i in indices:
    ``SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(2, np.uint64)``
    for all rows in one vectorized pass.

    The pool the seed fills is common to all rows (:func:`_seed_pool`);
    each 32-bit word of the indices then mixes into the four pool words of
    all rows at once, as a (4, n) uint32 array.
    """
    seed, ints = int(seed), [int(i) for i in indices]
    if seed < 0 or min(ints, default=0) < 0:
        raise ValidationError("stream seeds and indices must be non-negative")
    words, const = _seed_pool(seed)
    pool = np.array(words, dtype=np.uint32)[:, None]
    constants = _constants(const, _MULT_A)
    n_words = max(1, -(-max(ints, default=0).bit_length() // 32))
    rows = np.array(ints, dtype=np.uint64 if n_words <= 2 else object)
    for j in range(n_words):
        high = rows >> 32 * j
        mixed = _mix(pool, _hash((high & _MASK32).astype(np.uint32), *_block(constants)))
        # An index has the words up to its highest non-zero one; 0 has one.
        pool = mixed if j == 0 else np.where((high != 0).astype(bool), mixed, pool)
    # generate_state(2, np.uint64): one hash per pool word, the words read
    # as little-endian pairs.
    state = _hash(pool, *_STATE_CONSTANTS)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _Key(ISeedSequence):
    """A seed sequence that hands a bit generator a given Philox key, so
    building one hashes no seed (a third of the cost of Philox(0))."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def generators(seed: int, indices) -> list[np.random.Generator]:
    """One fresh generator per index, keyed by :func:`stream_keys`: the one
    for i draws what ``stream(seed, i)`` draws, bit for bit, at about a
    third of its cost."""
    return [np.random.Generator(np.random.Philox(_Key(key)))
            for key in stream_keys(seed, indices)]


class Streams:
    """The streams (seed, i) of a batch of indices, served by one generator.

    ``reset(r)`` sets the generator's Philox to key r of :func:`stream_keys`
    with counter 0 and an empty buffer, and returns it: its draws from then
    on equal those of ``stream(seed, indices[r])`` bit for bit.  The next
    reset moves the same generator, so a caller keeps no generator across
    resets.
    """

    def __init__(self, seed: int, indices):
        self.keys = stream_keys(seed, indices)
        self._bits = np.random.Philox(_Key(np.zeros(2, dtype=np.uint64)))
        self._generator = np.random.Generator(self._bits)
        # A fresh Philox: counter 0 and an empty buffer.
        self._state = self._bits.state

    def reset(self, r: int) -> np.random.Generator:
        self._state["state"]["key"] = self.keys[r]
        self._bits.state = self._state
        return self._generator
