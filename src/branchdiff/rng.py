"""Reproducible per-particle random streams.

Every particle label gets two statistically independent streams derived from
(master seed, purpose tag, encoded label): one feeding the particle's Brownian
increments, one feeding its event clock and event marks.  A third family,
keyed by (label, event index), serves draws made on a recorded path after the
fact, such as a particle's position between two of its grid points.
Derivation depends only on the key, never on draw order elsewhere, so two
runs that share a seed see identical randomness for corresponding particles
even when everything else about the runs differs.  That property is what the
coupled two-parameter simulations rely on.

A stream is ``PCG64`` seeded with the four 64-bit words that
``SeedSequence(key words).generate_state(4, np.uint64)`` produces, and there
are two routes to those words.  One hands the key to ``SeedSequence``, key by
key.  The other, :class:`StreamTable`, computes them for many keys at once
with :func:`seed_state`, an exact copy of NumPy's seed mixing on arrays; a
path's set-up tables the motion and event streams of its founders and their
children, for whatever seeds its paths run under.  Both routes give the same
stream, bit for bit; :meth:`RandomDriver._derive` takes the table's words
when it has them and asks ``SeedSequence`` otherwise.
"""

from __future__ import annotations

import numpy as np

from .labels import Label, encode_words

_MOTION_TAG = 0x6D6F7469  # "moti"
_EVENT_TAG = 0x65766E74   # "evnt"
_BRIDGE_TAG = 0x62726467  # "brdg"
_TABLE_TAGS = (_MOTION_TAG, _EVENT_TAG)

_SEED_MASK = 2**63 - 1
_WORD_MASK = 2**32 - 1

# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# a StreamTable's first block holds about _FIRST_BLOCK_KEYS keys, and no
# block more than _BLOCK_KEYS (128 KB of words)
_FIRST_BLOCK_KEYS = 256
_BLOCK_KEYS = 4096


def _words(values) -> list[int]:
    """The 32-bit words ``SeedSequence`` reads a sequence of non-negative
    ints as: each int little-endian, 0 as one word.  Handing it these words
    as a uint32 array derives the same stream without its slow conversion."""
    out = []
    for v in values:
        if v < 0:
            raise ValueError(f"expected non-negative integer, got {v}")
        out.append(v & _WORD_MASK)
        v >>= 32
        while v:
            out.append(v & _WORD_MASK)
            v >>= 32
    return out


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The first ``n`` values init, init*mult, ... (mod 2**32) of the running
    hash constant of ``SeedSequence``."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _WORD_MASK)
    return np.array(out, dtype=np.uint32)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s hashmix of each row of ``values`` (m, N), in turn;
    ``consts`` (m + 1, 1) holds the hash constants before and after each."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    values ^= values >> 16
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> 16
    return out


def seed_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of
    the (N, L) uint32 matrix ``entropy``, as a C-contiguous (N, 4) uint64
    array.

    Words run along rows of (words, N) arrays, so every step is one
    operation on N contiguous entries; never on numpy integer scalars, whose
    wrap-around raises an overflow warning."""
    n, length = entropy.shape
    # missing words among the first four enter the pool as 0
    words = np.zeros((max(length, 4), n), dtype=np.uint32)
    words[:length] = entropy.T
    consts = _hash_constants(_INIT_A, _MULT_A, 4 * len(words) + 1)[:, None]
    pool = _hashmix(words[:4], consts[:5])
    c = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[c:c + 4]))
        c += 3
    for src in range(4, len(words)):
        pool = _mix(pool, _hashmix(words[src], consts[c:c + 5]))
        c += 4
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]],
                     _hash_constants(_INIT_B, _MULT_B, 9)[:, None])
    # pairs of 32-bit words read little-endian as 64-bit words
    out = state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << 32
    return np.ascontiguousarray(out.T)


def _by_length(rows: list[list[int]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(indices, uint32 matrix) of the rows of each length."""
    groups: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(len(row), []).append(i)
    return [(np.array(ix), np.array([rows[i] for i in ix], dtype=np.uint32))
            for ix in groups.values()]


def stream_words(seeds, labels) -> np.ndarray:
    """The seed words of the motion and event streams of every label under
    every seed, shape (len(seeds), 2, len(labels), 4): the words
    :meth:`RandomDriver._derive` gets from ``SeedSequence`` for these keys."""
    tags = np.array(_TABLE_TAGS, dtype=np.uint32)
    tag_rows = np.arange(len(tags))[:, None]
    out = np.empty((len(seeds), len(tags), len(labels), 4), dtype=np.uint64)
    label_groups = _by_length([_words(encode_words(lab)) for lab in labels])
    masked = np.array([int(s) & _SEED_MASK for s in seeds], dtype=np.uint64)
    lo, hi = (masked & _WORD_MASK).astype(np.uint32), (masked >> 32).astype(np.uint32)
    one = hi == 0     # seeds below 2**32 are one word, the others two
    seed_groups = [(np.flatnonzero(one), lo[one, None]),
                   (np.flatnonzero(~one), np.stack([lo, hi], axis=1)[~one])]
    # keys by entropy length; below four words a key is padded with zeros,
    # which SeedSequence mixes in for missing words too
    pieces: dict[int, list] = {}
    for si, sw in seed_groups:
        if not len(si):
            continue
        n_sw = sw.shape[1]
        for li, lw in label_groups:
            length = n_sw + 1 + lw.shape[1]
            entropy = np.zeros((len(si), len(tags), len(li), max(length, 4)), dtype=np.uint32)
            entropy[..., :n_sw] = sw[:, None, None, :]
            entropy[..., n_sw] = tags[:, None]
            entropy[..., n_sw + 1:length] = lw
            pieces.setdefault(entropy.shape[-1], []).append((si, li, entropy))
    for group in pieces.values():
        words = seed_state(np.concatenate([e.reshape(-1, e.shape[-1]) for *_, e in group]))
        start = 0
        for si, li, entropy in group:
            stop = start + entropy[..., 0].size
            out[si[:, None, None], tag_rows, li] = words[start:stop].reshape(
                entropy.shape[:-1] + (4,))
            start = stop
    return out


class _Seed:
    """The class :meth:`StreamTable.words` registers as a
    ``numpy.random.bit_generator.ISeedSequence`` when it builds a block, so
    importing the package does not import ``numpy.random``.  Seeds are
    instances of the subclass :class:`_SeedWords`: ``isinstance`` caches its
    answer for a subclass of a registered class, not for the registered
    class itself."""

    __slots__ = ()


class _SeedWords(_Seed):
    """The four seed words of one stream, handed to ``PCG64`` in place of a
    ``SeedSequence``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words     # C-contiguous (4,) uint64: PCG64 reads the buffer

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("table seed words serve PCG64 only")
        return self.words


class StreamTable:
    """Seed words of the motion and event streams of ``labels`` under any
    seed, computed lazily, one block of consecutive seeds at a time.  Each
    block starts at the seed that needs it and holds twice the seeds of the
    one before, from about ``_FIRST_BLOCK_KEYS`` keys up to at most
    ``_BLOCK_KEYS``: a process that takes a short run of seeds computes few
    words it does not use, and one that takes many, such as a worker's block
    of a fan-out, pays a block's fixed cost rarely.  The block stays in the process that
    built it: a pickled table carries only its labels.  A table whose labels
    alone exceed the bound holds no key."""

    def __init__(self, labels):
        self.labels = tuple(labels)
        # (purpose tag, label) -> row of a seed's words
        index = {(tag, lab): i * len(self.labels) + j
                 for i, tag in enumerate(_TABLE_TAGS)
                 for j, lab in enumerate(self.labels)}
        self.seeds_per_block = _BLOCK_KEYS // max(len(index), 1)
        self.index = index if self.seeds_per_block else {}
        self._block: tuple[range, np.ndarray] | None = None

    def __reduce__(self):
        return type(self), (self.labels,)

    def words(self, seed: int) -> np.ndarray:
        """The (len(index), 4) seed words of ``seed``'s streams, rows as
        numbered by ``index``."""
        block = self._block
        if block is None or seed not in block[0]:
            from numpy.random.bit_generator import ISeedSequence
            ISeedSequence.register(_Seed)
            size = (max(_FIRST_BLOCK_KEYS // len(self.index), 1) if block is None
                    else min(2 * len(block[0]), self.seeds_per_block))
            seeds = range(seed, seed + size)
            words = stream_words(seeds, self.labels).reshape(size, -1, 4)
            block = self._block = (seeds, words)
        return block[1][seed - block[0].start]


class RandomDriver:
    """Factory and cache for the per-label generators of one simulation run.
    ``streams`` serves the seed words of the keys it holds from the first
    derivation on."""

    def __init__(self, master_seed: int, streams: StreamTable | None = None):
        self.master_seed = int(master_seed) & _SEED_MASK
        self._seed_words = _words((self.master_seed,))
        self._streams = streams
        self._index = streams.index if streams is not None else {}
        self._table: np.ndarray | None = None    # fetched at the first table key
        self._motion: dict[Label, np.random.Generator] = {}
        self._events: dict[Label, np.random.Generator] = {}

    def _derive(self, tag: int, label: Label) -> np.random.Generator:
        j = self._index.get((tag, label))
        if j is None:
            seed_seq = np.random.SeedSequence(np.array(
                self._seed_words + [tag] + _words(encode_words(label)), dtype=np.uint32))
        else:
            if self._table is None:
                self._table = self._streams.words(self.master_seed)
            seed_seq = _SeedWords(self._table[j])
        return np.random.Generator(np.random.PCG64(seed_seq))

    def motion_stream(self, label: Label) -> np.random.Generator:
        """Gaussian increments for the particle's Brownian motion."""
        gen = self._motion.get(label)
        if gen is None:
            gen = self._motion[label] = self._derive(_MOTION_TAG, label)
        return gen

    def event_stream(self, label: Label) -> np.random.Generator:
        """Exponential clock gaps (rate = the dominating rate) and uniform marks."""
        gen = self._events.get(label)
        if gen is None:
            gen = self._events[label] = self._derive(_EVENT_TAG, label)
        return gen

    def bridge_stream(self, label: Label, event_index: int) -> np.random.Generator:
        """Gaussians placing the particle inside an Euler step at the time of
        event ``event_index``; fresh on every call and never cached."""
        return self._derive(_BRIDGE_TAG, label + (int(event_index),))
