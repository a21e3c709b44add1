"""Reproducible named random streams.

Every stochastic component of a simulation draws from its own named stream
so that adding a new component (or reordering draws inside one component)
does not perturb the random numbers seen by the others.  Streams are
derived from a single master seed through :class:`numpy.random.SeedSequence`
spawning, which guarantees statistical independence between streams.

Derivation contract
-------------------
Stream ``name`` of an instance whose master is ``SeedSequence(entropy,
spawn_key=key)`` is exactly the generator::

    default_rng(SeedSequence(entropy, spawn_key=key + (_stable_hash(name),)))

-- same seed words, same ``bit_generator.state``, same draws.  A SAN
batch needs one stream per (replication, activity), and building a child
``SeedSequence`` plus ``default_rng`` for each was most of a short
replication's set-up cost, so :func:`derive_stream_words` computes the
child's PCG64 seed words directly, in ``numpy.uint32`` arithmetic
vectorised over a list of instances.  :meth:`RandomStreams.stream` calls
it with one row; batch callers call it once per name for all rows and
hand each instance its row (:meth:`RandomStreams.adopt_stream`).  Each
generator is ``Generator(PCG64(s))``, where ``s`` is an
``ISeedSequence`` subclass that returns the precomputed words.

How the words are derived:

* ``SeedSequence`` hashes its assembled entropy -- the entropy words,
  zero-padded to the 4-word pool when a spawn key is present, then the
  spawn-key words -- into a 4-word ``pool``.  The child's assembled
  entropy is the master's with the name hash's one or two words appended,
  and words beyond the pool are mixed in one at a time *after* the pool
  is built, so the child's pool is the master's already-mixed ``pool``
  with the hash words mixed in.
* Each mixing step (``hashmix``) advances a hash constant, ``INIT_A``
  times ``MULT_A`` once per step.  When the hash words arrive, 4 pool
  fills, 12 cross-mixes and 4 steps per earlier word beyond the pool have
  run, so the constant is fixed by the master's entropy and spawn-key
  word counts alone (:func:`_mixer`).
* PCG64 seeds itself from ``generate_state(4, uint64)``: 8 words cycled
  from the pool under the row-independent ``INIT_B``/``MULT_B`` constants,
  paired little-endian.

The constants are ``numpy.random.SeedSequence``'s own (module
``numpy/random/bit_generator.pyx``).  Should numpy ever change them, the
derived streams would silently stop matching ``SeedSequence``; the
hypothesis property test in ``tests/test_des_random.py`` guards against
that by comparing every derivation shape -- entropy of 1 to 5 words and
OS-drawn entropy, spawned and twice-spawned instances, one- and two-word
name hashes, batches that mix entropy lengths -- against the
``SeedSequence`` generator's ``bit_generator.state``.  There is no second
derivation path to fall back on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np
import numpy.typing as npt
from numpy.random.bit_generator import ISeedSequence

#: numpy.random.SeedSequence's pool size and mixing constants.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_WORDS_PER_SEED = 4  # PCG64 asks for generate_state(4, uint64)

#: ``MULT_A**k`` for the hashmix steps of a name hash's (at most two)
#: words, plus the constant after the last step.
_MULT_A_POWERS = np.array(
    [pow(_MULT_A, k, 1 << 32) for k in range(2 * _POOL_SIZE + 1)], dtype=np.uint32
)
#: ``generate_state``'s hash constants, ``INIT_B * MULT_B**k``.
_STATE_CONSTANTS = np.array(
    [_INIT_B * pow(_MULT_B, k, 1 << 32) & _MASK32 for k in range(2 * _WORDS_PER_SEED + 1)],
    dtype=np.uint32,
)


class RandomStreams:
    """A factory of named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Master seed.  ``None`` draws a fresh nondeterministic seed from the
        operating system, which is convenient interactively but should be
        avoided in tests and benchmarks.

    Examples
    --------
    >>> streams = RandomStreams(42)
    >>> rng = streams.stream("network.delay")
    >>> rng2 = RandomStreams(42).stream("network.delay")
    >>> float(rng.random()) == float(rng2.random())
    True
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed
        self._master = np.random.SeedSequence(seed)
        self._mixer = _mixer(self._master)
        self._streams: Dict[str, np.random.Generator] = {}

    @classmethod
    def _from_sequence(
        cls, master: np.random.SeedSequence, seed: Optional[int]
    ) -> "RandomStreams":
        """Build an instance rooted at an existing seed sequence (spawn)."""
        instance = cls.__new__(cls)
        instance._seed = seed
        instance._master = master
        instance._mixer = _mixer(master)
        instance._streams = {}
        return instance

    @property
    def seed(self) -> Optional[int]:
        """The master seed this instance was created with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always maps to the same generator object, so
        successive calls share state (as desired: a stream is a sequence).
        """
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = _generator(
                derive_stream_words([self], name)[0]
            )
        return stream

    def adopt_stream(self, name: str, words: np.ndarray) -> np.random.Generator:
        """:meth:`stream`, with this instance's seed words precomputed.

        ``words`` must be this instance's row of
        ``derive_stream_words(batch, name)``; batch callers derive the
        whole table in one vectorised call and hand each instance its row.
        An already-created stream is returned unchanged.
        """
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = _generator(words)
        return stream

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __iter__(self) -> Iterator[str]:
        return iter(self._streams)

    def __len__(self) -> int:
        return len(self._streams)

    def spawn(self, name: str) -> "RandomStreams":
        """Create a child :class:`RandomStreams` rooted at ``name``.

        Used to give each replication of an experiment its own family of
        streams while remaining a pure function of the master seed.  The
        child's master is derived by extending this instance's
        :class:`~numpy.random.SeedSequence` spawn key (the tagged hash keeps
        ``spawn(x).stream(y)`` disjoint from ``stream(x)`` even when the
        names collide), so children of different masters never alias and
        non-integer entropy (e.g. OS-drawn entropy tuples) is preserved
        rather than discarded.
        """
        child = np.random.SeedSequence(
            entropy=self._master.entropy,
            spawn_key=tuple(self._master.spawn_key)
            + (_stable_hash(f"spawn:{name}"),),
        )
        return RandomStreams._from_sequence(child, seed=self._seed)


def derive_stream_words(streams: Sequence[RandomStreams], name: str) -> np.ndarray:
    """PCG64 seed words of stream ``name`` for each instance in ``streams``.

    Returns a ``(len(streams), 4)`` ``uint64`` array whose row ``r`` is
    ``SeedSequence(entropy, spawn_key=key + (_stable_hash(name),))
    .generate_state(4, np.uint64)`` for ``streams[r]``'s master -- the
    words ``default_rng`` would seed that stream's PCG64 with (see the
    module docstring for the derivation).
    """
    mixers = np.array([instance._mixer for instance in streams])
    pool = mixers[:, :_POOL_SIZE]
    words = _uint32_words(_stable_hash(name))
    steps = _POOL_SIZE * len(words)
    # One hashmix per (hash word, pool slot), in mixing order: step k
    # yields (word ^ c_k) * c_(k+1), where c_k = constant * MULT_A**k.
    constants = mixers[:, _POOL_SIZE:] * _MULT_A_POWERS[: steps + 1]
    step_words = np.array(
        [word for word in words for _ in range(_POOL_SIZE)], dtype=np.uint32
    )
    values = (constants[:, :-1] ^ step_words) * constants[:, 1:]
    values ^= values >> _XSHIFT
    for start in range(0, steps, _POOL_SIZE):
        # mix(pool_i, value) for each pool slot i.
        mixed = pool * _MIX_MULT_L - values[:, start : start + _POOL_SIZE] * _MIX_MULT_R
        pool = mixed ^ (mixed >> _XSHIFT)
    # generate_state(4, uint64): 8 words cycled over the pool, paired
    # little-endian into 4 uint64 words.
    state = np.concatenate((pool, pool), axis=1) ^ _STATE_CONSTANTS[:-1]
    state *= _STATE_CONSTANTS[1:]
    state ^= state >> _XSHIFT
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _DerivedSeed(ISeedSequence):
    """Hands PCG64 the seed words :func:`derive_stream_words` computed.

    A plain subclass of numpy's seed-sequence interface (not a spawnable
    one), so ``Generator.spawn`` is unavailable on derived streams; child
    families come from :meth:`RandomStreams.spawn` instead.
    """

    def __init__(self, words: np.ndarray) -> None:
        # PCG64 reads the words through a raw pointer: native uint64,
        # contiguous, exactly four of them.
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.shape != (_WORDS_PER_SEED,):
            raise ValueError(
                f"PCG64 takes {_WORDS_PER_SEED} uint64 seed words, got shape "
                f"{words.shape}"
            )
        self._words = words

    def generate_state(self, n_words: int, dtype: npt.DTypeLike = np.uint32) -> np.ndarray:
        if n_words != _WORDS_PER_SEED or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"derived seed holds {_WORDS_PER_SEED} uint64 words; "
                f"asked for {n_words} of {np.dtype(dtype)}"
            )
        return self._words


def _generator(words: np.ndarray) -> np.random.Generator:
    """``default_rng``'s generator for precomputed PCG64 seed words."""
    return np.random.Generator(np.random.PCG64(_DerivedSeed(words)))


def _word_count(value: Union[int, Sequence[int], None]) -> int:
    """How many uint32 words ``SeedSequence`` splits ``value`` into.

    ``value`` is a master's entropy (never ``None`` once the master drew
    it) or spawn key.
    """
    if isinstance(value, (int, np.integer)):
        return max(1, (int(value).bit_length() + 31) // 32)
    assert value is not None
    return sum(_word_count(item) for item in value)


def _uint32_words(value: int) -> Tuple[int, ...]:
    """``value``'s uint32 words, least significant first (``0`` is one word)."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return tuple(words)


def _mixer(master: np.random.SeedSequence) -> np.ndarray:
    """``master``'s pool words followed by its hashmix constant (uint32).

    The constant is ``INIT_A * MULT_A**steps`` after ``master``'s own
    mixing: ``4`` pool fills, ``12`` cross-mixes and ``4`` steps per
    assembled word beyond the pool.  The assembled entropy is the entropy
    -- padded to the pool size, which only a spawn key forces but which
    mixes the same either way -- followed by the spawn-key words.
    """
    words = max(_word_count(master.entropy), _POOL_SIZE) + _word_count(
        master.spawn_key
    )
    steps = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * (words - _POOL_SIZE)
    constant = _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32
    return np.array((*master.pool.tolist(), constant), dtype=np.uint32)


@lru_cache(maxsize=None)
def _stable_hash(name: str) -> int:
    """A deterministic (process-independent) 63-bit hash of ``name``.

    Python's built-in ``hash`` of strings is salted per process, which would
    destroy reproducibility across runs, so we use a small FNV-1a variant.
    Stream names recur on every replication (one simulator per replication,
    same activity names), so the hash is memoised process-wide.
    """
    value = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) % (2**64)
    return value % (2**63)
