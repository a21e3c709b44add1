"""Tests of the named random streams."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.des.random as random_module
from repro.des.random import RandomStreams, _stable_hash, derive_stream_words
from repro.san import BatchedSANExecutor
from repro.san.compiled import _BatchedDurationSampler
from tests.test_san_golden_trace import GOLDEN_HORIZON, build_golden_model


def test_same_seed_same_stream_name_gives_identical_sequences():
    a = RandomStreams(7).stream("net")
    b = RandomStreams(7).stream("net")
    assert [float(a.random()) for _ in range(5)] == [float(b.random()) for _ in range(5)]


def test_different_names_give_different_sequences():
    streams = RandomStreams(7)
    a = streams.stream("net")
    b = streams.stream("cpu")
    assert [float(a.random()) for _ in range(5)] != [float(b.random()) for _ in range(5)]


def test_different_seeds_give_different_sequences():
    a = RandomStreams(1).stream("net")
    b = RandomStreams(2).stream("net")
    assert [float(a.random()) for _ in range(5)] != [float(b.random()) for _ in range(5)]


def test_stream_is_cached_and_stateful():
    streams = RandomStreams(3)
    first = streams.stream("x")
    value = float(first.random())
    again = streams.stream("x")
    assert first is again
    assert float(again.random()) != value  # state advanced, not reset


def test_contains_len_and_iter():
    streams = RandomStreams(3)
    assert "a" not in streams
    streams.stream("a")
    streams.stream("b")
    assert "a" in streams
    assert len(streams) == 2
    assert set(iter(streams)) == {"a", "b"}


def test_spawn_is_deterministic():
    child1 = RandomStreams(9).spawn("replica-1")
    child2 = RandomStreams(9).spawn("replica-1")
    assert float(child1.stream("s").random()) == float(child2.stream("s").random())


def test_spawn_children_differ_by_name():
    parent = RandomStreams(9)
    a = parent.spawn("replica-1").stream("s")
    b = parent.spawn("replica-2").stream("s")
    assert float(a.random()) != float(b.random())


def test_stable_hash_is_deterministic_and_distinct():
    assert _stable_hash("abc") == _stable_hash("abc")
    assert _stable_hash("abc") != _stable_hash("abd")


def test_streams_produce_numpy_generators():
    assert isinstance(RandomStreams(0).stream("x"), np.random.Generator)


def test_spawn_does_not_collide_across_masters():
    # Regression: the old additive derivation (master + hash(name)) made
    # children of *different* masters collide whenever the seed difference
    # equalled the hash difference.  SeedSequence spawn keys cannot.
    delta = _stable_hash("replica-2") - _stable_hash("replica-1")
    a = abs(delta) + 1_000  # keep both constructed seeds non-negative
    b = a + delta
    colliding_old = (a + _stable_hash("replica-2")) % (2**63) == (
        b + _stable_hash("replica-1")
    ) % (2**63)
    assert colliding_old  # the constructed pair did collide under the old scheme
    one = RandomStreams(a).spawn("replica-2").stream("s")
    two = RandomStreams(b).spawn("replica-1").stream("s")
    assert [float(one.random()) for _ in range(4)] != [
        float(two.random()) for _ in range(4)
    ]


def test_spawn_preserves_non_integer_entropy():
    # Regression: non-int entropy used to be discarded (base = 0), making
    # every OS-seeded parent produce the same children.
    parent_a = RandomStreams(None)
    parent_b = RandomStreams(None)
    a = parent_a.spawn("replica-1").stream("s")
    b = parent_b.spawn("replica-1").stream("s")
    assert float(a.random()) != float(b.random())


def test_spawned_streams_are_disjoint_from_parent_streams():
    parent = RandomStreams(21)
    direct = parent.stream("x")
    nested = parent.spawn("x").stream("x")
    assert [float(direct.random()) for _ in range(4)] != [
        float(nested.random()) for _ in range(4)
    ]


# ----------------------------------------------------------------------
# Derivation contract: derived streams are the SeedSequence streams
# ----------------------------------------------------------------------
#: Master entropy: int seeds of exactly 1-5 uint32 words, the edge values
#: 0 and 2**32, and None (entropy drawn from the operating system).
entropies = st.one_of(
    st.integers(1, 5).flatmap(
        lambda words: st.integers(2 ** (32 * (words - 1)), 2 ** (32 * words) - 1)
    ),
    st.sampled_from([0, 2**32, None]),
)
#: Spawn paths: the instance is RandomStreams(entropy), spawned 0-2 times.
spawn_paths = st.lists(st.text(max_size=6), max_size=2)
#: Name hashes of one uint32 word and of two (real names almost always
#: hash to two words, so the hash is patched to cover both).
name_hashes = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**63 - 1))


def _instance(entropy, path):
    streams = RandomStreams(entropy)
    for name in path:
        streams = streams.spawn(name)
    return streams


def _seed_sequence_stream(streams, name_hash):
    """The contract: default_rng of the master's child SeedSequence."""
    master = streams._master
    return np.random.default_rng(
        np.random.SeedSequence(
            entropy=master.entropy,
            spawn_key=tuple(master.spawn_key) + (name_hash,),
        )
    )


def _patched_hash(name_hash):
    return mock.patch.object(random_module, "_stable_hash", lambda _name: name_hash)


@settings(max_examples=200, deadline=None)
@given(entropy=entropies, path=spawn_paths, name_hash=name_hashes)
def test_derived_stream_has_the_seed_sequence_state(entropy, path, name_hash):
    streams = _instance(entropy, path)
    with _patched_hash(name_hash):
        derived = streams.stream("s")
    expected = _seed_sequence_stream(streams, name_hash)
    assert derived.bit_generator.state == expected.bit_generator.state
    assert derived.random(3).tolist() == expected.random(3).tolist()


@settings(max_examples=100, deadline=None)
@given(
    members=st.lists(st.tuples(entropies, spawn_paths), min_size=1, max_size=6),
    name_hash=name_hashes,
)
def test_batch_derivation_matches_seed_sequence_row_by_row(members, name_hash):
    # Rows of different entropy lengths and spawn depths enter the name
    # hash under different hash constants.
    batch = [_instance(entropy, path) for entropy, path in members]
    with _patched_hash(name_hash):
        words = derive_stream_words(batch, "s")
    assert words.shape == (len(batch), 4) and words.dtype == np.uint64
    for row, streams in enumerate(batch):
        master = streams._master
        child = np.random.SeedSequence(
            entropy=master.entropy, spawn_key=tuple(master.spawn_key) + (name_hash,)
        )
        assert words[row].tolist() == child.generate_state(4, np.uint64).tolist()
        adopted = streams.adopt_stream("s", words[row])
        expected = _seed_sequence_stream(streams, name_hash)
        assert adopted.bit_generator.state == expected.bit_generator.state


def test_mixed_entropy_batch_with_real_names():
    batch = [
        RandomStreams(0),
        RandomStreams(2**32),
        RandomStreams(2**100 + 3),
        RandomStreams(2**150 + 5),
        RandomStreams(None),
        RandomStreams(7).spawn("a"),
        RandomStreams(2**140).spawn("a").spawn("b"),
    ]
    for name in ("san.duration.serve", "san.case.route", "network.delay"):
        words = derive_stream_words(batch, name)
        for row, streams in enumerate(batch):
            expected = _seed_sequence_stream(streams, _stable_hash(name))
            derived = streams.adopt_stream(name, words[row])
            assert derived is streams.stream(name)
            assert derived.bit_generator.state == expected.bit_generator.state


def test_adopt_keeps_an_existing_stream():
    streams = RandomStreams(5)
    first = streams.stream("x")
    first.random()
    words = derive_stream_words([streams], "x")
    assert streams.adopt_stream("x", words[0]) is first


def test_adopt_rejects_malformed_seed_words():
    streams = RandomStreams(5)
    words = derive_stream_words([streams, RandomStreams(6)], "x")
    with pytest.raises(ValueError, match="4 uint64 seed words"):
        streams.adopt_stream("x", words)
    assert "x" not in streams
    # A strided view is copied to contiguous words, not read past its end.
    strided = np.repeat(words[0], 2)[::2]
    assert streams.adopt_stream("x", strided).bit_generator.state == (
        RandomStreams(5).stream("x").bit_generator.state
    )


def test_executor_row_streams_are_the_rows_random_streams():
    seeds = [3, 2**40, 11]
    executor = BatchedSANExecutor.for_batch(
        build_golden_model(), seeds, [[] for _ in seeds]
    )
    executor.run_batch(until=GOLDEN_HORIZON)
    used = 0
    for row, seed in zip(executor._rows, seeds, strict=True):
        # The generators the row actually drew from ...
        drawn = {
            f"san.case.{name}": generator for name, generator in row.case_rngs.items()
        }
        for activity, sampler in zip(executor._compiled.timed, row.samplers, strict=True):
            if isinstance(sampler, _BatchedDurationSampler):
                drawn[activity.duration_stream] = sampler._rng
        assert any(name.startswith("san.case.") for name in drawn)
        assert any(name.startswith("san.duration.") for name in drawn)
        for name, generator in drawn.items():
            # ... are the row's own streams, seeded per the contract.
            assert generator is row.streams.stream(name)
            expected = np.random.SeedSequence(
                seed, spawn_key=(_stable_hash(name),)
            ).generate_state(4, np.uint64)
            seeded = generator.bit_generator.seed_seq.generate_state(4, np.uint64)
            assert seeded.tolist() == expected.tolist()
            used += 1
    assert used
