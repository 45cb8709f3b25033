import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchdiff.labels import encode_words
from branchdiff.rng import (_BLOCK_KEYS, _EVENT_TAG, _FIRST_BLOCK_KEYS,
                            _MOTION_TAG, RandomDriver, StreamTable, _SeedWords,
                            _words, seed_state, stream_words)


def test_streams_reproducible_across_drivers():
    a = RandomDriver(1234).motion_stream((0, 1)).standard_normal(8)
    b = RandomDriver(1234).motion_stream((0, 1)).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_streams_depend_only_on_seed_and_label():
    d1 = RandomDriver(7)
    d2 = RandomDriver(7)
    # interleave differently; per-label values must not change
    d1.motion_stream((0,)).standard_normal(3)
    x1 = d1.motion_stream((1,)).standard_normal(4)
    x2 = d2.motion_stream((1,)).standard_normal(4)
    np.testing.assert_array_equal(x1, x2)


def test_distinct_labels_distinct_streams():
    d = RandomDriver(99)
    vals = {}
    for lab in [(), (0,), (1,), (0, 0), (0, 1), (2, 1, 0)]:
        vals[lab] = tuple(d.motion_stream(lab).standard_normal(4))
    assert len(set(vals.values())) == len(vals)


def test_purposes_are_separate_streams():
    d = RandomDriver(5)
    a = d.motion_stream((0,)).standard_normal(4)
    b = d.event_stream((0,)).standard_normal(4)
    c = d.bridge_stream((0,), 0).standard_normal(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c) and not np.array_equal(b, c)
    # keyed by event index too, and fresh on every call
    assert not np.array_equal(c, d.bridge_stream((0,), 1).standard_normal(4))
    np.testing.assert_array_equal(c, d.bridge_stream((0,), 0).standard_normal(4))


def test_seed_changes_streams():
    a = RandomDriver(1).event_stream(()).uniform(0, 1)
    b = RandomDriver(2).event_stream(()).uniform(0, 1)
    assert a != b


def test_cached_generator_is_stateful():
    d = RandomDriver(11)
    first = d.motion_stream(()).standard_normal(2)
    second = d.motion_stream(()).standard_normal(2)
    assert not np.array_equal(first, second)


EDGE_INTS = [0, 2**32 - 1, 2**32, 2**63 - 1, 2**70]


@pytest.mark.parametrize("value", EDGE_INTS)
def test_words_are_seed_sequence_words(value):
    words = np.array(_words((value,)), dtype=np.uint32)
    expected = {0: [0], 2**32 - 1: [2**32 - 1], 2**32: [0, 1],
                2**63 - 1: [2**32 - 1, 2**31 - 1], 2**70: [0, 0, 64]}[value]
    assert words.tolist() == expected
    np.testing.assert_array_equal(np.random.SeedSequence(words).generate_state(8),
                                  np.random.SeedSequence((value,)).generate_state(8))


def reference_stream(seed, tag, label):
    """The stream as derived from the tuple of Python ints."""
    entropy = (seed & (2**63 - 1), tag) + encode_words(label)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


LABELS = [(), (0,), (3, 0), (2**32, 0), (2**70, 5, 0), (2**63 - 1, 2**32 - 1)]


@pytest.mark.parametrize("seed", EDGE_INTS[:4])
@pytest.mark.parametrize("label", LABELS)
def test_derivation_matches_tuple_entropy(seed, label):
    driver = RandomDriver(seed)
    for tag in (_MOTION_TAG, _EVENT_TAG):
        np.testing.assert_array_equal(driver._derive(tag, label).random(6),
                                      reference_stream(seed, tag, label).random(6))


def test_negative_elements_refused():
    with pytest.raises(ValueError):
        RandomDriver(3).motion_stream((0, -1))
    with pytest.raises(ValueError):
        RandomDriver(3).bridge_stream((0,), -1)


def assert_table_streams(seeds, labels):
    """Every (seed, purpose, label) the table holds derives the reference
    stream through the table's words."""
    table = StreamTable(labels)
    for seed in seeds:
        driver = RandomDriver(seed, table)
        for tag in (_MOTION_TAG, _EVENT_TAG):
            for label in labels:
                assert (tag, label) in driver._index
                np.testing.assert_array_equal(
                    driver._derive(tag, label).random(6),
                    reference_stream(seed, tag, label).random(6))
        assert driver._table is not None and driver._table.flags.c_contiguous


@pytest.mark.parametrize("seed", EDGE_INTS)
def test_table_streams_match_reference(seed):
    assert_table_streams(range(seed, seed + 2), LABELS)


def test_table_block_mixes_one_and_two_word_seeds():
    seeds = range(2**32 - 3, 2**32 + 3)
    assert_table_streams(seeds, LABELS)
    assert {len(_words((s,))) for s in seeds} == {1, 2}


def test_table_masks_negative_seeds():
    """Seeds are masked to 63 bits before they key a stream, in the table
    as in ``RandomDriver``."""
    assert_table_streams(range(-3, 3), [(), (0,), (1,)])
    np.testing.assert_array_equal(stream_words(range(-2, -1), [()]),
                                  stream_words(range(2**63 - 2, 2**63 - 1), [()]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64),
       label=st.lists(st.integers(0, 2**70), max_size=6).map(tuple))
def test_table_words_are_seed_sequence_words(seed, label):
    words = stream_words([seed], [label])
    for t, tag in enumerate((_MOTION_TAG, _EVENT_TAG)):
        entropy = np.array(_words((seed & (2**63 - 1), tag)
                                  + encode_words(label)), dtype=np.uint32)
        np.testing.assert_array_equal(
            words[0, t, 0], np.random.SeedSequence(entropy).generate_state(4, np.uint64))


@pytest.mark.parametrize("length", range(1, 10))
def test_seed_state_matches_seed_sequence(length):
    entropy = np.random.default_rng(length).integers(
        0, 2**32, size=(40, length), dtype=np.uint64).astype(np.uint32)
    entropy[:3] = 0
    entropy[3:6] = 2**32 - 1
    expected = [np.random.SeedSequence(row).generate_state(4, np.uint64)
                for row in entropy]
    np.testing.assert_array_equal(seed_state(entropy), expected)


def test_table_seed_words_serve_pcg64_only():
    words = _SeedWords(np.zeros(4, dtype=np.uint64))
    with pytest.raises(ValueError):
        words.generate_state(8, np.uint32)


def test_uncovered_keys_take_seed_sequence():
    """Bridge streams and labels outside the table derive the reference
    streams without a table block."""
    table = StreamTable([(), (0,), (1,)])
    driver = RandomDriver(12, table)
    np.testing.assert_array_equal(
        driver._derive(_MOTION_TAG, (0, 1)).random(6),
        reference_stream(12, _MOTION_TAG, (0, 1)).random(6))
    driver.bridge_stream((), 0)
    assert driver._table is None and table._block is None


def test_table_holds_one_bounded_block():
    """A table holds one block at a time; blocks start at the seed that
    needs them and double up to a fixed number of keys."""
    labels = [(), (0,), (1,)]
    table = StreamTable(labels)
    keys = 2 * len(labels)
    sizes = []
    for seed in range(5000):
        words = table.words(seed)
        assert words.shape == (keys, 4)
        if table._block[0][0] == seed:
            sizes.append(len(table._block[0]))
    first = _FIRST_BLOCK_KEYS // keys
    assert sizes[:4] == [first, 2 * first, 4 * first, 8 * first]
    assert max(sizes) == sizes[-1] == table.seeds_per_block == _BLOCK_KEYS // keys
    # a seed away from the block starts a new one, of the largest size
    table.words(999_998)
    assert table._block[0] == range(999_998, 999_998 + table.seeds_per_block)
    # labels beyond the bound leave the table empty, not the block unbounded
    assert StreamTable([(i,) for i in range(_BLOCK_KEYS)]).index == {}


def test_import_leaves_numpy_random_unloaded():
    """Importing the CLI does not import numpy.random: the table's seed
    class is registered with numpy at its first block."""
    code = "import sys, branchdiff.cli; print('numpy.random' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
