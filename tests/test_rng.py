import numpy as np
import pytest

from branchdiff.labels import encode_words
from branchdiff.rng import _EVENT_TAG, _MOTION_TAG, RandomDriver, _words


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


@pytest.mark.parametrize("seed", EDGE_INTS[:4])
@pytest.mark.parametrize("label", [(), (0,), (3, 0), (2**32, 0), (2**70, 5, 0),
                                   (2**63 - 1, 2**32 - 1)])
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
