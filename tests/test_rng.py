import numpy as np

from branchdiff.rng import RandomDriver


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
