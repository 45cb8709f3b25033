import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchdiff import labels
from branchdiff.rng import RandomDriver


def is_strict_ancestor(j, i):
    """Oracle: ``j`` is a proper prefix of ``i``."""
    return len(j) < len(i) and i[: len(j)] == j


def replace_by_children(pop, i, k, x):
    """Oracle of the engine's event update: ``i`` leaves the population and
    its ``k`` children (:func:`labels.children`) enter at ``x``."""
    out = dict(pop)
    del out[i]
    out.update(dict.fromkeys(labels.children(i, k), x))
    return out


def test_concat_identity():
    # a child's label is its parent's with the child index appended, and the
    # root is the empty label
    assert labels.ROOT + labels.ROOT == ()
    assert labels.children((1, 2), 1) == [(1, 2) + (0,)] == [(1, 2, 0)]
    assert labels.children(labels.ROOT, 4)[3] == labels.ROOT + (3,) == (3,)


def test_strict_ancestor():
    assert is_strict_ancestor((), (0,))
    assert not is_strict_ancestor((0,), (0,))
    assert not is_strict_ancestor((1,), (0, 1))


def test_children():
    assert labels.children((2,), 2) == [(2, 0), (2, 1)]
    assert labels.children((), 1) == [(0,)]
    assert labels.children((0, 1), 0) == []


def test_replace_by_children_examples():
    x = np.array([0.0])
    pop = {(): x}
    out = replace_by_children(pop, (), 2, x)
    assert set(out) == {(0,), (1,)}
    assert replace_by_children({(): x}, (), 0, x) == {}
    y = np.array([1.0])
    out = replace_by_children({(0,): x, (1,): y}, (0,), 1, x)
    assert set(out) == {(0, 0), (1,)}
    with pytest.raises(KeyError):
        replace_by_children({(): x}, (7,), 1, x)


def test_string_round_trip():
    assert labels.label_to_str(()) == ""
    assert labels.label_to_str((1, 2, 0)) == "1.2.0"
    assert labels.label_from_str("") == ()
    assert labels.label_from_str("1.2.0") == (1, 2, 0)


@pytest.mark.parametrize("text", ["x", "1..2", "-1", "1.", " 1", "+1", "1.\u00b2"])
def test_malformed_label_string_rejected(text):
    with pytest.raises(ValueError, match="malformed label"):
        labels.label_from_str(text)


def test_antichain_detection():
    assert labels.is_antichain([(0,), (1,), (2, 0)])
    assert not labels.is_antichain([(0,), (0, 1)])
    assert not labels.is_antichain([(), (3,)])
    assert labels.is_antichain([])


label_strategy = st.lists(st.integers(min_value=0, max_value=5),
                          max_size=4).map(tuple)


@given(st.lists(label_strategy, min_size=2, max_size=12, unique=True))
def test_antichain_matches_bruteforce(labs):
    brute = not any(
        is_strict_ancestor(a, b)
        for a in labs for b in labs if a != b)
    assert labels.is_antichain(labs) == brute


@given(label_strategy, label_strategy)
def test_encoding_injective(a, b):
    # the words key the streams: distinct labels, distinct streams
    def first_draw(lab):
        return RandomDriver(0).motion_stream(lab).integers(2**63)

    if a != b:
        assert first_draw(a) != first_draw(b)
        assert labels.encode_words(a) != labels.encode_words(b)
    else:
        assert first_draw(a) == first_draw(b)


@settings(max_examples=60)
@given(st.data())
def test_replace_by_children_preserves_antichain(data):
    rng_events = data.draw(st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 3)), max_size=25))
    pop = {(): np.zeros(1)}
    for pick, k in rng_events:
        if not pop:
            break
        keys = sorted(pop)
        lab = keys[pick % len(keys)]
        before = len(pop)
        pop = replace_by_children(pop, lab, k, pop[lab])
        assert len(pop) == before + k - 1
        assert labels.is_antichain(pop.keys())
