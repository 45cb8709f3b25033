"""Genealogy labels and population bookkeeping.

A particle label is a tuple of nonnegative integers; the founding particle is
the empty tuple.  The k-th child of particle ``i`` is ``i + (k-1,)``, so the
label encodes the full line of descent.  A population is a mapping from labels
to positions and must form an antichain: no living particle's label may be a
prefix of another living particle's label.
"""

from __future__ import annotations

Label = tuple[int, ...]

ROOT: Label = ()


def children(i: Label, k: int) -> list[Label]:
    """Labels of the ``k`` children born to particle ``i``."""
    if k < 0:
        raise ValueError("child count must be nonnegative")
    return [i + (l,) for l in range(k)]


def encode_words(i: Label) -> tuple[int, ...]:
    """Self-delimiting seed entropy: the length followed by the elements.
    Injective over labels, which is what keys per-label random streams
    apart."""
    return (len(i),) + i


def label_to_str(i: Label) -> str:
    """Dot-joined rendering used in output files; the root is the empty string."""
    return ".".join(str(v) for v in i)


def label_from_str(s: str) -> Label:
    """Inverse of :func:`label_to_str`; raises ValueError unless ``s`` is
    empty or dot-joined non-negative integers."""
    if s == "":
        return ROOT
    parts = s.split(".")
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"malformed label {s!r}: expected dot-joined "
                         "non-negative integers, or \"\" for the root")
    return tuple(int(part) for part in parts)


def nested_pair(labels) -> tuple[Label, Label] | None:
    """The first (prefix, extension) pair among ``labels`` in lexicographic
    order, or None when no label is a prefix of another.

    Sorting lexicographically puts any prefix immediately before one of its
    extensions, so only adjacent pairs need checking.
    """
    ordered = sorted(labels)
    for a, b in zip(ordered, ordered[1:]):
        if b[: len(a)] == a:
            return a, b
    return None


def is_antichain(labels) -> bool:
    """Check the no-prefix condition."""
    return nested_pair(labels) is None


def assert_antichain(labels) -> None:
    if not is_antichain(labels):
        raise ValueError("population labels violate the antichain condition")
