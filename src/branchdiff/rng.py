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
"""

from __future__ import annotations

import numpy as np

from .labels import Label, encode_words

_MOTION_TAG = 0x6D6F7469  # "moti"
_EVENT_TAG = 0x65766E74   # "evnt"
_BRIDGE_TAG = 0x62726467  # "brdg"

_SEED_MASK = 2**63 - 1


class RandomDriver:
    """Factory and cache for the per-label generators of one simulation run."""

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed) & _SEED_MASK
        self._motion: dict[Label, np.random.Generator] = {}
        self._events: dict[Label, np.random.Generator] = {}

    def _derive(self, tag: int, label: Label) -> np.random.Generator:
        entropy = (self.master_seed, tag) + encode_words(label)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

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
