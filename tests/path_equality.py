"""Bitwise equality of simulated paths, the determinism contract's oracle:
two paths are equal when every recorded number is identical."""

import numpy as np


def tracks_equal(a, b) -> bool:
    return (np.array_equal(a.times, b.times)
            and np.array_equal(a.positions, b.positions)
            and np.array_equal(a.controls, b.controls)
            and np.array_equal(a.cost_cum, b.cost_cum))


def paths_equal(a, b) -> bool:
    if (a.start_time != b.start_time or a.horizon != b.horizon
            or a.cost_integral != b.cost_integral
            or a.sup_population != b.sup_population
            or a.n_steps != b.n_steps
            or len(a.events) != len(b.events)
            or sorted(a.initial) != sorted(b.initial)
            or sorted(a.final) != sorted(b.final)):
        return False
    for lab in a.initial:
        if not np.array_equal(a.initial[lab], b.initial[lab]):
            return False
    for lab in a.final:
        if not np.array_equal(a.final[lab], b.final[lab]):
            return False
    for x, y in zip(a.events, b.events):
        if (x.time != y.time or x.label != y.label or x.mark != y.mark
                or x.kind != y.kind or x.n_children != y.n_children
                or x.pop_size_after != y.pop_size_after
                or not np.array_equal(x.position, y.position)):
            return False
    if (a.tracks is None) != (b.tracks is None):
        return False
    if a.tracks is not None:
        if sorted(a.tracks) != sorted(b.tracks):
            return False
        return all(tracks_equal(tr, b.tracks[lab]) for lab, tr in a.tracks.items())
    return True
