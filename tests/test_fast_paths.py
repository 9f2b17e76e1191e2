"""The path-oracle fast paths against frozen copies of the routes they replace.

Every comparison is ``==``: the fast paths must return the same values,
members, witnesses and partitions bit for bit.
"""

import numpy as np
import pytest

from _oracles import (
    reference_min_st_cut_side,
    reference_path_blocker,
    reference_path_bottleneck,
    reference_prefix_level,
)
from conftest import random_path_system
from drbottleneck import PathSystem, bottleneck_value, min_weight_blocker
from drbottleneck._graphs import min_st_cut_side
from drbottleneck.quantify import _prefix_level

ORDERS = (1.0, 2.0, 1.5)


def _cost_vectors(rng, m):
    """Seeded random costs, then the degenerate shapes."""
    yield rng.uniform(0.0, 10.0, size=m)
    yield rng.integers(0, 3, size=m).astype(float)  # ties
    yield np.full(m, 2.5)  # all equal
    yield -rng.uniform(0.0, 10.0, size=m)  # the capacity sense
    yield np.round(rng.normal(size=m), 1) * 1e6  # ties at a large magnitude
    x = float(rng.uniform(1.0, 2.0))
    yield x + np.arange(m) * np.spacing(x)  # costs one ulp apart


def _element_costs(seed):
    rng = np.random.default_rng(seed)
    for m in (1, 2, 3, 5, 8, 19, 40):
        for c in _cost_vectors(rng, m):
            yield np.sort(c)


@pytest.mark.parametrize("r", ORDERS)
@pytest.mark.parametrize("radius", [0.0, 1e-12, 0.05, 0.7, 6.0])
def test_prefix_level_matches_reference(r, radius):
    for c in _element_costs(int(radius * 1000) + int(r * 10)):
        assert _prefix_level(c, radius, r) == reference_prefix_level(c, radius, r), (
            c.tolist()
        )


def test_prefix_level_radius_on_cost_scale():
    # radii comparable to the gaps and to ulps of the costs
    rng = np.random.default_rng(31)
    for _ in range(300):
        scale = 10.0 ** rng.uniform(-6, 6)
        c = np.sort(rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 9))) * scale)
        radius = float(rng.choice([np.spacing(abs(c[0])), (c[-1] - c[0]) * rng.uniform()]))
        for r in ORDERS:
            assert _prefix_level(c, radius, r) == reference_prefix_level(c, radius, r)


def _path_systems(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng, random_path_system(rng, max_nodes=7, max_extra=6)
    # parallel edges between every consecutive pair, and a triangle with a
    # doubled chord
    doubled = ((0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3))
    yield rng, PathSystem(nodes=4, edges=doubled, s=0, t=3)
    yield rng, PathSystem(nodes=3, edges=((0, 1), (1, 2), (0, 2), (0, 2)), s=0, t=2)


def _same_result(fast, slow):
    assert fast.value == slow.value
    assert fast.argmin_subset == slow.argmin_subset
    assert fast.dual_witness == slow.dual_witness  # elements, kind and partition


def test_path_bottleneck_matches_reference():
    for rng, system in _path_systems(7, 60):
        for c in _cost_vectors(rng, system.ground.n):
            _same_result(bottleneck_value(system, c), reference_path_bottleneck(system, c))


def _weight_vectors(rng, m):
    yield rng.uniform(0.0, 1.0, size=m)
    yield np.clip(rng.uniform(-1.0, 1.0, size=m), 0.0, None)  # about half exactly 0
    yield np.zeros(m)
    yield rng.integers(0, 2, size=m).astype(float)
    # most weights below the tolerance 1e-12 * max(weights, 1)
    dead = rng.uniform(size=m) < 0.8
    yield np.where(dead, rng.uniform(0.0, 1e-12, size=m), rng.uniform(0.0, 1.0, size=m))
    # weights at the tolerance 1e-12 (left out) and just above it (kept)
    yield np.where(dead, rng.choice([0.0, 1e-12, 1.5e-12], size=m), 1.0)


def test_path_blocker_matches_reference():
    for rng, system in _path_systems(11, 60):
        n, edges, s, t = system.nodes, system.edges, system.s, system.t
        for w in _weight_vectors(rng, system.ground.n):
            assert min_weight_blocker(system, w) == reference_path_blocker(system, w)
            assert min_st_cut_side(n, edges, w, s, t) == reference_min_st_cut_side(
                n, edges, w, s, t
            )
            as_list = w.tolist()
            assert min_st_cut_side(n, edges, as_list, s, t) == reference_min_st_cut_side(
                n, edges, as_list, s, t
            )
