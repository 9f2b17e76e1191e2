"""Shared fixtures: canonical small instances and random instance factories."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from drbottleneck import (
    AssignmentSystem,
    ExplicitSystem,
    PathSystem,
    TreeSystem,
)


@pytest.fixture
def triangle():
    """Three nodes s=0, a=1, t=2; elements sa=0, at=1, st=2."""
    return PathSystem(nodes=3, edges=((0, 1), (1, 2), (0, 2)), s=0, t=2)


@pytest.fixture
def square_cycle():
    return TreeSystem(nodes=4, edges=((0, 1), (1, 2), (2, 3), (3, 0)))


def random_path_system(rng, max_nodes=6, max_extra=4) -> PathSystem:
    nodes = int(rng.integers(3, max_nodes + 1))
    # spanning-tree backbone keeps everything connected
    edges = []
    for v in range(1, nodes):
        u = int(rng.integers(0, v))
        edges.append((u, v))
    for _ in range(int(rng.integers(0, max_extra + 1))):
        u = int(rng.integers(0, nodes))
        v = int(rng.integers(0, nodes))
        if u != v:
            edges.append((min(u, v), max(u, v)))
    perm = rng.permutation(len(edges))
    edges = [edges[i] for i in perm]
    return PathSystem(nodes=nodes, edges=tuple(edges), s=0, t=nodes - 1)


def random_tree_system(rng, max_nodes=6, max_extra=4) -> TreeSystem:
    nodes = int(rng.integers(3, max_nodes + 1))
    edges = []
    for v in range(1, nodes):
        u = int(rng.integers(0, v))
        edges.append((u, v))
    for _ in range(int(rng.integers(0, max_extra + 1))):
        u = int(rng.integers(0, nodes))
        v = int(rng.integers(0, nodes))
        if u != v:
            edges.append((min(u, v), max(u, v)))
    perm = rng.permutation(len(edges))
    return TreeSystem(nodes=nodes, edges=tuple(edges[i] for i in perm))


def random_assignment_system(rng, max_side=4) -> AssignmentSystem:
    return AssignmentSystem(m=int(rng.integers(2, max_side + 1)))


def random_explicit_system(rng, n=6, max_sets=10) -> ExplicitSystem:
    count = int(rng.integers(1, max_sets + 1))
    members = []
    for _ in range(count):
        size = int(rng.integers(1, n + 1))
        members.append(frozenset(int(x) for x in rng.choice(n, size=size, replace=False)))
    return ExplicitSystem(members=tuple(members), n=n)


def random_system(rng, kind=None):
    kind = kind or rng.choice(["path", "tree", "assignment", "explicit"])
    if kind == "path":
        return random_path_system(rng)
    if kind == "tree":
        return random_tree_system(rng)
    if kind == "assignment":
        return random_assignment_system(rng)
    return random_explicit_system(rng)


def count_calls(monkeypatch, original) -> list:
    """Wrap ``original`` at every ``drbottleneck`` import site, as layer
    tracing does; return the list that grows by one per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "drbottleneck" or name.startswith("drbottleneck."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def dyadic_costs(rng, n, lo=0, hi=640) -> np.ndarray:
    """Random costs on the 1/64 lattice; sums of a few stay exact in floats."""
    return rng.integers(lo, hi, size=n).astype(float) / 64.0
