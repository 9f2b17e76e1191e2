"""Combinatorial systems and their blocking-system oracles.

A system is a ground set of ``n`` elements together with a feasible family of
subsets given either structurally (s-t paths of a graph, spanning trees,
square assignments) or as an explicit list.  Each kind is one class deriving
from :class:`CombinatorialSystem` that owns everything specific to it: the
two oracle views used throughout the toolkit,

* feasibility at a cost threshold (does some feasible subset use only
  elements of cost at most ``t``), and
* minimum-weight blocker (the cheapest minimal subset meeting every feasible
  subset: a minimum s-t cut, a global minimum cut, a minimum-weight
  h-by-k submatrix with ``|h| + |k| = m + 1``, or an enumerated minimal
  hitting set),

its cardinality facts, its JSON record, and the state space that member
enumeration and branch and bound search.

All objects are immutable after construction and safe to share between
threads; the oracles are pure functions of their arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import combinations

import numpy as np

from ._graphs import (
    DisjointSets,
    bfs_path_edges,
    global_min_cut_side,
    max_bipartite_matching,
    min_st_cut_side,
)
from ._blocks import MatchingBlock, StateBlock
from .errors import (
    DomainError, EnumerationLimitError, InvalidInstanceError, check_count, saturating_sum,
)

#: Largest ground set for which explicit blocker enumeration is attempted.
BLOCKER_ENUMERATION_LIMIT = 20
#: Largest candidate family one step of ``minimal_transversals`` may build;
#: each step's dominance filter is quadratic in it.
TRANSVERSAL_MAX_CANDIDATES = 8000
#: Largest assignment side solved by submatrix enumeration, and by the walk
#: over row subsets that finds the bottleneck's witness.
ASSIGNMENT_BLOCKER_LIMIT = 10

#: ``check_count`` for instance fields: a bad size or id is a bad instance.
_instance_count = partial(check_count, error=InvalidInstanceError)
_element_id = partial(_instance_count, name="element id", least=0)
_blocker_id = partial(check_count, name="element id", least=0)


@dataclass(frozen=True)
class GroundSet:
    """The indexed element universe 0..n-1."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _instance_count(self.n, "ground size"))


class CombinatorialSystem:
    """Shared base of the four system kinds.

    Each kind supplies:

    * ``kind``, the ``type`` of its instance JSON, with ``to_json`` and the
      class method ``from_json``;
    * ``ground``, its :class:`GroundSet`;
    * ``threshold_witness(costs, t)``: a feasible subset using only elements
      of cost <= t, or None; deterministic, on already validated costs;
    * ``min_weight_blocker(weights)``, ``min_member_size()`` and
      ``max_blocker_size()``, behind the module functions of those names;
    * ``bottleneck(c)`` behind ``bottleneck.bottleneck_value``: one pass on
      validated costs giving the least max-cost, the threshold witness at it
      and a blocker element whose least cost is it;
    * one search state space, ``root()`` and ``expand(state)`` over states
      ``(elements, complete, payload)``: the elements forced so far, whether
      they form a feasible subset, and what the kind needs to expand further.
      Elements only grow along a branch, a complete state has no children,
      and children come in canonical order, which fixes the order of every
      search;
    * ``root_block()``: the root as a :class:`StateBlock` of one, the unit
      both searches expand and score.  The default block holds states and
      expands each with ``expand``; an assignment's is array-native, and its
      ``groups()`` let the decision searches look one step ahead.
    """

    def validated_costs(self, costs) -> np.ndarray:
        c = np.asarray(costs, dtype=float)
        if c.shape != (self.ground.n,):
            raise DomainError("cost vector length must equal the ground size")
        if not np.all(np.isfinite(c)):
            raise DomainError("costs must be finite")
        return c

    def validated_weights(self, weights) -> np.ndarray:
        w = np.asarray(weights, dtype=float)
        n = self.ground.n
        if w.shape != (n,):
            raise DomainError(f"expected {n} weights, got shape {w.shape}")
        # two reductions on the hot path; NaN fails the first comparison
        if not (w.min() >= 0.0 and w.max() < math.inf):
            if not np.all(np.isfinite(w)):
                raise DomainError("weights must be finite")
            raise DomainError("weights must be nonnegative")
        return w

    def root_block(self) -> StateBlock:
        return StateBlock(self, [self.root()])


@dataclass(frozen=True)
class _GraphSystem(CombinatorialSystem):
    """An undirected multigraph whose edge ``j`` is ground element ``j``."""

    nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", _instance_count(self.nodes, "nodes", 2))
        node = partial(_instance_count, least=0, most=self.nodes - 1)
        edges = tuple((node(u, "edge u"), node(v, "edge v")) for u, v in self.edges)
        if any(u == v for u, v in edges):
            raise InvalidInstanceError("self-loops are not allowed")
        object.__setattr__(self, "edges", edges)

    @cached_property
    def ground(self) -> GroundSet:
        return GroundSet(len(self.edges))

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.nodes)]
        for eid, (u, v) in enumerate(self.edges):
            inc[u].append((eid, v))
            inc[v].append((eid, u))
        return tuple(tuple(lst) for lst in inc)

    def _crossing(self, side) -> list[int]:
        """Ids of the edges with exactly one endpoint in ``side``, ascending.

        Walks the incidence lists of the smaller side, so a cut next to one
        node costs that node's degree rather than the edge count.
        """
        if 2 * len(side) > self.nodes:
            side = set(range(self.nodes)).difference(side)
        crossing = [eid for u in side for eid, v in self.incidence[u] if v not in side]
        crossing.sort()
        return crossing

    def _cut_blocker(self, side, w) -> tuple[float, BlockerElement]:
        crossing = self._crossing(side)
        value = saturating_sum(w[j] for j in crossing)
        return value, BlockerElement(
            frozenset(crossing), kind="cut", partition=frozenset(side)
        )

    def max_blocker_size(self):
        # exact up to 16 nodes: enumerate the near sides holding the anchor
        # and any subset of the other free nodes, keep the minimal cuts
        if self.nodes > 16:
            return len(self.edges), False
        anchor, others = self._cut_sides()
        best = 0
        for mask in range(1 << len(others)):
            side = {anchor} | {others[i] for i in range(len(others)) if mask >> i & 1}
            crossing = self._crossing(side)
            if crossing and self._is_minimal_cut(side, crossing):
                best = max(best, len(crossing))
        return best, True

    def _edges_json(self) -> list[dict]:
        return [{"id": i, "u": u, "v": v} for i, (u, v) in enumerate(self.edges)]


@dataclass(frozen=True)
class PathSystem(_GraphSystem):
    """Feasible subsets are the edge sets of simple s-t paths.

    Each edge is one ground element (its id equals its position in
    ``edges``); parallel edges are allowed, self-loops are not.
    """

    s: int
    t: int

    kind = "path"

    def __post_init__(self):
        super().__post_init__()
        last = self.nodes - 1
        object.__setattr__(self, "s", _instance_count(self.s, "s", 0, most=last))
        object.__setattr__(self, "t", _instance_count(self.t, "t", 0, most=last))
        if self.s == self.t:
            raise InvalidInstanceError("s and t must differ")
        if bfs_path_edges(self.nodes, self.incidence, self.s, self.t) is None:
            raise InvalidInstanceError("no s-t path exists")

    def threshold_witness(self, costs, t):
        # BFS paths visit edges in id order
        inc = [
            [(eid, v) for eid, v in self.incidence[u] if costs[eid] <= t]
            for u in range(self.nodes)
        ]
        path = bfs_path_edges(self.nodes, inc, self.s, self.t)
        return None if path is None else frozenset(path)

    def min_weight_blocker(self, weights):
        w = self.validated_weights(weights).tolist()
        return self._cut_blocker(min_st_cut_side(self.nodes, self.edges, w, self.s, self.t), w)

    def bottleneck(self, c):
        # Kruskal order: s and t first join at the value.  No flow crosses the
        # minimum cut at weight one per strictly cheaper edge, which weighs
        # zero, so its source side is s's component over those edges.
        cost = c.tolist()
        order = np.argsort(c, kind="stable").tolist()
        joined = DisjointSets(self.nodes)
        for eid in order:
            if joined.union(*self.edges[eid]) and joined.find(self.s) == joined.find(self.t):
                break
        value = cost[eid]
        cheaper = DisjointSets(self.nodes)
        for eid in order:
            if cost[eid] >= value:
                break
            cheaper.union(*self.edges[eid])
        near = cheaper.find(self.s)
        side = frozenset(u for u in range(self.nodes) if cheaper.find(u) == near)
        witness = BlockerElement(frozenset(self._crossing(side)), kind="cut", partition=side)
        return BottleneckResult(value, self.threshold_witness(cost, value), witness)

    def min_member_size(self):
        return len(bfs_path_edges(self.nodes, self.incidence, self.s, self.t))

    def _cut_sides(self) -> tuple[int, list[int]]:
        return self.s, [u for u in range(self.nodes) if u not in (self.s, self.t)]

    def _is_minimal_cut(self, side, crossing):
        # the s side must be connected and reach every crossing edge, and
        # each far endpoint must still reach t
        removed = set(crossing)
        dsu = DisjointSets(self.nodes)
        for eid, (u, v) in enumerate(self.edges):
            if eid not in removed:
                dsu.union(u, v)
        s_root = dsu.find(self.s)
        t_root = dsu.find(self.t)
        for eid in crossing:
            u, v = self.edges[eid]
            near, far = (u, v) if u in side else (v, u)
            if dsu.find(near) != s_root or dsu.find(far) != t_root:
                return False
        return True

    def to_json(self):
        return {"type": "path", "nodes": self.nodes, "edges": self._edges_json(),
                "s": self.s, "t": self.t}

    @classmethod
    def from_json(cls, payload: dict) -> PathSystem:
        return cls(nodes=payload["nodes"], edges=_parse_edges(payload),
                   s=payload["s"], t=payload["t"])

    # search: extend from the current node along ascending edge ids
    def root(self):
        return frozenset(), False, (self.s, frozenset([self.s]))

    def expand(self, state):
        elements, _, (node, visited) = state
        for eid, nxt in self.incidence[node]:
            if nxt not in visited:
                yield elements | {eid}, nxt == self.t, (nxt, visited | {nxt})


@dataclass(frozen=True)
class TreeSystem(_GraphSystem):
    """Feasible subsets are the edge sets of spanning trees."""

    kind = "tree"

    def __post_init__(self):
        super().__post_init__()
        dsu = DisjointSets(self.nodes)
        for u, v in self.edges:
            dsu.union(u, v)
        if dsu.groups != 1:
            raise InvalidInstanceError("graph is not connected; no spanning tree exists")

    def threshold_witness(self, costs, t):
        # the spanning forest accepts cheap edges in id order
        dsu = DisjointSets(self.nodes)
        accepted = []
        for eid, (u, v) in enumerate(self.edges):
            if costs[eid] <= t and dsu.union(u, v):
                accepted.append(eid)
        return frozenset(accepted) if dsu.groups == 1 else None

    def min_weight_blocker(self, weights):
        w = self.validated_weights(weights)
        return self._cut_blocker(global_min_cut_side(self.nodes, self.edges, w), w)

    def bottleneck(self, c):
        """Kruskal order: the forest first spans at the value.  The strictly
        cheaper edges do not span, so some cut crosses none of them; with
        weight one on each, the one minimum cut call weighs zero, and its
        crossing edges, the witness, all cost the value or more."""
        joined = DisjointSets(self.nodes)
        for eid in np.argsort(c, kind="stable").tolist():
            if joined.union(*self.edges[eid]) and joined.groups == 1:
                break
        value = c.tolist()[eid]
        _, witness = min_weight_blocker(self, (c < value).astype(float))
        return BottleneckResult(value, self.threshold_witness(c, value), witness)

    def min_member_size(self):
        return self.nodes - 1

    def _cut_sides(self) -> tuple[int, list[int]]:
        return 0, list(range(1, self.nodes))

    def _is_minimal_cut(self, side, crossing):
        # both sides must be internally connected
        removed = set(crossing)
        for part in (side, set(range(self.nodes)) - side):
            dsu = DisjointSets(self.nodes)
            for eid, (u, v) in enumerate(self.edges):
                if eid not in removed and u in part and v in part:
                    dsu.union(u, v)
            if len({dsu.find(u) for u in part}) != 1:
                return False
        return True

    def to_json(self):
        return {"type": "tree", "nodes": self.nodes, "edges": self._edges_json()}

    @classmethod
    def from_json(cls, payload: dict) -> TreeSystem:
        return cls(nodes=payload["nodes"], edges=_parse_edges(payload))

    # search: decide edges in id order, including an edge before skipping it
    def root(self):
        return frozenset(), False, (0, DisjointSets(self.nodes))

    def expand(self, state):
        # a payload's forest is shared by its children and never merged in place
        elements, _, (idx, dsu) = state
        if idx == len(self.edges):
            return
        u, v = self.edges[idx]
        if dsu.find(u) != dsu.find(v):
            joined = dsu.copy()
            joined.union(u, v)
            grown = elements | {idx}
            yield grown, len(grown) == self.nodes - 1, (idx + 1, joined)
        if self._can_span(dsu, idx + 1):
            yield elements, False, (idx + 1, dsu)

    def _can_span(self, dsu: DisjointSets, start: int) -> bool:
        probe = dsu.copy()
        for u, v in self.edges[start:]:
            probe.union(u, v)
            if probe.groups == 1:
                return True
        return probe.groups == 1


# The assignment blocker screens every row subset at once in floating point,
# then re-scores exactly only the subsets whose screened value lies within a
# proven padding of the smallest.  The padding, for weights w >= 0 with sum W
# and unit roundoff u = 2**-53: a subset of a rows has b = m + 1 - a columns.
# Its screen sums each column over the a rows (error <= (a-1)u per column sum,
# in any order; products with the 0/1 mask are exact), sorts, and adds the b
# smallest (error <= (b-1)u of their sum).  The exact score picks its columns
# by numpy column sums (error <= (a-1)u each, so the picked columns overshoot
# the b cheapest by at most 2(a-1)uW) and rounds their sum once (u).  Summed,
# screen and score differ by at most (b - 1 + 3(a - 1) + 1)uW <= 3muW, so the
# best score's screen lies within 2 * 3muW = 3m*eps*W of the smallest screen
# (eps = 2u).  The padding is 16(m + 1)*eps*W, five times that and more, which
# also covers the rounding of W and of the comparison.  Additions never lose
# accuracy to underflow (a subnormal sum is exact), so the bound holds down to
# subnormal weights; an overflowing W makes the padding infinite and keeps
# every subset.
_SCREEN_PAD_UNIT = 16 * 2.0**-52


@lru_cache(maxsize=ASSIGNMENT_BLOCKER_LIMIT)
def _row_subsets(m: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray, np.ndarray]:
    """Every nonempty row subset of an m-row grid, in the lexicographic order
    of its row tuple (the blocker's tie-break), with its 0/1 row mask and the
    index ``b - 1 = m - |rows|`` of its column count.  The arrays are shared
    by every caller, so they are read-only."""
    subsets = tuple(sorted(c for a in range(1, m + 1) for c in combinations(range(m), a)))
    mask = np.zeros((len(subsets), m))
    for k, rows in enumerate(subsets):
        mask[k, list(rows)] = 1.0
    last = np.array([m - len(rows) for rows in subsets])
    mask.flags.writeable = False
    last.flags.writeable = False
    return subsets, mask, last


def _screened_blocker_values(mask: np.ndarray, last: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Each row subset's sum of its ``b`` cheapest column sums, in floating
    point: all column sums at once, sorted, then prefix sums."""
    prefix = np.sort(np.einsum("sr,rc->sc", mask, grid), axis=1).cumsum(axis=1)
    return prefix[np.arange(len(last)), last]


def _scored_submatrix(grid: np.ndarray, rows: tuple[int, ...], b: int):
    """The exact score of one row subset: its ``b`` cheapest columns by numpy
    column sums (ties to the lower column) and their cells' ``fsum``."""
    m = grid.shape[1]
    with np.errstate(over="ignore"):
        col_sums = grid[list(rows), :].sum(axis=0)
    cols = tuple(sorted(range(m), key=lambda j: (col_sums[j], j))[:b])
    value = saturating_sum(grid[i, j] for i in rows for j in sorted(cols))
    return value, rows, cols


def _shared_rows(masks: list[int]) -> tuple[tuple[int, ...], int]:
    """The lexicographically first row tuple whose rows share at least
    ``m + 1 - |rows|`` columns, with the bit mask of those columns; bit j of
    ``masks[i]`` marks a column row i may share.

    A preorder walk visits row tuples in lexicographic order, at most
    2**m - 1 of them.  A tuple and its descendants share a subset of its
    columns and, with every later row added, need 2 + last - |rows| of them
    at the least, so a tuple sharing fewer is not visited.
    """
    m = len(masks)
    stack = [((), (1 << m) - 1)]
    while stack:
        rows, shared = stack.pop()
        if rows and shared.bit_count() >= m + 1 - len(rows):
            return rows, shared
        size = len(rows) + 1
        for i in range(m - 1, rows[-1] if rows else -1, -1):
            common = shared & masks[i]
            if common.bit_count() >= 2 + i - size:
                stack.append((rows + (i,), common))


@dataclass(frozen=True)
class AssignmentSystem(CombinatorialSystem):
    """Feasible subsets are the perfect matchings of an m-by-m assignment.

    Ground element ``i * m + j`` is the cell in row ``i``, column ``j``.
    """

    m: int

    kind = "assignment"

    def __post_init__(self):
        object.__setattr__(self, "m", _instance_count(self.m, "m"))

    def cell(self, i: int, j: int) -> int:
        return i * self.m + j

    def cell_position(self, element: int) -> tuple[int, int]:
        return divmod(element, self.m)

    @cached_property
    def ground(self) -> GroundSet:
        return GroundSet(self.m * self.m)

    def threshold_witness(self, costs, t):
        # matchings augment rows in order
        m = self.m
        grid = costs.reshape(m, m).tolist()
        allowed = [[j for j, x in enumerate(row) if x <= t] for row in grid]
        row_of_col = max_bipartite_matching(m, allowed)
        if any(r < 0 for r in row_of_col):
            return None
        return frozenset(self.cell(r, j) for j, r in enumerate(row_of_col))

    def _check_blocker_limit(self) -> None:
        if self.m > ASSIGNMENT_BLOCKER_LIMIT:
            raise EnumerationLimitError(
                f"assignment blocker enumeration limited to m <= {ASSIGNMENT_BLOCKER_LIMIT}"
            )

    def min_weight_blocker(self, weights):
        w = self.validated_weights(weights)
        m = self.m
        self._check_blocker_limit()
        grid = w.reshape(m, m)
        subsets, mask, last = _row_subsets(m)
        with np.errstate(over="ignore"):
            total = float(w.sum())
        if total < 2.0**53 and np.all(w == np.floor(w)):
            # integral weights: every partial sum is an exact integer, so the
            # screen is each subset's score and all survivors tie
            pad = 0.0
        else:
            pad = _SCREEN_PAD_UNIT * (m + 1) * total
        if pad < math.inf:
            screened = _screened_blocker_values(mask, last, grid)
            keep = np.flatnonzero(screened <= screened.min() + pad)
            if pad == 0.0:
                # equal scores fall to the row tuple, so the lowest rank wins
                keep = keep[:1]
        else:
            keep = range(len(subsets))
        value, rows, cols = min(
            _scored_submatrix(grid, subsets[k], int(last[k]) + 1) for k in keep
        )
        elements = frozenset(self.cell(i, j) for i in rows for j in cols)
        return value, BlockerElement(
            elements, kind="submatrix", rows=frozenset(rows), cols=frozenset(cols)
        )

    def bottleneck(self, c):
        """Threshold bottleneck matching, with no blocker call.

        Every row and every column needs a cell, so no perfect matching fits
        below the larger of the greatest row minimum and the greatest column
        minimum: match over the cells up to it, then add the costlier cells
        one group of equal costs at a time.  A row no augmenting path reaches
        stays so until cells are added, so after each group only the free
        rows augment; the value is the group that completes the matching.
        """
        self._check_blocker_limit()
        m = self.m
        grid = c.reshape(m, m).tolist()
        value = max(max(map(min, grid)), max(map(min, zip(*grid))))
        allowed = [[j for j, x in enumerate(row) if x <= value] for row in grid]
        row_of_col = max_bipartite_matching(m, allowed)
        free = sorted(set(range(m)).difference(row_of_col))
        if free:
            rest = sorted((x, e) for e, x in enumerate(c.tolist()) if x > value)
            k = 0
            while free:
                value = rest[k][0]
                while k < len(rest) and rest[k][0] == value:
                    i, j = divmod(rest[k][1], m)
                    allowed[i].append(j)
                    k += 1
                max_bipartite_matching(m, allowed, row_of_col, free)
                free = sorted(set(free).difference(row_of_col))
        # Koenig: the cells below the value admit no perfect matching, so some
        # rows share m + 1 - |rows| columns of cells at or above it; the
        # witness is the first such rows and the first such columns, the
        # zero-weight submatrix the blocker's tie-breaks pick
        masks = (c.reshape(m, m) >= value) @ (1 << np.arange(m))
        rows, shared = _shared_rows(masks.tolist())
        cols = [j for j in range(m) if shared >> j & 1][: m + 1 - len(rows)]
        witness = BlockerElement(
            frozenset(self.cell(i, j) for i in rows for j in cols),
            kind="submatrix", rows=frozenset(rows), cols=frozenset(cols),
        )
        return BottleneckResult(value, self.threshold_witness(c, value), witness)

    def min_member_size(self):
        return self.m

    def max_blocker_size(self):
        m = self.m
        return max(a * (m + 1 - a) for a in range(1, m + 1)), True

    def to_json(self):
        return {"type": "assignment", "m": self.m}

    @classmethod
    def from_json(cls, payload: dict) -> AssignmentSystem:
        return cls(m=payload["m"])

    # search: assign rows in order, each to the free columns in order
    def root(self):
        return frozenset(), False, (0, frozenset())

    def expand(self, state):
        elements, _, (row, used) = state
        for j in range(self.m):
            if j not in used:
                yield elements | {self.cell(row, j)}, row + 1 == self.m, (row + 1, used | {j})

    @cached_property
    def _cells(self) -> np.ndarray:
        return np.arange(self.m * self.m).reshape(self.m, self.m)

    def groups_at(self, row: int, free: np.ndarray) -> np.ndarray | None:
        """The completion groups of states that assign ``row`` next, with free
        columns ``free`` (states, f): the rows from ``row`` at those columns.
        One gather of the grid, shaped (rows, states, f), read as (states,
        rows, f); None once every row is assigned."""
        if row >= self.m:
            return None
        return self._cells[row:].take(free, axis=1).transpose(1, 0, 2)

    def root_block(self) -> MatchingBlock:
        return MatchingBlock(self, 0, np.empty((1, 0), dtype=np.intp), np.arange(self.m)[None])


@dataclass(frozen=True)
class ExplicitSystem(CombinatorialSystem):
    """Feasible subsets listed explicitly over ground elements 0..n-1."""

    members: tuple[frozenset[int], ...]
    n: int = 0

    kind = "explicit"

    def __post_init__(self):
        n = _instance_count(self.n, "n", 0)  # 0: the largest member element plus one
        element = partial(_element_id, name="member element", most=n - 1 if n else math.inf)
        members = tuple(frozenset(map(element, m)) for m in self.members)
        if not members:
            raise InvalidInstanceError("the feasible family must be nonempty")
        for m in members:
            if not m:
                raise InvalidInstanceError("feasible subsets must be nonempty")
        n = n or max(max(m) for m in members) + 1
        members = tuple(sorted(set(members), key=lambda m: (len(m), sorted(m))))
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "n", n)

    @cached_property
    def ground(self) -> GroundSet:
        return GroundSet(self.n)

    @cached_property
    def blocker(self) -> tuple[BlockerElement, ...]:
        """The enumerated blocker, computed once per system."""
        return tuple(blocker_enumerate(antichain_reduce(self.members)))

    def threshold_witness(self, costs, t):
        # the first member in canonical order
        for member in self.members:
            if all(costs[j] <= t for j in member):
                return member
        return None

    def min_weight_blocker(self, weights):
        w = self.validated_weights(weights)
        best_key = None
        best_el = None
        for el in self.blocker:
            value = saturating_sum(w[j] for j in sorted(el.elements))
            key = (value, sorted(el.elements))
            if best_key is None or key < best_key:
                best_key = key
                best_el = el
        return best_key[0], best_el

    def bottleneck(self, c):
        """The least member maximum, from one scan.  The witness is the
        enumerated blocker element of least sorted elements whose costs all
        reach the value: the one of weight zero that the blocker oracle
        picks at weight one per cheaper element."""
        cost = c.tolist()
        value = min(max(cost[j] for j in member) for member in self.members)
        witness = min(
            (el for el in self.blocker if all(cost[j] >= value for j in el.elements)),
            key=lambda el: sorted(el.elements),
        )
        return BottleneckResult(value, self.threshold_witness(cost, value), witness)

    def min_member_size(self):
        return min(len(m) for m in self.members)

    def max_blocker_size(self):
        return max(len(b.elements) for b in self.blocker), True

    def to_json(self):
        return {"type": "explicit", "n": self.n, "sets": [sorted(m) for m in self.members]}

    @classmethod
    def from_json(cls, payload: dict) -> ExplicitSystem:
        sets = payload.get("sets")
        if not isinstance(sets, list):
            raise InvalidInstanceError("explicit instance needs a 'sets' list")
        return cls(members=tuple(frozenset(s) for s in sets), n=payload.get("n", 0))

    # search: the members are the root's children, in canonical order
    def root(self):
        return frozenset(), False, None

    def expand(self, state):
        for member in self.members:
            yield member, True, None


@dataclass(frozen=True)
class Clutter:
    """A family of mutually noncomparable subsets (an antichain)."""

    subsets: tuple[frozenset[int], ...]

    def __post_init__(self):
        subsets = tuple(frozenset(map(_element_id, s)) for s in self.subsets)
        if not subsets:
            raise InvalidInstanceError("a clutter must be nonempty")
        subsets = tuple(sorted(set(subsets), key=lambda s: (len(s), sorted(s))))
        for a, b in combinations(subsets, 2):
            if a < b or b < a:
                raise InvalidInstanceError(
                    f"{sorted(a)} and {sorted(b)} are comparable; not a clutter"
                )
        object.__setattr__(self, "subsets", subsets)

    @property
    def universe(self) -> frozenset[int]:
        return frozenset().union(*self.subsets)


@dataclass(frozen=True)
class BlockerElement:
    """A subset meeting every feasible subset, with its structure.

    ``kind`` records how the subset arises: ``"cut"`` (edges crossing a node
    partition; ``partition`` holds the source side), ``"submatrix"`` (all
    cells of a row set ``rows`` times a column set ``cols``), or a plain
    ``"subset"``.  Enumerated blockers are minimal by construction; a
    partition-cut witness can carry weight-zero edges a minimal hitting set
    would drop, which never changes an optimal value.
    """

    elements: frozenset[int]
    kind: str = "subset"
    partition: frozenset[int] | None = None
    rows: frozenset[int] | None = None
    cols: frozenset[int] | None = None

    def __post_init__(self):
        ids = self.elements
        # the fast path takes plain nonnegative ints; a bool, float, string,
        # numpy integer or negative id goes through the check
        if not ({*map(type, ids)} <= {int} and min(ids, default=0) >= 0):
            ids = map(_blocker_id, ids)
        object.__setattr__(self, "elements", frozenset(ids))


@dataclass(frozen=True)
class BottleneckResult:
    """Optimal value with a primal member and a dual blocker certificate."""

    value: float
    argmin_subset: frozenset[int]
    dual_witness: BlockerElement


def antichain_reduce(family) -> Clutter:
    """Drop every subset that strictly contains another member.

    The reduced family is a clutter with the same min-max bottleneck value as
    the input for every cost vector, because dropping a strict superset never
    removes the minimizer.
    """

    subsets = [frozenset(map(_element_id, s)) for s in family]
    if not subsets:
        raise InvalidInstanceError("cannot reduce an empty family")
    return Clutter(tuple(_minimize_family(subsets)))


def _minimize_family(families: list[frozenset]) -> list[frozenset]:
    unique = sorted(set(families), key=lambda s: (len(s), sorted(s)))
    out = []
    for s in unique:
        if not any(t < s for t in out):
            out.append(s)
    return out


def minimal_transversals(members: list[frozenset]) -> list[frozenset]:
    """All minimal hitting sets of a family, by incremental extension.

    Processes members one at a time, keeping the minimal transversals of the
    prefix; each new member either is already hit or spawns one extension per
    element, after which dominated sets are dropped.  Raises
    ``EnumerationLimitError`` when a step would build more than
    ``TRANSVERSAL_MAX_CANDIDATES`` candidate sets.
    """

    trans: list[frozenset] = [frozenset()]
    for member in members:
        kept = [y for y in trans if y & member]
        missed = [y for y in trans if not (y & member)]
        if len(kept) + len(missed) * len(member) > TRANSVERSAL_MAX_CANDIDATES:
            raise EnumerationLimitError(
                f"minimal transversal enumeration exceeds {TRANSVERSAL_MAX_CANDIDATES} "
                "candidate sets in one step"
            )
        grown = [y | {e} for y in missed for e in member]
        trans = _minimize_family(kept + grown)
    return trans


def blocker_enumerate(clutter: Clutter) -> list[BlockerElement]:
    """The blocker of a clutter: every minimal subset meeting all members.

    Exact enumeration; refuses ground sets larger than
    ``BLOCKER_ENUMERATION_LIMIT`` (use the structural oracles instead).
    """

    if max(clutter.universe) + 1 > BLOCKER_ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            "ground set too large for blocker enumeration; "
            "use a structural min_weight_blocker oracle"
        )
    trans = minimal_transversals(list(clutter.subsets))
    trans.sort(key=lambda y: (len(y), sorted(y)))
    return [BlockerElement(y) for y in trans]


def min_weight_blocker(
    system: CombinatorialSystem, weights
) -> tuple[float, BlockerElement]:
    """Minimum total weight over blocker elements, with a minimizer.

    Path systems solve a minimum s-t cut by max-flow, tree systems a global
    minimum cut by contraction, assignments enumerate row/column submatrices
    with ``|rows| + |cols| = m + 1`` (side limited to
    ``ASSIGNMENT_BLOCKER_LIMIT``), and explicit systems scan the enumerated
    blocker.  Weights must be finite and nonnegative.
    """
    return system.min_weight_blocker(weights)


def feasible_at_threshold(system: CombinatorialSystem, costs, t: float) -> bool:
    """True iff some feasible subset uses only elements of cost <= t."""
    return system.threshold_witness(system.validated_costs(costs), t) is not None


def min_member_size(system: CombinatorialSystem) -> int:
    """Smallest cardinality over feasible subsets (fewest path edges, etc.)."""
    return system.min_member_size()


def max_blocker_size(system: CombinatorialSystem) -> tuple[int, bool]:
    """Largest blocker-element cardinality and whether it is exact.

    Assignments have the closed form ``max a * (m + 1 - a)``; explicit and
    small graph systems are enumerated; otherwise the edge count is returned
    as a safe upper bound (flagged inexact).
    """
    return system.max_blocker_size()


# ---------------------------------------------------------------------------
# instance JSON


def system_to_json(system: CombinatorialSystem) -> dict:
    return system.to_json()


def _parse_edges(payload: dict) -> tuple[tuple[int, int], ...]:
    edges = payload.get("edges")
    if not isinstance(edges, list):
        raise InvalidInstanceError("instance JSON needs an 'edges' list")
    out = []
    for pos, rec in enumerate(edges):
        try:
            eid, u, v = rec["id"], rec["u"], rec["v"]
        except (KeyError, TypeError) as exc:
            raise InvalidInstanceError(f"malformed edge record at position {pos}") from exc
        if _instance_count(eid, "edge id", 0) != pos:
            raise InvalidInstanceError("edge ids must be 0..n-1 in order")
        out.append((u, v))
    return tuple(out)


_KINDS = {cls.kind: cls for cls in (PathSystem, TreeSystem, AssignmentSystem, ExplicitSystem)}


def system_from_json(payload) -> CombinatorialSystem:
    """Parse an instance from a JSON string, file object, or dict.

    Malformed instances, and a file object whose bytes do not decode, raise
    :class:`InvalidInstanceError`.
    """
    if isinstance(payload, str):
        payload = json.loads(payload)
    elif hasattr(payload, "read"):
        try:
            payload = json.load(payload)
        except UnicodeDecodeError as exc:
            raise InvalidInstanceError(f"instance file does not decode as text: {exc}") from None
    if not isinstance(payload, dict) or "type" not in payload:
        raise InvalidInstanceError("instance JSON must be an object with a 'type'")
    kind = payload["type"]
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InvalidInstanceError(f"unknown instance type {kind!r}")
    try:
        return cls.from_json(payload)
    except KeyError as exc:
        raise InvalidInstanceError(f"{kind} instance JSON needs a {exc} field") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidInstanceError(f"malformed {kind} instance: {exc}") from exc
