"""Blocks of search states: the unit both searches of ``search`` expand and
score in one step.

``StateBlock`` holds a kind's ``(elements, complete, payload)`` states in a
list and expands each with the kind's ``expand``; ``MatchingBlock`` is an
assignment's array-native block.  Each kind's ``root_block()`` gives its
root as a block of one.  They live apart from ``systems.py`` so that the
largest module, whose compile sets the package's import peak, stays small.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .systems import AssignmentSystem, CombinatorialSystem


def padded_elements(added, blank: int) -> tuple[list[int], int]:
    """The elements each child of a block adds, as one flat index of ``width``
    entries a child: ``width`` is the most any child adds (at least one), and
    ``blank`` pads the children that add fewer."""
    width = max(1, max(map(len, added)))
    index = [e for a in added for e in a]
    if len(index) < width * len(added):
        index = [e for a in added for e in (*a, *[blank] * (width - len(a)))]
    return index, width


class StateBlock:
    """A block of search states, which the searches expand and score in one
    step.  This default, for every kind but the assignment, holds the kind's
    ``(elements, complete, payload)`` states in a list and expands each with
    the kind's ``expand``.

    ``take(index)`` and ``join(*others)`` give the states at ``index``, and
    these followed by the others'.  ``expand()`` gives ``(children, parents,
    index, width)``: the children of every state, parent by parent in
    ``expand`` order, as a block; the position here of each child's parent;
    and the elements each child adds, as ``padded_elements`` lays them out
    with the ground size as the blank.  ``groups()`` is the completion
    groups of the states as one integer block shaped (states, groups,
    cells), or None where there are none: every member below state ``i``
    takes at least one element of each group of row ``i``, and no group
    holds an element the state has, so the decision searches look one step
    ahead for a whole block with a fixed number of numpy calls.
    ``gather_size`` bounds the cost columns one state's expansion and its
    children's lookahead gather, so the searches can size their steps by it.
    Here it is the ground size: these kinds have no lookahead, a path or
    tree state has at most that many children, each adding one element or
    none, and an explicit system's root, which adds every member, is a block
    of one.
    """

    def __init__(self, system: CombinatorialSystem, states: list):
        self.system = system
        self.states = states

    def __len__(self) -> int:
        return len(self.states)

    @property
    def gather_size(self) -> int:
        return self.system.ground.n

    def take(self, index) -> StateBlock:
        return StateBlock(self.system, [self.states[i] for i in index])

    def join(self, *others: StateBlock) -> StateBlock:
        return StateBlock(self.system, self.states + [s for o in others for s in o.states])

    def elements(self) -> list[frozenset[int]]:
        return [state[0] for state in self.states]

    def complete(self) -> np.ndarray:
        return np.array([state[1] for state in self.states], dtype=bool)

    def empty(self) -> np.ndarray | None:
        """Which states hold no element, or None where every state holds one."""
        empty = np.array([not state[0] for state in self.states], dtype=bool)
        return empty if empty.any() else None

    def groups(self) -> np.ndarray | None:
        return None

    def expand(self) -> tuple[StateBlock, list[int], list[int], int]:
        children, parents, added = [], [], []
        for parent, state in enumerate(self.states):
            for child in self.system.expand(state):
                children.append(child)
                parents.append(parent)
                added.append(child[0] - state[0])
        index, width = padded_elements(added, self.system.ground.n) if added else ([], 1)
        return StateBlock(self.system, children), parents, index, width


@lru_cache(maxsize=16)  # one per free-column count
def leave_one_out(f: int) -> np.ndarray:
    """Row i lists 0..f-1 without i, for f >= 1; read-only, as callers share it."""
    rows = np.array([[j for j in range(f) if j != i] for i in range(f)], dtype=np.intp)
    rows = rows.reshape(f, f - 1)
    rows.setflags(write=False)
    return rows


class MatchingBlock(StateBlock):
    """Assignment states that have all assigned rows 0..``row`` - 1, as arrays:
    ``taken`` (states, row) holds each state's cells, and ``free`` (states,
    m - row) its free columns, ascending.  Child i of a state takes its i-th
    free column in ``row``, so a block's children, parent by parent, take
    the free columns in row-major order, and their free columns are the
    parents' by the leave-one-out index.  No per-child set or generator is
    built; the block has no ``states``."""

    def __init__(self, system: AssignmentSystem, row: int, taken: np.ndarray, free: np.ndarray):
        self.system = system
        self.row = row
        self.taken = taken
        self.free = free

    def __len__(self) -> int:
        return len(self.free)

    @property
    def gather_size(self) -> int:
        # f children, each with f - 1 groups of f - 1 cells for its lookahead
        f = self.free.shape[1]
        return f * max(1, (f - 1) ** 2)

    def take(self, index) -> MatchingBlock:
        return MatchingBlock(self.system, self.row, self.taken[index], self.free[index])

    def join(self, *others: MatchingBlock) -> MatchingBlock:
        taken = np.concatenate((self.taken, *(o.taken for o in others)))
        free = np.concatenate((self.free, *(o.free for o in others)))
        return MatchingBlock(self.system, self.row, taken, free)

    def elements(self) -> list[frozenset[int]]:
        return list(map(frozenset, self.taken.tolist()))

    def complete(self) -> np.ndarray:
        return np.full(len(self.free), self.row == self.system.m)

    def empty(self) -> np.ndarray | None:
        return None if self.row else np.ones(len(self.free), dtype=bool)

    def groups(self) -> np.ndarray | None:
        return self.system.groups_at(self.row, self.free)

    def expand(self) -> tuple[MatchingBlock, np.ndarray, np.ndarray, int]:
        f = self.free.shape[1]
        if not f:  # complete matchings have no children
            none = np.empty(0, dtype=np.intp)
            return self.take(none), none, none, 1
        added = self.free.ravel() + self.row * self.system.m
        parents = np.arange(len(self.free)).repeat(f)
        taken = np.concatenate((self.taken[parents], added[:, None]), axis=1)
        free = self.free[:, leave_one_out(f)].reshape(len(added), f - 1)
        return MatchingBlock(self.system, self.row + 1, taken, free), parents, added, 1
