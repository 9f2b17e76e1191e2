"""Exact search over feasible subsets: enumeration and bound-pruned minimization.

Both walk the one state space each system kind defines (``root`` and
``expand``), whose children come in a canonical order per structure (paths
extend from the source along ascending edge ids, spanning trees decide edges
in id order, matchings assign rows in order).  That makes enumeration
deterministic and lets the solvers report a canonical lexicographically
smallest argmin.

Both score each expanded state's children in one block.  ``extend(acc,
added)`` returns the block of the children's accumulators: ``acc``, the
parent's, grown by each set in the list ``added`` (what each child adds,
possibly nothing), leaving ``acc`` as it was; item ``i`` of the block is
child ``i``'s accumulator, and ``extend(None, [elements])`` builds a block of
one from scratch.  An accumulator must be a function of the element set
alone.  The default ``extend`` is set union, so the block is a list of the
children's element sets.

The callbacks, ``prune(accs, state, children)`` and ``bound_fn(accs, state,
children)``, get that block with the expanded ``state`` and its list of
``children``, and return one value per child, in order.  The root is scored
alone, as a block of one whose ``state`` is None.  Since the children share
a parent, a callback can look one step ahead for all of them at once:
``system.completion_block(state)`` gives each child's completion groups.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, Sequence

from .errors import InvalidInstanceError
from .systems import CombinatorialSystem

Extend = Callable[[Any, list], Any]


def _union(acc: frozenset[int] | None, added: list) -> list:
    return added if acc is None else [acc | a for a in added]


def iter_members(
    system: CombinatorialSystem,
    prune: Callable[[Any, tuple | None, list], Sequence[bool]] | None = None,
    *,
    extend: Extend = _union,
) -> Iterator[frozenset[int]]:
    """Yield feasible subsets in canonical order.

    ``prune`` scores the root, then each expanded state's children, one
    block per call, and returns True for each child whose subtree is cut; it
    must never cut a subtree containing a member that the caller still needs.
    Every state visited, partial or complete, is scored once.  Each
    depth-first frame keeps its block of children's accumulators.
    """

    def walk(state, acc):
        elements, complete, _ = state
        if complete:
            yield elements
            return
        children = list(system.expand(state))
        if not children:
            return
        accs = extend(acc, [child[0] - elements for child in children])
        cut = prune(accs, state, children) if prune is not None else [False] * len(children)
        for i, child in enumerate(children):
            if not cut[i]:
                yield from walk(child, accs[i])

    root = system.root()
    accs = extend(None, [root[0]])
    if prune is None or not prune(accs, None, [root])[0]:
        yield from walk(root, accs[0])


def enumerate_members(
    system: CombinatorialSystem, force: bool = False
) -> list[frozenset[int]]:
    """All feasible subsets, exhaustively (guarded to small instances)."""
    system.check_enum_guard(force)
    return list(iter_members(system))


def minimize_members(
    system: CombinatorialSystem,
    bound_fn: Callable[[Any, tuple | None, list], Sequence[float]],
    force: bool = False,
    *,
    extend: Extend = _union,
) -> tuple[float, frozenset[int]]:
    """Exact minimum of ``bound_fn`` over feasible subsets.

    ``bound_fn`` scores the root, then the children of each state expanded,
    one block per call, so every state pushed is scored once.  Its value on
    a complete member is the true objective, and its value on a partial
    state must not exceed that of any complete member below it: an
    admissible lower bound, such as a score monotone nondecreasing under
    element insertion, or a one-step lookahead over the state's completion
    groups.  One best-first pass finds the first complete member, then keeps
    popping states until their bound leaves a band of 1e-12 relative width
    above it, and returns the smallest ``(value, sorted elements)`` among the
    complete members popped: the lexicographically smallest optimal member.
    The band absorbs rounding that can put a partial set's bound an ulp
    above a completion's value.  The heap holds no accumulator; a popped
    state rebuilds its own.
    """

    system.check_search_guard(force)
    root = system.root()
    counter = 0
    heap = [(bound_fn(extend(None, [root[0]]), None, [root])[0], counter, root)]
    limit = None
    champion: frozenset[int] | None = None
    champion_key: tuple | None = None
    while heap:
        bound, _, state = heapq.heappop(heap)
        if limit is not None and bound > limit:
            break
        elements, complete, _ = state
        if complete:
            if limit is None:
                limit = bound + 1e-12 * (1.0 + abs(bound))
            key = (bound, tuple(sorted(elements)))
            if champion_key is None or key < champion_key:
                champion, champion_key = elements, key
            continue
        children = list(system.expand(state))
        if not children:
            continue
        acc = extend(None, [elements])[0]
        accs = extend(acc, [child[0] - elements for child in children])
        for value, child in zip(bound_fn(accs, state, children), children):
            counter += 1
            heapq.heappush(heap, (value, counter, child))
    if champion is None:
        raise InvalidInstanceError("no feasible subset found")
    return champion_key[0], champion
