"""Exact search over feasible subsets: enumeration and bound-pruned minimization.

Both walk the one state space each system kind defines (``root`` and
``expand``), whose children come in a canonical order per structure (paths
extend from the source along ascending edge ids, spanning trees decide edges
in id order, matchings assign rows in order).  That makes enumeration
deterministic and lets the solvers report a canonical lexicographically
smallest argmin.

Bounds and prunes score an accumulator: ``extend(acc, added)`` returns a
parent's ``acc`` grown by the elements its child adds, leaving ``acc`` as it
was (siblings share it), and ``extend(None, elements)`` builds one from
scratch.  ``acc`` must be a function of the element set alone.  The default
``extend`` is set union, so ``acc`` is the element set.

Both callbacks, ``prune(acc, state)`` and ``bound_fn(acc, state)``, receive
the state with its accumulator, so a callback can look one step ahead:
``system.completion_groups(state)`` lists groups of elements of which every
member below the state takes at least one each.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator

from .errors import InvalidInstanceError
from .systems import CombinatorialSystem


def _union(acc: frozenset[int] | None, added: frozenset[int]) -> frozenset[int]:
    return added if acc is None else acc | added


def iter_members(
    system: CombinatorialSystem,
    prune: Callable[[Any, tuple], bool] | None = None,
    *,
    extend: Callable[[Any, frozenset[int]], Any] = _union,
) -> Iterator[frozenset[int]]:
    """Yield feasible subsets in canonical order.

    ``prune`` sees the accumulator and the state of each state visited,
    partial or complete, once, and returns True to cut the subtree; it must
    never cut a subtree containing a member that the caller still needs.  Each
    depth-first frame keeps its state's accumulator.
    """

    def walk(state, acc):
        elements, complete, _ = state
        if prune is not None and prune(acc, state):
            return
        if complete:
            yield elements
            return
        for child in system.expand(state):
            yield from walk(child, extend(acc, child[0] - elements))

    root = system.root()
    yield from walk(root, extend(None, root[0]))


def enumerate_members(
    system: CombinatorialSystem, force: bool = False
) -> list[frozenset[int]]:
    """All feasible subsets, exhaustively (guarded to small instances)."""
    system.check_enum_guard(force)
    return list(iter_members(system))


def minimize_members(
    system: CombinatorialSystem,
    bound_fn: Callable[[Any, tuple], float],
    force: bool = False,
    *,
    extend: Callable[[Any, frozenset[int]], Any] = _union,
) -> tuple[float, frozenset[int]]:
    """Exact minimum of ``bound_fn`` over feasible subsets.

    ``bound_fn`` scores the accumulator and the state of the root and of
    each state pushed, once.  Its value on a complete member is the true
    objective, and its value on a partial state must not exceed that of any
    complete member below it: an admissible lower bound, such as a score
    monotone nondecreasing under element insertion, or a one-step lookahead
    over the state's completion groups.  One best-first pass finds the
    first complete member, then keeps popping states until their bound
    leaves a band of 1e-12 relative width above it, and returns the smallest
    ``(value, sorted elements)`` among the complete members popped: the
    lexicographically smallest optimal member.  The band absorbs rounding
    that can put a partial set's bound an ulp above a completion's value.
    The heap holds no accumulator; a popped state rebuilds its own.
    """

    system.check_search_guard(force)
    root = system.root()
    counter = 0
    heap = [(bound_fn(extend(None, root[0]), root), counter, root)]
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
        acc = extend(None, elements)
        for child in system.expand(state):
            counter += 1
            heapq.heappush(heap, (bound_fn(extend(acc, child[0] - elements), child), counter, child))
    if champion is None:
        raise InvalidInstanceError("no feasible subset found")
    return champion_key[0], champion
