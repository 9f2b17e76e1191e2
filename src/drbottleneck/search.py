"""Exact search over feasible subsets: enumeration, bound-pruned minimization
and the block walk under a prune.

All three walk the one state space each system kind defines (``root`` and
``expand``), whose children come in a canonical order per structure (paths
extend from the source along ascending edge ids, spanning trees decide edges
in id order, matchings assign rows in order).  That makes enumeration
deterministic and lets the solvers report a canonical lexicographically
smallest argmin.

``minimize_members`` scores each expanded state's children in one block.
``extend(acc, added)`` returns the block of the children's accumulators:
``acc``, the parent's, grown by each set in the list ``added`` (what each
child adds, possibly nothing), leaving ``acc`` as it was; item ``i`` of the
block is child ``i``'s accumulator, and ``extend(None, [elements])`` builds a
block of one from scratch.  An accumulator must be a function of the element
set alone.  The default ``extend`` is set union, so the block is a list of
the children's element sets.  Its callback, ``bound_fn(accs, state,
children)``, gets that block with the expanded ``state`` and its list of
``children``, and returns one value per child, in order.  The root is scored
alone, as a block of one whose ``state`` is None.  Since the children share
a parent, a callback can look one step ahead for all of them at once:
``system.completion_block(state)`` gives each child's completion groups.

``walk_blocks`` expands a whole block of states a step, from the kind's
``root_block``: an assignment's block is arrays (the cells each state has
taken and its free columns), and every other kind's a list of states
expanded one by one.  ``grow(accs, index, width)`` grows the accumulators of
the children's parents, one row each, by the flat index of the elements each
child adds (``_blocks.padded_elements``).  Its callback, ``prune(accs,
children)``, gets the children's accumulators and their block, whose
``groups()`` are their completion groups and ``empty()`` marks those holding
no element, and returns one cut flag per child.  Blocks are sized by a byte
budget and filled from a pool of waiting states per depth, deepest first,
so members come in no fixed order.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ._blocks import StateBlock, padded_elements
from .errors import InvalidInstanceError
from .systems import CombinatorialSystem

Extend = Callable[[Any, list], Any]
Grow = Callable[[Any, Sequence[int], int], Any]

#: Bytes of the largest temporary one step of ``walk_blocks`` may build for a
#: block of more than one state: the children's lookahead gather.  On the 9x9
#: benchmark assignment, at 512 KiB, 768 KiB and 1 MiB the band walk took
#: about 21, 18 and 16 ms, and the process peaked about 0.3, 0.7 and 1.4 MiB
#: above the walk of one state a step; an uncapped walk peaked 30 MiB above.
BLOCK_BYTES = 768 << 10


def _union(acc: frozenset[int] | None, added: list) -> list:
    return added if acc is None else [acc | a for a in added]


def iter_members(system: CombinatorialSystem) -> Iterator[frozenset[int]]:
    """Yield feasible subsets in canonical order, by one depth-first walk."""

    def walk(state):
        elements, complete, _ = state
        if complete:
            yield elements
            return
        for child in system.expand(state):
            yield from walk(child)

    yield from walk(system.root())


def walk_blocks(
    system: CombinatorialSystem,
    prune: Callable[[Any, StateBlock], Sequence[bool]],
    grow: Grow,
) -> Iterator[tuple[list[frozenset[int]], Any]]:
    """The members below every state ``prune`` keeps, a block at a time.

    Each step expands a block of states, grows the children's accumulators
    with one ``grow`` call and scores them with one ``prune`` call, which
    gets the accumulators and the children's block and returns True for
    each child whose subtree is cut; it must never cut a subtree holding a
    member the caller still needs.  The root is scored first, as a block of
    one.  Yields ``(members, accs)`` for the complete children each step
    keeps.  The others wait in a pool per depth, and each step expands as
    many states of one pool as fit ``BLOCK_BYTES`` of the expansion's gather
    (``gather_size`` cost columns of an accumulator's size a state; one
    state at the least): of the deepest pool holding that many, or else of
    the shallowest, whose expansions fill the deeper pools.  A pool takes
    the kept states of several expansions, since one expansion's rarely
    fill a block, and holds at most a block plus one expansion's children,
    so memory stays bounded.  Members come in no fixed order.
    """
    pools = {}  # depth: (block, accs) of the kept incomplete states waiting there

    def visit(children, accs, depth):
        kept = np.flatnonzero(~np.asarray(prune(accs, children), dtype=bool))
        complete = children.complete()[kept]
        if complete.any():
            done = kept[complete]
            yield children.take(done).elements(), accs[done]
        rest = kept[~complete]
        if rest.size:
            block, accs = children.take(rest), accs[rest]
            if depth in pools:
                waiting, waiting_accs = pools[depth]
                block, accs = waiting.join(block), np.concatenate((waiting_accs, accs))
            pools[depth] = block, accs

    def size(depth):
        block, accs = pools[depth]
        return max(1, BLOCK_BYTES // (block.gather_size * accs[0].nbytes))

    root = system.root_block()
    yield from visit(root, grow(None, *padded_elements(root.elements(), system.ground.n)), 0)
    while pools:
        full = [depth for depth in pools if len(pools[depth][0]) >= size(depth)]
        depth = max(full) if full else min(pools)
        cap = size(depth)
        block, accs = pools.pop(depth)
        if len(block) > cap:
            pools[depth] = block.take(np.arange(cap, len(block))), accs[cap:]
            block, accs = block.take(np.arange(cap)), accs[:cap]
        children, parents, index, width = block.expand()
        if len(children):
            yield from visit(children, grow(accs[parents], index, width), depth + 1)


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
