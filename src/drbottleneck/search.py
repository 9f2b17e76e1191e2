"""Exact search over feasible subsets: enumeration, bound-pruned minimization
and the block walk under a prune.

All three walk the one state space each system kind defines (``root`` and
``expand``), whose children come in a canonical order per structure (paths
extend from the source along ascending edge ids, spanning trees decide edges
in id order, matchings assign rows in order).  That makes enumeration
deterministic and lets the solvers report a canonical lexicographically
smallest argmin.

Both solvers expand blocks of states, from the kind's ``root_block``: an
assignment's block is arrays (the cells each state has taken and its free
columns), and every other kind's a list of states expanded one by one with
``expand``.  ``grow(accs, index, width)`` grows the accumulators of the
children's parents, one row each, by the flat index of the elements each
child adds (``_blocks.padded_elements``); ``grow(None, index, width)``
builds them from scratch.  An accumulator must be a function of the element
set alone.  The callback, ``(accs, children)``, gets the children's
accumulators and their block, whose ``groups()`` are their completion groups
and ``empty()`` marks those holding no element, and returns one value per
child, in order.  The root is scored first, as a block of one.

Both size their steps by ``BLOCK_BYTES`` of expansion gather and need
accumulators that are arrays with one row per state.  Both bound their work,
not the instance's size: one call counts the states it scores, and the block
that would take it past ``SEARCH_MAX_STATES`` raises ``EnumerationLimitError``
unless ``force``.  So a refusal comes after the budget's work, not at once.
``iter_members`` has no budget: it lists every member, and the package walks
it only on a ground of at most ``TOPK_BLOCKER_MAX_GROUND`` elements
(``quantify.topk_record``).
"""

from __future__ import annotations

import heapq
import math
from itertools import count
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ._blocks import StateBlock, padded_elements
from .errors import EnumerationLimitError, InvalidInstanceError, InvariantViolationError
from .systems import CombinatorialSystem

Grow = Callable[[Any, Sequence[int], int], Any]

#: Bytes of the largest temporary one step of either search may build for
#: more than one state: the children's lookahead gather.  On the 9x9
#: benchmark assignment, at 512 KiB, 768 KiB and 1 MiB the band walk took
#: about 21, 18 and 16 ms, and the process peaked about 0.3, 0.7 and 1.4 MiB
#: above the walk of one state a step; an uncapped walk peaked 30 MiB above.
BLOCK_BYTES = 768 << 10

#: The most states one ``minimize_members`` or ``walk_blocks`` call scores.
#: It admits the largest searches on the 9x9 benchmark assignment (50
#: scenarios): 92,188 states best first (top-k, k = 3) and 675,823 in the
#: band (theta = 2).  A refused band walk has spent about 4 s (4 us a state),
#: a refused top-k search 30-38 us and 1.7 KB of heap a state.
SEARCH_MAX_STATES = 1 << 20


def _state_bytes(block: StateBlock, accs) -> int:
    """What one state of ``block`` costs a step: its expansion's gather,
    ``gather_size`` cost columns of an accumulator row's bytes, a row of no
    bytes costed as one so that ``BLOCK_BYTES`` still caps the states."""
    return block.gather_size * max(1, accs[0].nbytes)


def _gathered(states) -> tuple[StateBlock, Any]:
    """The states listed as ``(node, index)``, all of one depth, as one block
    and its accumulators; a node is ``(block, accs, ...)``."""
    parts = {}  # id(node): (node, indices), in order of first appearance
    for node, index in states:
        parts.setdefault(id(node), (node, []))[1].append(index)
    blocks = [node[0].take(index) for node, index in parts.values()]
    accs = [node[1][index] for node, index in parts.values()]
    if len(blocks) == 1:
        return blocks[0], accs[0]
    return blocks[0].join(*blocks[1:]), np.concatenate(accs)


def _scorer(callback, force: bool):
    """``callback`` for one search call, refused unless it scores every child,
    and before a block that takes the call past ``SEARCH_MAX_STATES`` unless ``force``."""
    budget, reached = (math.inf if force else SEARCH_MAX_STATES), 0

    def score(accs, children: StateBlock):
        nonlocal reached
        reached += len(children)
        if reached > budget:
            raise EnumerationLimitError(
                f"exact search reached {reached} states, past its budget of {budget}; "
                "pass force=True to lift it"
            )
        scores = callback(accs, children)
        if len(scores) != len(children):
            raise InvariantViolationError(
                f"a search callback scored {len(scores)} of a block of {len(children)} states"
            )
        return scores

    return score


def iter_members(system: CombinatorialSystem) -> Iterator[frozenset[int]]:
    """Yield feasible subsets in canonical order, by one depth-first walk on
    its own stack (children pushed in reverse), so depth needs no recursion."""
    stack = [system.root()]
    while stack:
        state = stack.pop()
        if state[1]:
            yield state[0]
        else:
            stack.extend(reversed(list(system.expand(state))))


def walk_blocks(
    system: CombinatorialSystem,
    prune: Callable[[Any, StateBlock], Sequence[bool]],
    grow: Grow,
    force: bool = False,
) -> Iterator[tuple[list[frozenset[int]], Any]]:
    """The members below every state ``prune`` keeps, a block at a time.

    Each step expands a block of states, grows the children's accumulators
    with one ``grow`` call and scores them with one ``prune`` call, which
    gets the accumulators and the children's block and returns True for
    each child whose subtree is cut; it must never cut a subtree holding a
    member the caller still needs.  The root is scored first, as a block of
    one.  Yields ``(members, accs)`` for the complete children each step
    keeps.  The others wait in a pool per depth, and each step expands as
    many states of one pool as fit ``BLOCK_BYTES`` (``_state_bytes`` a state,
    one at the least): of the deepest pool holding that many, or else of the
    shallowest, whose expansions fill the deeper pools.  A pool takes the
    kept states of several expansions, since one expansion's rarely fill a
    block, and holds at most a block plus one expansion's children, so
    memory stays bounded.  Members come in no fixed order.  Past
    ``SEARCH_MAX_STATES`` scored states it raises, unless ``force``.
    """
    cuts = _scorer(prune, force)
    pools = {}  # depth: (block, accs) of the kept incomplete states waiting there

    def visit(children, accs, depth):
        kept = np.flatnonzero(~np.asarray(cuts(accs, children), dtype=bool))
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
        return max(1, BLOCK_BYTES // _state_bytes(*pools[depth]))

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


def minimize_members(
    system: CombinatorialSystem,
    bound_fn: Callable[[Any, StateBlock], Sequence[float]],
    force: bool = False,
    *,
    grow: Grow,
) -> tuple[float, frozenset[int]]:
    """Exact minimum of ``bound_fn`` over feasible subsets.

    ``bound_fn`` scores the root, then the children of each block expanded,
    one block per call, so every state pushed is scored once.  Its value on
    a complete member is the true objective, and its value on a partial
    state must not exceed that of any complete member below it: an
    admissible lower bound, such as a score monotone nondecreasing under
    element insertion, or a one-step lookahead over the state's completion
    groups.

    One best-first pass pops states in key order, a step at a time.  A step
    pops as many incomplete states as fit ``BLOCK_BYTES`` (``_state_bytes``
    a state, one at the least), and the complete members ahead of them; only
    states whose key is at most the limit are popped.  The limit is the
    champion's value plus a band of 1e-12 relative width, tightened each
    time the champion improves, and the search stops once no key is within
    it.  The champion is the smallest ``(value, sorted elements)`` among the
    complete members popped: with admissible keys, the lexicographically
    smallest optimal member.  The band absorbs rounding that can put a
    partial set's bound an ulp above a completion's value.  The popped
    states are expanded a depth at a time, as one block each, whose children
    are grown from the parents' accumulators with one ``grow`` call and
    scored with one ``bound_fn`` call.  A heap entry holds its block and the
    block's accumulators, so no popped state rebuilds its own.  Past
    ``SEARCH_MAX_STATES`` scored states it raises, unless ``force``.
    """

    score = _scorer(bound_fn, force)
    heap = []
    counter = count()

    def push(children, accs, depth):
        # every entry of a block shares its (block, accs, depth, state cost)
        node = (children, accs, depth, _state_bytes(children, accs))
        complete = children.complete().tolist()
        for index, value in enumerate(score(accs, children)):
            heapq.heappush(heap, (value, next(counter), complete[index], index, node))

    root = system.root_block()
    push(root, grow(None, *padded_elements(root.elements(), system.ground.n)), 0)
    limit = math.inf
    champion: frozenset[int] | None = None
    champion_key: tuple | None = None
    while heap:
        popped = {}  # depth: [(node, index)] of the incomplete states this step expands
        spent = 0
        while heap and spent < BLOCK_BYTES and heap[0][0] <= limit:
            value, _, complete, index, node = heap[0]
            if complete:
                heapq.heappop(heap)
                elements = node[0].take([index]).elements()[0]
                key = (value, tuple(sorted(elements)))
                if champion_key is None or key < champion_key:
                    champion, champion_key = elements, key
                    limit = value + 1e-12 * (1.0 + abs(value))
                continue
            if spent and spent + node[3] > BLOCK_BYTES:
                break
            heapq.heappop(heap)
            spent += node[3]
            popped.setdefault(node[2], []).append((node, index))
        if not popped:
            break
        for depth, states in popped.items():
            block, accs = _gathered(states)
            children, parents, added, width = block.expand()
            if len(children):
                push(children, grow(accs[parents], added, width), depth + 1)
    if champion is None:
        raise InvalidInstanceError("no feasible subset found")
    return champion_key[0], champion
