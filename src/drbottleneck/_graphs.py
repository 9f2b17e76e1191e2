"""Internal graph primitives.

The source side of a minimum s-t cut (one function: Dinic's max-flow,
whose last level search is the side), global minimum cut by repeated
maximum-adjacency contraction, augmenting-path bipartite matching,
breadth-first s-t paths, and a small disjoint-set forest.  All routines are
deterministic: ties are broken by smallest id.
"""

from __future__ import annotations

from collections import deque


class DisjointSets:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.groups = n

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.groups -= 1
        return True

    def copy(self) -> "DisjointSets":
        other = DisjointSets.__new__(DisjointSets)
        other.parent = list(self.parent)
        other.rank = list(self.rank)
        other.groups = self.groups
        return other


def min_st_cut_side(n: int, edges, weights, s: int, t: int) -> set[int]:
    """Source side of a minimum s-t cut for nonnegative real edge weights.

    Dinic's max-flow with real capacities.  ``edges`` is a sequence of
    (u, v) pairs; parallel edges are fine.  Each edge heavier than the
    residual tolerance, 1e-12 of the largest weight (or of 1), becomes a
    mutually-reverse arc pair, each arc carrying the full weight; a lighter
    edge can carry no flow and no residual search crosses it, so leaving it
    out changes neither the flow nor the source side.  The phase count is
    bounded by the node count, so termination does not depend on integral
    weights.  Each phase's level search runs over the whole residual graph;
    the first one that misses t has reached exactly the source side, which
    is returned.
    """
    weights = list(map(float, weights))
    eps = 1e-12 * max(weights + [1.0])
    to: list[int] = []
    cap: list[float] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for (u, v), w in zip(edges, weights):
        if w > eps:
            adj[u].append(len(to))
            adj[v].append(len(to) + 1)
            to += (v, u)
            cap += (w, w)
    while True:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for i in adj[u]:
                v = to[i]
                if level[v] < 0 and cap[i] > eps:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return {v for v in range(n) if level[v] >= 0}
        # blocking flow: a depth-first walk over the level graph with an
        # explicit stack of arcs.  It follows each node's arc pointer,
        # advances the pointer past an arc only when the walk retreats over
        # it, and pushes each path's least capacity; the phase ends when the
        # walk retreats out of s.
        it = [0] * n
        while True:
            path: list[int] = []
            u = s
            while u != t:
                while it[u] < len(adj[u]):
                    i = adj[u][it[u]]
                    v = to[i]
                    if cap[i] > eps and level[v] == level[u] + 1:
                        path.append(i)
                        u = v
                        break
                    it[u] += 1
                else:
                    if not path:
                        break
                    # dead end: retreat over the arc that led here
                    u = to[path.pop() ^ 1]
                    it[u] += 1
            if u != t:
                break
            pushed = min(cap[i] for i in path)
            for i in path:
                cap[i] -= pushed
                cap[i ^ 1] += pushed


def global_min_cut_side(n: int, edges, weights) -> set[int]:
    """One side of a global minimum cut (maximum-adjacency contraction).

    Requires a connected graph on ``n >= 2`` nodes; parallel edge weights are
    accumulated.  Ties in the adjacency ordering and between phase cuts are
    broken by smallest node id so the result is deterministic.
    """
    w = [[0.0] * n for _ in range(n)]
    for (u, v), wt in zip(edges, weights):
        w[u][v] += float(wt)
        w[v][u] += float(wt)
    merged = [{i} for i in range(n)]
    active = list(range(n))
    best_val = float("inf")
    best_side: set[int] = {0}
    while len(active) > 1:
        # maximum adjacency ordering from the smallest active node
        order = [active[0]]
        in_order = {active[0]}
        conn = {v: w[active[0]][v] for v in active if v not in in_order}
        while conn:
            nxt = min(conn, key=lambda v: (-conn[v], v))
            order.append(nxt)
            in_order.add(nxt)
            del conn[nxt]
            for v in conn:
                conn[v] += w[nxt][v]
        last, prev = order[-1], order[-2]
        phase_val = sum(w[last][v] for v in active if v != last)
        if phase_val < best_val or (
            phase_val == best_val and sorted(merged[last]) < sorted(best_side)
        ):
            best_val = phase_val
            best_side = set(merged[last])
        # contract last into prev
        for v in active:
            if v not in (last, prev):
                w[prev][v] += w[last][v]
                w[v][prev] = w[prev][v]
        merged[prev] |= merged[last]
        active.remove(last)
    return best_side


def max_bipartite_matching(
    m: int, allowed: list[list[int]], row_of_col: list[int] | None = None,
    rows: list[int] | None = None,
) -> list[int]:
    """Augmenting-path maximum matching on an m-by-m bipartite graph.

    ``allowed[i]`` lists the columns row ``i`` may use, in the order its
    search tries them (ascending, for the threshold witnesses).  Returns
    ``row_of_col`` with -1 for unmatched columns; rows are processed in
    ascending order so the result is deterministic.  Given a matching
    ``row_of_col``, it is grown in place by one augmenting search from each
    of ``rows``; when those are its free rows, the result is maximum.
    """
    if row_of_col is None:
        row_of_col = [-1] * m
    for i in range(m) if rows is None else rows:
        # depth-first search for an augmenting path with an explicit stack:
        # frames[d] holds a row and an iterator over the columns it has yet
        # to try, cols[d] the column it descended through; columns are tried
        # in the listed order and each is visited once
        visited = [False] * m
        frames, cols = [(i, iter(allowed[i]))], []
        while frames:
            _, options = frames[-1]
            for j in options:
                if not visited[j]:
                    break
            else:
                frames.pop()
                if cols:
                    cols.pop()
                continue
            visited[j] = True
            cols.append(j)
            if row_of_col[j] < 0:
                for (r, _), c in zip(frames, cols):
                    row_of_col[c] = r
                break
            frames.append((row_of_col[j], iter(allowed[row_of_col[j]])))
    return row_of_col


def bfs_path_edges(n: int, incidence, s: int, t: int) -> list[int] | None:
    """Edge ids of a BFS s-t path, or None when t is unreachable.

    ``incidence[u]`` lists (edge_id, other_endpoint) pairs in ascending edge
    order, which makes the returned path deterministic.
    """
    parent_edge = [-1] * n
    parent_node = [-1] * n
    seen = [False] * n
    seen[s] = True
    queue = deque([s])
    while queue:
        u = queue.popleft()
        if u == t:
            break
        for eid, v in incidence[u]:
            if not seen[v]:
                seen[v] = True
                parent_edge[v] = eid
                parent_node[v] = u
                queue.append(v)
    if not seen[t]:
        return None
    path = []
    node = t
    while node != s:
        path.append(parent_edge[node])
        node = parent_node[node]
    path.reverse()
    return path
