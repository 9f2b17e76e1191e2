"""Internal graph primitives.

Max-flow / min s-t cut, global minimum cut by repeated maximum-adjacency
contraction, augmenting-path bipartite matching, and a small disjoint-set
forest.  All routines are deterministic: ties are broken by smallest id.
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


class MaxFlow:
    """Dinic-style blocking-flow max-flow with real capacities.

    Undirected edges are added as a mutually-reverse arc pair, each carrying
    the full capacity.  The phase count is bounded by the node count, so
    termination does not depend on capacities being integral; a relative
    residual tolerance decides which arcs are usable.
    """

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[float] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_undirected(self, u: int, v: int, cap: float) -> int:
        """Add an undirected edge; returns the index of its forward arc."""
        i = len(self.to)
        self.adj[u].append(i)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(i + 1)
        self.to.append(u)
        self.cap.append(cap)
        return i

    def _levels(self, s: int, t: int, eps: float) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for i in self.adj[u]:
                v = self.to[i]
                if level[v] < 0 and self.cap[i] > eps:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def max_flow(self, s: int, t: int, eps: float) -> float:
        total = 0.0
        while True:
            level = self._levels(s, t, eps)
            if level is None:
                return total
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, eps, level, it)
                if pushed <= 0.0:
                    break
                total += pushed

    def _augment(self, s: int, t: int, eps: float, level: list[int], it: list[int]) -> float:
        """Push flow along one level-graph path from ``s`` to ``t``.

        A depth-first walk with an explicit stack of arcs: it follows each
        node's arc pointer, advances the pointer past an arc only when the
        walk retreats over it, and pushes the path's least capacity.  Returns
        0.0 when ``t`` is cut off.
        """
        adj, to, cap = self.adj, self.to, self.cap
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
                # dead end: retreat over the arc that led here
                if not path:
                    return 0.0
                u = to[path.pop() ^ 1]
                it[u] += 1
        pushed = min((cap[i] for i in path), default=float("inf"))
        for i in path:
            cap[i] -= pushed
            cap[i ^ 1] += pushed
        return pushed

    def source_side(self, s: int, eps: float) -> set[int]:
        """Nodes reachable from ``s`` in the residual graph."""
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for i in self.adj[u]:
                v = self.to[i]
                if v not in seen and self.cap[i] > eps:
                    seen.add(v)
                    queue.append(v)
        return seen


def min_st_cut_side(n: int, edges, weights, s: int, t: int) -> set[int]:
    """Source side of a minimum s-t cut for nonnegative real edge weights.

    ``edges`` is a sequence of (u, v) pairs; parallel edges are fine.  An
    edge of weight at most the residual tolerance gets no arc pair: no flow
    can cross it and the residual walk never uses it, so leaving it out
    changes neither the flow nor the source side.
    """
    weights = list(map(float, weights))
    eps = 1e-12 * max(weights + [1.0])
    flow = MaxFlow(n)
    for (u, v), w in zip(edges, weights):
        if w > eps:
            flow.add_undirected(u, v, w)
    flow.max_flow(s, t, eps)
    return flow.source_side(s, eps)


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


def max_bipartite_matching(m: int, allowed: list[list[int]]) -> list[int]:
    """Augmenting-path maximum matching on an m-by-m bipartite graph.

    ``allowed[i]`` lists the columns row ``i`` may use, in ascending order.
    Returns ``row_of_col`` with -1 for unmatched columns; rows are processed
    in ascending order so the result is deterministic.
    """
    row_of_col = [-1] * m
    for i in range(m):
        # depth-first search for an augmenting path with an explicit stack:
        # frames[d] holds a row and the position of the next column it tries,
        # cols[d] the column it descended through; columns are tried in
        # ascending order and each is visited once
        visited = [False] * m
        frames, cols = [[i, 0]], []
        while frames:
            frame = frames[-1]
            row, k = frame
            options = allowed[row]
            while k < len(options) and visited[options[k]]:
                k += 1
            if k == len(options):
                frames.pop()
                if cols:
                    cols.pop()
                continue
            j = options[k]
            frame[1] = k + 1
            visited[j] = True
            cols.append(j)
            if row_of_col[j] < 0:
                for (r, _), c in zip(frames, cols):
                    row_of_col[c] = r
                break
            frames.append([row_of_col[j], 0])
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
