"""The finite-order dual's per-scenario lift models and certified bracket.

The dual is phi(lam) = lam * theta^q + mean_k sup_t [t - lam * g_k(t)^(q/r)],
where g_k(t) is the cheapest lift budget sum_{j in B} (t - c_j)_+^r over the
blocker elements B of scenario k.  g_k does not depend on lam, so each
scenario's model of it is built once, before any multiplier is tried.

Every w_j(t) = (t - c_j)_+^r is convex, so its tangent at a level a is a
global lower bound, and g(t) >= min_B sum_{j in B} tangent_j(t): a lower
envelope of lines, which is concave and piecewise linear, and which the
blocker oracle evaluates exactly at any t >= a (the tangent weights are
nonnegative there).  Eisner-Severance discovery finds its pieces: the lines
optimal at the two ends of [a, b] cross at x; the oracle is asked at x, and
a line strictly below both there splits the interval, while none certifies
the two lines as the envelope on either side, by concavity.  Each piece's
sup of t - lam * line(t)^(q/r) is closed-form.

At r = 1 the tangents between consecutive distinct costs are the budgets
themselves, so the envelope is g exactly, and past the largest cost every
line's slope is a blocker size.  At r != 1 the envelope is within
O((b - a)^2) of g, the piece's blocker lifted to the piece's maximizer is an
attained point, and intervals are halved where the two are too far apart.
Past the last interval the tail bound is the r-norm's: D = g^(1/r) grows at
least as fast as one coordinate, D(t) >= D(T) + (t - T), and past the
largest cost D(t) >= |B*|^(1/r) (t - max c) for a blocker element B* of
least size.  At q = 1 the sup is +inf exactly when lam * |B*|^(1/r) < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, exact_sum, saturating_sum
from .systems import BottleneckResult, CombinatorialSystem, min_weight_blocker

# steps of the multiplier bisection, and refinement rounds at r != 1, before
# ConvergenceError; the certified relative width of the bracket
MULTIPLIER_SEARCH_MAX_ITER = 200
FINITE_ORDER_GAP = 1e-12


def _pieces_sup(lam: float, beta, alpha, power, a, b):
    """Elementwise sup of t - lam * (beta * t - alpha)^power over [a, b].

    Returns the sups, their least maximizers and the spends there.
    beta * t - alpha is nonnegative on each piece and b may be infinite;
    below power 1 the function is convex, so an end is the maximizer, and a
    sup that grows without bound along an infinite piece is +inf.
    """
    with np.errstate(all="ignore"):
        def h(t):
            return t - lam * np.maximum(beta * t - alpha, 0.0) ** power

        reach = (lam * beta * power) ** (1.0 / (1.0 - power))
        stationary = (reach + alpha) / beta
        peak = np.clip(stationary, a, b)
        rising = np.where(np.isinf(b), (power < 1.0) | (lam * beta < 1.0), h(b) > h(a))
        t = np.where(power > 1.0, peak, np.where(rising, b, a))
        # at an interior peak the spend is reach^power, taken as one power of
        # lam * beta * power: the subgradient's sign then flips at the float
        # nearest the exact multiplier, not ulps away after a trip through t
        interior = (power > 1.0) & (peak == stationary)
        spend = np.where(
            interior,
            (lam * beta * power) ** (power / (1.0 - power)),
            np.maximum(beta * t - alpha, 0.0) ** power,
        )
        value = np.where(np.isinf(t), math.inf, t - lam * spend)
    return value, t, spend


@dataclass(frozen=True)
class _Pick:
    """A lift of ``elements`` to ``level`` at transport cost ``spend`` (its
    r-norm to the power q), worth ``value`` = level - lam * spend."""

    value: float
    level: float
    spend: float
    elements: frozenset[int]


def _lift_spend(c: np.ndarray, elements, level: float, q: float, r: float) -> float:
    """Transport cost of raising the costs of ``elements`` below ``level`` to it."""
    gap = np.clip(level - c[sorted(elements)], 0.0, None)
    return float(np.sum(gap**r)) ** (q / r)


class _LiftModel:
    """One scenario's share of the dual, sup_t [t - lam * g(t)^(q/r)].

    ``base`` is ``bottleneck_value(system, c)``, the scenario's empirical
    point.  The intervals run from its value z through every distinct
    cost above it; at r = 1 the last one is [max c, inf) and the model is
    exact, while at r != 1 the tail past the last interval is bounded and
    ``refine`` halves intervals or extends them outward.  Oracle answers are
    memoized by weight vector, so a level shared by two intervals costs one
    call.
    """

    def __init__(
        self, system: CombinatorialSystem, c: np.ndarray, base: BottleneckResult,
        q: float, r: float,
    ):
        self.system, self.c, self.q, self.r = system, c, q, r
        self._asked: dict[bytes, frozenset[int]] = {}
        self.floor = _Pick(base.value, base.value, 0.0, base.dual_witness.elements)
        # the dual witness has no element below z, so it is the cheapest lift to z
        self._asked[(np.clip(base.value - c, 0.0, None) ** r).tobytes()] = self.floor.elements
        size, least = min_weight_blocker(system, np.ones(len(c)))
        self.tail_slope = size ** (1.0 / r)
        self.tail = least.elements
        self.top = float(np.max(c))
        ends = [base.value] + [t for t in np.unique(c).tolist() if t > base.value]
        self.intervals = [(a, b, self._discover(a, b)) for a, b in zip(ends, ends[1:])]
        self.edge = ends[-1]
        if r == 1.0:
            self.intervals.append((self.edge, math.inf, self._discover(self.edge, math.inf)))
        self._collect()

    def _ask(self, weights: np.ndarray) -> frozenset[int]:
        key = weights.tobytes()
        if key not in self._asked:
            self._asked[key] = min_weight_blocker(self.system, weights)[1].elements
        return self._asked[key]

    def _discover(self, a: float, b: float) -> list[tuple]:
        """Pieces (slope, offset, elements, left, right) of the tangent
        envelope at a over [a, b]."""
        c, r = self.c, self.r
        gap = np.clip(a - c, 0.0, None)
        below = c <= a
        # tangent at a: w1 * t - off, which is gap^r at t = a
        w1 = np.where(below, r * gap ** (r - 1.0), 0.0)
        off = np.where(below, gap ** (r - 1.0) * ((r - 1.0) * a + c), 0.0)

        def line(elements):
            idx = sorted(elements)
            return exact_sum(w1[idx].tolist()), exact_sum(off[idx].tolist())

        def ask(t):
            return self._ask(gap**r if t == a else np.maximum(w1 * t - off, 0.0))

        right = self.tail if math.isinf(b) else ask(b)
        stack, seen, pieces = [(a, b, ask(a), right)], set(), []
        while stack:
            lo, hi, left, right = stack.pop()
            (bl, al), (br, ar) = line(left), line(right)
            if bl == br:
                pieces.append((bl, max(al, ar), left if al >= ar else right, lo, hi))
                continue
            x = (al - ar) / (bl - br)
            if not lo < x < hi:
                pieces.append((bl, al, left, lo, hi) if x >= hi else (br, ar, right, lo, hi))
                continue
            inner = ask(x)
            bm, am = line(inner)
            if (bm, am) not in seen and bm * x - am < min(bl * x - al, br * x - ar):
                seen.add((bm, am))
                stack += [(x, hi, inner, right), (lo, x, left, inner)]
            else:
                pieces += [(bl, al, left, lo, x), (br, ar, right, x, hi)]
        return pieces

    def _collect(self) -> None:
        """Stack every piece into arrays.  At r != 1 each interval [a, b]
        also gets its r-norm bound D(t) >= D(a) + (t - a), which is exact
        where one element is lifted, and the tail past ``edge`` gets both
        r-norm bounds; each bound piece carries the blocker element it came
        from, lifted where the bound peaks."""
        q, r = self.q, self.r
        rows = [
            (*p, q / r, k, False) for k, (_, _, pieces) in enumerate(self.intervals) for p in pieces
        ]
        if r != 1.0:
            rows += [
                (1.0, *self._norm_line(a), a, b, q, k, True)
                for k, (a, b, _) in enumerate(self.intervals)
            ]
            t, s = self.edge, self.tail_slope
            offset, elements = self._norm_line(t)
            cross = max(t, (s * self.top - offset) / (s - 1.0)) if s > 1.0 else math.inf
            rows.append((1.0, offset, elements, t, cross, q, -1, False))
            if s > 1.0:
                rows.append((s, s * self.top, self.tail, cross, math.inf, q, -1, False))
        beta, alpha, self._elements, a, b, power, owner, norm = zip(*rows)
        self._owner, self._norm = np.array(owner), np.array(norm)
        self._lines = tuple(np.array(v, dtype=float) for v in (beta, alpha, power, a, b))
        members = np.zeros((len(rows), len(self.c)), dtype=bool)
        for i, elements in enumerate(self._elements):
            members[i, sorted(elements)] = True
        self._members = members

    def _norm_line(self, a: float) -> tuple[float, frozenset[int]]:
        """Offset a - D(a) of the bound D(t) >= D(a) + (t - a), and the
        blocker element lifted to a at cost D(a)."""
        elements = self._ask(np.clip(a - self.c, 0.0, None) ** self.r)
        return a - _lift_spend(self.c, elements, a, 1.0, self.r), elements

    def _bounds(self, value: np.ndarray) -> tuple[np.ndarray, float]:
        """Per-interval and tail upper bounds at r != 1 from the pieces'
        sups: each interval's tangent envelope, capped by its r-norm bound."""
        per = np.full(len(self.intervals), -math.inf)
        tangent = (self._owner >= 0) & ~self._norm
        np.maximum.at(per, self._owner[tangent], value[tangent])
        per = np.minimum(per, value[self._norm])
        return per, float(np.max(value[self._owner < 0]))

    def unbounded(self, lam: float) -> bool:
        return self.q == 1.0 and lam * self.tail_slope < 1.0

    def upper(self, lam: float) -> float:
        """An upper bound on the sup; exact at r = 1."""
        if self.unbounded(lam):
            return math.inf
        value = _pieces_sup(lam, *self._lines)[0]
        if self.r == 1.0:
            return float(np.max(value))
        per, tail = self._bounds(value)
        return max(float(np.max(per, initial=-math.inf)), tail)

    def best(self, lam: float) -> _Pick:
        """The best attained lift the model offers at ``lam``, least level first."""
        if self.unbounded(lam):
            return _Pick(math.inf, math.inf, math.inf, self.tail)
        value, t, spend = _pieces_sup(lam, *self._lines)
        if self.r != 1.0:
            # each piece's blocker element lifted to the piece's maximizer
            gap = np.clip(t[:, None] - self.c, 0.0, None)
            spend = np.sum(np.where(self._members, gap**self.r, 0.0), axis=1) ** (self.q / self.r)
            value = t - lam * spend
        i = int(np.argmax(value))
        if not value[i] > self.floor.value:
            return self.floor
        return _Pick(float(value[i]), float(t[i]), float(spend[i]), self._elements[i])

    def refine(self, lam: float, target: float) -> bool:
        """Halve each interval, and extend the tail, where the bound exceeds
        ``target``; False when nothing could be split."""
        if self.r == 1.0:
            return False
        value, t, _ = _pieces_sup(lam, *self._lines)
        per, tail = self._bounds(value)
        grown = []
        for (a, b, pieces), bound in zip(self.intervals, per.tolist()):
            mid = 0.5 * (a + b)
            if bound > target and a < mid < b:
                grown += [(a, mid, self._discover(a, mid)), (mid, b, self._discover(mid, b))]
            else:
                grown.append((a, b, pieces))
        if tail > target:
            # step out at least geometrically, or to where the tail bound peaks
            peak = float(np.max(t[self._owner < 0]))
            edge = max(peak, self.edge + max(self.edge - self.floor.level, 1.0))
            grown.append((self.edge, edge, self._discover(self.edge, edge)))
            self.edge = edge
        changed = len(grown) > len(self.intervals)
        self.intervals = grown
        self._collect()
        return changed


def _multiplier_bracket(models, room: float):
    """Adjacent floats lo < hi where the dual's subgradient
    theta^q - mean_k spend_k changes sign: the least maximizers at lo spend
    more than ``room`` in total, those at hi do not.  Returns
    (lo, hi, picks at lo, picks at hi)."""
    steps = 0

    def probe(lam):
        nonlocal steps
        if steps == MULTIPLIER_SEARCH_MAX_ITER:
            raise ConvergenceError(
                f"multiplier bisection still open after {steps} steps"
            )
        steps += 1
        picks = [m.best(lam) for m in models]
        return picks, saturating_sum(p.spend for p in picks) > room

    # double or halve from 1 until the sign flips, then bisect
    lam = 1.0
    picks, short = probe(lam)
    factor = 2.0 if short else 0.5
    while True:
        nxt_picks, nxt_short = probe(lam * factor)
        if nxt_short != short:
            break
        lam, picks = lam * factor, nxt_picks
    lo, hi = sorted((lam, lam * factor))
    lo_picks, hi_picks = (picks, nxt_picks) if short else (nxt_picks, picks)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        picks, short = probe(mid)
        if short:
            lo, lo_picks = mid, picks
        else:
            hi, hi_picks = mid, picks
    return lo, hi, lo_picks, hi_picks


def _far_lift(model: _LiftModel, cheap: _Pick, room: float, lam: float) -> _Pick:
    """A lift of B* far enough out that mixing it with ``cheap`` spends
    ``room`` at a rate within rounding of 1 / |B*|^(1/r), the best rate at
    q = 1 when the multiplier sits on the tail's limit.  A point still short
    of that rate after the last try leaves the bracket open, which raises."""
    aim = FINITE_ORDER_GAP * 1e-2 * (1.0 + abs(cheap.level))
    span = room
    for _ in range(8):
        level = model.top + (cheap.spend + span) / model.tail_slope
        spend = _lift_spend(model.c, model.tail, level, model.q, model.r)
        loss = room * ((cheap.level - lam * cheap.spend) - (level - lam * spend))
        loss /= spend - cheap.spend
        if loss <= aim:
            break
        span *= 2.0 * loss / aim
    return _Pick(level - lam * spend, level, spend, model.tail)


def _mixture(models, lo_picks, hi_picks, budget: float, lam: float):
    """An explicit feasible distribution and its expected bottleneck.

    Every scenario starts at its empirical point.  Each moves to its
    maximizer at hi, then at lo, while the budget lasts; the scenario that
    would overspend is mixed between its two points so the budget is met
    (less a few ulps, so a recomputed cost stays within theta^q).  Every
    lifted point's bottleneck is its level, so the expectation is the mean
    level.  Returns (value, ((scenario, weight, level, elements), ...)).
    """
    room = len(models) * budget * (1.0 - 2.0**-48)
    support = [[(1.0, m.floor)] for m in models]
    for picks in (hi_picks, lo_picks):
        for k, (model, pick) in enumerate(zip(models, picks)):
            if room <= 0.0:
                break
            _, cur = support[k][-1]
            if math.isinf(pick.level):
                pick = _far_lift(model, cur, room, lam)
            else:
                spend = _lift_spend(model.c, pick.elements, pick.level, model.q, model.r)
                pick = _Pick(pick.value, pick.level, spend, pick.elements)
            if not pick.level > cur.level:
                continue
            extra = pick.spend - cur.spend
            if extra <= room:
                support[k] = [(1.0, pick)]
                room -= extra
            else:
                share = room / extra
                support[k] = [(1.0 - share, cur), (share, pick)]
                room = 0.0
    points = [(k, w, p.level, p.elements) for k, pts in enumerate(support) for w, p in pts]
    value = exact_sum(w * level for _, w, level, _ in points) / len(models)
    return value, tuple(points)


@dataclass(frozen=True)
class FiniteOrderBracket:
    """Certified bracket of the finite-order worst case.

    ``upper`` is the dual at ``multiplier``; ``lower`` is the expected
    bottleneck of ``support``, a feasible distribution given as
    (scenario, weight, level, raised elements) records whose weights sum to
    one per scenario.
    """

    upper: float
    lower: float
    multiplier: float
    support: tuple


def finite_order_bracket(record, radius: float, q: float, r: float) -> FiniteOrderBracket:
    """The certified bracket of ``quantify_robust_finite_order``: one lift
    model per scenario of the cost-sense ``EmpiricalRecord``, each starting
    from that scenario's empirical result.  The models are refined in place,
    so they are built afresh for every radius."""
    models = [
        _LiftModel(record.system, costs, base, q, r)
        for costs, base in zip(record.oriented, record.results)
    ]
    budget = radius**q
    for _ in range(MULTIPLIER_SEARCH_MAX_ITER):
        lo, hi, lo_picks, hi_picks = _multiplier_bracket(models, len(models) * budget)
        upper = hi * budget + exact_sum(m.upper(hi) for m in models) / len(models)
        lower, support = _mixture(models, lo_picks, hi_picks, budget, hi)
        slack = FINITE_ORDER_GAP * (1.0 + abs(upper))
        if upper - lower <= slack:
            return FiniteOrderBracket(upper, lower, hi, support)
        targets = [p.value + 0.5 * slack for p in hi_picks]
        if not any([m.refine(hi, t) for m, t in zip(models, targets)]):
            break
    raise ConvergenceError(
        f"finite-order bracket [{lower!r}, {upper!r}] did not close to "
        f"{FINITE_ORDER_GAP} relative"
    )
