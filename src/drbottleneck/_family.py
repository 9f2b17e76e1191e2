"""The top-k family level's two exact solvers, numpy only.

Both maximize, over lifts beta >= 0 on a family union with r-norm at most
the radius, the least subset sum min over s of (b_s + a_s . beta), where the
rows a_s of a 0/1 matrix A mark the family's subsets.  ``simplex_lift``
solves r = 1 as a linear program; ``dual_level`` solves r > 1 through the
conic dual (Mohajerin Esfahani and Kuhn, Math. Prog. 2018).  Every solve
ends certified or raises ``ConvergenceError``, and gives the lift that
attains its level, which top-k member generation prices the members under.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, exact_sum

# simplex pivots or dual steps before ConvergenceError, the certified
# relative gap of the dual, and the simplex's pivot tolerance; and the family
# levels one scenario's top-k member generation may solve before its quote
# is downgraded to a bracket.  On the bundled 9x9 at k = 2 and 3 and radii up
# to 8 a scenario solved at most 1,068; at radius 32 some needed up to 4,965,
# and a scenario that runs out spends about 1 s (r = 1) to 5 s (r = 2)
FAMILY_LEVEL_MAX_ITER = 500
TOPK_MAX_FAMILY_SOLVES = 5000
FAMILY_LEVEL_GAP = 1e-12
PIVOT_TOL = 1e-9


def simplex_lift(A: np.ndarray, gaps: np.ndarray, radius: float) -> np.ndarray:
    """Optimal lift of the r = 1 family program by a dense tableau simplex.

    With z = min(b) + w the program is: maximize w subject to
    w - a_s . beta <= gaps_s = b_s - min(b) for every subset, sum(beta) <=
    radius, and w, beta >= 0.  Every right-hand side is nonnegative, so the
    slack basis is feasible.  Bland's rule (least entering index, least
    basic index among tied ratios) cannot cycle; the optimal basis, where no
    reduced cost is negative, certifies the lift.
    """

    m, n = A.shape
    # columns: w, beta, one slack per row, right-hand side; last row: cost
    tab = np.zeros((m + 2, n + m + 3))
    tab[:m, 0] = 1.0
    tab[:m, 1 : n + 1] = -A
    tab[m, 1 : n + 1] = 1.0
    tab[: m + 1, n + 1 : n + m + 2] = np.eye(m + 1)
    tab[:m, -1] = gaps
    tab[m, -1] = radius
    tab[-1, 0] = -1.0
    basis = list(range(n + 1, n + m + 2))
    for _ in range(FAMILY_LEVEL_MAX_ITER):
        entering = np.flatnonzero(tab[-1, :-1] < -PIVOT_TOL)
        if not len(entering):
            x = np.zeros(n + m + 2)
            x[basis] = tab[:-1, -1]
            return x[1 : n + 1]
        j = int(entering[0])
        col = tab[:-1, j]
        cands = np.flatnonzero(col > PIVOT_TOL)
        if not len(cands):
            raise ConvergenceError("family level LP reported an unbounded ray")
        ratios = tab[cands, -1] / col[cands]
        i = min(zip(ratios.tolist(), (basis[k] for k in cands), cands.tolist()))[2]
        tab[i] /= tab[i, j]
        factors = tab[:, j].copy()
        factors[i] = 0.0
        tab -= np.outer(factors, tab[i])
        np.clip(tab[:-1, -1], 0.0, None, out=tab[:-1, -1])
        basis[i] = j
    raise ConvergenceError(
        f"family level simplex found no optimal basis in {FAMILY_LEVEL_MAX_ITER} iterations"
    )


def _pnorm(v: np.ndarray, p: float) -> float:
    top = float(v.max())
    return top * float(np.sum((v / top) ** p)) ** (1.0 / p)


def dual_level(A: np.ndarray, b: np.ndarray, radius: float, r: float, level):
    """The r > 1 family level, and the lift attaining it, by an active-set
    method on the conic dual.

    The dual minimizes f(lam) = lam . b + radius * ||A^T lam||_p (p the
    conjugate exponent of r) over the simplex.  Its gradient entries are
    b_s + a_s . beta(lam), with beta(lam) = radius * v^(p-1) / ||v||_p^(p-1)
    and v = A^T lam; beta(lam) has r-norm exactly the radius, so
    L = level(beta(lam)) is attained and U = f(lam) bounds the level from
    above.  ``level`` returns L with the lift that attains it, as scaled
    into the ball.  On the active set S (the support of lam, with independent rows)
    a step drives the active gradient entries to a common value: the
    stationary point of f on the affine hull of S, in closed form for r = 2
    (a quadratic in the common value), or a damped Newton step.  A step is
    cut where a multiplier reaches zero, and that member leaves S.  When the
    active entries agree, the member with the least gradient entry enters.
    The solve stops once U - L <= FAMILY_LEVEL_GAP * (1 + |U|) and returns
    ``(L, lift)``.
    """

    p = r / (r - 1.0)
    active = [int(np.argmin(b))]
    lam = np.ones(1)

    def dual(S, lam) -> float:
        return float(lam @ b[S]) + radius * _pnorm(lam @ A[S], p)

    for _ in range(FAMILY_LEVEL_MAX_ITER):
        AS = A[active]
        v = lam @ AS
        norm = _pnorm(v, p)
        w = (v / norm) ** (p - 1.0)
        grad = b + radius * (A @ w)
        upper = exact_sum((lam * b[active]).tolist()) + radius * norm
        lower, lift = level(radius * w)
        scale = 1.0 + abs(upper)
        if upper - lower <= FAMILY_LEVEL_GAP * scale:
            return lower, lift
        g = grad[active]
        # the face counts as solved once its entries agree to a tenth of the gap
        if g.max() - g.min() > 0.1 * FAMILY_LEVEL_GAP * scale:
            step = None
            if r == 2.0:
                step = _hull_point(AS, b[active], radius)
            if step is not None:
                d = step - lam
                lam, active = _advance(lam, active, d, *_blocking(lam, d))
                continue
            d = _newton_direction(AS, v, norm, w, g - float(lam @ g), radius, p)
            if d is not None:
                moved = _damped(lam, active, d, float(g @ d), dual, True)
                if moved is not None:
                    lam, active = moved
                    continue
        # the face is solved, or no step improves it: enter the member with
        # the least gradient entry
        s = int(np.argmin(grad))
        if s in active:
            raise ConvergenceError(
                f"family level dual stalled with gap {upper - lower!r} above "
                f"{FAMILY_LEVEL_GAP * scale!r}"
            )
        active = active + [s]
        lam = np.append(lam, 0.0)
        d = -lam
        d[-1] += 1.0
        moved = _damped(lam, active, d, float(grad[active] @ d), dual, False)
        if moved is None:
            raise ConvergenceError("family level dual found no descent toward an entering member")
        lam, active = _independent(A, moved[0], moved[1], grad)
    raise ConvergenceError(
        f"family level dual left a gap above the tolerance in {FAMILY_LEVEL_MAX_ITER} iterations"
    )


def _hull_point(AS: np.ndarray, bS: np.ndarray, radius: float):
    """Stationary point of lam . b + radius * ||A^T lam||_2 on sum(lam) = 1.

    Stationarity reads M lam = (rho / radius) (z 1 - b) with M = A A^T and
    rho = ||A^T lam||_2, so (z 1 - b)' M^-1 (z 1 - b) = radius^2: a quadratic
    in the common gradient value z, whose larger root gives lam after
    normalization.  None when the quadratic has no admissible root.
    """

    shifted = bS - bS.min()
    try:
        x1, xb = np.linalg.solve(AS @ AS.T, np.column_stack([np.ones(len(bS)), shifted])).T
    except np.linalg.LinAlgError:
        return None
    a, h, c = float(x1.sum()), float(xb.sum()), float(shifted @ xb)
    disc = h * h - a * (c - radius * radius)
    if not (a > 0.0 and disc > 0.0):
        return None
    z = (h + math.sqrt(disc)) / a
    mu = z * x1 - xb
    return mu / mu.sum()


def _newton_direction(AS, v, norm, w, g, radius: float, p: float):
    """Newton step of the dual on the affine hull of the active rows."""
    cover = v > 0.0
    Ac = AS[:, cover]
    hess = np.diag((v[cover] / norm) ** (p - 2.0)) - np.outer(w[cover], w[cover])
    n = len(g)
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = radius * (p - 1.0) / norm * (Ac @ hess @ Ac.T)
    kkt[:n, n] = kkt[n, :n] = 1.0
    try:
        d = np.linalg.solve(kkt, np.append(-g, 0.0))[:n]
    except np.linalg.LinAlgError:
        return None
    return d if np.all(np.isfinite(d)) else None


def _blocking(lam: np.ndarray, d: np.ndarray) -> tuple[float, int | None]:
    """The largest step in [0, 1] along d that keeps every multiplier
    nonnegative, and the member it zeroes (None for a full step)."""
    neg = np.flatnonzero(d < 0.0)
    if not len(neg):
        return 1.0, None
    ratios = lam[neg] / -d[neg]
    i = int(np.argmin(ratios))
    if ratios[i] >= 1.0:
        return 1.0, None
    return float(ratios[i]), int(neg[i])


def _advance(lam, active, d, t, zeroed=None):
    """Move to lam + t d; the ``zeroed`` member and any multiplier that
    rounds to zero leave the active set."""
    new = lam + t * d
    if zeroed is not None:
        new[zeroed] = 0.0
    keep = new > 0.0
    new = new[keep]
    return new / new.sum(), [s for s, k in zip(active, keep) if k]


def _damped(lam, active, d, slope, dual, newton: bool):
    """A backtracking (Armijo) step along the descent direction d, starting
    at its blocking point, or None.  A Newton step past the resolution of
    the dual value is kept whole when it does not raise that value beyond
    rounding."""
    if not slope < 0.0:
        return None
    start = dual(active, lam)
    noise = 64.0 * np.finfo(float).eps * (1.0 + abs(start))
    t, zeroed = _blocking(lam, d)
    for trial in range(60):
        lam_t, active_t = _advance(lam, active, d, t, zeroed)
        value = dual(active_t, lam_t)
        if value <= start + 1e-4 * t * slope or (newton and not trial and value <= start + noise):
            return lam_t, active_t
        t, zeroed = 0.5 * t, None
    return None


def _independent(A, lam, active, grad):
    """Drop members until the active rows are linearly independent.

    Along a null direction e of the active rows, d = e - sum(e) lam keeps
    A^T lam on its ray, so beta(lam) and the gradient stay put and the dual
    is linear; moving the way it does not rise until a multiplier reaches
    zero removes that member.
    """
    while len(active) > 1 and np.linalg.matrix_rank(A[active]) < len(active):
        e = np.linalg.svd(A[active].T)[2][-1]
        d = e - e.sum() * lam
        if grad[active] @ d > 0.0:
            d = -d
        d[np.abs(d) <= 1e-12 * np.abs(d).max()] = 0.0
        neg = np.flatnonzero(d < 0.0)
        ratios = lam[neg] / -d[neg]
        i = int(np.argmin(ratios))
        lam, active = _advance(lam, active, d, float(ratios[i]), int(neg[i]))
    return lam, active
