"""Birth-death reference values for the tests.

Binary offspring (p0 = 1 - p2, p2) at rate lam, with no immigration (step 0),
+1 immigration (step 1) or -1 culling (step -1) at rate mu, is a birth-death
chain with b(y) = lam p2 y + mu [+1] and d(y) = lam p0 y + mu [-1].  Its
passage transforms and mean passage times are series and continued fractions
in the rates alone, with no scale table.
"""

import math

Y_MAX = 900  # log_steps covers the levels 1..Y_MAX


def _rates(p2, lam, step, mu):
    """The birth and death rates (b, d) as functions of the level."""
    return (lambda y: lam * p2 * y + (mu if step == 1 else 0.0),
            lambda y: lam * (1.0 - p2) * y + (mu if step == -1 else 0.0))


def log_steps(p2, lam, step, mu, q):
    """log P_y[e^{-q T_{y-1}}; T_{y-1} < inf] for y = 1..Y_MAX (index 0 unused).

    q > 0: the minimal solution r_y = d(y) / (q + b(y) + d(y) - b(y) r_{y+1}),
    run backward from far above Y_MAX, started at the fixed point of the rates
    frozen there.  q = 0: the exact sum r_y = S_y / (1 + S_y) with
    S_y = sum_{k>=y} prod_{j=y}^k d(j)/b(j); it diverges (r_y = 1) unless the
    drift is upward.  At p0 = p2 with +1 immigration d(j)/b(j) = j/(j + c),
    c = 2 mu/lam, and Gauss's sum gives r_y = y/(y + c - 1) for c > 1.
    """
    b, d = _rates(p2, lam, step, mu)
    out = [0.0] * (Y_MAX + 1)
    if q > 0.0:
        top = 4 * Y_MAX + 2000
        s = q + b(top) + d(top)
        r = (s - math.sqrt(s * s - 4.0 * b(top) * d(top))) / (2.0 * b(top))
        for y in range(top, 0, -1):
            r = d(y) / (q + b(y) + d(y) - b(y) * r)
            if y <= Y_MAX:
                out[y] = math.log(r)
        return out
    c = 2.0 * mu / lam
    for y in range(1, Y_MAX + 1):
        if p2 == 0.5 and step == 1:
            out[y] = math.log(y / (y + c - 1.0)) if c > 1.0 else 0.0
        elif p2 > 0.5:
            total, term, k = 0.0, 1.0, y
            while term > 1e-18 * total:
                term *= d(k) / b(k)
                total += term
                k += 1
            out[y] = math.log(total / (1.0 + total))
    return out


def log_mean_passage(lam, p2, mu, x, a):
    """log E_x[T_a] of the birth-death chain b(j) = lam p2 j + mu, d(j) = lam (1-p2) j:
    the series sum_{y=a+1}^x sum_{k>=y} prod_{j=y}^{k-1} b(j) / prod_{j=y}^k d(j), in logs."""
    terms = []
    for y in range(a + 1, x + 1):
        lt, k = -math.log(lam * (1.0 - p2) * y), y
        peak = lt
        while lt > peak - 60.0:
            terms.append(lt)
            lt += math.log(lam * p2 * k + mu) - math.log(lam * (1.0 - p2) * (k + 1))
            peak, k = max(peak, lt), k + 1
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))
