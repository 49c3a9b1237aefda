"""Reference SMO solver: the straightforward numpy loop, kept for parity tests.

Minimizes f(a) = 0.5 a'Qa - e'a subject to 0 <= a <= C, y'a = 0 using
second-order working-set selection (WSS2: Fan, Chen & Lin, JMLR 2005): i is
the maximal violator in I_up, and j maximizes b^2 / a over the t in I_low
with b = m - v_t > 0, where v = -y*G, m = v_i and a = K_ii + K_tt - 2 K_it
(floored at TAU). Exact ties in a selection score are broken by a
caller-supplied tiebreak array so runs are reproducible.

It recomputes the index sets, the selection scores and the objective from
whole arrays on every step. gsremotion.svm._smo_solve does the same float
operations on the working pair only, with its rows given in descending
tiebreak order, so the two must return identical alpha and G vectors; the
objective trace may differ in the last ulps.
"""

import numpy as np

# Floor for non-positive curvature along the working-set direction.
TAU = 1e-12


def smo_solve(Q, y, C, tol, max_iter, tiebreak):
    """Run SMO to convergence or the iteration cap.

    Args:
        Q: (n, n) matrix K[i,j] * y[i] * y[j], symmetric PSD up to noise.
        y: (n,) labels in {-1.0, +1.0}.
        C: box constraint, > 0.
        tol: KKT violation threshold (stop when m - M <= tol).
        max_iter: cap on pair updates.
        tiebreak: (n,) distinct floats; larger wins among tied candidates.

    Returns:
        (alpha, G, iterations, converged, trace) where G = Q @ alpha - e and
        trace[t] is the dual objective value after t updates (trace[0] = 0).
    """
    n = y.size
    alpha = np.zeros(n)
    G = np.full(n, -1.0)
    trace = [0.0]
    converged = False
    iterations = 0

    for _ in range(max_iter):
        v = -y * G
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
        if not up.any() or not low.any():
            converged = True
            break
        vi = np.where(up, v, -np.inf)
        m = vi.max()
        i = int(np.where(vi == m, tiebreak, -np.inf).argmax())
        M = np.where(low, v, np.inf).min()
        if m - M <= tol:
            converged = True
            break
        # Q[i] * (-2 y_i y) is exactly -2 K[i], and diag(Q) is diag(K)
        a = np.maximum(Q[i] * (-2.0 * y[i] * y) + np.diag(Q) + Q[i, i], TAU)
        b = m - v
        score = np.where(low & (b > 0.0), b * b / a, -np.inf)
        j = int(np.where(score == score.max(), tiebreak, -np.inf).argmax())

        old_i = alpha[i]
        old_j = alpha[j]
        if y[i] != y[j]:
            quad = Q[i, i] + Q[j, j] + 2.0 * Q[i, j]
            if quad <= 0.0:
                quad = TAU
            delta = (-G[i] - G[j]) / quad
            diff = alpha[i] - alpha[j]
            alpha[i] += delta
            alpha[j] += delta
            if diff > 0.0:
                if alpha[j] < 0.0:
                    alpha[j] = 0.0
                    alpha[i] = diff
            else:
                if alpha[i] < 0.0:
                    alpha[i] = 0.0
                    alpha[j] = -diff
            if diff > 0.0:
                if alpha[i] > C:
                    alpha[i] = C
                    alpha[j] = C - diff
            else:
                if alpha[j] > C:
                    alpha[j] = C
                    alpha[i] = C + diff
        else:
            quad = Q[i, i] + Q[j, j] - 2.0 * Q[i, j]
            if quad <= 0.0:
                quad = TAU
            delta = (G[i] - G[j]) / quad
            total = alpha[i] + alpha[j]
            alpha[i] -= delta
            alpha[j] += delta
            if total > C:
                if alpha[i] > C:
                    alpha[i] = C
                    alpha[j] = total - C
            else:
                if alpha[j] < 0.0:
                    alpha[j] = 0.0
                    alpha[i] = total
            if total > C:
                if alpha[j] > C:
                    alpha[j] = C
                    alpha[i] = total - C
            else:
                if alpha[i] < 0.0:
                    alpha[i] = 0.0
                    alpha[j] = total

        dai = alpha[i] - old_i
        daj = alpha[j] - old_j
        G += dai * Q[i] + daj * Q[j]
        iterations += 1
        trace.append(0.5 * (float(alpha.sum()) - float(alpha @ G)))

    return alpha, G, iterations, converged, np.array(trace)
