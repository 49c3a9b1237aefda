"""Reference redundancy elimination: the pairwise scan loop, kept for parity tests.

This is the body select_features had before it found each step's pair with
one argmax: a Python scan over (i, j), i < j that keeps the first pair with
the largest absolute correlation (strict >). gsremotion.selection must
return the same selected indices, drop order and score bits.
"""

import numpy as np

from gsremotion.selection import correlation_matrix


def select_features(X, k):
    """Backward elimination on a (rows x features) table.

    Returns (selected, drop_order, scores): selected and drop_order hold
    1-based indices, constant columns (max == min) first in drop_order;
    scores give each column's mean absolute correlation to the selected set
    (0 if constant).
    """
    X = np.asarray(X, dtype=np.float64)
    n_feat = X.shape[1]
    is_constant = np.ptp(X, axis=0) == 0
    constant = [c for c in range(n_feat) if is_constant[c]]
    remaining = [c for c in range(n_feat) if not is_constant[c]]
    abs_corr = np.abs(correlation_matrix(X))
    drop_order = [c + 1 for c in constant]

    while len(remaining) > k:
        best = (-1.0, -1, -1)
        for a_pos in range(len(remaining) - 1):
            i = remaining[a_pos]
            for j in remaining[a_pos + 1:]:
                if abs_corr[i, j] > best[0]:
                    best = (abs_corr[i, j], i, j)
        _, i, j = best
        rest = np.array(remaining)

        def mean_to_rest(c):
            others = rest[rest != c]
            return float(abs_corr[c, others].mean())

        mi, mj = mean_to_rest(i), mean_to_rest(j)
        if mi > mj:
            drop = i
        elif mj > mi:
            drop = j
        else:
            drop = max(i, j)
        remaining.remove(drop)
        drop_order.append(drop + 1)

    selected = sorted(remaining)
    scores = np.zeros(n_feat)
    sel_arr = np.array(selected)
    for c in range(n_feat):
        if is_constant[c]:
            continue
        others = sel_arr[sel_arr != c]
        scores[c] = float(abs_corr[c, others].mean()) if others.size else 0.0
    return [c + 1 for c in selected], drop_order, scores
