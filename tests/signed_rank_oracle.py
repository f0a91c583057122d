"""Test oracles for the signed-rank test, independent of ``emgtcn.stats``:
they rank by plain float comparison and list every sign assignment.
"""

import numpy as np


def literal_enumeration_p(d):
    """Independent oracle: walk all 2^n sign assignments directly."""
    d = np.asarray(d, dtype=np.float64)
    d = d[d != 0]
    absd = np.abs(d)
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(d.size)
    i = 0
    while i < d.size:
        j = i
        while j + 1 < d.size and absd[order[j + 1]] == absd[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    w = min(ranks[d > 0].sum(), ranks[d < 0].sum())
    w_plus = np.zeros(1)  # W+ of every sign assignment, 2^n entries in all
    for r in ranks:
        w_plus = np.concatenate([w_plus, w_plus + r])
    count = int((w_plus <= w + 1e-9).sum())
    return min(1.0, 2.0 * count / 2.0**d.size)


def signed_vector(n, w):
    """Distinct-magnitude differences 1..n whose negative ranks sum to w."""
    remaining, negative = w, set()
    for r in range(n, 0, -1):
        if remaining >= r:
            negative.add(r)
            remaining -= r
    assert remaining == 0
    return np.array([-float(i) if i in negative else float(i) for i in range(1, n + 1)])
