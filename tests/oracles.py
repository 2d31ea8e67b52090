"""Test-side oracles in plain numpy, independent of the library's kernels."""

import numpy as np


def majority_gains(h):
    """Each trial's user gains after majority selection, ascending.

    h[t, k, i, j] is trial t's squared gain from relay transmit antenna i to
    receive antenna j of user k.  Each user votes for the transmit row of its
    best entry; the row with the most votes serves everyone, a tie going to
    the row whose voters' best gains sum highest, then to the lowest row;
    each user takes its best entry on that row.
    """
    n, _, n_rt, _ = h.shape
    rowmax = h.max(axis=3)
    votes = rowmax.argmax(axis=2)
    slot = (np.arange(n)[:, None] * n_rt + votes).ravel()
    counts = np.bincount(slot, minlength=n * n_rt).reshape(n, n_rt)
    weight = np.bincount(slot, weights=rowmax.max(axis=2).ravel(),
                         minlength=n * n_rt).reshape(n, n_rt)
    leading = counts == counts.max(axis=1, keepdims=True)
    row = np.where(leading, weight, -1.0).argmax(axis=1)
    return np.sort(rowmax[np.arange(n), :, row], axis=1)


def ks_distance(sorted_sample, cdf):
    """Kolmogorov-Smirnov distance of an ascending sample from the model
    CDF values `cdf` taken at that sample."""
    n = len(sorted_sample)
    return max(
        np.abs(np.arange(1, n + 1) / n - cdf).max(),
        np.abs(cdf - np.arange(n) / n).max(),
    )
