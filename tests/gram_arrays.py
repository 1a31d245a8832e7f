"""Test helper: symmetric (6, 6) Gram matrices written by their entries."""

import numpy as np


def sym(entries: dict) -> np.ndarray:
    """The symmetric (6, 6) object array with the {(i, j): value} entries, 0 elsewhere."""
    G = np.zeros((6, 6), dtype=object)
    for (i, j), v in entries.items():
        G[i, j] = G[j, i] = v
    return G
