"""Test helpers: symmetric (6, 6) Gram matrices written by their entries, and
solution sets of hand-placed classes."""

import numpy as np

from quartic_sos.solver import PointArrays, SolutionSet, SolveConfig, _conjugates


def sym(entries: dict) -> np.ndarray:
    """The symmetric (6, 6) object array with the {(i, j): value} entries, 0 elsewhere."""
    G = np.zeros((6, 6), dtype=object)
    for (i, j), v in entries.items():
        G[i, j] = G[j, i] = v
    return G


def nonreal_solution_set(lams) -> SolutionSet:
    """A SolutionSet of non-real classes at lams, rows (n, 6), each with the
    squares of diag(1, 1, 1, 0, 0, 0) and the conjugation map the solve
    draws: each row's nearest conjugate, by `solver._conjugates`."""
    lam = np.array(lams, dtype=complex).reshape(-1, 6)
    n = len(lam)
    arrays = PointArrays(lam=lam, real=np.zeros(n, dtype=bool), start=np.arange(n), residual=np.zeros(n),
                         G=np.broadcast_to(np.diag([1.0, 1, 1, 0, 0, 0]) + 0j, (n, 6, 6)),
                         signs=np.ones((n, 3), dtype=int), W=np.broadcast_to(np.eye(3, 6) + 0j, (n, 3, 6)),
                         pair=_conjugates(lam))
    return SolutionSet(arrays=arrays, config=SolveConfig())
