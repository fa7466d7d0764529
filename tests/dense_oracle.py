"""Dense references for the structured solvers, formed from an n x n matrix."""

import numpy as np


def mirror_blocks(M: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The even and odd mirror blocks of a dense M, the oracle for
    ``operators._mirror_blocks_of_parts``: when M commutes with the grid flip
    J, M[i, j] = M[n-1-i, n-1-j] up to 8 eps max|M|, and n is odd, the fold
    of ``operators._mirror_fold`` takes M to diag(M_even, M_odd); else None.
    O(n^2)."""
    n = M.shape[0]
    if n % 2 == 0:
        return None
    m = n // 2
    skew = M[: m + 1] - M[::-1, ::-1][: m + 1]
    np.abs(skew, out=skew)
    if skew.max() > 8.0 * np.finfo(float).eps * max(M.max(), -M.min()):
        return None
    tt, tb = M[:m, :m], M[:m, ::-1][:, :m]
    even = np.block([[tt + tb, M[:m, m : m + 1]],
                     [2.0 * M[m : m + 1, :m], M[m : m + 1, m : m + 1]]])
    return even, tt - tb
