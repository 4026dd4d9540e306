"""Real symmetric tridiagonal eigendecomposition, the single numerical
kernel every downstream computation consumes.

The input is a (diag, off) pair: the diagonal and the first off-diagonal
of the matrix, as the model builders and the parity fold produce them.
The contract is the invariant set (ascending values, orthonormal columns,
faithful reconstruction), not the algorithm; the implementation assembles
the dense matrix and delegates to LAPACK's divide-and-conquer solver
through numpy. An independent Sturm-bisection oracle in the test suite
checks the eigenvalues it produces.
"""

import numpy as np

from .errors import DomainError, NumericalError


def eigh(pair):
    """(values, vectors) of the symmetric tridiagonal matrix given as
    (diag, off), as numpy.linalg.eigh returns them: ascending eigenvalues
    and the orthogonal matrix of column eigenvectors, both read-only."""
    diag, off = (np.asarray(a, dtype=np.float64) for a in pair)
    if diag.ndim != 1 or diag.size == 0 or off.shape != (diag.size - 1,):
        raise DomainError(f"need a nonempty diagonal and an off-diagonal one shorter, "
                          f"got shapes {diag.shape} and {off.shape}")
    entries = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    try:
        values, vectors = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on a {diag.size}-dim matrix: {exc}") from exc
    values.setflags(write=False)
    vectors.setflags(write=False)
    return values, vectors
