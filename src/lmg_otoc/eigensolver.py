"""Dense real-symmetric eigendecomposition, the single numerical kernel
every downstream computation consumes.

The contract is the invariant set (ascending values, orthonormal columns,
faithful reconstruction), not the algorithm; the implementation delegates
to LAPACK's divide-and-conquer driver through numpy. An independent
Sturm-bisection oracle in the test suite checks the eigenvalues it
produces on tridiagonal inputs.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError
from .spin_ops import OperatorMatrix


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and the orthogonal matrix of column eigenvectors."""

    values: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.values.shape[0]


def eigh(matrix: OperatorMatrix | np.ndarray) -> EigenDecomposition:
    """Decompose an operator, or a bare real symmetric array such as one
    parity block of a Hamiltonian."""
    if isinstance(matrix, OperatorMatrix):
        if matrix.skew:
            raise DomainError("eigendecomposition expects a symmetric operator, got skew storage")
        entries = matrix.entries
    else:
        entries = np.asarray(matrix, dtype=np.float64)
    if entries.ndim != 2 or not np.array_equal(entries, entries.T):
        raise DomainError("matrix is not symmetric")
    try:
        values, vectors = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on a {entries.shape[0]}-dim matrix: {exc}") from exc
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(values=values, vectors=vectors)


def propagator_phases(decomp: EigenDecomposition, t: float) -> np.ndarray:
    """The diagonal of exp(+i H t) in the eigenbasis."""
    return np.exp(1j * decomp.values * float(t))
