"""Sign-magnitude addressing of the signed momentum grid.

A plane-wave axis holds the momenta k = i dk for signed indices
i in [-M..M].  :class:`SignedGrid1D` maps them onto the codewords of n
qubits, sign bit first.  :meth:`SignedGrid1D.embed` states that layout as
a dense length-2^n vector; the referee (:func:`ttprep.oracle.exact_axes`)
and the tests use it.  The library never builds that vector: an axis train
is factored from its live window and padded with identity sites (see
:func:`ttprep.gauss_pw.primitive_1d_mps`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SignedGrid1D"]


@dataclass(frozen=True)
class SignedGrid1D:
    """Symmetric grid x_i = 2a/(N-1) * i over signed indices i in [-M..M].

    N is odd and M = (N-1)/2.  Codewords are sign-magnitude: the first site
    holds the sign bit, sites 2..n hold the magnitude, most significant
    first, so the dense position of index i is s1 * 2^(n-1) + |i|.  The
    "-0" codeword (sign bit set, magnitude zero) is not part of the index
    set.
    """

    a: float
    n_points: int
    n_sites: int

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("half-width a must be positive")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError(f"n_points must be odd and >= 3, got {self.n_points}")
        if self.n_sites < 2:
            raise ValueError("a signed grid needs at least 2 sites")
        if 2 ** (self.n_sites - 1) < self.half_count + 1:
            raise ValueError(
                f"{self.n_sites} sites cannot address magnitudes up to "
                f"{self.half_count}")

    @property
    def half_count(self) -> int:
        """M = (N-1)/2, the largest magnitude."""
        return (self.n_points - 1) // 2

    @property
    def spacing(self) -> float:
        return self.a / self.half_count

    def index_values(self) -> np.ndarray:
        """Signed indices -M..M in ascending order."""
        m = self.half_count
        return np.arange(-m, m + 1)

    def dense_index(self, i: int) -> int:
        """Dense position of signed index i."""
        if abs(i) > self.half_count:
            raise ValueError(f"index {i} outside [-{self.half_count}, {self.half_count}]")
        sign = 1 if i < 0 else 0
        return sign * 2 ** (self.n_sites - 1) + abs(i)

    def embed(self, values) -> np.ndarray:
        """Dense length-2^n vector with values[k] at the position of
        index_values()[k]; codewords outside the index set stay zero."""
        idx = self.index_values()
        sign_offset = np.where(idx < 0, 2 ** (self.n_sites - 1), 0)
        dense = np.zeros(2 ** self.n_sites, dtype=complex)
        dense[sign_offset + np.abs(idx)] = values
        return dense

    def point(self, i) -> float:
        return self.spacing * np.asarray(i, dtype=float)
