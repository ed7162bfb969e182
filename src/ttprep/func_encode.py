"""Analytic tensor-train constructors for functions on dyadic grids.

Everything here builds trains directly from closed-form core formulas, so
grids far beyond the dense cap are representable.  The polynomial encoders
realize the classical prefix-power construction: each core carries the
vector of powers (v^0 .. v^d) of the partial grid value accumulated from the
bits read so far, plus one extra slot that tracks the boundary of the valid
index range (grid points beyond n_points-1 encode zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import tt_core
from .tt_core import ShapeError, TensorTrain

__all__ = [
    "Grid1D",
    "Polynomial",
    "SignedGrid1D",
    "phase_tt",
    "poly_tt",
    "signed_poly_phase_tt",
    "signed_poly_tt",
    "tensorize",
]


@dataclass(frozen=True)
class Grid1D:
    """Equispaced grid x_j = a + (b-a)/(N-1) * j, j in [0..N-1].

    The grid is addressed by n_sites bits, most significant first; indices
    N..2^n_sites-1 are padding and encode zero.
    """

    a: float
    b: float
    n_points: int
    n_sites: int

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if self.n_points < 2:
            raise ValueError("need at least two grid points")
        if self.n_sites < 1 or 2 ** self.n_sites < self.n_points:
            raise ValueError(
                f"{self.n_sites} sites cannot address {self.n_points} points")

    @property
    def spacing(self) -> float:
        return (self.b - self.a) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return self.a + self.spacing * np.arange(self.n_points)


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


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial in the monomial basis, coefficients ascending."""

    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d array")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        """Nominal degree (leading coefficient may be zero)."""
        return self.coeffs.size - 1

    def __call__(self, x):
        return npoly.polyval(x, self.coeffs)

    def reflected(self) -> "Polynomial":
        """p(-x)."""
        signs = (-1.0) ** np.arange(self.coeffs.size)
        return Polynomial(self.coeffs * signs)


def tensorize(samples, n_sites: int) -> TensorTrain:
    """Train encoding the samples at indices 0..N-1, zero-padded above."""
    s = np.asarray(samples, dtype=complex)
    if s.ndim != 1:
        raise ShapeError(f"expected a 1-d sample array, got shape {s.shape}")
    full = 2 ** n_sites
    if s.size > full:
        raise ShapeError(f"{s.size} samples do not fit on {n_sites} sites")
    padded = np.zeros(full, dtype=complex)
    padded[: s.size] = s
    return tt_core.from_dense(padded, tol=1e-14)


def _binom_table(d: int) -> np.ndarray:
    t = np.zeros((d + 1, d + 1))
    for i in range(d + 1):
        for q in range(i + 1):
            t[i, q] = math.comb(i, q)
    return t


def poly_tt(p: Polynomial, g: Grid1D) -> TensorTrain:
    """Analytic train of p sampled on g (zeros on the padding).

    Bond layout: slot 0 tracks the prefix that sits exactly on the boundary
    of the valid range (the bits of N-1); slots 1..d+1 hold the powers
    v^0..v^d of the partial grid value for prefixes already strictly inside
    the range.  Prefixes beyond the range have no slot and vanish.  The
    bond dimension is therefore d+2 regardless of grid size.
    """
    d = p.degree
    n = g.n_sites
    h = g.spacing
    t = g.n_points - 1
    c = p.coeffs

    if n == 1:
        core = np.zeros((1, 2, 1), dtype=complex)
        for s in range(2):
            if s <= t:
                core[0, s, 0] = p(g.a + h * s)
        return TensorTrain([core])

    binom = _binom_table(d)
    t_bit = [(t >> (n - k)) & 1 for k in range(1, n + 1)]
    # partial value of the boundary prefix after k bits
    v_bnd = [g.a + h * ((t >> (n - k)) << (n - k)) for k in range(1, n + 1)]

    powers = lambda v: np.array([v ** q for q in range(d + 1)], dtype=complex)

    cores = []
    width = d + 2

    first = np.zeros((1, 2, width), dtype=complex)
    for s in range(2):
        if s == t_bit[0]:
            first[0, s, 0] = 1.0
        elif s < t_bit[0]:
            first[0, s, 1:] = powers(g.a + h * (s << (n - 1)))
    cores.append(first)

    for k in range(2, n):
        step = h * (1 << (n - k))
        core = np.zeros((width, 2, width), dtype=complex)
        for s in range(2):
            if s == t_bit[k - 1]:
                core[0, s, 0] = 1.0
            elif s < t_bit[k - 1]:
                core[0, s, 1:] = powers(v_bnd[k - 2] + s * step)
            delta = s * step
            for i in range(d + 1):
                for q in range(i + 1):
                    core[1 + q, s, 1 + i] = binom[i, q] * delta ** (i - q)
        cores.append(core)

    last = np.zeros((width, 2, 1), dtype=complex)
    for s in range(2):
        if s <= t_bit[n - 1]:
            last[0, s, 0] = p(v_bnd[n - 2] + h * s)
        delta = h * s
        for q in range(d + 1):
            last[1 + q, s, 0] = sum(
                c[i] * binom[i, q] * delta ** (i - q) for i in range(q, d + 1))
    cores.append(last)

    return TensorTrain(cores)


def _selector(bit: int) -> TensorTrain:
    core = np.zeros((1, 2, 1), dtype=complex)
    core[0, bit, 0] = 1.0
    return TensorTrain([core])


def _basis_zero(n_sites: int) -> TensorTrain:
    cores = []
    for _ in range(n_sites):
        core = np.zeros((1, 2, 1), dtype=complex)
        core[0, 0, 0] = 1.0
        cores.append(core)
    return TensorTrain(cores)


def _magnitude_grid(g: SignedGrid1D) -> Grid1D:
    return Grid1D(a=0.0, b=g.a, n_points=g.half_count + 1,
                  n_sites=g.n_sites - 1)


def signed_poly_tt(p: Polynomial, g: SignedGrid1D,
                   svd_cutoff: float | None = None) -> TensorTrain:
    """Train of p over the signed grid, assembled branch by branch.

    Three terms are summed: the nonnegative branch (sign bit 0 tensored
    with p on magnitudes 0..M), the nonpositive branch (sign bit 1 with
    p(-x) on the same magnitudes), and a rank-1 correction that zeroes the
    "-0" codeword the second branch would otherwise fill with p(0).  Bond
    dimensions are at most (d+2) + (d+2) + 1 = 2d+5.
    """
    sub = _magnitude_grid(g)
    plus = tt_core.tensor_product(_selector(0), poly_tt(p, sub))
    minus = tt_core.tensor_product(_selector(1), poly_tt(p.reflected(), sub))
    fix = tt_core.scale(
        tt_core.tensor_product(_selector(1), _basis_zero(g.n_sites - 1)),
        -complex(p.coeffs[0]))
    out = tt_core.add(tt_core.add(plus, minus), fix)
    if svd_cutoff is not None:
        out = tt_core.round(out, svd_cutoff)
    return out


def _uniform_phase(n_sites: int, theta: float) -> TensorTrain:
    """Rank-1 train of exp(i*theta*j) over unsigned indices j."""
    cores = []
    for k in range(1, n_sites + 1):
        core = np.zeros((1, 2, 1), dtype=complex)
        core[0, 0, 0] = 1.0
        core[0, 1, 0] = np.exp(1j * theta * (1 << (n_sites - k)))
        cores.append(core)
    return TensorTrain(cores)


def phase_tt(g: SignedGrid1D, x0: float, dk: float) -> TensorTrain:
    """Train of exp(i * (i*dk) * x0) over the signed grid.

    The sign-magnitude encoding ties every magnitude site to the sign bit
    (negative indices conjugate the phase), so the exact train generically
    needs bond dimension 2; it collapses to 1 when the profile is
    separable, e.g. x0 == 0.  Branch-wise multiplication (see
    :func:`signed_poly_phase_tt`) still leaves polynomial bond dimensions
    unchanged, because each branch sees a rank-1 phase.
    """
    theta = dk * x0
    n = g.n_sites
    sign = np.zeros((1, 2, 2), dtype=complex)
    sign[0, 0, 0] = 1.0
    sign[0, 1, 1] = 1.0
    cores = [sign]
    for k in range(2, n + 1):
        w = 1 << (n - k)
        core = np.zeros((2, 2, 2), dtype=complex)
        core[0, 0, 0] = core[1, 0, 1] = 1.0
        core[0, 1, 0] = np.exp(1j * theta * w)
        core[1, 1, 1] = np.exp(-1j * theta * w)
        cores.append(core)
    last = cores.pop()
    cores.append(last[:, :, :1] + last[:, :, 1:])
    return tt_core.round(TensorTrain(cores), 1e-14)


def signed_poly_phase_tt(p: Polynomial, g: SignedGrid1D, x0: float,
                         dk: float) -> TensorTrain:
    """Train of p(x_i) * exp(i * (i*dk) * x0) over the signed grid.

    The phase is folded into each sign branch separately, where it is
    rank-1, so the bond bound 2d+5 of :func:`signed_poly_tt` is preserved
    exactly; building :func:`phase_tt` first and multiplying would double
    it.
    """
    theta = dk * x0
    sub = _magnitude_grid(g)
    nmag = g.n_sites - 1
    plus = tt_core.tensor_product(
        _selector(0),
        tt_core.hadamard(poly_tt(p, sub), _uniform_phase(nmag, theta)))
    minus = tt_core.tensor_product(
        _selector(1),
        tt_core.hadamard(poly_tt(p.reflected(), sub),
                         _uniform_phase(nmag, -theta)))
    fix = tt_core.scale(
        tt_core.tensor_product(_selector(1), _basis_zero(nmag)),
        -complex(p.coeffs[0]))
    return tt_core.add(tt_core.add(plus, minus), fix)
