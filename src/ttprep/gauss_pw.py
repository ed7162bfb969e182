"""Projection of primitive Cartesian Gaussians onto periodic plane waves.

The plane-wave basis lives on a cubic cell of side L: momenta k = 2*pi*p/L
for signed integers p, truncated at |k| <= K.  A one-dimensional Gaussian
factor x^l exp(-gamma x^2) (normalized over the real line) has an analytic
overlap with each plane wave, expressible through Hermite functions; a
degree m-1 polynomial fitted to that momentum profile gives its values at
the lattice momenta.

Only the window |i| <= i_cut below the certified cutoff is nonzero, and
i_cut stops growing with K at fixed L.  In the sign-magnitude layout of
:class:`ttprep.func_encode.SignedGrid1D` (sign bit first, magnitude most
significant bit first) the axis vector is |0>|0...0>|a> + |1>|0...0>|b>,
with a and b of length 2^p, p = i_cut.bit_length().  So an axis train is
factored from that 2 x 2^p block and padded with identity sites for the
idle magnitude bits: its cost grows with the window, not with the 2^n grid.

Cutoff and degree selection implement certified formulas: with

    S(eps) = 2 log(2/eps) + log 45 + log(1 + 2 sqrt(pi)/(L sqrt(gamma)))
             + l log(4 l)                       (natural logs, 0 log 0 = 0)

the choices K = 2 sqrt(2 gamma) sqrt(S) and m = ceil(e^2 K^2 / (2 gamma))
guarantee trace distance at most eps between the exactly projected,
renormalized profile and its degree m-1 polynomial truncation, provided the
whole-line normalization factor (in closed form: the referee, not this
module, sums the lattice) is at least 2/3.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tt_core
from .func_encode import SignedGrid1D
from .tt_core import TensorTrain

__all__ = [
    "AxisProfile",
    "ChebyshevInterpolant",
    "PlaneWaveGrid",
    "PrimitiveGaussian",
    "ProjectionError",
    "axis_profile",
    "certified_cutoff",
    "choose_cutoff",
    "choose_degree",
    "h_coeffs",
    "hermite_gaussian",
    "primitive_1d_mps",
    "primitive_3d_mps",
    "pw_overlap",
]

MAX_HERMITE_ORDER = 40
MAX_ANGULAR_MOMENTUM = 12

# primitive_1d_mps factors its live window densely; this bounds the
# window's site count p + 1, so the block has at most 2^12 entries.
DENSE_AXIS_QUBIT_CAP = 12

# ChebyshevInterpolant evaluates this many (point, node) entries at a time:
# its temporaries stay in cache at any point count.
EVAL_BLOCK_ENTRIES = 1 << 15


class ProjectionError(ValueError):
    """A projection precondition failed (cell too small for the Gaussian)."""


@dataclass(frozen=True)
class PrimitiveGaussian:
    """Cartesian primitive x^l y^m z^n exp(-gamma r^2), axis-normalized.

    center is in Bohr, gamma in 1/Bohr^2.  Each axis factor is normalized
    over the real line by c(l, gamma) = 2^l (2 gamma)^(l/2 + 1/4)
    sqrt(l!) / (pi^(1/4) sqrt((2l)!)).
    """

    center: tuple[float, float, float]
    gamma: float
    ang: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(x) for x in self.center))
        object.__setattr__(self, "ang", tuple(int(a) for a in self.ang))
        if len(self.center) != 3 or len(self.ang) != 3:
            raise ValueError("center and ang must have three components")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        for a in self.ang:
            if a < 0 or a > MAX_ANGULAR_MOMENTUM:
                raise ValueError(
                    f"angular momentum {a} outside [0, {MAX_ANGULAR_MOMENTUM}]")

    def axis_norm_const(self, axis: int) -> float:
        l = self.ang[axis]
        return (2.0 ** l * (2.0 * self.gamma) ** (l / 2 + 0.25)
                * math.sqrt(math.factorial(l))
                / (math.pi ** 0.25 * math.sqrt(math.factorial(2 * l))))


@dataclass(frozen=True)
class PlaneWaveGrid:
    """Cubic-cell plane-wave basis: side L, momentum cutoff K (both > 0).

    Per axis there are 2*floor(K L / 2 pi) + 1 momenta (always odd), and
    the total basis size is their cube.
    """

    L: float
    K: float

    def __post_init__(self):
        if self.L <= 0 or self.K <= 0:
            raise ValueError("L and K must be positive")
        if self.half_points < 1:
            raise ValueError(
                f"K={self.K} resolves no nonzero momentum on L={self.L}")

    @property
    def dk(self) -> float:
        return 2.0 * math.pi / self.L

    @property
    def half_points(self) -> int:
        return int(math.floor(self.K * self.L / (2.0 * math.pi)))

    @property
    def points_per_axis(self) -> int:
        return 2 * self.half_points + 1

    @property
    def qubits_per_axis(self) -> int:
        # ceil(log2(points)) in integers: a float log2 rounds 2^k + 1 down
        # to k once the point count passes 2^53
        return (self.points_per_axis - 1).bit_length()

    @property
    def n_total(self) -> int:
        return self.points_per_axis ** 3

    def axis_grid(self) -> SignedGrid1D:
        """Signed index grid for one axis of momenta."""
        return SignedGrid1D(a=self.half_points * self.dk,
                            n_points=self.points_per_axis,
                            n_sites=self.qubits_per_axis)

    @classmethod
    def from_energy_cutoff(cls, L: float, e_cut: float) -> "PlaneWaveGrid":
        """Kinetic-energy form: E_cut = K^2/2 in Hartree (atomic units)."""
        if e_cut <= 0:
            raise ValueError("E_cut must be positive")
        return cls(L=L, K=math.sqrt(2.0 * e_cut))


def _hermite_gaussian_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """psi_0..psi_n_max at x, stacked; stable normalized recurrence."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((n_max + 1,) + x.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(1, n_max):
        out[k + 1] = (x * math.sqrt(2.0 / (k + 1)) * out[k]
                      - math.sqrt(k / (k + 1)) * out[k - 1])
    return out


def hermite_gaussian(n: int, x):
    """Normalized Hermite function psi_n(x) = c_n exp(-x^2/2) H_n(x).

    c_n = (2^n n! sqrt(pi))^(-1/2); computed by the normalized recurrence
    so values stay bounded (|psi_n| <= pi^(-1/4)) at any order.
    """
    if not 0 <= n <= MAX_HERMITE_ORDER:
        raise ValueError(f"order {n} outside [0, {MAX_HERMITE_ORDER}]")
    arr = np.asarray(x, dtype=float)
    table = _hermite_gaussian_table(n, np.atleast_1d(arr))
    val = table[n]
    return val if arr.ndim else float(val[0])


def h_coeffs(l: int) -> np.ndarray:
    """Coefficients h_0..h_l of x^l exp(-x^2/2) over psi_0..psi_l, unit 2-norm.

    Only parities matching l contribute: h_n = 2^(n/2) / (((l-n)/2)! sqrt(n!))
    up to overall normalization, zero for l-n odd.
    """
    if l < 0 or l > MAX_ANGULAR_MOMENTUM:
        raise ValueError(f"l={l} outside [0, {MAX_ANGULAR_MOMENTUM}]")
    h = np.zeros(l + 1)
    for n in range(l % 2, l + 1, 2):
        h[n] = 2.0 ** (n / 2) / (math.factorial((l - n) // 2)
                                 * math.sqrt(math.factorial(n)))
    h /= np.linalg.norm(h)
    return h


def _real_profile_coeffs(l: int) -> np.ndarray:
    """(-1)^((n-l)/2) h_n: sum_n i^n h_n psi_n = i^l sum_n these * psi_n,
    because h_n vanishes unless n has l's parity."""
    signs = np.array([(-1.0) ** ((n - l) // 2) for n in range(l + 1)])
    return signs * h_coeffs(l)


def pw_overlap(gamma: float, l: int, a: float, k, L: float):
    """Whole-line overlap of a shifted 1D Gaussian with a plane wave.

    Evaluates integral of g(x - a) * exp(i k x) / sqrt(L) over the real
    line, where g is the axis-normalized factor x^l exp(-gamma x^2):

        exp(i k a) * 2^(1/4) sqrt(pi) / (gamma^(1/4) sqrt(L))
            * sum_n i^n h_n psi_n(k / sqrt(2 gamma)).

    The sum is taken in real arithmetic as i^l sum_n (-1)^((n-l)/2) h_n
    psi_n, as in :func:`axis_profile`.  Accepts scalar or array k.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    karr = np.asarray(k, dtype=float)
    u = np.atleast_1d(karr) / math.sqrt(2.0 * gamma)
    real = np.tensordot(_real_profile_coeffs(l),
                        _hermite_gaussian_table(l, u), axes=([0], [0]))
    pref = 2.0 ** 0.25 * math.sqrt(math.pi) / (gamma ** 0.25 * math.sqrt(L))
    out = np.exp(1j * karr * a) * ((1j ** l) * pref * real.reshape(karr.shape))
    return out if karr.ndim else complex(out)


def _cutoff_bracket(gamma: float, l: int, L: float, eps: float) -> float:
    ll = l * math.log(4.0 * l) if l > 0 else 0.0
    return (2.0 * math.log(2.0 / eps) + math.log(45.0)
            + math.log(1.0 + 2.0 * math.sqrt(math.pi) / (L * math.sqrt(gamma)))
            + ll)


def choose_cutoff(gamma: float, l: int, L: float, eps: float) -> float:
    """Certified momentum cutoff for target projection error eps.

    K = 2 sqrt(2 gamma) sqrt(S(eps)) with the bracket S from the module
    docstring; no slack is added beyond the equality case.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if gamma <= 0 or L <= 0:
        raise ValueError("gamma and L must be positive")
    if l < 0:
        raise ValueError("l must be nonnegative")
    return 2.0 * math.sqrt(2.0 * gamma) * math.sqrt(
        _cutoff_bracket(gamma, l, L, eps))


def choose_degree(K: float, gamma: float) -> int:
    """Polynomial point count m = ceil(e^2 K^2 / (2 gamma)).

    The fitted polynomial has degree m-1; the train built from it has bond
    dimension at most 2m+3.
    """
    if K <= 0 or gamma <= 0:
        raise ValueError("K and gamma must be positive")
    return math.ceil(math.e ** 2 * K ** 2 / (2.0 * gamma))


@dataclass(frozen=True)
class ChebyshevInterpolant:
    """Barycentric interpolant through m nodes C cos((2i+1) pi / (2m+2)).

    The nodes are the first m of the m+1 first-kind points for half-angle
    denominator 2m+2 (the last, most negative point is dropped); the
    barycentric weights absorb that deletion so evaluation stays stable at
    any m.
    """

    half_width: float
    nodes: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @classmethod
    def fit(cls, f, half_width: float, m: int) -> "ChebyshevInterpolant":
        """Interpolate f through m nodes on [-half_width, half_width].

        f is called once, on the whole node array, and must return one
        value per node.
        """
        if m < 1:
            raise ValueError("need at least one node")
        if half_width <= 0:
            raise ValueError("half_width must be positive")
        i = np.arange(m + 1)
        angles = (2.0 * i + 1.0) * math.pi / (2.0 * m + 2.0)
        full_nodes = half_width * np.cos(angles)
        # weights of the full first-kind family, corrected for the dropped node
        w_full = (-1.0) ** i * np.sin(angles)
        nodes = full_nodes[:m]
        weights = w_full[:m] * (nodes - full_nodes[m])
        values = np.asarray(f(nodes), dtype=float)
        if values.shape != nodes.shape:
            raise ValueError(
                f"f returned shape {values.shape} for {m} nodes")
        return cls(half_width=half_width, nodes=nodes, values=values,
                   weights=weights)

    def __call__(self, x):
        """Barycentric value at x (scalar or array of any shape).

        Points are evaluated in blocks of about EVAL_BLOCK_ENTRIES
        (points x nodes) entries, all in one preallocated block buffer, so
        the working memory is one block, not O(points * m), and each
        point's value is a function of that point alone: the bits do not
        depend on how the points are split.  A point
        on a node returns the node value.
        """
        xarr = np.asarray(x, dtype=float)
        xs = xarr.ravel()
        out = np.empty(xs.size)
        rows = max(1, EVAL_BLOCK_ENTRIES // self.nodes.size)
        block = np.empty((min(rows, xs.size), self.nodes.size))
        with np.errstate(all="ignore"):
            for lo in range(0, xs.size, rows):
                hi = min(lo + rows, xs.size)
                terms = block[:hi - lo]
                np.subtract(xs[lo:hi, None], self.nodes, out=terms)
                np.divide(self.weights, terms, out=terms)
                den = terms.sum(axis=1)
                np.multiply(terms, self.values, out=terms)
                np.divide(terms.sum(axis=1), den, out=out[lo:hi])
        # a point on a node divides by zero and lands here as inf/inf
        bad = np.flatnonzero(~np.isfinite(out))
        hit_rows, hit_nodes = np.nonzero(
            np.abs(xs[bad, None] - self.nodes) <= 1e-300)
        out[bad[hit_rows]] = self.values[hit_nodes]
        return out.reshape(xarr.shape) if xarr.ndim else float(out[0])


def projection_normalization(gamma: float, l: int, L: float) -> float:
    """Whole-lattice normalization n~ of one axis projection, any centre.

    By Poisson summation n~^2 = 1 + 2 sum_{m>=1} A(mL), A the unit axis
    factor's autocorrelation: with t = gamma s^2 / 2,
    A(s) = e^-t sum_{k<=l} C(l,k) (-t)^(l-k) Gamma(k+1/2) / Gamma(l+1/2).
    A tiny cell's images cancel to round-off, so the stop rule is absolute
    (|2 A(mL)| <= 1e-28 past t = l + 1) and n~^2 is clamped at 0.
    """
    ratios = [math.comb(l, k) * math.gamma(k + 0.5) / math.gamma(l + 0.5)
              for k in range(l + 1)]
    total, m = 1.0, 1
    while True:
        t = 0.5 * gamma * (m * L) ** 2
        decay = math.exp(-t)  # 0 past t = 745, before (-t)^l can overflow
        image = decay and 2.0 * decay * sum(
            r * (-t) ** (l - k) for k, r in enumerate(ratios))
        total += image
        if t > l + 1 and abs(image) <= 1e-28:
            return math.sqrt(max(total, 0.0))
        m += 1


@dataclass(frozen=True)
class AxisProfile:
    """The centre-free part of one axis projection.

    values holds i^l sum_n (-1)^((n-l)/2) h_n psi_n(k / sqrt(2 gamma))
    interpolated at the lattice momenta k = i dk for i = 0..i_cut, the
    u >= 0 half only: the profile at -k is (-1)^l times that at k, so the
    other half is fixed by parity and is never stored.  n_tilde is the
    closed-form whole-line normalization and n_t the fraction of it kept
    below the cutoff, summed from the stored half.  Only n_tilde's 2/3
    precondition is used today; nothing in the library reads either value
    otherwise.  They are kept for a grid-window line of the error ledger.
    degree is that of the fitted interpolant, m-1.
    """

    values: np.ndarray = field(repr=False)
    i_cut: int
    n_tilde: float
    n_t: float
    cutoff: float
    degree: int


@functools.lru_cache(maxsize=None)
def axis_profile(gamma: float, l: int, grid: PlaneWaveGrid,
                 eps: float) -> AxisProfile:
    """Certified cutoff, degree and interpolated momentum profile of one axis.

    A centre a enters a projection only through the phase exp(i k a), so
    everything else is computed here once per (gamma, l, grid, eps) and
    shared by every centre.  The profile sum_n i^n h_n psi_n(u) has only
    terms of l's parity, so it equals i^l times the real sum
    sum_n (-1)^((n-l)/2) h_n psi_n(u); that real sum is fitted with one
    degree m-1 interpolant and evaluated at the lattice points u >= 0
    only; the u < 0 half is (-1)^l times it by parity, so it is not
    stored (see AxisProfile).  The values array is read-only.

    Raises ProjectionError when the whole-line normalization factor drops
    below 2/3 (cell too small relative to the Gaussian's extent).
    """
    n_tilde = projection_normalization(gamma, l, grid.L)
    if n_tilde < 2.0 / 3.0:
        raise ProjectionError(
            f"whole-line normalization {n_tilde:.4f} < 2/3; the cell "
            f"(L={grid.L}) is too small for gamma={gamma}")

    K = choose_cutoff(gamma, l, grid.L, eps)
    m = choose_degree(K, gamma)
    dk = grid.dk
    i_cut = min(int(math.floor(K / dk)), grid.half_points)
    k_cut = i_cut * dk

    scale = math.sqrt(2.0 * gamma)
    coeffs = _real_profile_coeffs(l)
    interp = ChebyshevInterpolant.fit(
        lambda t: np.tensordot(coeffs, _hermite_gaussian_table(l, t),
                               axes=([0], [0])),
        max(K, k_cut) / scale, m)
    # the fit is evaluated on u >= 0 only: past its last kept node, near
    # u = -C, it is less accurate; an odd profile vanishes at u = 0
    half = interp(np.arange(i_cut + 1) * dk / scale)
    if l % 2:
        half[0] = 0.0
    values = (1j ** l) * half
    values.flags.writeable = False

    # the half's weight on |i| <= i_cut times pw_overlap's squared prefactor
    w_below = ((2.0 * float(np.sum(half ** 2)) - half[0] ** 2)
               * math.sqrt(2.0) * math.pi / (math.sqrt(gamma) * grid.L))
    n_t = math.sqrt(w_below) / n_tilde
    return AxisProfile(values=values, i_cut=i_cut, n_tilde=n_tilde,
                       n_t=min(n_t, 1.0), cutoff=k_cut, degree=m - 1)


@functools.lru_cache(maxsize=None)
def primitive_1d_mps(gamma: float, l: int, a: float, grid: PlaneWaveGrid,
                     eps: float) -> TensorTrain:
    """Unit-norm train of polynomial plane-wave coefficients for one axis.

    Takes the certified cutoff, degree and interpolated half profile from
    :func:`axis_profile` and fills the live block of the sign-magnitude
    layout: row 0 (sign bit 0) holds values * exp(i k a) at k = i dk,
    i = 0..i_cut; row 1 (sign bit 1) holds the mirrored (-1)^l values *
    exp(-i k a), with entry 0, the "-0" codeword, left zero.  Each row has
    2^p entries, p = i_cut.bit_length().  The normalized block is factored
    into p + 1 sites, and n-1-p padding sites follow the sign site: each is
    (r, 2, r) with the identity on bit 0 and zero on bit 1, r the bond
    after the sign site (r <= 2).  Those are the idle magnitude bits above
    the window, |0> in every primitive.  The train is left-canonical, and
    its bond dimension is bounded by 2m+3 (at the grids measured, the
    ranks are far below the bound).  No array of 2^n entries is made.

    Two cache levels: the profile is memoized on (gamma, l, grid, eps) and
    shared by every centre, so it is fitted and evaluated once per
    exponent and angular momentum on a grid; the train is memoized on all
    arguments, so every primitive sharing an exponent, angular momentum
    and centre coordinate on one grid reuses one train.  Its cores are
    read-only.

    Raises ProjectionError when the whole-line normalization factor drops
    below 2/3 (cell too small relative to the Gaussian's extent) and
    CapacityError when the live window needs more than
    DENSE_AXIS_QUBIT_CAP sites.  The grid size itself is not capped.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    prof = axis_profile(gamma, l, grid, eps)
    p = prof.i_cut.bit_length()
    if p + 1 > DENSE_AXIS_QUBIT_CAP:
        raise tt_core.CapacityError(
            f"the live window |i| <= {prof.i_cut} needs {p + 1} sites, over "
            f"the dense assembly cap of {DENSE_AXIS_QUBIT_CAP}")

    c = prof.i_cut
    phase = np.exp(1j * np.arange(c + 1) * grid.dk * a)
    block = np.zeros((2, 2 ** p), dtype=complex)
    block[0, :c + 1] = prof.values * phase
    block[1, 1:c + 1] = (-1) ** l * prof.values[1:] * phase[1:].conj()

    nrm = float(np.linalg.norm(block))
    if nrm == 0.0:
        raise ProjectionError("all polynomial coefficients vanished")
    live = tt_core.from_dense(block.ravel() / nrm, tol=1e-14)
    sign, *magnitude = live.cores
    r = sign.shape[2]
    pad = np.zeros((r, 2, r), dtype=complex)
    pad[:, 0, :] = np.eye(r)
    tt = TensorTrain(
        (sign, *[pad] * (grid.qubits_per_axis - 1 - p), *magnitude),
        canonical_form="left", truncation_error=live.truncation_error)
    for core in tt.cores:
        core.flags.writeable = False
    return tt


def _axis_eps(eps: float) -> float:
    """Each axis's share of a primitive's error budget eps."""
    return eps / math.sqrt(3.0)


def primitive_3d_mps(g: PrimitiveGaussian, grid: PlaneWaveGrid,
                     eps: float) -> TensorTrain:
    """Train of the 3D plane-wave coefficients of a primitive Gaussian.

    Each Cartesian axis gets an error budget of eps / sqrt(3); the three
    unit-norm axis trains are joined by tensor product, so the connecting
    bonds have dimension 1 and the qubit count is three times the per-axis
    count.  Each axis train is unit-norm and "left", so the product is
    "left" (see :func:`tt_core.tensor_product`), and a one-primitive
    orbital needs no QR sweep.
    """
    x, y, z = (primitive_1d_mps(g.gamma, g.ang[axis], g.center[axis], grid,
                                _axis_eps(eps))
               for axis in range(3))
    return tt_core.tensor_product(tt_core.tensor_product(x, y), z)


def certified_cutoff(g: PrimitiveGaussian, L: float, eps: float) -> float:
    """The momentum cutoff from which primitive_3d_mps(g, grid, eps) on a
    cell of side L is certified: the largest choose_cutoff of g's three
    axes at their budget eps / sqrt(3)."""
    return max(choose_cutoff(g.gamma, l, L, _axis_eps(eps)) for l in g.ang)
