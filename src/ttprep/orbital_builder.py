"""Molecular orbitals as compressed trains over the plane-wave basis.

An orbital is a weighted sum of unit primitive trains, summed by the width
rule of build_orbitals and renormalized, then rounded once per cutoff at
max(cutoff, EPS_SUM), whatever its primitive count (truncate_mo;
truncate_mo_each rounds at several cutoffs in one shared sweep).  Each
orbital records what its build discarded (build_error), so no caller needs
the rule.  overlap_matrix is the primitives' Gram matrix S;
canonical_orthogonalize (drop eigenvalues of S below sigma, whiten the
rest) is the paper's whitening guarantee, which the tests check.
The squared norm of the summed train, recorded before renormalization,
drives all error reporting: truncations only remove weight, so
1 - raw_norm_sq tracks the discarded probability and
sqrt(max(0, 1 - raw_norm_sq)) estimates the trace distance to the
uncompressed state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import tt_core
from .tt_core import TensorTrain

__all__ = [
    "DegenerateOrbitalError",
    "EmptyBasisError",
    "OrbitalMPS",
    "OrthoBasis",
    "build_mo_mps",
    "build_orbitals",
    "canonical_orthogonalize",
    "infidelity_estimate",
    "mo_bond_bound",
    "overlap_matrix",
    "truncate_mo",
    "truncate_mo_each",
]

DEGENERATE_NORM_SQ = 1e-10

# Floor of every orbital's one rounding; the cutoff of a wide list's halves.
EPS_SUM = 1e-9

# The widest direct sum of primitives summed exactly in one piece.  A wider
# list is halved until every piece fits, and each orbital's rounded halves
# are joined by one exact canonical_sum, whose width is the halves' bonds
# added (the cap does not bound it).  The cap is set by time: on random
# l <= 2 primitives over 7 qubits per axis, one piece was as fast as one
# halving up to a width of about 250-300 for one orbital and 400-500 for
# two or four, because each orbital's halves must be rounded and joined.
# The price is memory: the QR sweep holds O(width^2) entries per site, and
# each orbital's exact sum is held until it is rounded.
MAX_SUM_WIDTH = 256


class EmptyBasisError(ValueError):
    """Every overlap eigenvalue fell below the orthogonalization cutoff."""


class DegenerateOrbitalError(ValueError):
    """An orbital's coefficients cancelled to (numerically) zero norm."""


@dataclass(frozen=True)
class OrthoBasis:
    """Columns x_tilde[:, i] = u_i / sqrt(lambda_i) for kept eigenpairs.

    Satisfies x_tilde^dagger S x_tilde = identity; eigenvalues descend.
    """

    x_tilde: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    sigma: float

    @property
    def kept(self) -> int:
        return self.x_tilde.shape[1]


@dataclass(frozen=True)
class OrbitalMPS:
    """A unit-norm orbital train plus its compression bookkeeping.

    raw_norm_sq is the squared norm of the summed train immediately
    before renormalization; every later truncation multiplies it by the
    squared norm the truncation retained.  build_error bounds the summed
    train's distance from the exact sum.
    """

    tt: TensorTrain
    raw_norm_sq: float
    build_error: float = 0.0

    @property
    def infidelity(self) -> float:
        return abs(1.0 - self.raw_norm_sq)


def overlap_matrix(primitives, tts) -> np.ndarray:
    """Gram matrix S of the primitives from their projected trains.

    tts[g] is primitive g's unit-norm train.  :func:`tt_core.gram`
    contracts all P = n(n-1)/2 pairs of the upper triangle in one batched
    sweep (working memory O(P r^2) for the largest bond r) and mirrors it
    conjugately, so S is Hermitian.
    """
    if not primitives:
        raise ValueError("need at least one primitive")
    if len(tts) != len(primitives):
        raise ValueError("tts must match primitives one to one")
    return tt_core.gram(tts)


def canonical_orthogonalize(S, sigma: float) -> OrthoBasis:
    """Eigenbasis columns scaled to whiten S, eigenvalues < sigma dropped.

    S is any Hermitian matrix.  Kept columns are ordered by descending
    eigenvalue; raises EmptyBasisError when nothing survives the cutoff.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    w, U = np.linalg.eigh(np.asarray(S, dtype=complex))
    order = np.argsort(w)[::-1]
    w, U = w[order], U[:, order]
    keep = w >= sigma
    if not keep.any():
        raise EmptyBasisError(
            f"all {w.size} eigenvalues fall below sigma = {sigma}")
    wk = w[keep]
    X = U[:, keep] / np.sqrt(wk)[None, :]
    return OrthoBasis(x_tilde=X, eigenvalues=wk, sigma=float(sigma))


def _sums(tts, rows, exact: bool = True) -> list[tuple[TensorTrain, float]]:
    """(sum_g row[g] * tts[g], the truncation errors of its roundings
    summed) per coefficient row, by build_orbitals' width rule: exact, or
    (exact=False) rounded at EPS_SUM unless over one train."""
    if len(tts) == 1:
        return [(tt_core.scale(tts[0], complex(row[0])), 0.0) for row in rows]
    if max(map(sum, zip(*(t.bond_dims for t in tts)))) <= MAX_SUM_WIDTH:
        sums = [(s, 0.0) for s in tt_core.canonical_sum(tts, rows)]
    else:
        h = len(tts) // 2
        rows = np.asarray(rows)
        sums = [(tt_core.canonical_sum([a, b], [1.0, 1.0]), ea + eb)
                for (a, ea), (b, eb) in zip(
                    _sums(tts[:h], rows[:, :h], False),
                    _sums(tts[h:], rows[:, h:], False))]
    if exact:
        return sums
    rounded = [(tt_core.round(s, EPS_SUM), e) for s, e in sums]
    return [(r, e + r.truncation_error) for r, e in rounded]


def build_orbitals(tts, orbitals) -> list[OrbitalMPS]:
    """One OrbitalMPS per (primitive indices, coefficients) pair of orbitals,
    summing coeffs[k] * tts[indices[k]].

    The orbitals are grouped by primitive list, and each list is summed by
    one rule.  A single train is only scaled.  A list whose direct sum (the
    largest, over sites, of the trains' summed bonds) is at most
    MAX_SUM_WIDTH wide is one tt_core.canonical_sum for all the list's
    orbitals: one QR sweep shared by them, no bond wider than the sites to
    its right, and an exact "left" sum per orbital, which truncate_mo rounds
    with no QR sweep.  A wider list is split at G // 2, each half is summed
    by this same rule for all the orbitals at once (so split again while it
    is too wide), each half is rounded at EPS_SUM unless a single train,
    into its build_error, and each orbital's halves are joined by one exact
    canonical_sum, so every sum of two or more trains is "left".
    build_mo_mps finishes each sum.
    """
    by_list = {}
    for i, (indices, _) in enumerate(orbitals):
        by_list.setdefault(tuple(indices), []).append(i)
    mos = {}
    for indices, members in by_list.items():
        sums = _sums([tts[j] for j in indices],
                     [orbitals[i][1] for i in members])
        for i, (summed, error) in zip(members, sums):
            mos[i] = replace(build_mo_mps(summed), build_error=error)
    return [mos[i] for i in range(len(orbitals))]


def build_mo_mps(summed: TensorTrain) -> OrbitalMPS:
    """The unit orbital of one summed train, with its squared norm.

    The train is left-canonicalized, its squared norm read off its last
    core, and the last core renormalized, so the unit train is "left" and a
    later truncate_mo needs no orthogonalization sweep.  Every train from
    build_orbitals is already "left", so the call is free there (perfbench's
    tracer counts it in left_canonicalize.redundant).  The pre-normalization
    squared norm is kept on the result; a (numerically) vanishing norm is
    an error rather than a silent zero state.
    """
    acc = tt_core.left_canonicalize(summed)
    raw = float(tt_core.norm(acc)) ** 2
    if raw < DEGENERATE_NORM_SQ:
        raise DegenerateOrbitalError(
            f"orbital norm^2 = {raw:.3e} after summation; coefficients cancel")
    return OrbitalMPS(tt=tt_core.scale(acc, 1.0 / math.sqrt(raw)),
                      raw_norm_sq=raw)


def truncate_mo(o: OrbitalMPS, eps: float) -> OrbitalMPS:
    """Round an orbital train once at max(eps, EPS_SUM), scaling its norm
    record.

    The retained squared norm multiplies raw_norm_sq, so infidelity grows
    monotonically with eps.  On the "left" train of build_mo_mps the
    rounding is a single right-to-left SVD sweep, and the "right" result
    reads its norm off its first core.
    """
    eps = _cutoff(eps)
    return _rounded_mo(o, tt_core.round(o.tt, eps), eps)


def truncate_mo_each(o: OrbitalMPS, eps_values) -> list[OrbitalMPS]:
    """[truncate_mo(o, eps) for eps in eps_values], bit for bit; the
    cutoffs share one tt_core.round_each sweep."""
    eps_values = [_cutoff(eps) for eps in eps_values]
    return [_rounded_mo(o, rounded, eps) for rounded, eps in
            zip(tt_core.round_each(o.tt, eps_values), eps_values)]


def _cutoff(eps: float) -> float:
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return max(float(eps), EPS_SUM)


def _rounded_mo(o: OrbitalMPS, rounded: TensorTrain, eps: float) -> OrbitalMPS:
    """o with its train rounded at eps and renormalized, and its
    raw_norm_sq times the squared norm the rounding kept."""
    rho = float(tt_core.norm(rounded))
    if rho ** 2 < DEGENERATE_NORM_SQ:
        raise DegenerateOrbitalError(
            f"truncation at eps = {eps} removed the whole state")
    return replace(o, tt=tt_core.scale(rounded, 1.0 / rho),
                   raw_norm_sq=o.raw_norm_sq * rho ** 2)


def infidelity_estimate(o: OrbitalMPS) -> float:
    """Trace-distance estimate sqrt(max(0, 1 - raw_norm_sq)).

    Truncations only remove weight, so 1 - raw_norm_sq is the removed
    probability; non-orthogonal primitives can push the raw norm slightly
    above one, in which case the estimate clamps to zero (the raw value
    stays available on the orbital).
    """
    return math.sqrt(max(0.0, 1.0 - o.raw_norm_sq))


def _mo_bracket(n_g: int, eps: float, sigma: float, ell: int) -> float:
    if n_g < 1:
        raise ValueError("n_g must be at least 1")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    ll = ell * math.log(4.0 * ell) if ell > 0 else 0.0
    return 2.0 * math.log(288.0 * math.sqrt(3.0) * n_g
                          / (eps ** 4 * sigma ** 2)) + ll


def mo_bond_bound(n_g: int, eps: float, sigma: float, ell: int) -> int:
    """Certified bond-dimension bound for an orbital over n_g primitives.

    ceil of 8 e^2 n_g (2 log(288 sqrt(3) n_g / (eps^4 sigma^2))
    + ell log(4 ell) + 4), natural logs; a deliberately loose guarantee
    that measured compressed bonds must stay under.
    """
    return math.ceil(8.0 * math.e ** 2 * n_g * (_mo_bracket(n_g, eps, sigma, ell) + 4.0))
