"""Toffoli and qubit cost formulas for fault-tolerant state preparation.

Closed-form counters for the circuit primitives (multi-controlled X,
controlled swap, SELECT / swap-network / hybrid data lookup, adders,
multiplexed rotations), the composite routines built from them (arbitrary
state preparation, unitary synthesis, site-by-site train preparation,
Slater determinants), the naive second-to-first-quantization baseline, and
the matching error bounds.

Conventions: every logarithm is base 2; lookup fan-outs lambda are powers
of two; cost bounds with irrational prefactors are kept as floats and only
floored when a report is rendered.  Formulas containing the terms (b - 4)
or (8b - 15) reject b < 5, where they would go negative; the simple
counters accept any b >= 1.

Plain Python arithmetic throughout (no vectorization): the values feed
exact-identity checks, so bit-for-bit reproducibility beats speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "ResourceParams",
    "ResourceReport",
    "antisym_estimate",
    "arb_prep_error",
    "ceil_log2",
    "estimate_resources",
    "mps_prep_error",
    "optimal_lambda",
    "qubits_arbitrary_state_prep",
    "qubits_select",
    "qubits_selswap",
    "qubits_swapnet",
    "qubits_zrot_mux",
    "slater_error_bound",
    "synthesis_error",
    "toffoli_adder",
    "toffoli_arbitrary_state_prep",
    "toffoli_cswap",
    "toffoli_mcx",
    "toffoli_mps_prep",
    "toffoli_naive_slater",
    "toffoli_select",
    "toffoli_selswap",
    "toffoli_slater",
    "toffoli_swapnet",
    "toffoli_unitary_synthesis",
    "toffoli_zrot_mux",
    "zrot_error",
]

MIN_PRECISION_BITS = 5


def ceil_log2(x: int) -> int:
    """Exact ceil(log2(x)) for integers x >= 1."""
    if x < 1:
        raise ValueError("x must be a positive integer")
    return (x - 1).bit_length()


def _check_pow2(lam: int, n: int) -> None:
    if lam < 1 or lam & (lam - 1):
        raise ValueError(f"lambda = {lam} is not a power of two")
    if lam > 2 ** n:
        raise ValueError(f"lambda = {lam} exceeds 2^{n}")


def _check_b_min5(b: int) -> None:
    if b < MIN_PRECISION_BITS:
        raise ValueError(
            f"b = {b} < {MIN_PRECISION_BITS}: this bound contains (b-4) or "
            f"(8b-15) terms that go negative for tiny b")


def toffoli_mcx(n: int) -> int:
    """n-controlled X with one borrowed ancilla: n - 1 Toffolis."""
    if n < 2:
        raise ValueError("need at least two controls")
    return n - 1


def toffoli_cswap(b: int) -> int:
    """Controlled swap of two b-bit registers: b Toffolis."""
    if b < 1:
        raise ValueError("b must be at least 1")
    return b


def toffoli_select(n: int) -> int:
    """Unary-iteration data lookup over n address bits: 2^n - 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 2 ** n - 1


def qubits_select(n: int, b: int) -> int:
    if n < 1 or b < 1:
        raise ValueError("n and b must be at least 1")
    return 2 * n + b - 1


def toffoli_swapnet(n: int, b: int) -> int:
    """Swap-network lookup: (2^n - 1) b Toffolis."""
    if n < 1 or b < 1:
        raise ValueError("n and b must be at least 1")
    return (2 ** n - 1) * b


def qubits_swapnet(n: int, b: int) -> int:
    if n < 1 or b < 1:
        raise ValueError("n and b must be at least 1")
    return 2 * n + 2 ** n * b - 2


def toffoli_selswap(n: int, b: int, lam: int, dirty: bool = False) -> int:
    """Hybrid lookup with fan-out lambda; lambda = 1 clean reduces to SELECT."""
    if n < 1 or b < 1:
        raise ValueError("n and b must be at least 1")
    _check_pow2(lam, n)
    if dirty:
        return 2 ** (n + 1) // lam - 2 + 4 * (lam - 1) * b
    return 2 ** n // lam - 1 + (lam - 1) * b


def qubits_selswap(n: int, b: int, lam: int, dirty: bool = False) -> int:
    if n < 1 or b < 1:
        raise ValueError("n and b must be at least 1")
    _check_pow2(lam, n)
    loglam = ceil_log2(lam)
    if dirty:
        return 2 * n + (lam + 1) * b - loglam - 1
    return 2 * n + lam * b - loglam - 1


def toffoli_adder(b: int, controls: int = 0) -> int:
    """In-place b-bit addition: b Toffolis, doubled per control (max 2)."""
    if b < 1:
        raise ValueError("b must be at least 1")
    if controls not in (0, 1, 2):
        raise ValueError("controls must be 0, 1 or 2")
    return (controls + 1) * b


def toffoli_zrot_mux(n: int, b: int, lam: int) -> int:
    """Multiplexed Z rotation over n selectors at b-bit phase precision.

    2^{n+1}/lambda + (b+1)(lambda-1) + 2b - 3, exact for power-of-two
    lambda dividing 2^{n+1}.
    """
    if n < 1 or b < 1:
        raise ValueError("n and b must be at least 1")
    _check_pow2(lam, n)
    return 2 ** (n + 1) // lam + (b + 1) * (lam - 1) + 2 * b - 3


def qubits_zrot_mux(n: int, b: int, lam: int) -> int:
    if n < 1 or b < 1:
        raise ValueError("n and b must be at least 1")
    _check_pow2(lam, n)
    return 2 * n + (lam + 2) * b - ceil_log2(lam) - 3


def zrot_error(b: int) -> float:
    """Operator-norm error of one b-bit phase-gradient rotation: pi 2^-b."""
    if b < 1:
        raise ValueError("b must be at least 1")
    return math.pi * 2.0 ** (-b)


def toffoli_arbitrary_state_prep(n: int, b: int) -> float:
    """n-qubit arbitrary state preparation at the optimal fan-out schedule.

    (1 + sqrt 2) (2^{n+7} (b+1))^{1/2} + 2n(b-4); b >= 5.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_b_min5(b)
    return ((1.0 + math.sqrt(2.0)) * math.sqrt(2 ** (n + 7) * (b + 1))
            + 2 * n * (b - 4))


def qubits_arbitrary_state_prep(n: int, b: int) -> float:
    """3n/2 + 2^{n/2+1} b / sqrt(b+1); b >= 5."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_b_min5(b)
    return 3 * n / 2 + 2.0 ** (n / 2 + 1) * b / math.sqrt(b + 1)


def arb_prep_error(n: int, b: int) -> float:
    """State-vector error of rotation-synthesized preparation: 2 pi n 2^-b."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_b_min5(b)
    return 2.0 * math.pi * n * 2.0 ** (-b)


def toffoli_unitary_synthesis(n: int, b: int) -> float:
    """Full n-qubit unitary by column-wise preparation.

    2^{3n/2 + 9/2} (1 + sqrt 2) (b+1)^{1/2} + 2^n n (8b - 15); b >= 5.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_b_min5(b)
    return (2.0 ** (3 * n / 2 + 4.5) * (1.0 + math.sqrt(2.0))
            * math.sqrt(b + 1) + 2 ** n * n * (8 * b - 15))


def synthesis_error(n: int, b: int) -> float:
    """Operator-norm error of synthesized unitary: 8 pi sqrt(2) n 2^{n-b}."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_b_min5(b)
    return 8.0 * math.pi * math.sqrt(2.0) * n * 2.0 ** (n - b)


def optimal_lambda(p: int, b: int) -> int:
    """Fan-out schedule lambda_p = 2^ceil(log2(mu 2^{p/2})), mu = (b+1)^{-1/2}.

    Clamped to [1, 2^p] so it is always a usable lookup parameter.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    _check_b_min5(b)
    mu = 1.0 / math.sqrt(b + 1)
    raw = mu * 2.0 ** (p / 2)
    lam = 2 ** max(0, math.ceil(math.log2(raw))) if raw > 0 else 1
    return max(1, min(lam, 2 ** p))


def _sites(bonds):
    """Yield (m_j, mbar_j) for sites j = 1..n of a train with interior
    bonds m_1..m_{n-1}; the boundary bonds m_0 = m_n = 1 are implicit.

    mbar_j is the padded neighborhood dimension
    max(2^ceil(log2 m_{j-1}), 2^ceil(log2 m_j)), a power of two >= m_j.
    A bond below 1 raises ValueError.
    """
    padded = (1, *bonds, 1)
    for left, mj in zip(padded, padded[1:]):
        yield mj, max(2 ** ceil_log2(left), 2 ** ceil_log2(mj))


def toffoli_mps_prep(bonds, b: int) -> float:
    """Site-by-site train preparation cost for interior bonds `bonds`.

    Sum over sites j of 32 (1 + sqrt 2) (b+1)^{1/2} m_j mbar_j^{1/2}
    + (8b - 15) m_j log2(2 mbar_j); b >= 5.
    """
    _check_b_min5(b)
    total = 0.0
    for mj, mbar in _sites(bonds):
        total += (32.0 * (1.0 + math.sqrt(2.0)) * math.sqrt(b + 1)
                  * mj * math.sqrt(mbar)
                  + (8 * b - 15) * mj * math.log2(2 * mbar))
    return total


def mps_prep_error(bonds, b: int) -> float:
    """State-vector error of train preparation: 2^{7/2-b} sum m_j log2(2 mbar_j).

    Per site this equals m_j synthesis_error(n_j, b) / 2^{n_j} / pi
    with 2^{n_j} = 2 mbar_j: it lacks the factor pi that every other
    rotation-error counter here (zrot_error, arb_prep_error,
    synthesis_error) carries.
    """
    _check_b_min5(b)
    acc = 0.0
    for mj, mbar in _sites(bonds):
        acc += mj * math.log2(2 * mbar)
    return 2.0 ** (3.5 - b) * acc


def toffoli_slater(eta: int, n_system: int, per_orbital_costs) -> float:
    """Slater determinant over eta prepared orbitals.

    eta^2 n_system reflection overhead plus 2 eta times the summed
    per-orbital preparation costs (each orbital is prepared and later
    unprepared, controlled).
    """
    if eta < 1:
        raise ValueError("eta must be at least 1")
    if n_system < 1:
        raise ValueError("n_system must be at least 1")
    costs = list(per_orbital_costs)
    if len(costs) != eta:
        raise ValueError(f"expected {eta} per-orbital costs, got {len(costs)}")
    return eta ** 2 * n_system + 2 * eta * sum(costs)


def slater_error_bound(eta: int, n_mo: int, eps1: float, eps2: float,
                       mode: str = "approx") -> float:
    """Error of the Slater state from orbital-level errors eps1, eps2.

    approx: eta (eps1 + eps2); spectral: 2^{3/2} eta n_mo (eps1 + eps2).
    """
    if eta < 1 or n_mo < 1:
        raise ValueError("eta and n_mo must be at least 1")
    if eps1 < 0 or eps2 < 0:
        raise ValueError("error terms must be nonnegative")
    if mode == "approx":
        return eta * (eps1 + eps2)
    if mode == "spectral":
        return 2.0 ** 1.5 * eta * n_mo * (eps1 + eps2)
    raise ValueError(f"unknown mode {mode!r}")


def toffoli_naive_slater(N, eta: int, b: int):
    """Givens-rotation baseline acting on all N modes.

    N ((3 + 4b) eta + ceil(log2(eta + 1)) - 2); exact integer when N is.
    Accepts any b >= 1 (no (b-4)-type terms here).
    """
    if eta < 1:
        raise ValueError("eta must be at least 1")
    if b < 1:
        raise ValueError("b must be at least 1")
    if N < 1:
        raise ValueError("N must be at least 1")
    return N * ((3 + 4 * b) * eta + ceil_log2(eta + 1) - 2)


def antisym_estimate(eta: int, N: int) -> int:
    """Heuristic antisymmetrization cost eta ceil(log2 eta) ceil(log2 N).

    Unit-constant scaling estimate only; reported separately and excluded
    from method totals.
    """
    if eta < 1 or N < 1:
        raise ValueError("eta and N must be at least 1")
    return eta * ceil_log2(eta) * ceil_log2(N)


@dataclass(frozen=True)
class ResourceParams:
    """Validated knobs for a resource estimate: a register of
    N = 2^n_system modes, n_grid_modes of which the grid uses.

    A register whose naive baseline overflows a float raises OverflowError.
    """

    b: int
    eta: int
    n_system: int
    n_grid_modes: int

    def __post_init__(self):
        _check_b_min5(self.b)
        if self.eta < 1:
            raise ValueError("eta must be at least 1")
        if self.n_system < 1:
            raise ValueError("n_system must be at least 1")
        if not 1 <= self.n_grid_modes <= self.N:
            raise ValueError("n_grid_modes must lie in 1..N")
        # the report divides by this count and prints it as a float
        float(toffoli_naive_slater(self.N, self.eta, self.b))

    @property
    def N(self) -> int:
        return 2 ** self.n_system


@dataclass(frozen=True)
class ResourceReport:
    """Aggregated estimate: per-routine costs, error bounds, method totals.

    Totals are exact sums of their listed parts; the antisymmetrization
    estimate is kept out of both totals and reported on its own.  All cost
    values are the real-valued bounds; rendering applies floors.
    error_bounds holds the Slater bound of each mode ("approx",
    "spectral") built from eps1 and eps2.  prep_toffoli and prep_error
    hold each orbital's train-preparation cost and error, one entry per
    orbital however many electrons occupy it.  naive_at_grid_modes is the
    naive baseline over the grid's own modes rather than the register's.
    """

    toffoli: dict = field(repr=False)
    qubits: dict = field(repr=False)
    eps1: float
    eps2: float
    error_bounds: dict
    totals: dict = field(repr=False)
    antisym: float
    prep_toffoli: tuple = field(repr=False)
    prep_error: tuple = field(repr=False)
    naive_at_grid_modes: int = field(repr=False)


def estimate_resources(params: ResourceParams, bonds, occupations,
                       eps1: float) -> ResourceReport:
    """Assemble the full estimate from each orbital's measured bond tuple.

    bonds[i] is orbital i's interior bond tuple (TensorTrain.bond_dims),
    and occupations[i] electrons fill it, eta in all.  Each orbital is
    priced once; mps_prep_orbital_<i> and the Slater sum take one copy per
    electron, in electron order.  eps1 is the summation/truncation
    infidelity bound from orbital construction; eps2 is derived here from
    the preparation-error formula, and both Slater error bounds from the
    two with n_mo = len(bonds).  The naive baseline is evaluated at the
    params' N = 2^n_system modes and at their n_grid_modes.
    """
    bonds = list(bonds)
    if len(occupations) != len(bonds) or sum(occupations) != params.eta:
        raise ValueError(f"expected {params.eta} electrons in "
                         f"{len(bonds)} orbitals, got {list(occupations)}")
    prep_toffoli = tuple(toffoli_mps_prep(m, params.b) for m in bonds)
    prep_error = tuple(mps_prep_error(m, params.b) for m in bonds)
    per_electron = [c for c, occ in zip(prep_toffoli, occupations)
                    for _ in range(occ)]
    eps1, eps2 = float(eps1), float(max(prep_error))
    mps_total = toffoli_slater(params.eta, params.n_system, per_electron)
    naive_total = toffoli_naive_slater(params.N, params.eta, params.b)

    toffoli = {f"mps_prep_orbital_{i}": c for i, c in enumerate(per_electron)}
    toffoli["slater_reflection_overhead"] = params.eta ** 2 * params.n_system
    toffoli["slater_total_mps"] = mps_total
    toffoli["naive_slater"] = naive_total
    qubits = {
        "system_mps": params.eta * params.n_system,
        "system_naive": params.N,
    }
    totals = {
        "mps_method": mps_total,
        "naive_method": naive_total,
        "ratio_naive_over_mps": naive_total / mps_total,
    }
    error_bounds = {mode: slater_error_bound(params.eta, len(bonds), eps1,
                                             eps2, mode)
                    for mode in ("approx", "spectral")}
    return ResourceReport(
        toffoli=toffoli, qubits=qubits, eps1=eps1, eps2=eps2,
        error_bounds=error_bounds, totals=totals,
        antisym=float(antisym_estimate(params.eta, params.N)),
        prep_toffoli=prep_toffoli, prep_error=prep_error,
        naive_at_grid_modes=toffoli_naive_slater(params.n_grid_modes,
                                                 params.eta, params.b))
