"""Shared helpers: random train generators, brute-force dense oracles and
checks of build_orbitals' wide-list joins.

Every oracle here recomputes its answer from first principles (dense numpy
arrays, quadrature, explicit k-sums) so the library under test never
validates itself.
"""

import math

import numpy as np
import pytest

from ttprep import tt_core
from ttprep.tt_core import CapacityError, TensorTrain


def random_tt(rng: np.random.Generator, n_sites: int, max_bond: int = 4,
              scale: float = 1.0) -> TensorTrain:
    """Random complex train with bond dims drawn in [1, max_bond]."""
    bonds = [1] + [int(rng.integers(1, max_bond + 1))
                   for _ in range(n_sites - 1)] + [1]
    cores = []
    for j in range(n_sites):
        shape = (bonds[j], 2, bonds[j + 1])
        cores.append(scale * (rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape)))
    return TensorTrain(cores)


def random_vector(rng: np.random.Generator, n_sites: int) -> np.ndarray:
    n = 2 ** n_sites
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def isometry_residuals(a: TensorTrain) -> list[float]:
    """Per-core deviation ||A^H A - I||_F of the left-isometry property.

    The last core is excluded; it carries the norm.
    """
    out = []
    for c in a.cores[:-1]:
        l, _, r = c.shape
        m = c.reshape(l * 2, r)
        out.append(float(np.linalg.norm(m.conj().T @ m - np.eye(r))))
    return out


def dense(t: TensorTrain, cap: int = 24) -> np.ndarray:
    """Contract a train into its explicit dense vector.

    Refuses trains with more than ``cap`` sites (2^cap entries) so a typo
    cannot silently allocate petabytes.
    """
    if t.n_sites > cap:
        raise CapacityError(
            f"dense expansion of {t.n_sites} sites exceeds the cap of {cap}")
    vec = t.cores[0].reshape(2, -1)
    for core in t.cores[1:]:
        vec = np.tensordot(vec, core, axes=([-1], [0]))
        vec = vec.reshape(-1, core.shape[2])
    return vec.reshape(-1)


def tt_entry(t: TensorTrain, index: int) -> complex:
    """Single dense entry by direct core contraction (no full expansion)."""
    n = t.n_sites
    row = t.cores[0][:, (index >> (n - 1)) & 1, :]
    for k in range(2, n + 1):
        row = row @ t.cores[k - 1][:, (index >> (n - k)) & 1, :]
    return complex(row[0, 0])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def trace_distance_nonunit(reference: np.ndarray, state: np.ndarray) -> float:
    """sqrt(1 - |<ref|state>|^2) with a possibly sub-unit reference.

    The reference may carry less than unit norm when part of its weight
    lives outside the represented window; the missing tail then lowers the
    overlap and is charged to the distance, which is the honest accounting
    for whole-line comparisons on a finite grid.
    """
    ov = np.vdot(reference, state)
    return math.sqrt(max(0.0, 1.0 - abs(ov) ** 2))


def recording_sums(monkeypatch):
    """Record every tt_core.canonical_sum as (kind, width): a "join" of two
    rounded halves, which passes one row of ones, or a "sum" of primitives,
    which passes a coefficient row per orbital; width is the largest, over
    sites, of the trains' summed bonds."""
    calls, original = [], tt_core.canonical_sum

    def recording(trains, coeffs):
        calls.append(("sum" if np.ndim(coeffs) == 2 else "join",
                      max(map(sum, zip(*(t.bond_dims for t in trains))))))
        return original(trains, coeffs)

    monkeypatch.setattr(tt_core, "canonical_sum", recording)
    return calls


def assert_joined(o, halves, want):
    """o is the unit train of canonical_sum(halves, [1, 1]) bit for bit,
    no bond of the join is wider than the halves' summed bonds, and the
    state o carries is the dense want to 1e-12."""
    acc = tt_core.canonical_sum(halves, [1, 1])
    assert acc.canonical_form == "left"
    assert all(j <= a + b for j, a, b in zip(
        acc.bond_dims, halves[0].bond_dims, halves[1].bond_dims))
    raw = float(np.linalg.norm(acc.cores[-1])) ** 2
    assert o.raw_norm_sq == raw
    want_tt = tt_core.scale(acc, 1.0 / math.sqrt(raw))
    assert len(o.tt.cores) == len(want_tt.cores)
    for got, ref in zip(o.tt.cores, want_tt.cores):
        assert np.array_equal(got, ref)
    got = dense(o.tt) * math.sqrt(o.raw_norm_sq)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
