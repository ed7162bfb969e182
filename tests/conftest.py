"""Shared helpers: random train generators and brute-force dense oracles.

Every oracle here recomputes its answer from first principles (dense numpy
arrays, quadrature, explicit k-sums) so the library under test never
validates itself.
"""

import math

import numpy as np
import pytest

from ttprep import tt_core
from ttprep.tt_core import TensorTrain


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


def dense(t: TensorTrain) -> np.ndarray:
    return np.asarray(tt_core.to_dense(t))


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
