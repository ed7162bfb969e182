"""Quantized tensor trains over binary site indices.

A :class:`TensorTrain` stores a length-2^n complex vector as a chain of
rank-3 cores with shapes ``(left_bond, 2, right_bond)``.  Entry ``i`` of the
encoded vector is the matrix product selected by the bits of ``i``, most
significant bit first:

    v[i] = A1[s1] @ A2[s2] @ ... @ An[sn],    i = sum_k 2^(n-k) s_k.

All operations are pure: they return new values and never mutate their
inputs, so trains can be shared freely across threads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CapacityError",
    "ShapeError",
    "TensorTrain",
    "canonical_sum",
    "from_debug_json",
    "from_dense",
    "gram",
    "inner_product",
    "left_canonicalize",
    "max_bond_dim",
    "norm",
    "round",
    "round_each",
    "scale",
    "tensor_product",
    "to_debug_json",
]

_EPS = np.finfo(float).eps


class ShapeError(ValueError):
    """Operands have incompatible shapes or an invalid core chain."""


class CapacityError(RuntimeError):
    """A dense expansion would exceed the configured site cap."""


class TensorTrain:
    """Chain of rank-3 complex cores encoding a length-2^n vector.

    Parameters
    ----------
    cores : sequence of array_like
        Rank-3 cores, each of shape ``(left_bond, 2, right_bond)``.  The
        first left bond and last right bond must be 1, and adjacent bonds
        must match.
    canonical_form : {"none", "left", "right"}
        Which end of the chain carries the norm.  "left" promises every
        core but the last is a left isometry.  It is set by
        :func:`from_dense`, :func:`left_canonicalize` and
        :func:`canonical_sum`, and by :func:`tensor_product` when its first
        factor is a unit-norm "left" train and its second is "left".
        "right" promises every core but the first is a right isometry (set
        by :func:`round` and :func:`round_each`).  :func:`scale` keeps the
        form; every other operation returns "none".  The form is trusted,
        not checked:
        :func:`norm` reads the norm-carrying core alone, :func:`round`
        skips its orthogonalization sweep on a "left" train, and
        :func:`left_canonicalize` returns a "left" train with no sweep.
    truncation_error : float
        Frobenius-norm bound on the error introduced by the operation that
        produced this value (0 for exact constructions).  It is a property
        of the construction step, not an accumulated history.
    """

    __slots__ = ("cores", "canonical_form", "truncation_error")

    def __init__(self, cores, canonical_form: str = "none",
                 truncation_error: float = 0.0):
        cores = tuple(np.ascontiguousarray(c, dtype=complex) for c in cores)
        if not cores:
            raise ShapeError("a tensor train needs at least one core")
        for j, c in enumerate(cores):
            if c.ndim != 3 or c.shape[1] != 2:
                raise ShapeError(
                    f"core {j} has shape {c.shape}, expected (left, 2, right)")
            if c.shape[0] < 1 or c.shape[2] < 1:
                raise ShapeError(f"core {j} has a zero bond dimension")
        if cores[0].shape[0] != 1:
            raise ShapeError("first core must have left bond 1")
        if cores[-1].shape[2] != 1:
            raise ShapeError("last core must have right bond 1")
        for j in range(len(cores) - 1):
            if cores[j].shape[2] != cores[j + 1].shape[0]:
                raise ShapeError(
                    f"bond mismatch between cores {j} and {j + 1}: "
                    f"{cores[j].shape[2]} vs {cores[j + 1].shape[0]}")
        if canonical_form not in ("none", "left", "right"):
            raise ValueError(f"unknown canonical form {canonical_form!r}")
        self.cores = cores
        self.canonical_form = canonical_form
        self.truncation_error = float(truncation_error)

    @property
    def n_sites(self) -> int:
        return len(self.cores)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        """Internal bond dimensions (empty for a single-site train)."""
        return tuple(c.shape[2] for c in self.cores[:-1])

    def __repr__(self) -> str:
        bonds = ",".join(str(b) for b in self.bond_dims) or "-"
        return (f"TensorTrain(n_sites={self.n_sites}, bonds=[{bonds}], "
                f"form={self.canonical_form})")


def from_dense(v, tol: float = 0.0) -> TensorTrain:
    """Factor a dense vector into a tensor train by sequential SVD.

    Parameters
    ----------
    v : array_like
        Complex vector of length 2^n, n >= 1.
    tol : float
        Relative accuracy target.  Each unfolding is truncated at
        ``tol * ||v|| / sqrt(n_bonds)`` so the total reconstruction error
        stays below ``tol * ||v||``.  With ``tol = 0`` only singular values
        at the machine-noise floor are dropped, which yields the exact
        numerical ranks.  The floor is eps times the larger of
        ``max(shape) * s_0`` and ``n * ||v||``, the earlier SVDs' round-off.

    Returns
    -------
    TensorTrain
        "left" train whose dense expansion matches ``v``: every core but
        the last is the left singular factor of its unfolding, and the last
        carries the norm.  Each unfolding is factored on its tall side, so
        the wide first unfoldings, (2, 2^(n-1)) and on, go through their
        transposes.
    """
    entries = np.ascontiguousarray(v, dtype=complex)
    if entries.ndim != 1:
        raise ShapeError(f"expected a 1-d array, got shape {entries.shape}")
    size = entries.size
    if size < 2 or (size & (size - 1)) != 0:
        raise ShapeError(f"length must be a power of two >= 2, got {size}")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    n = size.bit_length() - 1
    nrm = float(np.linalg.norm(entries))
    delta = tol * nrm / np.sqrt(max(n - 1, 1))
    cores = []
    discarded = 0.0
    C = entries.reshape(1, -1)
    r_prev = 1
    for _ in range(n - 1):
        C = C.reshape(r_prev * 2, -1)
        U, S, Vt = _svd(C)
        floor = _EPS * max(max(C.shape) * (S[0] if S.size else 0.0), n * nrm)
        r = int(np.count_nonzero(S > max(delta, floor)))
        r = max(r, 1)
        discarded += float(np.sum(S[r:] ** 2))
        cores.append(U[:, :r].reshape(r_prev, 2, r))
        C = S[:r, None] * Vt[:r]
        r_prev = r
    cores.append(C.reshape(r_prev, 2, 1))
    return TensorTrain(cores, canonical_form="left",
                       truncation_error=float(np.sqrt(discarded)))


def _svd(M: np.ndarray):
    """Thin SVD (U, S, Vh) of a matrix, factored on its tall side.

    LAPACK's SVD of a wide matrix costs more than that of its transpose:
    at one BLAS thread a (2, 2048) block took 150 us against 95 us, and an
    (8, 512) one 230 us against 130 us.  So a matrix with fewer rows than
    columns is factored as M^T = U' S Vh' and returned as
    M = Vh'^T S U'^T; a transpose of orthonormal columns or rows keeps them
    orthonormal, and needs no conjugation.
    """
    if M.shape[0] < M.shape[1]:
        U, S, Vh = np.linalg.svd(M.T, full_matrices=False)
        return Vh.T, S, U.T
    return np.linalg.svd(M, full_matrices=False)


def canonical_sum(trains, coeffs) -> TensorTrain | list[TensorTrain]:
    """Left-canonical form of sum_g coeffs[g] * trains[g], exactly, with no
    bond wider than the sites to its right.

    A left-to-right QR sweep over the direct sum of the trains, done block
    by block: at each site the carried R multiplies every train's core and
    the products are concatenated along the right bond and factored.  No
    block-diagonal core is built.  The sweep stops at the first site j
    whose new bond, min(2 * left bond, summed right bonds), would be wider
    than 2^p, the dimension of the p = n - j - 1 sites to its right; the
    stopping site depends on the trains' shapes only.  Each train's tail,
    sites j..n-1, is contracted into a (left bond, 2^(p+1)) block.  The
    carried R times the blocks, each scaled by its coefficient, is the
    summed tail, which p QRs refactor into cores.  So bond k is at most
    min(2^(k+1), 2^(n-k-1)), and before site j at most the summed bonds.
    The result is "left", so :func:`round` can truncate it without a QR
    sweep of its own.

    Coefficients enter only in the tail: a matrix of them returns one sum
    per row, each equal to its row's one-row sum bit for bit.  The rows
    share the sweep's j QRs and its j read-only cores; each row adds its
    own p tail QRs.
    """
    trains = list(trains)
    matrix = np.ndim(coeffs) == 2
    rows = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    if not trains:
        raise ValueError("need at least one train")
    if rows.shape[1] != len(trains):
        raise ValueError(
            f"{rows.shape[1]} coefficients for {len(trains)} trains")
    n = trains[0].n_sites
    for t in trains[1:]:
        if t.n_sites != n:
            raise ShapeError(f"site mismatch: {n} vs {t.n_sites}")
    # the R factor carried into site j, one column block per train
    blocks = [np.ones((1, 1), dtype=complex)] * len(trains)
    cores = []
    j = 0
    while j < n - 1:
        widths = [t.cores[j].shape[2] for t in trains]
        if min(2 * len(blocks[0]), sum(widths)) > 2 ** (n - j - 1):
            break
        M = np.concatenate(
            [(B @ t.cores[j].reshape(B.shape[1], -1)).reshape(-1, w)
             for B, t, w in zip(blocks, trains, widths)], axis=1)
        Q, R = np.linalg.qr(M)
        cores.append(Q.reshape(-1, 2, Q.shape[1]))
        cores[-1].flags.writeable = False
        blocks = np.split(R, np.cumsum(widths)[:-1], axis=1)
        j += 1
    R = np.concatenate(blocks, axis=1)
    tails = [_tail(t.cores[j:]) for t in trains]
    T = np.concatenate(tails)
    sizes = [len(x) for x in tails]
    sums = []
    for row in rows:
        X = R @ (np.repeat(row, sizes)[:, None] * T)
        tail = []
        for _ in range(n - j - 1):
            Q, X = np.linalg.qr(X.reshape(2 * len(X), -1))
            tail.append(Q.reshape(-1, 2, Q.shape[1]))
        sums.append(TensorTrain(cores + tail + [X.reshape(-1, 2, 1)],
                                canonical_form="left"))
    return sums if matrix else sums[0]


def _tail(cores) -> np.ndarray:
    """The cores' contraction as a (left bond, 2^sites) matrix."""
    T = cores[-1].reshape(-1, 2)
    for c in reversed(cores[:-1]):
        T = (c.reshape(-1, c.shape[2]) @ T).reshape(c.shape[0], -1)
    return T


def _centre(a: TensorTrain) -> int:
    """Index of the core that carries the norm: the last of a "left" train,
    the first otherwise."""
    return len(a.cores) - 1 if a.canonical_form == "left" else 0


def scale(a: TensorTrain, c: complex) -> TensorTrain:
    """Multiply by a scalar.

    The scalar is absorbed into the core that carries the norm (the last
    of a "left" train, the first otherwise), so the canonical form is
    kept.
    """
    cores = list(a.cores)
    j = _centre(a)
    cores[j] = cores[j] * complex(c)
    return TensorTrain(cores, canonical_form=a.canonical_form)


def tensor_product(a: TensorTrain, b: TensorTrain) -> TensorTrain:
    """Kronecker product; the connecting bond has dimension 1.

    The product is "left" when ``b`` is "left" and ``a`` is a "left" train
    of unit norm (to 1e-12): then ``a``'s last core is an isometry too, so
    every core of the product but the last is one.  Otherwise it is "none".
    """
    left = (a.canonical_form == b.canonical_form == "left"
            and abs(norm(a) - 1.0) <= 1e-12)
    return TensorTrain(list(a.cores) + list(b.cores),
                       canonical_form="left" if left else "none")


def _overlaps(trains, bra, ket) -> np.ndarray:
    """<trains[bra[p]], trains[ket[p]]> for every pair p, in one sweep.

    The standard left-to-right contraction, run for all pairs at once.  At
    each site the cores are zero-padded to the site's largest bonds and
    stacked as (n, l, 2, r); the padding adds only zero terms.  The pairs'
    environments are one (P, l, l) array, advanced by two batched matmuls
    per site, E <- A[bra] @ (E @ B[ket]), where A is the conjugated,
    transposed stack.  Working memory is O(P r^2) for the largest bond r.
    The padded stacks are copies: no input core is written.
    """
    n_sites = trains[0].n_sites
    for t in trains[1:]:
        if t.n_sites != n_sites:
            raise ShapeError(f"site mismatch: {n_sites} vs {t.n_sites}")
    E = np.ones((len(bra), 1, 1), dtype=complex)
    for j in range(n_sites):
        cores = [t.cores[j] for t in trains]
        l = E.shape[1]
        r = max(c.shape[2] for c in cores)
        B = np.zeros((len(cores), l, 2, r), dtype=complex)
        for b, c in zip(B, cores):
            b[:c.shape[0], :, :c.shape[2]] = c
        A = B.reshape(-1, 2 * l, r).conj().transpose(0, 2, 1)
        T = E @ B.reshape(-1, l, 2 * r)[ket]
        E = A[bra] @ T.reshape(-1, 2 * l, r)
    return E[:, 0, 0]


def inner_product(a: TensorTrain, b: TensorTrain) -> complex:
    """<a, b>, conjugate-linear in the first argument."""
    return complex(_overlaps([a, b], [0], [1])[0])


def gram(trains) -> np.ndarray:
    """Gram matrix G[i, j] = <t_i, t_j> of unit-norm trains.

    Every caller passes unit-norm trains, so the diagonal is set to exactly
    1 rather than computed.  The P = n(n-1)/2 pairs of the upper triangle
    are contracted together in one batched left-to-right sweep (working
    memory O(P r^2) for the largest bond r) and mirrored conjugately, so
    G is Hermitian bit for bit.
    """
    trains = list(trains)
    n = len(trains)
    G = np.eye(n, dtype=complex)
    if n > 1:
        bra, ket = np.triu_indices(n, 1)
        G[bra, ket] = _overlaps(trains, bra, ket)
        G[ket, bra] = G[bra, ket].conj()
    return G


def norm(a: TensorTrain) -> float:
    """2-norm of the encoded vector.

    A "left" or "right" train carries its norm in its last or first core,
    whose Frobenius norm is read directly; any other train is
    left-canonicalized first, for stability.
    """
    if a.canonical_form == "none":
        a = left_canonicalize(a)
    return float(np.linalg.norm(a.cores[_centre(a)]))


def left_canonicalize(a: TensorTrain) -> TensorTrain:
    """Left-to-right QR sweep; a "left" train is trusted and returned as is.

    Every core except the last becomes a left isometry; the last core
    carries the norm.  The encoded vector is unchanged.  Bond dimensions
    can only shrink (QR exposes rank deficiencies, it never pads).
    """
    if a.canonical_form == "left":
        return a
    cores = list(a.cores)
    for j in range(len(cores) - 1):
        l, _, r = cores[j].shape
        Q, R = np.linalg.qr(cores[j].reshape(l * 2, r))
        cores[j] = Q.reshape(l, 2, Q.shape[1])
        nxt = cores[j + 1]
        cores[j + 1] = (R @ nxt.reshape(r, -1)).reshape(-1, 2, nxt.shape[2])
    return TensorTrain(cores, canonical_form="left",
                       truncation_error=a.truncation_error)


def round(a: TensorTrain, svd_cutoff: float) -> TensorTrain:
    """Recompress with a relative singular-value cutoff.

    Two passes: a left-canonicalization sweep, skipped when ``a`` is
    already "left", then a right-to-left SVD sweep.  At each bond,
    singular values ``s_i <= svd_cutoff * s_0`` are discarded (the largest
    one always survives).  Because the untouched side of the chain stays
    canonical during the second sweep, the discarded weights add in
    quadrature and

        ||dense(a) - dense(result)|| <= sqrt(sum of discarded s^2),

    which the result reports as its ``truncation_error``.  The sweep
    leaves every core but the first a right isometry, so the result is
    "right".  Each core's (left, 2 right) unfolding is factored on its
    tall side (through its transpose when it is wide).  This is
    the one-cutoff case of :func:`round_each`.

    Parameters
    ----------
    a : TensorTrain
    svd_cutoff : float
        Relative cutoff in [0, inf).  0 drops only exact zeros; 1 collapses
        every bond to dimension 1.
    """
    return round_each(a, [svd_cutoff])[0]


def round_each(a: TensorTrain, cutoffs) -> list[TensorTrain]:
    """``[round(a, c) for c in cutoffs]``, bit for bit, in one shared sweep.

    The cutoffs share the orthogonalization and the right-to-left sweep.
    A branch of the sweep carries the cutoffs whose kept ranks have agreed
    at every bond so far; their cores are equal bit for bit, so the branch
    makes one SVD per site for all of them.  At a bond where their kept
    ranks differ, the branch splits into one branch per rank.  Equal
    cutoffs share one result.
    """
    cutoffs = [float(c) for c in cutoffs]
    if any(c < 0 for c in cutoffs):
        raise ValueError("svd_cutoff must be nonnegative")
    if not cutoffs:
        return []
    t = a if a.canonical_form == "left" else left_canonicalize(a)
    # (indices into cutoffs, cores, discarded weight) per branch
    branches = [(range(len(cutoffs)), list(t.cores), 0.0)]
    for j in range(t.n_sites - 1, 0, -1):
        split = []
        for members, cores, discarded in branches:
            l, _, r = cores[j].shape
            U, S, Vt = _svd(cores[j].reshape(l, 2 * r))
            by_rank = {}
            for i in members:
                # the values above cutoff * S[0], and at least one
                k = (max(int(np.count_nonzero(S > cutoffs[i] * S[0])), 1)
                     if S.size and S[0] > 0 else 1)
                by_rank.setdefault(k, []).append(i)
            for k, group in by_rank.items():
                kept = cores if len(by_rank) == 1 else list(cores)
                kept[j] = Vt[:k].reshape(k, 2, r)
                prev = cores[j - 1]
                kept[j - 1] = (prev.reshape(-1, l) @ (U[:, :k] * S[:k])
                               ).reshape(prev.shape[0], 2, k)
                split.append((group, kept,
                              discarded + float(np.sum(S[k:] ** 2))))
        branches = split
    out = [None] * len(cutoffs)
    for members, cores, discarded in branches:
        rounded = TensorTrain(cores, canonical_form="right",
                              truncation_error=float(np.sqrt(discarded)))
        for i in members:
            out[i] = rounded
    return out


def max_bond_dim(a: TensorTrain) -> int:
    """Largest internal bond dimension; 1 for a single-site train."""
    if a.n_sites == 1:
        return 1
    return max(c.shape[2] for c in a.cores[:-1])


def to_debug_json(t: TensorTrain) -> dict:
    """JSON-serializable dump: core shapes plus entries as [re, im] pairs."""
    return {
        "shapes": [list(c.shape) for c in t.cores],
        "cores": [np.stack([c.real, c.imag], -1).reshape(-1, 2).tolist()
                  for c in t.cores],
    }


def from_debug_json(d: dict) -> TensorTrain:
    """Inverse of :func:`to_debug_json`."""
    cores = []
    for shape, flat in zip(d["shapes"], d["cores"]):
        pairs = np.asarray(flat, dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("core entries must be [re, im] pairs, "
                             f"got shape {pairs.shape}")
        cores.append(pairs.view(complex).reshape(shape))
    return TensorTrain(cores)
