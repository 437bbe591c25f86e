"""NPB CG — conjugate-gradient eigenvalue estimation, complete.

"Uses a Conjugate Gradient method to compute an approximation to the
smallest eigenvalue of a large, sparse, and unstructured matrix ... a
large amount of cache misses due to its usage of a matrix with randomly
generated locations of entries."  (paper, Sec. V)

The full NPB algorithm:

1. ``makea`` builds the sparse symmetric matrix
   ``A = sum_i size_i * w_i w_i^T + (rcond - shift) * I`` where each
   ``w_i`` is a sparse random vector from the official LCG stream
   (``tran = 314159265``), with a geometric condition-number ramp
   ``size_i = rcond^(i/n)``.
2. Inverse power iteration: ``niter`` outer steps, each solving
   ``A z = x`` with 25 unpreconditioned CG iterations and updating
   ``zeta = shift + 1 / (x . z)``, ``x = z / ||z||``.

Verification compares the final ``zeta`` with the published class
constants to 1e-10, exactly like the official suite.  The sparse matrix
uses CSR via scipy; the gather the paper discusses (``x[colidx[k]]``) is
the SpMV inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro._util import require_positive
from repro.npb.classes import CLASSES
from repro.npb.lcg import A_NPB, mulmod46

if TYPE_CHECKING:  # scipy is imported lazily: importing this module is cheap
    import scipy.sparse as sp

__all__ = ["CG_VERIFY", "CGResult", "run_cg", "make_cg_matrix"]

#: official NPB verification zeta per class
CG_VERIFY: dict[str, float] = {
    "S": 8.5971775078648,
    "W": 10.362595087124,
    "A": 17.130235054029,
    "B": 22.712745482631,
    "C": 28.973605592845,
}

_MOD46_MASK = (1 << 46) - 1
_R46 = 0.5**46
_TRAN0 = 314159265
_RCOND = 0.1
_CG_INNER_ITERS = 25
_NITER = {"S": 15, "W": 15, "A": 15, "B": 75, "C": 75}


class _SerialRandlc:
    """Scalar NPB randlc with exact integer state (fast inner loop)."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MOD46_MASK

    def next(self) -> float:
        self.state = int(mulmod46(np.int64(self.state), np.int64(A_NPB)))
        return self.state * _R46


def _sprnvc(n: int, nz: int, nn1: int, rng: _SerialRandlc) -> tuple[list[float], list[int]]:
    """NPB sprnvc: nz distinct random (value, 1-based index) pairs."""
    v: list[float] = []
    iv: list[int] = []
    while len(v) < nz:
        vecelt = rng.next()
        vecloc = rng.next()
        i = int(vecloc * nn1) + 1
        if i > n:
            continue
        if i in iv:
            continue
        v.append(vecelt)
        iv.append(i)
    return v, iv


def _vecset(v: list[float], iv: list[int], ival: int, val: float) -> None:
    """NPB vecset: set element *ival* to *val*, appending if absent."""
    for k, idx in enumerate(iv):
        if idx == ival:
            v[k] = val
            return
    v.append(val)
    iv.append(ival)


def make_cg_matrix(
    n: int, nonzer: int, shift: float, rcond: float = _RCOND
) -> sp.csr_matrix:
    """The official ``makea`` matrix as CSR (0-based).

    Reproduces the NPB stream exactly: one warm-up ``randlc`` call (the
    driver's ``zeta = randlc(&tran, amult)``) precedes generation.
    """
    import scipy.sparse as sp

    require_positive(n, "n")
    require_positive(nonzer, "nonzer")
    rng = _SerialRandlc(_TRAN0)
    rng.next()  # the driver's first call before makea

    nn1 = 1
    while nn1 < n:
        nn1 <<= 1

    rows_v: list[list[float]] = []
    rows_i: list[list[int]] = []
    for iouter in range(n):
        v, iv = _sprnvc(n, nonzer, nn1, rng)
        _vecset(v, iv, iouter + 1, 0.5)
        rows_v.append(v)
        rows_i.append(iv)

    # assembly: A = sum_i size_i * w_i w_i^T + (rcond - shift) I
    ratio = rcond ** (1.0 / n)
    size = 1.0
    coo_i: list[np.ndarray] = []
    coo_j: list[np.ndarray] = []
    coo_d: list[np.ndarray] = []
    for iouter in range(n):
        vals = np.asarray(rows_v[iouter])
        idxs = np.asarray(rows_i[iouter], dtype=np.int64) - 1
        block = size * np.outer(vals, vals)
        jj, kk = np.meshgrid(idxs, idxs, indexing="ij")
        coo_i.append(jj.ravel())
        coo_j.append(kk.ravel())
        coo_d.append(block.ravel())
        size *= ratio
    diag_idx = np.arange(n, dtype=np.int64)
    coo_i.append(diag_idx)
    coo_j.append(diag_idx)
    coo_d.append(np.full(n, rcond - shift))
    a = sp.coo_matrix(
        (np.concatenate(coo_d), (np.concatenate(coo_i), np.concatenate(coo_j))),
        shape=(n, n),
    ).tocsr()
    a.sum_duplicates()
    return a


def _conj_grad(a: sp.csr_matrix, x: np.ndarray) -> tuple[np.ndarray, float]:
    """One NPB conj_grad call: 25 CG iterations on ``A z = x``.

    Returns ``(z, rnorm)`` with ``rnorm = ||x - A z||``.
    """
    z = np.zeros_like(x)
    r = x.copy()
    p = r.copy()
    rho = float(r @ r)
    for _ in range(_CG_INNER_ITERS):
        q = a @ p
        alpha = rho / float(p @ q)
        z += alpha * p
        r -= alpha * q
        rho0 = rho
        rho = float(r @ r)
        p = r + (rho / rho0) * p
    res = x - a @ z
    return z, float(np.sqrt(res @ res))


@dataclass(frozen=True)
class CGResult:
    """Outcome of one CG run."""

    klass: str
    n: int
    zeta: float
    rnorm: float
    niter: int

    @property
    def verified(self) -> bool:
        """True when zeta matches the official class verification value."""
        ref = CG_VERIFY.get(self.klass)
        if ref is None:
            return False
        return abs(self.zeta - ref) <= 1e-10


def run_cg(klass: str = "S") -> CGResult:
    """Run the full CG benchmark for *klass* and return the zeta estimate."""
    if klass not in CLASSES:
        raise KeyError(f"unknown NPB class {klass!r}")
    pc = CLASSES[klass]
    n, nonzer, shift = pc.cg_n, pc.cg_nonzer, pc.cg_shift
    niter = _NITER[klass]
    a = make_cg_matrix(n, nonzer, shift)

    x = np.ones(n)
    # one untimed warm-up iteration, then reset x (as the official driver)
    _conj_grad(a, x)
    x = np.ones(n)

    zeta = 0.0
    rnorm = 0.0
    for _ in range(niter):
        z, rnorm = _conj_grad(a, x)
        zeta = shift + 1.0 / float(x @ z)
        x = z / float(np.sqrt(z @ z))
    return CGResult(klass=klass, n=n, zeta=zeta, rnorm=rnorm, niter=niter)
