"""Dense complex linear algebra shared by every verification module.

Matrices are plain ``numpy.ndarray`` (complex128, row-major).  Antilinear
maps ``psi -> M conj(psi)`` get a tiny wrapper so compositions and
conjugations stay one-liners.  Everything here is pure and immutable.

Sampled checks evaluate stacks of samples, arrays of shape ``(k, n, n)``;
``adjoint``, ``op_norms`` and ``AntilinearOp.sandwich`` act on each matrix
of a stack, and ``chunk_sizes`` caps how many samples one stack holds.
Identities over generator tables are normed the same way (``table_norm``).
A norm that only meets a threshold is decided by ``norm_within``, which
needs an SVD only for matrices near the threshold.

Operands are validated where data enters: the constructors of the triple
data and of ``AntilinearOp`` coerce them to finite complex128 matrices and
reject NaN and inf.  Kernels trust their operands.  A non-finite entry that arises
inside one gets norm NaN from ``op_norms``, so its residual fails its check
(``nan <= tol`` is false) and every threshold guard rejects it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ShapeError",
    "NotASignError",
    "BUILD_TOL",
    "STACK_ENTRIES",
    "TABLE_ENTRIES",
    "as_cmat",
    "adjoint",
    "kron",
    "op_norm",
    "op_norms",
    "norm_within",
    "FROBENIUS_TOL_FLOOR",
    "chunk_sizes",
    "gaussian_stacks",
    "max_residual",
    "table_norm",
    "residual_norm",
    "commutator",
    "anticommutator",
    "AntilinearOp",
    "sign_of_pair",
]


class ShapeError(ValueError):
    """Operands have incompatible or disallowed shapes."""


class NotASignError(ValueError):
    """An operator pair neither commutes nor anticommutes within tolerance."""


# Largest number of complex entries in one operand stack of a sampled check.
# Uncapped 100-sample stacks of 32x32 matrices raised the peak RSS of a
# dimension-10 run by 3.2-3.7 MB (2 vCPU, OpenBLAS); stacks of 2**14 entries
# added none and ran at least as fast at every dimension from 2 to 32.
STACK_ENTRIES = 1 << 14

# Largest number of complex entries in one operand of a ``table_norm`` chunk.
# Dimension-10 generator tables in chunks of STACK_ENTRIES (256 KiB operands,
# above glibc's default mmap threshold) page-faulted their temporaries on every
# chunk and ran 25% slower than one SVD per entry; 64 KiB chunks do not.
TABLE_ENTRIES = 1 << 12


# the tolerance of construction guards and unit-sign measurements
BUILD_TOL = 1e-12


def as_cmat(a) -> np.ndarray:
    """Coerce an operand entering a constructor to a finite complex128 matrix.

    Raises ShapeError unless it is a matrix and ValueError on a NaN or inf
    entry; kernels downstream do not check again.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN/Inf entries")
    return m


def chunk_sizes(count: int, dim: int) -> list[int]:
    """Split ``count`` samples of dim x dim operands into stacks of at most
    ``STACK_ENTRIES`` entries (at least one sample per stack)."""
    step = max(1, STACK_ENTRIES // (dim * dim))
    return [min(step, count - start) for start in range(0, count, step)]


def gaussian_stacks(rng: np.random.Generator, count: int, dim: int, shapes, complex_: bool = False):
    """Yield operand stacks of ``count`` Gaussian samples, one chunk at a time.

    Each chunk holds ``chunk_sizes(count, dim)`` samples and yields one
    array of shape ``(k, *shape)`` per entry of ``shapes``.  A chunk is a
    single ``rng.normal`` call whose rows are the samples and whose columns
    hold each operand whole, in order, the real part before the imaginary
    part when ``complex_``.  Generator streams are sequential, so the samples
    and the final generator state equal those of a loop drawing every operand
    with its own ``rng.normal(size=shape)`` (``+ 1j * rng.normal(size=shape)``).
    """
    sizes = [int(np.prod(shape, dtype=int)) * (2 if complex_ else 1) for shape in shapes]
    for k in chunk_sizes(count, dim):
        flat = rng.normal(size=(k, sum(sizes)))
        stacks, start = [], 0
        for shape, size in zip(shapes, sizes):
            block = flat[:, start : start + size]
            start += size
            if complex_:
                block = block[:, : size // 2] + 1j * block[:, size // 2 :]
            stacks.append(block.reshape((k, *shape)))
        yield stacks


def _worst(values, start: float = 0.0) -> float:
    """Running maximum of ``values`` from ``start``; NaN once a value is NaN,
    so that a NaN residual fails its check (``nan <= tol`` is false)."""
    worst = start
    for value in values:
        if np.isnan(value):
            return float("nan")
        worst = max(worst, value)
    return worst


def max_residual(stacks, residuals) -> float:
    """Largest value of ``residuals(*operands)`` over an iterable of stacks (NaN if any is NaN)."""
    return _worst(float(np.max(residuals(*operands))) for operands in stacks)


def table_norm(entries, shape: tuple, dim: int) -> float:
    """Largest operator norm over a table of dim x dim matrices of the given shape.

    ``entries(*idx)`` returns the entries at the index arrays ``idx`` (one per
    axis) as one stack; chunks of at most ``TABLE_ENTRIES`` entries per
    operand are each normed by one batched SVD.
    """
    count, step = int(np.prod(shape)), max(1, TABLE_ENTRIES // (dim * dim))
    indices = (np.unravel_index(np.arange(i, min(i + step, count)), shape)
               for i in range(0, count, step))
    return max_residual(indices, lambda *idx: op_norms(entries(*idx)))


def adjoint(a) -> np.ndarray:
    """Conjugate transpose (of each matrix, for a stack)."""
    a = np.asarray(a)
    return np.conj(a).swapaxes(-1, -2) if a.ndim > 2 else np.conj(a).T


def kron(a, b) -> np.ndarray:
    """Kronecker product, kron(A,B) @ kron(C,D) = kron(AC, BD)."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def op_norm(a) -> float:
    """Largest singular value of a square matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"op_norm needs a square matrix, got shape {m.shape}")
    return float(op_norms(m))


def op_norms(a) -> np.ndarray:
    """Largest singular value of each square matrix of a stack (..., n, n).

    One batched SVD; each matrix goes through the same LAPACK routine as a
    single ``op_norm`` call, so the values agree bit for bit.  A stack with
    no nonzero entry (empty ones included) skips the SVD: its norms are the
    SVD's exact +0.0.  A matrix with a NaN or inf entry has norm NaN without
    an SVD: LAPACK raises on NaN and, given infs, may print an error line to
    a standard stream.  Only a stack with such an entry is checked per matrix.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ShapeError(f"op_norm needs a square matrix, got shape {m.shape}")
    if not m.any():
        return np.zeros(m.shape[:-2])
    if np.isfinite(m).all():
        return np.linalg.svd(m, compute_uv=False)[..., 0]
    finite = np.isfinite(m).all(axis=(-2, -1))
    norms = np.full(m.shape[:-2], np.nan)
    norms[finite] = op_norms(m[finite])
    return norms


# Smallest tolerance ``norm_within`` decides from the Frobenius norm: squares of
# entries below 1e-154 underflow, which cannot move |A|_F by a factor 2 above it.
FROBENIUS_TOL_FLOOR = 1e-150


def norm_within(a, tol: float):
    """The verdict ``op_norm(a) <= tol``: a bool for a matrix, a bool array for
    a stack (..., n, n).

    |A|_2 <= |A|_F <= sqrt(n) |A|_2 (Golub & Van Loan, Matrix Computations,
    section 2.3) decides most matrices from the Frobenius norm, one dot
    product each: yes when |A|_F <= tol/2, no when |A|_F is finite and
    exceeds 2 tol sqrt(n).  The factor 2 dwarfs the roundoff of both norms,
    so the verdict is the SVD's.  The matrices in between, every one with a
    NaN or inf entry among them, go to ``op_norms`` and compare exactly as
    it does (NaN: never within); so do all matrices when tol is below
    ``FROBENIUS_TOL_FLOOR``.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ShapeError(f"op_norm needs a square matrix, got shape {m.shape}")
    decides = tol >= FROBENIUS_TOL_FLOOR
    bound = 2.0 * tol * math.sqrt(m.shape[-1])
    if m.ndim == 2:
        fro = math.sqrt(np.vdot(m, m).real)
        if decides and math.isfinite(fro) and (fro <= tol / 2 or fro > bound):
            return fro <= tol / 2
        return bool(op_norms(m) <= tol)
    parts = np.ascontiguousarray(m.reshape(*m.shape[:-2], -1)).view(np.float64)
    fro = np.sqrt(np.einsum("...i,...i->...", parts, parts))
    verdict = fro <= tol / 2
    open_ = ~(decides & np.isfinite(fro) & (verdict | (fro > bound)))
    if open_.any():
        verdict[open_] = op_norms(m[open_]) <= tol
    return verdict


def residual_norm(a, b=None) -> float:
    """Operator norm of A - B (of A itself when B is omitted)."""
    m = np.asarray(a, dtype=np.complex128)
    if b is not None:
        m = m - np.asarray(b, dtype=np.complex128)
    return op_norm(m)


def commutator(a, b) -> np.ndarray:
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    return a @ b + b @ a


@dataclass(frozen=True)
class AntilinearOp:
    """Antilinear operator psi -> mat @ conj(psi).

    Compositions of two antilinear operators are linear with matrix
    ``A.mat @ conj(B.mat)``; sandwiching a linear operator gives
    ``J A J^-1 = mat @ conj(A) @ inv(mat)``.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = as_cmat(self.mat)
        if m.shape[0] != m.shape[1]:
            raise ShapeError("antilinear operators must be square")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __call__(self, psi) -> np.ndarray:
        return self.mat @ np.conj(np.asarray(psi, dtype=np.complex128))

    def compose(self, other: "AntilinearOp") -> np.ndarray:
        """Linear matrix of self o other."""
        return self.mat @ np.conj(other.mat)

    def square(self) -> np.ndarray:
        """Linear matrix of J o J, i.e. mat @ conj(mat)."""
        return self.compose(self)

    @cached_property
    def _mat_inv(self) -> np.ndarray:
        if abs(np.linalg.det(self.mat)) < 1e-14:
            raise ValueError("singular antilinear matrix cannot be inverted")
        return np.linalg.inv(self.mat)

    def sandwich(self, a) -> np.ndarray:
        """J A J^-1 as a linear operator: mat @ conj(A) @ inv(mat).

        ``a`` may be a stack of matrices; inv(mat) is computed on first use.
        """
        return self.mat @ np.conj(a) @ self._mat_inv


def sign_of_pair(x, y) -> int:
    """Return s in {+1,-1} with |X - s Y| <= BUILD_TOL, or raise NotASignError.

    Prefers +1 in the degenerate case X = Y = 0.
    """
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if norm_within(x - y, BUILD_TOL):
        return +1
    if norm_within(x + y, BUILD_TOL):
        return -1
    raise NotASignError(
        f"no unit sign relates the operators: |X-Y|={residual_norm(x, y):.3e}, "
        f"|X+Y|={residual_norm(x, -y):.3e}"
    )
