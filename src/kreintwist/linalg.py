"""Dense complex linear algebra shared by every verification module.

Matrices are plain ``numpy.ndarray`` (complex128, row-major).  Antilinear
maps ``psi -> M conj(psi)`` get a tiny wrapper so compositions and
conjugations stay one-liners.  Everything here is pure and immutable.

The structural operators (K, Gamma, J and its inverse, and their product
counterparts) have exactly one nonzero entry per row and column, each
exactly +-1 or +-i.  Their constructors classify those of size
``GATHER_MIN_DIM`` and more as ``SignedPermutation``: still the dense
matrix, but a product with it is a gather of rows or columns times a
phase, O(n^2) instead of O(n^3), and equal to the BLAS product byte for
byte; ``diagonal_sandwich`` conjugates a diagonal by them as a gather of
its entries.

Sampled checks evaluate stacks of samples, arrays of shape ``(k, n, n)``;
``adjoint``, ``kron``, ``op_norms`` and ``AntilinearOp.sandwich`` act on
each matrix of a stack.  Sampled operands are drawn whole (``gaussian_draws``);
the reducers ``max_residual``, ``max_gap_norm`` and ``table_norm`` cut them
into the capped slices of ``chunks``.  A norm that only meets a threshold
is decided by ``norm_within``, and a record that keeps only the largest
norm of its stacks by ``max_norm``; both take an SVD only of the matrices
that cheap bounds on the norm cannot decide.

Operands are validated where data enters: the constructors of the triple
data and of ``AntilinearOp`` coerce them to finite complex128 matrices and
reject NaN and inf.  Kernels trust their operands.  A non-finite entry that arises
inside one gets norm NaN from ``op_norms`` and ``max_norm``, so its residual
fails its check (``nan <= tol`` is false) and every threshold guard rejects it.
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
    "max_norm",
    "chunks",
    "gaussian_draws",
    "max_residual",
    "max_gap_norm",
    "table_norm",
    "residual_norm",
    "commutator",
    "SignedPermutation",
    "GATHER_MIN_DIM",
    "signed_permutation",
    "diagonal_sandwich",
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
    entry; kernels downstream do not check again.  A ``SignedPermutation``
    is one already and is returned as it is.
    """
    if isinstance(a, SignedPermutation) and a.cols is not None:
        return a
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN/Inf entries")
    return m


# Smallest signed permutation that ``signed_permutation`` classifies, so that
# products with it are gathers.  Products through the type, dense against
# gathered (2 vCPU, OpenBLAS): n = 16, one matrix 4.8 against 7.8 us; n = 32,
# one matrix 11.2 against 13.9 us, a stack of 16 93 against 47 us; n = 128,
# one matrix 223 against 53 us.  Every ufunc on the type also pays a Python
# call, so smaller matrices, the structural operators of every signature of
# dimension 8 and less among them, stay plain arrays.
GATHER_MIN_DIM = 32


class SignedPermutation(np.ndarray):
    """A square complex128 matrix with exactly one nonzero entry per row and
    column, each exactly +-1 or +-i: row i holds ``phases[i]`` in column
    ``cols[i]``.  Built by ``signed_permutation``; read-only.

    It is the dense matrix, so every reader sees the same entries.  A matrix
    product with it on either side, of a vector, a matrix or a stack, is a
    gather of the other operand's rows (``P @ B``) or columns (``B @ P``)
    times the phases: O(n^2) instead of O(n^3).
    Each entry of the BLAS product sums one exact term and exact zeros, so
    the gather equals it byte for byte, given two details: the result is a
    new C-contiguous array, as a BLAS product is, so later products with it
    take the same BLAS path; and its zero entries are +0.0, as BLAS sums
    give them.  Every other operation acts on the plain dense matrix and
    returns plain arrays; views of one (``.T``, slices) have no pattern and
    multiply densely.
    """

    def __array_finalize__(self, obj):
        self.cols = self.phases = self._rows = self._col_phases = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and method == "__call__" and not kwargs:
            out = _gathered_product(*inputs)
            if out is not None:
                return out
        inputs = tuple(_plain(x) for x in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(_plain(x) for x in kwargs["out"])
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_wrap__(self, array, context=None, return_scalar=False):
        array = _plain(array)
        return array[()] if return_scalar else array


def _plain(x):
    return x.view(np.ndarray) if isinstance(x, SignedPermutation) else x


def _gathered_product(a, b):
    """``a @ b`` as a gather when a or b is a patterned ``SignedPermutation``
    and the other operand a float or complex array that matmul accepts with
    it; otherwise None."""
    if getattr(a, "cols", None) is not None:
        other, index, phases, axis = np.asarray(b), a.cols, a.phases, -2
    elif getattr(b, "cols", None) is not None:
        other, index, phases, axis = np.asarray(a), b._rows, b._col_phases, -1
    else:
        return None
    if other.ndim == 1:
        axis = -1
    if other.ndim == 0 or other.dtype.kind not in "fc" or other.shape[axis] != len(index):
        return None
    out = np.take(other.astype(np.complex128, copy=False), index, axis=axis)
    with np.errstate(invalid="ignore"):  # inf times a zero part is NaN, as in the BLAS sum
        np.multiply(out, phases[:, None] if axis == -2 else phases, out=out)
    out += 0.0  # -0.0 -> +0.0
    return out


def _unit_pattern(m: np.ndarray):
    """(cols, phases) when ``m`` is a square complex128 matrix with exactly one
    nonzero entry per row and column, each exactly +-1 or +-i; else None."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.dtype != np.complex128:
        return None
    n, nonzero = len(m), m != 0
    cols = nonzero.argmax(axis=1)
    phases = m[np.arange(n), cols]
    re, im = phases.real, phases.imag
    unit = ((np.abs(re) == 1) & (im == 0)) | ((re == 0) & (np.abs(im) == 1))
    if np.count_nonzero(nonzero) != n or not unit.all() or len(set(cols.tolist())) != n:
        return None
    return cols, phases


def signed_permutation(m) -> np.ndarray:
    """A read-only ``SignedPermutation`` copy of ``m`` when ``m`` is one (see
    there) of size at least ``GATHER_MIN_DIM``, ``m`` itself when it is one
    already; otherwise ``m`` as an array, unchanged."""
    if isinstance(m, SignedPermutation) and m.cols is not None:
        return m
    m = np.asarray(m)
    pattern = _unit_pattern(m) if m.ndim == 2 and len(m) >= GATHER_MIN_DIM else None
    if pattern is None:
        return m
    cols, phases = pattern
    p = np.array(m).view(SignedPermutation)
    p.setflags(write=False)
    p.cols, p.phases = cols, phases
    p._rows = np.argsort(cols)
    p._col_phases = phases[p._rows]
    return p


def _pattern(m) -> tuple[np.ndarray, np.ndarray]:
    """(cols, phases) of a signed permutation, classified or not; raises
    ValueError for any other matrix."""
    if isinstance(m, SignedPermutation) and m.cols is not None:
        return m.cols, m.phases
    pattern = _unit_pattern(np.asarray(m, dtype=np.complex128))
    if pattern is None:
        raise ValueError("a structural operator is not a signed permutation")
    return pattern


def diagonal_sandwich(p, x, q) -> np.ndarray:
    """The diagonal of P diag(x) Q for each row x of a (k, n) stack, P and Q
    signed permutations with Q's columns undoing P's (Q = P^-1, or P = Q an
    involution): entry i is x[cols_P[i]] times the unit phases of row i of P
    and of row cols_P[i] of Q.  The products are exact, so each entry equals
    that of the dense product P @ diag(x) @ Q up to the sign of a zero.
    Raises ValueError when P or Q is not a signed permutation or P diag(x) Q
    is not diagonal."""
    cols_p, phases_p = _pattern(p)
    cols_q, phases_q = (cols_p, phases_p) if q is p else _pattern(q)
    if not np.array_equal(cols_q[cols_p], np.arange(len(cols_p))):
        raise ValueError("P diag(x) Q is not diagonal")
    return np.asarray(x)[..., cols_p] * (phases_p * phases_q[cols_p])


def chunks(count: int, dim: int, entries: int = STACK_ENTRIES) -> list[slice]:
    """Slices cutting ``count`` samples of dim x dim operands into stacks of at
    most ``entries`` entries (``STACK_ENTRIES`` or ``TABLE_ENTRIES``), at
    least one sample per stack."""
    step = max(1, entries // (dim * dim))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def gaussian_draws(rng: np.random.Generator, count: int, shapes, complex_: bool = False) -> list:
    """``count`` Gaussian samples of each operand shape: one array of shape
    ``(count, *shape)`` per entry of ``shapes``.

    One ``rng.normal`` call, whose rows are the samples and whose columns
    hold each operand whole, in order, the real part before the imaginary
    part when ``complex_``.  Generator streams are sequential, so the samples
    and the final generator state equal those of a loop drawing every operand
    with its own ``rng.normal(size=shape)`` call (two when ``complex_``).
    """
    sizes = [math.prod(shape) * (2 if complex_ else 1) for shape in shapes]
    flat = rng.normal(size=(count, sum(sizes)))
    draws, start = [], 0
    for shape, size in zip(shapes, sizes):
        block = flat[:, start : start + size]
        start += size
        if complex_:
            block = block[:, : size // 2] + 1j * block[:, size // 2 :]
        draws.append(block.reshape((count, *shape)))
    return draws


def _worst(values, start: float = 0.0) -> float:
    """Running maximum of ``values`` from ``start``; NaN once a value is NaN,
    so that a NaN residual fails its check (``nan <= tol`` is false)."""
    worst = start
    for value in values:
        if np.isnan(value):
            return float("nan")
        worst = max(worst, value)
    return worst


def max_residual(residuals, operands, dim: int) -> float:
    """Largest value of ``residuals(*stacks)`` over the ``chunks`` of the operand
    arrays, samples along their first axis (NaN if any is NaN)."""
    return _worst(float(np.max(residuals(*(x[s] for x in operands))))
                  for s in chunks(len(operands[0]), dim))


def max_gap_norm(gaps, operands, dim: int, entries: int = STACK_ENTRIES) -> float:
    """Largest operator norm over the dim x dim gap matrices of the operand
    arrays, samples along their first axis.

    ``gaps(*stacks)`` returns a stack of matrices, or a tuple of stacks, for
    each chunk of the operands (``chunks``); the gaps of every chunk go to
    one ``max_norm`` call, whose cut is then the largest lower bound of them
    all.  The value equals ``max_residual`` over the ``op_norms`` of the gaps
    bit for bit, NaN if one chunk's is.
    """
    parts = []
    for s in chunks(len(operands[0]), dim, entries):
        gap = gaps(*(x[s] for x in operands))
        parts.extend(gap if isinstance(gap, tuple) else (gap,))
    return max_norm(*parts)


def table_norm(entries, shape: tuple, dim: int) -> float:
    """Largest operator norm over a table of dim x dim matrices of the given shape.

    ``entries(*idx)`` returns the entries at the index arrays ``idx`` (one per
    axis) as one stack; they are read in chunks of at most ``TABLE_ENTRIES``
    entries per operand (``max_gap_norm``).
    """
    return max_gap_norm(lambda i: entries(*np.unravel_index(i, shape)),
                        [np.arange(math.prod(shape))], dim, TABLE_ENTRIES)


def adjoint(a) -> np.ndarray:
    """Conjugate transpose (of each matrix, for a stack)."""
    a = np.asarray(a)
    return np.conj(a).swapaxes(-1, -2) if a.ndim > 2 else np.conj(a).T


def kron(a, b) -> np.ndarray:
    """Kronecker product, kron(A,B) @ kron(C,D) = kron(AC, BD): of each pair of
    matrices for two stacks, of a matrix with each matrix of a stack.

    Every entry is the one product ``np.kron`` forms for it, byte for byte.
    """
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def _square_stack(a) -> np.ndarray:
    """``a`` as a complex128 square matrix or stack of them (..., n, n);
    raises ShapeError for any other shape."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ShapeError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


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
    m = _square_stack(a)
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
    m = _square_stack(a)
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


# Relative margin by which ``max_norm``'s bounds must clear each other before
# a matrix is left out of the SVD; see there.
MAX_NORM_MARGIN = 2.0 ** -20

# Largest dimension ``max_norm`` prunes: up to it, every bound's roundoff is
# below n^2 u <= 2^-29, a 512th of the margin.
MAX_NORM_PRUNE_DIM = 1 << 12

# Smallest stack, in entries, that ``max_norm`` bounds before the SVD.  The
# bounds of a stack cost about 60 us whatever its size; the SVD of 20 4x4 or
# of 5 8x8 matrices costs 30-100 us, that of 5 32x32 matrices 500 us (2 vCPU).
MAX_NORM_MIN_ENTRIES = 1 << 10

# Frobenius norms, 2^-100 to 2^100, for which ``max_norm`` computes the lower
# and Gram bounds: no square, sum or product of their steps can underflow or
# overflow there.
_BOUND_RANGE = (2.0 ** -100, 2.0 ** 100)


def _norm_bounds(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|A|_F, L) for every matrix A of a C-contiguous (k, n, n) stack.

    L = |A^H a| / |a| for the column a of largest norm: one power step from
    that column, at least its norm and at most |A|_2, as |A^H x| <= |A|_2 |x|.
    L is 0 where |A|_F lies outside ``_BOUND_RANGE``.
    """
    parts = m.view(np.float64)  # real and imaginary parts side by side
    rows = np.einsum("kij,kij->ki", parts, parts)
    cols = np.einsum("kij,kij->kj", parts, parts)
    cols = cols[:, 0::2] + cols[:, 1::2]
    fro = np.sqrt(rows.sum(axis=1))
    k, j = np.arange(len(m)), cols.argmax(axis=1)
    step = (np.conj(m[k, :, j])[:, None, :] @ m).view(np.float64)  # (A^H a)^H
    lo = np.sqrt(np.einsum("kij,kij->k", step, step) / cols[k, j])
    lo[~((fro >= _BOUND_RANGE[0]) & (fro <= _BOUND_RANGE[1]))] = 0.0
    return fro, lo


def _frobenius(m: np.ndarray) -> np.ndarray:
    """|A|_F of every matrix of a C-contiguous complex (k, n, n) stack."""
    parts = m.view(np.float64)
    return np.sqrt(np.einsum("kij,kij->k", parts, parts))


def _gram_bound(m: np.ndarray, fro: np.ndarray, cut: float = 0.0) -> np.ndarray:
    """An upper bound of |A|_2 for every matrix A of a (k, n, n) stack whose
    Frobenius norms ``fro`` lie in ``_BOUND_RANGE``: the first bound below,
    and the smaller of both where the first, raised by ``MAX_NORM_MARGIN``,
    is not below ``cut`` (everywhere by default).

    |A|_2^4 = |(A^H A)^2|_2 <= |(A^H A)^2|_F, read from the computed G = A^H A
    and C = G G.  Their rounding errors are below gamma_n |A|_F^2 and
    gamma_n |G|_F^2 in Frobenius norm, so |(A^H A)^2|_F <= (1 + 2 n^2 u) |C|_F
    + 8 n u |A|_F^4 (u = 2^-53, n <= ``MAX_NORM_PRUNE_DIM``), the first bound.

    |A|_2^8 <= |(A^H A)^4|_F, one squaring more, gives the second, read on A
    scaled by 2^-e, where |A|_F = f 2^e with 1/2 <= f < 1, so that no square
    of an entry can overflow: from S = 2^(-4e) C, the C of the scaled A, and
    E = S S.  S is exact but for entries that underflow, each moved by less
    than 2^-1074.  With R = 2^(-4e) (A^H A)^2, |S - R|_F <= 8 n u f^4 and
    |R|_F <= f^4, so |S S - R R|_F <= 17 n u f^8; the rounding of E adds
    gamma_n |S|_F^2.  So |(A^H A)^4|_F 2^(-8e) = |R R|_F <= (1 + 2 n^2 u) |E|_F
    + 32 n u f^8, the slack covering the constants of complex arithmetic and
    the rounding of |A|_F, and |A|_2 <= 2^e times its eighth root.  For
    residuals at roundoff at n = 128, where |A|_F is 6-10 times |A|_2, it
    prunes matrices that the first bound keeps.  The minimum of the two is
    taken, so no matrix is kept that the first bound alone would leave out.
    """
    n, u = m.shape[-1], 2.0 ** -53
    g = np.conj(m).swapaxes(-1, -2) @ m
    c = g @ g
    bound = ((1.0 + 2.0 * n * n * u) * _frobenius(c) + 8.0 * n * u * fro ** 4) ** 0.25
    open_ = np.flatnonzero((1.0 + MAX_NORM_MARGIN) * bound >= cut)
    if open_.size:
        e = np.frexp(fro[open_])[1]
        s = np.ldexp(c[open_].view(np.float64), -4 * e[:, None, None]).view(np.complex128)
        f = np.ldexp(fro[open_], -e)
        eighth = ((1.0 + 2.0 * n * n * u) * _frobenius(s @ s) + 32.0 * n * u * f ** 8) ** 0.125
        bound[open_] = np.minimum(bound[open_], np.ldexp(eighth, e))
    return bound


def max_norm(*stacks) -> float:
    """Largest operator norm over the matrices of the stacks, each stack of
    shape (..., n, n) with one n.

    The value is exactly ``np.max(op_norms(stack))`` over the
    stacks, but one batched SVD norms only the matrices that can hold the
    maximum.  For each matrix of a stack of at least ``MAX_NORM_MIN_ENTRIES``
    entries, ``_norm_bounds`` gives the Frobenius norm F, an upper bound of
    |A|_2, and a lower bound L.  With m = ``MAX_NORM_MARGIN`` and
    cut = (1 - m) max L, a matrix with (1 + m) F < cut is left
    out, and so is one whose ``_gram_bound`` U has (1 + m) U < cut: its SVD
    value is below cut, and cut is at most the result, being below the SVD
    value of the matrix with the largest L.  U is not computed
    for a matrix with (1 + m) L >= cut, which it cannot leave out, and its
    second squaring only where the first does not decide.  The margin 2^-20
    dwarfs the roundoff of F, L, U and the SVD (each below n^2 u for
    n <= ``MAX_NORM_PRUNE_DIM``), as ``norm_within``'s factor 2 does; and since
    squares of entries underflow only below 1e-154, no cut under
    ``FROBENIUS_TOL_FLOOR`` leaves a matrix out.  A matrix with no nonzero
    entry has norm +0.0 and is left out before the bounds, and a stack
    copied only when it holds such a matrix.  A NaN or inf entry gives NaN
    without an SVD, as ``op_norms`` norms such a matrix NaN.
    """
    bounded, cut = [], 0.0
    for stack in stacks:
        m = _square_stack(stack)
        m = m.reshape(math.prod(m.shape[:-2]), *m.shape[-2:])
        nonzero = m.any(axis=(-2, -1))
        count = np.count_nonzero(nonzero)
        if not count:  # a zero matrix's norm is +0.0: no bounds, no SVD
            continue
        if count < len(m):
            m = m[nonzero]
        fro = lo = None
        if m.size >= MAX_NORM_MIN_ENTRIES and m.shape[-1] <= MAX_NORM_PRUNE_DIM:
            m = np.ascontiguousarray(m)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                fro, lo = _norm_bounds(m)
            finite = np.isfinite(fro)  # false for an inf or NaN entry, or squares that overflow
            if not finite.all() and not np.isfinite(m[~finite]).all():
                return math.nan
            cut = max(cut, (1.0 - MAX_NORM_MARGIN) * float(lo.max()))
        elif not np.isfinite(m).all():
            return math.nan
        bounded.append((m, fro, lo))
    kept = []
    for m, fro, lo in bounded:
        if fro is not None and cut >= FROBENIUS_TOL_FLOOR:
            keep = (1.0 + MAX_NORM_MARGIN) * fro >= cut
            # a matrix whose lower bound reaches the cut is kept whatever its Gram bound
            gram = np.flatnonzero(keep & (fro >= _BOUND_RANGE[0]) & (fro <= _BOUND_RANGE[1])
                                  & ((1.0 + MAX_NORM_MARGIN) * lo < cut))
            if gram.size:
                keep[gram] = (1.0 + MAX_NORM_MARGIN) * _gram_bound(m[gram], fro[gram], cut) >= cut
            m = m[keep]
        if len(m):
            kept.append(m)
    if not kept:
        return 0.0
    top = np.linalg.svd(kept[0] if len(kept) == 1 else np.concatenate(kept), compute_uv=False)
    return float(top[:, 0].max())


def residual_norm(a, b=None) -> float:
    """Operator norm of A - B (of A itself when B is omitted)."""
    m = np.asarray(a, dtype=np.complex128)
    if b is not None:
        m = m - np.asarray(b, dtype=np.complex128)
    return op_norm(m)


def commutator(a, b) -> np.ndarray:
    return a @ b - b @ a


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
        object.__setattr__(self, "mat", signed_permutation(m))

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
        """inv(mat).  A signed permutation's inverse is its conjugate
        transpose, exactly, and a signed permutation again; it is formed as
        a new C-contiguous array with +0.0 zeros, with no LU and no test.
        Another matrix is singular when its smallest singular value is at
        most n eps times its largest (numpy's ``matrix_rank`` rule), a test
        that does not depend on the matrix's scale."""
        if isinstance(self.mat, SignedPermutation) or _unit_pattern(self.mat) is not None:
            return signed_permutation(np.add(adjoint(self.mat), 0.0, order="C"))  # -0.0 -> +0.0
        s = np.linalg.svd(self.mat, compute_uv=False)
        if not s[-1] > s[0] * self.dim * np.finfo(np.float64).eps:
            raise ValueError("singular antilinear matrix cannot be inverted")
        return np.linalg.inv(self.mat)

    def sandwich(self, a) -> np.ndarray:
        """J A J^-1 as a linear operator: mat @ conj(A) @ inv(mat).

        ``a`` may be a stack of matrices; inv(mat) is computed on first use.
        """
        return self.mat @ np.conj(a) @ self._mat_inv

    def sandwich_diagonal(self, x) -> np.ndarray:
        """The diagonal of J diag(x) J^-1 for each row x of a (k, n) stack
        (``diagonal_sandwich``); raises ValueError unless mat is a signed
        permutation."""
        return diagonal_sandwich(self.mat, np.conj(x), self._mat_inv)


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
