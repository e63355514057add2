"""Dense complex/Hermitian linear-algebra kernel shared by all theory models.

Everything here operates on plain ``numpy`` arrays: Kronecker and
direct-sum composition, partial traces, symmetric eigenanalysis, PSD
testing, and real-span ranks of Hermitian operator families.  All
functions are pure and never mutate their inputs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Absolute tolerance on max|A - A^dag| below which a matrix counts as Hermitian.
TOL_HERM = 1e-9
# An operator counts as PSD when min eig >= -PSD_SLACK * max(1, trace norm).
PSD_SLACK = 1e-10
# Singular values below RANK_TOL * sigma_max do not contribute to span ranks.
RANK_TOL = 1e-7
# A certified lower bound on sigma_min / sigma_max above FULL_RANK_MARGIN * RANK_TOL
# decides full rank without an SVD (tomography's Gram certificate of product rows).
FULL_RANK_MARGIN = 10.0


def as_matrix(a, *, square: bool = False) -> np.ndarray:
    """Coerce to a finite 2-D complex array, copying lazily."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_matrix_stack(a) -> np.ndarray:
    """Coerce to a finite stack ``(n, d, d)`` of square complex matrices."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {m.shape}")
    # The stack's rows form one 2-D matrix, so as_matrix scans every entry.
    return as_matrix(m.reshape(-1, m.shape[2])).reshape(m.shape)


def _matrices(a, *, square: bool = True) -> np.ndarray:
    """``as_matrix_stack`` of a 3-D ``a`` (a stack of trials), else ``as_matrix``."""
    return as_matrix_stack(a) if np.ndim(a) == 3 else as_matrix(a, square=square)


def _checked_adjoint(m: np.ndarray) -> np.ndarray:
    """The adjoints of the finite matrices on the last two axes of ``m``,
    which must be Hermitian within ``TOL_HERM``.  The defect named by the
    error is the largest of a stack, so a stack with one bad matrix raises
    the message of that matrix alone."""
    mh = m.conj().swapaxes(-2, -1)
    defect = float(np.abs(m - mh).max())
    if defect > TOL_HERM:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > {TOL_HERM:.3e}")
    return mh


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """The matrices of ``m``, checked by ``_checked_adjoint``, symmetrized."""
    return (m + _checked_adjoint(m)) / 2


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(M + M^dag) / 2`` of every matrix on the last two axes, unvalidated.

    For a finite Hermitian ``M`` it is what the validators return, bit for
    bit: kernels use it on matrices that are Hermitian by construction."""
    return (m + m.conj().swapaxes(-2, -1)) / 2


def require_hermitian(a) -> np.ndarray:
    """Validate Hermiticity within ``TOL_HERM`` and return the symmetrized matrix."""
    return _symmetrized(as_matrix(a, square=True))


def require_hermitian_stack(a) -> np.ndarray:
    """``require_hermitian`` of every matrix of a stack ``(n, d, d)``, in one pass.

    The finiteness scan and the Hermiticity check cover the whole stack;
    a stack with one bad matrix raises the message of that matrix alone.
    """
    return _symmetrized(as_matrix_stack(a))


def require_hermitians(a) -> np.ndarray:
    """``require_hermitian_stack`` of a stack, else ``require_hermitian``."""
    return _symmetrized(_matrices(a))


def value(x):
    """One object's result, a numpy scalar or 0-d array, as a Python scalar;
    a stack's results as their array."""
    return x if isinstance(x, np.ndarray) and x.ndim else x.item()


def trial_factor(factor, payload: np.ndarray):
    """``factor``, a number or an array of one number per trial of a stacked
    ``payload``, shaped to multiply ``payload`` trial by trial."""
    if not isinstance(factor, np.ndarray):
        return factor
    return factor.reshape(factor.shape + (1,) * (payload.ndim - factor.ndim))


def vdots(a: np.ndarray, b: np.ndarray):
    """``np.vdot`` of every pair of vectors on the last axes of ``a`` and ``b``,
    broadcast over their leading axes.  It is one ``matmul`` of (1, n) by
    (n, 1) blocks, which reduces each pair with the same BLAS dot as
    ``np.vdot``, so it matches that bit for bit."""
    return np.matmul(a.conj()[..., None, :], b[..., :, None])[..., 0, 0]


def tensor(a, b) -> np.ndarray:
    """Kronecker product; composite index ordering is (i*cols_b + k)."""
    return np.kron(as_matrix(a), as_matrix(b))


def direct_sum(a, b) -> np.ndarray:
    """Block-diagonal sum of two square matrices, or of two stacks pair by pair."""
    ma, mb = _matrices(a), _matrices(b)
    da, d = ma.shape[-1], ma.shape[-1] + mb.shape[-1]
    out = np.zeros(np.broadcast_shapes(ma.shape[:-2], mb.shape[:-2]) + (d, d), dtype=complex)
    out[..., :da, :da] = ma
    out[..., da:, da:] = mb
    return out


def partial_trace(r, d1: int, d2: int, side: int) -> np.ndarray:
    """Trace out factor ``side`` (1 or 2) of an operator on a d1*d2 space.

    The result lives on the remaining factor and has the same trace as the
    input.  The input need not be Hermitian; for Hermitian input the output
    is Hermitian up to roundoff.  A stack ``(n, D, D)`` gives the stack of
    the partial traces of its matrices, each equal to the call on that
    matrix alone.
    """
    m = _matrices(r)
    if d1 <= 0 or d2 <= 0 or m.shape[-2:] != (d1 * d2, d1 * d2):
        raise ValueError(f"dimension mismatch: matrix is {m.shape[-1]}-dim, expected {d1}*{d2}")
    t = m.reshape(*m.shape[:-2], d1, d2, d1, d2)
    if side == 1:
        return np.einsum("...ikil->...kl", t)
    if side == 2:
        return np.einsum("...ikjk->...ij", t)
    raise ValueError(f"side must be 1 or 2, got {side!r}")


def eigvals_herm(a) -> np.ndarray:
    """Ascending real spectrum of a Hermitian matrix."""
    return np.linalg.eigvalsh(require_hermitian(a))


def min_eig_herm(a) -> float:
    """Smallest eigenvalue of a Hermitian matrix (validated within ``TOL_HERM``)."""
    return float(eigvals_herm(a)[0])


def max_eig_herm(a) -> float:
    return float(eigvals_herm(a)[-1])


def trace_norm(a):
    """Sum of singular values.  A stack ``(n, d, d)`` gives the ``(n,)`` trace
    norms of its matrices, each equal to the call on that matrix alone."""
    return value(np.linalg.svd(_matrices(a, square=False), compute_uv=False).sum(axis=-1))


def _below_psd(eigs: np.ndarray) -> np.ndarray:
    """Whether each ascending spectrum on the last axis of ``eigs`` has its
    smallest eigenvalue below ``-PSD_SLACK * max(1, trace norm)``.

    The singular values of a Hermitian matrix are the absolute values of its
    eigenvalues, so one eigensolve gives both sides of the test."""
    return eigs[..., 0] < -PSD_SLACK * np.maximum(1.0, np.abs(eigs).sum(axis=-1))


def require_psd(a, message: str) -> np.ndarray:
    """Validate a PSD operator and return it symmetrized; raise ``ValueError(message)``
    when its smallest eigenvalue falls below ``-PSD_SLACK * max(1, trace norm)``."""
    m = require_hermitian(a)
    if _below_psd(np.linalg.eigvalsh(m)):
        raise ValueError(message)
    return m


def require_psd_stack(a, message: str) -> np.ndarray:
    """``require_psd`` of every matrix of a stack ``(n, d, d)``, with one stacked
    eigensolve; raise ``ValueError(message)`` when any matrix fails."""
    m = require_hermitian_stack(a)
    if _below_psd(np.linalg.eigvalsh(m)).any():
        raise ValueError(message)
    return m


def psd_sqrt(a) -> np.ndarray:
    """Hermitian square root, clipping slightly negative eigenvalues to zero."""
    m = require_hermitian(a)
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


@lru_cache(maxsize=32)
def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal real basis of d x d Hermitian matrices, shape (d^2, d, d).

    Ordering is fixed for bit-for-bit reproducibility of span ranks: the d
    diagonal units E_ii first, then (E_ij + E_ji)/sqrt(2) for i < j row-major,
    then i(E_ij - E_ji)/sqrt(2) in the same order.
    """
    if d <= 0:
        raise ValueError("dimension must be positive")
    mats = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        mats.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            e[j, i] = 1.0
            mats.append(e / np.sqrt(2))
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0j
            e[j, i] = -1.0j
            mats.append(e / np.sqrt(2))
    out = np.stack(mats, axis=0)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _strict_upper_flat(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices in a row-major ``d x d`` matrix of the strict upper
    triangle, row-major, and of the entries across the diagonal from them."""
    rows, cols = np.triu_indices(d, k=1)
    return rows * d + cols, cols * d + rows


def trusted_hermitian_coords(m: np.ndarray) -> np.ndarray:
    """:func:`hermitian_coords` of a matrix or stack the package built
    Hermitian, unvalidated: ``Re M_ii``, then sqrt(2) times the real and
    imaginary parts of ``(M_ij + conj(M_ji)) / 2`` for i < j.  That is the
    symmetrized upper triangle, so for a finite ``M`` within ``TOL_HERM`` of
    Hermitian the rows equal ``hermitian_coords``'s bit for bit.  Each part
    is gathered from the flattened matrices straight into its columns."""
    d = m.shape[-1]
    upper, lower = _strict_upper_flat(d)
    flat = m.reshape(*m.shape[:-2], d * d)
    out = np.empty(flat.shape)
    out[..., :d] = m.diagonal(0, -2, -1).real
    sym = np.take(flat, upper, axis=-1)
    sym += np.take(flat, lower, axis=-1).conj()
    sym /= 2
    np.multiply(sym.real, np.sqrt(2), out=out[..., d : d + len(upper)])
    np.multiply(sym.imag, np.sqrt(2), out=out[..., d + len(upper) :])
    return out


def hermitian_coords(a) -> np.ndarray:
    """Real coordinate vector of a Hermitian matrix in ``hermitian_basis``.

    Computed entrywise (diagonal, then sqrt(2) times the real and imaginary
    upper-triangle parts) rather than by pairing against the dense basis;
    the orderings coincide.  A stack ``(n, d, d)`` gives one row of ``d^2``
    coordinates per matrix, each equal to the call on that matrix alone.
    Every matrix is validated, finite and Hermitian within ``TOL_HERM``,
    then :func:`trusted_hermitian_coords` computes the rows.
    """
    m = _matrices(a)
    _checked_adjoint(m)
    return trusted_hermitian_coords(m)


def hermitian_from_coords(v, d: int) -> np.ndarray:
    vec = np.asarray(v, dtype=float)
    if vec.shape != (d * d,):
        raise ValueError(f"expected {d * d} coordinates, got shape {vec.shape}")
    return np.einsum("k,kij->ij", vec, hermitian_basis(d))


def rank_of_rows(rows) -> int:
    """Number of singular values of a stacked row family above ``RANK_TOL * sigma_max``.

    Rows with a NaN or Inf raise ``np.linalg.LinAlgError``.
    """
    svals = np.linalg.svd(np.atleast_2d(np.asarray(rows, dtype=float)), compute_uv=False)
    smax = svals.max(initial=0.0)
    if np.isnan(smax):
        raise np.linalg.LinAlgError("singular values are not finite")
    if smax == 0.0:
        return 0
    return int(np.sum(svals > RANK_TOL * smax))


def span_rank(ops) -> int:
    """Rank of a family of Hermitian operators under real-linear combinations.

    Each operator is vectorized in the fixed orthonormal Hermitian basis; the
    rank is the number of singular values above ``RANK_TOL * sigma_max``.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("span_rank of an empty operator list is undefined")
    dims = {as_matrix(o, square=True).shape[0] for o in ops}
    if len(dims) != 1:
        raise ValueError(f"operators have mixed dimensions: {sorted(dims)}")
    return rank_of_rows([hermitian_coords(o) for o in ops])


def matrix_to_json(a) -> dict:
    """Serialize to {"rows", "cols", "re", "im"} with row-major entry lists."""
    m = as_matrix(a)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(x) for x in m.real.ravel()],
        "im": [float(x) for x in m.imag.ravel()],
    }


def json_numbers(values, key: str) -> np.ndarray:
    """The list ``values``, read from the JSON key ``key``, as floats.  Its
    entries must be JSON numbers: a string, a boolean, a nested list or a
    non-list raises ``TypeError`` naming ``key``."""
    if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
        raise TypeError(f"{key!r} must be a list of JSON numbers, got {values!r:.80}")
    return np.array(values, dtype=float)


def _json_dimension(obj: dict, key: str) -> int:
    """``obj[key]`` as a matrix dimension: a positive JSON integer, not a
    boolean, a float or a string."""
    value = obj[key]
    if type(value) is not int:
        raise TypeError(f"{key!r} must be a JSON integer, got {type(value).__name__} {value!r}")
    if value < 1:
        raise ValueError(f"{key!r} must be positive, got {value}")
    return value


def matrix_from_json(obj: dict) -> np.ndarray:
    """The matrix of ``{"rows", "cols", "re", "im"}``, its types checked first
    (``TypeError`` naming the key)."""
    rows, cols = _json_dimension(obj, "rows"), _json_dimension(obj, "cols")
    re = json_numbers(obj["re"], "re").reshape(rows, cols)
    im = json_numbers(obj["im"], "im").reshape(rows, cols)
    with np.errstate(invalid="ignore"):  # 1j * inf is NaN, which as_matrix rejects
        return as_matrix(re + 1j * im)
