"""Core types and algebra for the marriage-market inverse problem.

A market is described by a non-negative gains matrix Pi (shape I x J,
entries Pi_ij = exp(pi_ij)) and a positive population vector
nu = [m | f] of length I + J.  The unknowns are the amplitudes
beta_k = sqrt(number of singles of type k); once beta is known, the full
marital distribution follows from

    mu_ij  = Pi_ij * beta_i * beta_{I+j},
    mu_i0  = beta_i ** 2,
    mu_0j  = beta_{I+j} ** 2.

Market clearing is the first-order condition grad H(b) = nu of the
strictly convex function b -> H(b) - <nu, b> in log-amplitude space
b = log(beta).

objective_H alone builds H's value, gradient and Hessian blocks beta^2 and
C = Pi * beta_I beta_J^T.  The Hessian is never assembled: with diagonal
d = grad H + beta^2, eliminating the larger side leaves the reduced matrix
S = D_a - C D_c^-1 C^T of order min(I, J) (ReducedHessian), which gives
the Newton step, the inverse Hessian and the paper's spectral bound.

All types here are immutable after construction and all operations are
pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Computations run in b = log(beta) space.  Entries beyond this bound would
# push e^{2b} against the double exponent range; realistic markets sit far
# inside it since beta ~ sqrt(nu).
LOG_AMPLITUDE_BOUND = 350.0

# Default for all "to relative tolerance" clearing checks.
DEFAULT_REL_TOL = 1e-9


class ScalingError(ValueError):
    """Raised when log-amplitudes exceed the safe exponent range.

    The remedy is to rescale the population to smaller units rather than to
    let the exponentials overflow silently.
    """


def rel_close(lhs, rhs, tol: float = DEFAULT_REL_TOL) -> bool:
    """Clearing-check comparison: |lhs - rhs| <= tol * |rhs|, whatever the units."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    return bool(np.all(np.abs(lhs - rhs) <= tol * np.abs(rhs)))


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    arr.setflags(write=False)
    return arr


def _default_labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{k + 1}" for k in range(n))


@dataclass(frozen=True)
class GainsMatrix:
    """Exponentiated gains Pi_ij >= 0 for each (male type, female type) pair."""

    entries: np.ndarray
    row_labels: tuple[str, ...] = ()
    col_labels: tuple[str, ...] = ()

    def __post_init__(self):
        arr = _frozen_array(self.entries, "gains matrix")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"gains matrix must be 2-D and non-empty, got shape {arr.shape}")
        if np.any(arr < 0):
            raise ValueError("gains matrix entries must be non-negative")
        object.__setattr__(self, "entries", arr)
        rows = tuple(self.row_labels) or _default_labels("m", arr.shape[0])
        cols = tuple(self.col_labels) or _default_labels("f", arr.shape[1])
        if len(rows) != arr.shape[0] or len(cols) != arr.shape[1]:
            raise ValueError("label counts do not match gains matrix shape")
        object.__setattr__(self, "row_labels", rows)
        object.__setattr__(self, "col_labels", cols)

    @property
    def n_male_types(self) -> int:
        return self.entries.shape[0]

    @property
    def n_female_types(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class PopulationVector:
    """Counts nu = [m | f]: first I entries men per type, last J women per type."""

    counts: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.counts, "population vector")
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("population vector must be 1-D with at least two entries")
        if np.any(arr <= 0):
            raise ValueError(
                "population entries must be strictly positive "
                "(route zero-population types through reduce_unpopulated)"
            )
        object.__setattr__(self, "counts", arr)

    def __len__(self) -> int:
        return self.counts.size


@dataclass(frozen=True)
class MaritalDistribution:
    """Marriages mu_ij plus singles mu_i0 (men) and mu_0j (women)."""

    married: np.ndarray
    single_men: np.ndarray
    single_women: np.ndarray

    def __post_init__(self):
        married = _frozen_array(self.married, "married")
        single_men = _frozen_array(self.single_men, "single_men")
        single_women = _frozen_array(self.single_women, "single_women")
        if married.ndim != 2:
            raise ValueError("married must be an I x J matrix")
        if single_men.shape != (married.shape[0],) or single_women.shape != (married.shape[1],):
            raise ValueError("singles vectors must match the marriage matrix shape")
        if np.any(married < 0) or np.any(single_men < 0) or np.any(single_women < 0):
            raise ValueError("marital distribution entries must be non-negative")
        object.__setattr__(self, "married", married)
        object.__setattr__(self, "single_men", single_men)
        object.__setattr__(self, "single_women", single_women)

    def row_totals(self) -> np.ndarray:
        """mu_i0 + sum_j mu_ij, which must clear to m_i."""
        return self.single_men + self.married.sum(axis=1)

    def column_totals(self) -> np.ndarray:
        """mu_0j + sum_i mu_ij, which must clear to f_j."""
        return self.single_women + self.married.sum(axis=0)

    def clears(self, population: PopulationVector, tol: float = DEFAULT_REL_TOL) -> bool:
        counts = population.counts
        n_men = self.married.shape[0]
        return rel_close(self.row_totals(), counts[:n_men], tol) and rel_close(
            self.column_totals(), counts[n_men:], tol
        )


@dataclass(frozen=True)
class ValidatedMarket:
    """Dimension-checked (gains, population) bundle plus degeneracy flags.

    All-zero rows or columns of the gains matrix are flagged, not rejected:
    the equilibrium still exists and is unique, but the strict sign results
    of the substitution matrix degrade to weak inequalities.
    """

    gains: GainsMatrix
    population: PopulationVector
    flags: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if len(self.population) != self.size:
            raise ValueError(
                f"population has {len(self.population)} entries, expected "
                f"{self.n_male_types} + {self.n_female_types} = {self.size}"
            )
        nonzero = self.gains.entries != 0
        flags = tuple(
            f"{side} {k + 1} of the gains matrix is zero"
            for side, axis in (("row", 1), ("column", 0))
            for k in np.flatnonzero(~nonzero.any(axis))
        )
        object.__setattr__(self, "flags", flags)

    @property
    def n_male_types(self) -> int:
        return self.gains.n_male_types

    @property
    def n_female_types(self) -> int:
        return self.gains.n_female_types

    @property
    def size(self) -> int:
        return self.n_male_types + self.n_female_types

    @property
    def men(self) -> np.ndarray:
        return self.population.counts[: self.n_male_types]

    @property
    def women(self) -> np.ndarray:
        return self.population.counts[self.n_male_types :]

    @property
    def degenerate(self) -> bool:
        """True when some row or column of the gains matrix is all zero."""
        return bool(self.flags)


def validate_market(gains: GainsMatrix, population: PopulationVector) -> ValidatedMarket:
    """Bundle gains and population; ValidatedMarket does the checking."""
    return ValidatedMarket(gains, population)


def reduce_unpopulated(gains: GainsMatrix, raw_population) -> ValidatedMarket:
    """The market of the populated types: those with raw_population > 0, in order.

    Its equilibrium extends the solution to merely non-negative population
    vectors: dropped types have zero singles and zero marriages, with
    amplitudes undefined.
    """
    raw = np.asarray(raw_population, dtype=float)
    n_men, size = gains.n_male_types, sum(gains.entries.shape)
    if raw.shape != (size,):
        raise ValueError(f"population has {raw.size} entries, expected {size}")
    if np.any(raw < 0) or not np.all(np.isfinite(raw)):
        raise ValueError("population entries must be non-negative and finite")
    kept = raw > 0
    men, women = kept[:n_men], kept[n_men:]
    if not kept.any():
        raise ValueError("all types are unpopulated")
    if not men.any() or not women.any():
        # With one side empty nobody can marry and the reduced gains matrix
        # would have no rows or no columns, which GainsMatrix rejects.
        raise ValueError("one side of the market is entirely unpopulated")
    reduced_gains = GainsMatrix(
        entries=gains.entries[np.ix_(men, women)],
        row_labels=tuple(label for label, k in zip(gains.row_labels, men) if k),
        col_labels=tuple(label for label, k in zip(gains.col_labels, women) if k),
    )
    return validate_market(reduced_gains, PopulationVector(raw[kept]))


def marriage_distribution(beta, gains: GainsMatrix) -> MaritalDistribution:
    """Recover the full marital distribution from positive amplitudes."""
    beta = np.asarray(beta, dtype=float)
    n_men = gains.n_male_types
    men, women = beta[:n_men], beta[n_men:]
    return MaritalDistribution(
        married=gains.entries * np.outer(men, women),
        single_men=men**2,
        single_women=women**2,
    )


def objective_H(b, gains: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Value, gradient and Hessian blocks (beta^2, C) of the convex dual potential H.

    H(b) = 1/2 sum_k e^{2 b_k} + sum_ij Pi_ij e^{b_i + b_{I+j}} for b of
    shape (..., I + J) and gains entries Pi of shape (..., I, J), leading
    axes being a stack.  The gradient holds the row and column totals of
    marriage_distribution(e^b), so grad - nu is the market-clearing
    residual.  The Hessian is [[diag(d_I), C], [C^T, diag(d_J)]] with
    d = grad + beta^2 and C = Pi * beta_I beta_J^T.  It factors as
    diag(beta) [[D_I, Pi], [Pi^T, D_J]] diag(beta) with (D_I)_ii = 2 +
    (sum_j Pi_ij beta_{I+j}) / beta_i (and symmetrically for D_J), hence is
    symmetric positive definite for every finite b.  A non-finite b raises
    ValueError, one beyond LOG_AMPLITUDE_BOUND ScalingError.
    """
    b = np.asarray(b, dtype=float)
    if not np.abs(b).max() <= LOG_AMPLITUDE_BOUND:  # also when b holds a NaN
        if not np.isfinite(b).all():
            raise ValueError("log-amplitudes must be finite")
        raise ScalingError(
            f"log-amplitude magnitude exceeds {LOG_AMPLITUDE_BOUND}; "
            "rescale populations to smaller units"
        )
    beta = np.exp(b)
    n_men = gains.shape[-2]
    beta_sq = beta**2
    cross = gains * (beta[..., :n_men, None] * beta[..., None, n_men:])
    grad = np.concatenate((cross.sum(axis=-1), cross.sum(axis=-2)), axis=-1)
    grad += beta_sq
    # H is homogeneous of degree 2 in beta, so <grad H(b), 1> = 2 H(b).
    return 0.5 * grad.sum(axis=-1), grad, (beta_sq, cross)


@dataclass(frozen=True)
class ReducedHessian:
    """The Hessian [[diag(d_I), C], [C^T, diag(d_J)]] with its larger side eliminated.

    Side a has min(I, J) types (the men on a tie), side c the rest.  With
    K = C_ac D_c^-1, the reduced matrix S = D_a - K C_ac^T is symmetric
    positive definite exactly when the Hessian is, and

        H^-1 = [[S^-1, -S^-1 K], [-K^T S^-1, D_c^-1 + K^T S^-1 K]].

    Vectors and matrices go in and out in [men | women] order.  Every array
    may carry leading stack axes, one Hessian per stack member.
    """

    s: np.ndarray  # reduced matrix, order min(I, J)
    k: np.ndarray  # K = C_ac D_c^-1, shape (n_a, n_c)
    d_a: np.ndarray  # diagonal of the kept side
    d_c: np.ndarray  # diagonal of the eliminated side
    a: slice  # positions of side a in [men | women] order
    c: slice  # positions of side c

    def spectral_radius(self) -> np.ndarray:
        """Top eigenvalue of d_a^-1/2 (D_a - S) d_a^-1/2, i.e. of d_a^-1/2 K C_ac^T d_a^-1/2.

        At an equilibrium d = nu + beta^2 up to the stopping tolerance, so
        this is the paper's lambda_max, that of D_I^-1 Pi D_J^-1 Pi^T with
        (D)_kk = 1 + nu_k / beta_k^2; it is exactly 0 for zero gains.
        """
        off = -self.s
        _diagonal(off)[...] += self.d_a
        root = np.sqrt(self.d_a)
        return np.linalg.eigvalsh(off / root[..., :, None] / root[..., None, :])[..., -1]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with H x = rhs, by S x_a = r_a - K r_c and x_c = r_c / d_c - K^T x_a."""
        r_c = rhs[..., self.c, None]
        x_a = np.linalg.solve(self.s, rhs[..., self.a, None] - self.k @ r_c)
        out = np.empty(rhs.shape)
        out[..., self.a] = x_a[..., 0]
        out[..., self.c] = (r_c / self.d_c[..., None] - _transpose(self.k) @ x_a)[..., 0]
        return out

    def inverse(self) -> np.ndarray:
        """The dense inverse Hessian, (I+J) x (I+J), symmetric."""
        s_inv = np.linalg.inv(self.s)
        top = -s_inv @ self.k  # -S^-1 K
        n = self.d_c.shape[-1] + s_inv.shape[-1]
        out = np.empty(self.d_c.shape[:-1] + (n, n))
        out[..., self.a, self.a] = s_inv
        out[..., self.a, self.c] = top
        out[..., self.c, self.a] = _transpose(top)
        out[..., self.c, self.c] = -_transpose(self.k) @ top
        _diagonal(out[..., self.c, self.c])[...] += 1.0 / self.d_c
        return 0.5 * (out + _transpose(out))


def _transpose(stack: np.ndarray) -> np.ndarray:
    return stack.swapaxes(-1, -2)


def _diagonal(stack: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of a stack of square matrices."""
    return np.einsum("...ii->...i", stack)


def reduce_hessian(diag: np.ndarray, cross: np.ndarray) -> ReducedHessian:
    """Eliminate the larger side of the Hessian with diagonal diag and cross block C.

    diag = grad + beta^2 has shape (..., I + J) and cross (..., I, J).  Raises
    numpy.linalg.LinAlgError when S is not finite or not positive definite,
    i.e. when the Hessian cannot be factored; for a stack, when that holds
    for any member.
    """
    n_men, n_women = cross.shape[-2:]
    n = n_men + n_women
    if n_men <= n_women:
        a, c, c_ac = slice(0, n_men), slice(n_men, n), cross
    else:
        a, c, c_ac = slice(n_men, n), slice(0, n_men), _transpose(cross)
    d_a, d_c = diag[..., a], diag[..., c]
    k = c_ac / d_c[..., None, :]
    s = -(k @ _transpose(c_ac))
    _diagonal(s)[...] += d_a
    if not np.isfinite(s).all():
        raise np.linalg.LinAlgError("reduced Hessian is not finite")
    np.linalg.cholesky(s)  # raises LinAlgError unless S is positive definite
    return ReducedHessian(s=s, k=k, d_a=d_a, d_c=d_c, a=a, c=c)
