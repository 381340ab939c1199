"""Exact linear algebra for finite-state chains with a skew-symmetry structure.

All objects live on an enumerated state space of size n.  A kernel P is
stored as a dense row-stochastic matrix, a distribution mu as a strictly
positive probability vector, and the involution Q as a self-inverse
permutation xi of the state ids (acting on functions as Qf = f o xi).

Everything here is exact up to dense double-precision linear algebra:
structural checks use tolerance 1e-10, linear-solve cross-checks 1e-8 and
stochasticity checks 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STRUCT_TOL = 1e-10
SOLVE_TOL = 1e-8
STOCH_TOL = 1e-12
PSD_TOL = 1e-10


class DimensionMismatch(ValueError):
    pass


class NotReversibleError(ValueError):
    pass


class HypothesisNotCertified(ValueError):
    pass


@dataclass(frozen=True)
class FiniteDistribution:
    """Strictly positive probability vector over the enumerated states."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1:
            raise ValueError("weights must be a vector")
        if np.any(w <= 0):
            raise ValueError("all weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12 * max(1.0, w.size):
            raise ValueError("weights must sum to 1")

    @property
    def n(self) -> int:
        return self.weights.size

    @staticmethod
    def from_unnormalized(w) -> "FiniteDistribution":
        w = np.asarray(w, dtype=float)
        return FiniteDistribution(w / w.sum())


@dataclass(frozen=True)
class KernelMatrix:
    """Row-stochastic transition matrix."""

    entries: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", p)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("entries must be a square matrix")
        if np.any(p < -STOCH_TOL) or np.any(p > 1 + STOCH_TOL):
            raise ValueError("entries must lie in [0, 1]")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-12 * max(1.0, p.shape[0]):
            raise ValueError("rows must sum to 1")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class DeterministicInvolution:
    """Self-inverse permutation xi of state ids; Qf(z) = f(xi(z))."""

    perm: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.perm, dtype=np.intp)
        object.__setattr__(self, "perm", p)
        n = p.size
        if sorted(p.tolist()) != list(range(n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        if not np.array_equal(p[p], np.arange(n)):
            raise ValueError("perm must be an involution")

    @property
    def n(self) -> int:
        return self.perm.size

    @property
    def matrix(self) -> np.ndarray:
        """Operator/kernel matrix: row z puts mass 1 on xi(z)."""
        q = np.zeros((self.n, self.n))
        q[np.arange(self.n), self.perm] = 1.0
        return q


@dataclass(frozen=True)
class Observable:
    """Real-valued function on states, stored as a vector."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise ValueError("values must be a vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class OrderingCertificate:
    """Result of the PSD test behind the Dirichlet-form dominance hypothesis."""

    dominance_matrix_min_eig: float
    holds: bool


def _check_dims(*sizes):
    if len(set(sizes)) != 1:
        raise DimensionMismatch(f"incompatible sizes {sizes}")


def inner(f: np.ndarray, g: np.ndarray, mu: FiniteDistribution) -> float:
    """<f, g>_mu."""
    return float(np.dot(mu.weights, f * g))


def centered(f: Observable, mu: FiniteDistribution) -> np.ndarray:
    return f.values - inner(f.values, np.ones(f.n), mu)


def check_invariance(P: KernelMatrix, mu: FiniteDistribution) -> bool:
    """True iff mu^T P = mu^T componentwise within 1e-10."""
    _check_dims(P.n, mu.n)
    return bool(np.max(np.abs(mu.weights @ P.entries - mu.weights)) <= STRUCT_TOL)


def check_isometric_involution(Q: DeterministicInvolution, mu: FiniteDistribution) -> bool:
    """True iff xi is an involution preserving mu pointwise.

    For a deterministic point map, mu-invariance of xi is equivalent to the
    inner-product isometry <f,g>_mu = <Qf,Qg>_mu, so only the pointwise mass
    condition mu(xi(z)) = mu(z) needs checking (the involution property is
    enforced at construction and re-checked here for good measure).
    """
    _check_dims(Q.n, mu.n)
    if not np.array_equal(Q.perm[Q.perm], np.arange(Q.n)):
        return False
    return bool(np.max(np.abs(mu.weights[Q.perm] - mu.weights)) <= STRUCT_TOL)


def adjoint(P: KernelMatrix, mu: FiniteDistribution) -> KernelMatrix:
    """mu-adjoint kernel P*(z, z') = mu(z') P(z', z) / mu(z)."""
    _check_dims(P.n, mu.n)
    if not check_invariance(P, mu):
        raise NotReversibleError("P does not leave mu invariant; adjoint is not stochastic")
    w = mu.weights
    return KernelMatrix((w[None, :] * P.entries.T) / w[:, None])


def check_mu_reversible(P: KernelMatrix, mu: FiniteDistribution) -> bool:
    """Detailed balance: mu(z) P(z, z') = mu(z') P(z', z)."""
    _check_dims(P.n, mu.n)
    flux = mu.weights[:, None] * P.entries
    return bool(np.max(np.abs(flux - flux.T)) <= STRUCT_TOL)


def check_muQ_reversible(P: KernelMatrix, mu: FiniteDistribution,
                         Q: DeterministicInvolution) -> bool:
    """True iff the mu-adjoint of P equals QPQ entrywise within 1e-10."""
    _check_dims(P.n, mu.n, Q.n)
    if not check_isometric_involution(Q, mu):
        raise ValueError("Q is not a mu-isometric involution")
    qpq = P.entries[Q.perm][:, Q.perm]  # Q is a permutation: gathers, not products
    return bool(np.max(np.abs(adjoint(P, mu).entries - qpq)) <= STRUCT_TOL)


def reversible_parts(P: KernelMatrix, Q: DeterministicInvolution):
    """The pair (QP, PQ) as kernel products."""
    _check_dims(P.n, Q.n)
    return KernelMatrix(P.entries[Q.perm]), KernelMatrix(P.entries[:, Q.perm])


def var_lambda(f: Observable, P: KernelMatrix, mu: FiniteDistribution,
               lam: float) -> float:
    """Discounted asymptotic variance 2<fbar, (Id - lam P)^{-1} fbar>_mu - |fbar|^2."""
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    _check_dims(f.n, P.n, mu.n)
    fbar = centered(f, mu)
    g = np.linalg.solve(np.eye(P.n) - lam * P.entries, fbar)
    return 2.0 * inner(fbar, g, mu) - inner(fbar, fbar, mu)


def var_lambda_series(f: Observable, P: KernelMatrix, mu: FiniteDistribution,
                      lam: float) -> float:
    """Independent truncated-series oracle for var_lambda.

    Sums |fbar|^2 + 2 sum_{k>=1} lam^k <fbar, P^k fbar>_mu term by term, up
    to the first k with lam^k <= 1e-12.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    fbar = centered(f, mu)
    if lam == 0.0:
        return inner(fbar, fbar, mu)
    total = inner(fbar, fbar, mu)
    pk = fbar.copy()
    for k in range(1, int(np.ceil(np.log(1e-12) / np.log(lam))) + 1):
        pk = P.entries @ pk
        total += 2.0 * lam ** k * inner(fbar, pk, mu)
    return total


def var_lambda_cycle(f: Observable, P1: KernelMatrix, P2: KernelMatrix,
                     mu: FiniteDistribution, lam: float) -> float:
    """Discounted variance of the chain alternating P1, P2, P1, P2, ...

    Closed form via two resolvent solves with (Id - lam^2 P1 P2) and
    (Id - lam^2 P2 P1); symmetric in (P1, P2).
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    _check_dims(f.n, P1.n, P2.n, mu.n)
    fbar = centered(f, mu)
    n = P1.n
    a = np.linalg.solve(np.eye(n) - lam ** 2 * P1.entries @ P2.entries,
                        fbar + lam * P1.entries @ fbar)
    b = np.linalg.solve(np.eye(n) - lam ** 2 * P2.entries @ P1.entries,
                        fbar + lam * P2.entries @ fbar)
    return inner(fbar, a, mu) + inner(fbar, b, mu) - inner(fbar, fbar, mu)


def _symmetrized(mat: np.ndarray, mu: FiniteDistribution) -> np.ndarray:
    """Similarity transform D^{1/2} M D^{-1/2}, then symmetric part."""
    s = np.sqrt(mu.weights)
    a = (s[:, None] * mat) / s[None, :]
    return (a + a.T) / 2.0


def dirichlet_dominance_certificate(P1: KernelMatrix, P2: KernelMatrix,
                                    mu: FiniteDistribution,
                                    Q: DeterministicInvolution,
                                    side: str = "left") -> OrderingCertificate:
    """Certify E(g, QP1) >= E(g, QP2) for all g (or the PQ analogue).

    The hypothesis holds for every g iff the symmetric part of the
    mu-symmetrized difference QP2 - QP1 (resp. P2 Q - P1 Q) is positive
    semidefinite; only the symmetric part matters for quadratic forms.
    """
    _check_dims(P1.n, P2.n, mu.n, Q.n)
    for P in (P1, P2):
        if not check_muQ_reversible(P, mu, Q):
            raise NotReversibleError("certificate requires (mu,Q)-reversible kernels")
    if side == "left":
        s = P2.entries[Q.perm] - P1.entries[Q.perm]
    elif side == "right":
        s = P2.entries[:, Q.perm] - P1.entries[:, Q.perm]
    else:
        raise ValueError("side must be 'left' or 'right'")
    # eigh: eigvalsh may move the last bits of min_eig, which the catalog prints
    min_eig = float(np.linalg.eigh(_symmetrized(s, mu))[0][0])
    return OrderingCertificate(min_eig, min_eig >= -PSD_TOL)


@dataclass
class OrderingReport:
    max_violation_plus: float
    max_violation_minus: float

    @property
    def ok(self) -> bool:
        return max(self.max_violation_plus, self.max_violation_minus) <= 1e-9


def verify_ordering_theorem(P1: KernelMatrix, P2: KernelMatrix,
                            mu: FiniteDistribution, Q: DeterministicInvolution,
                            lambdas, trials: int = 100,
                            rng_seed: int = 0) -> OrderingReport:
    """Check var-ordering on random observables in both Q-eigenspaces.

    Requires the dominance certificate to hold.  For Qf = f the ordering is
    var(P1) <= var(P2); for Qf = -f it reverses.  Violations are reported,
    not raised.  All 2 * trials projected observables of a kernel and lambda
    go through one block solve.
    """
    lambdas = list(lambdas)
    if trials < 1 or not lambdas:
        raise ValueError("the check needs trials >= 1 and a non-empty lambda grid")
    if not all(0.0 <= lam < 1.0 for lam in lambdas):
        raise ValueError("lambda must lie in [0, 1)")
    cert = dirichlet_dominance_certificate(P1, P2, mu, Q, side="left")
    if not cert.holds:
        raise HypothesisNotCertified(
            f"dominance certificate fails (min eig {cert.dominance_matrix_min_eig:.3e})")
    w = mu.weights
    # one row per trial: the same draws as `trials` calls of standard_normal(n)
    g = np.random.default_rng(rng_seed).standard_normal((trials, mu.n))
    f = np.concatenate([g + g[:, Q.perm], g - g[:, Q.perm]]) / 2.0  # Qf = f, then Qf = -f
    fbar = (f - (f @ w)[:, None]).T  # one centred observable per column
    sq = w @ (fbar * fbar)
    worst_plus = 0.0
    worst_minus = 0.0
    eye = np.eye(mu.n)
    for lam in lambdas:
        v1, v2 = (2.0 * (w @ (fbar * np.linalg.solve(eye - lam * P.entries, fbar))) - sq
                  for P in (P1, P2))
        worst_plus = max(worst_plus, float(np.max(v1[:trials] - v2[:trials])))
        worst_minus = max(worst_minus, float(np.max(v2[trials:] - v1[trials:])))
    return OrderingReport(worst_plus, worst_minus)
