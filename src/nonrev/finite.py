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

import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

STRUCT_TOL = 1e-10
SOLVE_TOL = 1e-8
STOCH_TOL = 1e-12
PSD_TOL = 1e-10
_FORK_STATES = 256  # the smallest systems whose grid of solves forks (_map_grid)


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
        if not np.all(w > 0):
            raise ValueError("all weights must be strictly positive")
        if not abs(w.sum() - 1.0) <= 1e-12 * max(1.0, w.size):
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
        if not np.all((p >= -STOCH_TOL) & (p <= 1 + STOCH_TOL)):
            raise ValueError("entries must lie in [0, 1]")
        if not np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12 * max(1.0, p.shape[0]):
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
    """Result of the PSD test behind a Dirichlet-form dominance hypothesis."""

    dominance_matrix_min_eig: float
    holds: bool


def worst_excess(excess) -> float:
    """The violation of a check from its excesses (a scalar, an array, or a
    list of scalars or of equal-length arrays): the largest excess, 0.0 when
    none is positive, NaN when any is NaN.  No excess at all raises
    ValueError, so a check without evidence cannot pass."""
    worst = float(np.max(excess))
    return 0.0 if worst <= 0.0 else worst  # -0.0 reads as 0.0


def _check_dims(*sizes):
    if len(set(sizes)) != 1:
        raise ValueError(f"incompatible sizes {sizes}")


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
    """True iff xi preserves mu pointwise.

    For a deterministic point map, mu-invariance of xi is equivalent to the
    inner-product isometry <f,g>_mu = <Qf,Qg>_mu, so only the pointwise mass
    condition mu(xi(z)) = mu(z) needs checking; DeterministicInvolution
    enforces the involution property at construction.
    """
    _check_dims(Q.n, mu.n)
    return bool(np.max(np.abs(mu.weights[Q.perm] - mu.weights)) <= STRUCT_TOL)


def check_mu_reversible(P: KernelMatrix, mu: FiniteDistribution) -> bool:
    """Detailed balance: mu(z) P(z, z') = mu(z') P(z', z)."""
    _check_dims(P.n, mu.n)
    flux = mu.weights[:, None] * P.entries
    return bool(np.max(np.abs(flux - flux.T)) <= STRUCT_TOL)


def check_muQ_reversible(P: KernelMatrix, mu: FiniteDistribution,
                         Q: DeterministicInvolution) -> bool:
    """True iff P leaves mu invariant and its mu-adjoint
    P*(z, z') = mu(z') P(z', z) / mu(z) equals QPQ entrywise within 1e-10."""
    _check_dims(P.n, mu.n, Q.n)
    if not check_isometric_involution(Q, mu):
        raise ValueError("Q is not a mu-isometric involution")
    if not check_invariance(P, mu):
        return False  # QPQ is stochastic, the mu-adjoint of such a P is not
    w = mu.weights
    qpq = P.entries[Q.perm][:, Q.perm]  # Q is a permutation: gathers, not products
    return bool(np.max(np.abs(w[None, :] * P.entries.T / w[:, None] - qpq)) <= STRUCT_TOL)


def reversible_parts(P: KernelMatrix, Q: DeterministicInvolution):
    """The pair (QP, PQ) as kernel products."""
    _check_dims(P.n, Q.n)
    return KernelMatrix(P.entries[Q.perm]), KernelMatrix(P.entries[:, Q.perm])


def _lambda_grid(lambdas) -> list[float]:
    """The discount grid as floats, refused if empty or if any lambda lies
    outside [0, 1) (NaN included)."""
    grid = [float(lam) for lam in lambdas]
    if not grid:
        raise ValueError("the lambda grid is empty")
    if not all(0.0 <= lam < 1.0 for lam in grid):
        raise ValueError("lambda must lie in [0, 1)")
    return grid


def _cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or ask."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _blas_threads() -> int:
    """The BLAS's thread count, read as OpenBLAS reads it at start-up: the
    first positive of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
    OMP_NUM_THREADS, else the CPU count."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(name, "0"))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return _cpus()


def _in_shares(run, items, n: int) -> list:
    """The lists run(share) for the items cut into n contiguous shares,
    concatenated in order: the first share runs in this process and each
    other in a forked child (fork, not spawn: callers pass closures, which
    do not pickle).  A child pickles its result, or the exception it
    raised, into a pipe and leaves through os._exit.  Errors are raised
    lowest share first, with their type and message, and no child outlives
    the call."""
    shares = [items[len(items) * k // n:len(items) * (k + 1) // n] for k in range(n)]
    pids, pipes = [], []  # the children not yet reaped, and every read end
    try:
        for share in shares[1:]:
            rfd, wfd = os.pipe()
            pipes.append(os.fdopen(rfd, "rb"))
            with os.fdopen(wfd, "wb") as w:  # the parent's write end closes here
                pid = os.fork()
                if pid == 0:
                    try:
                        try:
                            out = (True, run(share))
                        except Exception as exc:  # raised again in the parent
                            out = (False, exc)
                        pickle.dump(out, w)
                        w.close()  # os._exit does not flush
                        os._exit(0)
                    finally:
                        os._exit(1)
            pids.append(pid)
        results = run(shares[0])
        for k, pipe in enumerate(pipes, 1):
            data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pids.pop(0), 0)[1])
            if status != 0:
                raise RuntimeError(f"share {k} ended without a result "
                                   f"(exit status {status})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.extend(value)
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _map_grid(fn, items, states: int) -> list:
    """[fn(item) for item in items], for items that solve systems of the
    given size.  From _FORK_STATES states on they are cut into CPUs //
    BLAS-threads contiguous shares, each in its own process (_in_shares),
    so no two shares compete for a BLAS thread; each item is computed as
    it would be alone, so the results keep their bits."""
    n = min(len(items), _cpus() // _blas_threads()) if states >= _FORK_STATES else 1
    return _in_shares(lambda share: [fn(item) for item in share], items, max(n, 1))


def _shifted(a: np.ndarray, c: float) -> np.ndarray:
    """Id - c a in one pass over a.  It equals np.eye(n) - c * a entry for
    entry, except that an off-diagonal zero of a gives -0.0 where that
    gives +0.0; no solve branches on the sign of a zero."""
    out = a * -c
    out.flat[::a.shape[0] + 1] += 1.0
    return out


def _resolvent_var(fbar: np.ndarray, P: KernelMatrix, w: np.ndarray, grid) -> np.ndarray:
    """2<fbar, (Id - lam P)^{-1} fbar>_mu - |fbar|^2_mu per lam of the grid, one
    solve each (_map_grid), for mu-weights w and a centred vector fbar or
    (n, m) block of centred columns; the result has one row per lam."""
    sq = w @ (fbar * fbar)
    return np.array(_map_grid(
        lambda lam: 2.0 * (w @ (fbar * np.linalg.solve(_shifted(P.entries, lam), fbar))) - sq,
        grid, P.n))


def var_lambda(f: Observable, P: KernelMatrix, mu: FiniteDistribution,
               lambdas) -> np.ndarray:
    """Discounted asymptotic variance 2<fbar, (Id - lam P)^{-1} fbar>_mu - |fbar|^2
    at each lam of the grid, one solve per lam."""
    grid = _lambda_grid(lambdas)
    _check_dims(f.n, P.n, mu.n)
    return _resolvent_var(centered(f, mu), P, mu.weights, grid)


def _series_terms(lam: float) -> int:
    """First k with lam^k <= 1e-12."""
    return 0 if lam == 0.0 else int(np.ceil(np.log(1e-12) / np.log(lam)))


def _doubling_sum(P: KernelMatrix, fbar: np.ndarray, lam: float) -> np.ndarray:
    """S_m fbar with S_m = sum_{k<m} (lam P)^k, doubled as S_2m = S_m + (lam P)^m S_m
    with (lam P)^m squared, up to the first m with lam^m <= 1e-12 (1 - lam):
    P is stochastic, so that bounds the tail by 1e-12 max|fbar|."""
    s, a, lam_m = fbar, lam * P.entries, lam
    while lam_m > 1e-12 * (1.0 - lam):
        s = s + a @ s
        a = a @ a
        lam_m *= lam_m
    return s


def var_lambda_series(f: Observable, P: KernelMatrix, mu: FiniteDistribution,
                      lambdas) -> np.ndarray:
    """Independent power-series oracle for var_lambda: powers of P only, no solve.

    At each lam sums |fbar|^2 + 2 sum_{k>=1} lam^k <fbar, P^k fbar>_mu term
    by term up to the first k = K with lam^k <= 1e-12, from moments formed
    once up to the grid's largest such K.  A lam with K > n log2 K, where K
    matrix-vector products cost more than log2 K squarings of an n x n
    matrix, is summed in doubling form instead (see _doubling_sum), so every
    lam below 1 finishes.
    """
    grid = _lambda_grid(lambdas)
    _check_dims(f.n, P.n, mu.n)
    fbar = centered(f, mu)
    sq = inner(fbar, fbar, mu)
    terms = [_series_terms(lam) for lam in grid]
    linear = [K <= P.n * np.log2(max(K, 1)) for K in terms]
    moments = []
    pk = fbar
    for _ in range(max((K for K, lin in zip(terms, linear) if lin), default=0)):
        pk = P.entries @ pk
        moments.append(inner(fbar, pk, mu))
    out = []
    for lam, K, lin in zip(grid, terms, linear):
        if lin:
            total = sq
            for k in range(1, K + 1):
                total += 2.0 * lam ** k * moments[k - 1]
        else:
            total = 2.0 * inner(fbar, _doubling_sum(P, fbar, lam), mu) - sq
        out.append(total)
    return np.array(out)


def var_lambda_cycle(f: Observable, P1: KernelMatrix, P2: KernelMatrix,
                     mu: FiniteDistribution, lambdas) -> np.ndarray:
    """Discounted variance of the chain alternating P1, P2, P1, P2, ...

    Closed form at each lam via two resolvent solves with (Id - lam^2 P1 P2)
    and (Id - lam^2 P2 P1), the products formed once; symmetric in (P1, P2).
    The two families of solves are the two items of a _map_grid.
    """
    grid = _lambda_grid(lambdas)
    _check_dims(f.n, P1.n, P2.n, mu.n)
    fbar = centered(f, mu)
    sq = inner(fbar, fbar, mu)

    def family(pair):  # the grid's solves with Id - lam^2 Pa Pb
        pa, pb = pair
        pab = pa @ pb
        return [inner(fbar, np.linalg.solve(_shifted(pab, lam ** 2), fbar + lam * pa @ fbar), mu)
                for lam in grid]
    a, b = _map_grid(family, [(P1.entries, P2.entries), (P2.entries, P1.entries)], P1.n)
    return np.array([x + y - sq for x, y in zip(a, b)])


def psd_certificate(a: np.ndarray) -> OrderingCertificate:
    """The quadratic form of a is nonnegative iff the symmetric part
    (a + a^T)/2 is PSD: its minimum eigenvalue, held to PSD_TOL.  A form
    that is not a non-empty square matrix, or has a NaN or infinite entry,
    raises ValueError."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError("psd_certificate: the form is not a non-empty square matrix, "
                         f"got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("psd_certificate: the form is not finite")
    # eigh: eigvalsh may move the last bits of min_eig, which the catalog prints
    min_eig = float(np.linalg.eigh((a + a.T) / 2.0)[0][0])
    return OrderingCertificate(min_eig, min_eig >= -PSD_TOL)


def dirichlet_dominance_certificate(P1: KernelMatrix, P2: KernelMatrix,
                                    mu: FiniteDistribution,
                                    Q: DeterministicInvolution) -> OrderingCertificate:
    """Certify E(g, QP1) >= E(g, QP2) for all g.

    The hypothesis holds for every g iff the mu-symmetrized difference
    D^{1/2} (QP2 - QP1) D^{-1/2}, D = diag(mu), passes psd_certificate.
    The PQ form certifies the same: PQ = Q(QP)Q and Q commutes with D.
    """
    _check_dims(P1.n, P2.n, mu.n, Q.n)
    for P in (P1, P2):
        if not check_muQ_reversible(P, mu, Q):
            raise NotReversibleError("certificate requires (mu,Q)-reversible kernels")
    s = P2.entries[Q.perm] - P1.entries[Q.perm]
    r = np.sqrt(mu.weights)
    return psd_certificate((r[:, None] * s) / r[None, :])


@dataclass
class OrderingReport:
    max_violation_plus: float
    max_violation_minus: float

    @property
    def ok(self) -> bool:
        return self.max_violation_plus <= 1e-9 and self.max_violation_minus <= 1e-9


def verify_ordering_theorem(P1: KernelMatrix, P2: KernelMatrix,
                            mu: FiniteDistribution, Q: DeterministicInvolution,
                            lambdas, trials: int = 100,
                            rng_seed: int = 0) -> OrderingReport:
    """Check var-ordering on random observables in both Q-eigenspaces.

    Requires the dominance certificate to hold.  For Qf = f the ordering is
    var(P1) <= var(P2); for Qf = -f it reverses.  Violations are reported,
    not raised.  All 2 * trials projected observables of a kernel and lambda
    go through one block solve, by the formula var_lambda uses.
    """
    lambdas = _lambda_grid(lambdas)
    if trials < 1:
        raise ValueError("the check needs trials >= 1")
    cert = dirichlet_dominance_certificate(P1, P2, mu, Q)
    if not cert.holds:
        raise HypothesisNotCertified(
            f"dominance certificate fails (min eig {cert.dominance_matrix_min_eig:.3e})")
    w = mu.weights
    # one row per trial: the same draws as `trials` calls of standard_normal(n)
    g = np.random.default_rng(rng_seed).standard_normal((trials, mu.n))
    f = np.concatenate([g + g[:, Q.perm], g - g[:, Q.perm]]) / 2.0  # Qf = f, then Qf = -f
    fbar = (f - (f @ w)[:, None]).T  # one centred observable per column
    v1, v2 = (_resolvent_var(fbar, P, w, lambdas) for P in (P1, P2))  # lambda x column
    return OrderingReport(worst_excess(v1[:, :trials] - v2[:, :trials]),
                          worst_excess(v2[:, trials:] - v1[:, trials:]))
