"""Test oracles and fixtures that the package itself never calls.

Each one recomputes a quantity of the package by a different route (a
truncated series, a half-square-sum form, an explicit symmetrization, a
per-state loop in place of index arithmetic, a per-vector solve in place of
a block solve, a centred second pass in place of one batch-means pass) or
builds a target the catalog does not use, so it lives
beside the tests that use it rather than inside the package under test.
"""

import math

import numpy as np
from scipy.interpolate import CubicSpline

from nonrev.finite import (DeterministicInvolution, FiniteDistribution,
                           HypothesisNotCertified, KernelMatrix, Observable,
                           OrderingReport, centered, check_mu_reversible,
                           dirichlet_dominance_certificate, inner, var_lambda)
from nonrev.samplers import Potential, replicate_rng
from nonrev.zigzag import _window_integrals, simulate_zigzag
from nonrev.zoo import (FlowMap, RingTarget, SubKernelPair, collapsed_kernel,
                        half_lift, lifted_kernel)


def dirichlet_form(f: Observable, P: KernelMatrix, mu: FiniteDistribution) -> float:
    """<f, (Id - P) f>_mu."""
    v = f.values
    return inner(v, v - P.entries @ v, mu)


def dirichlet_form_halfsum(f: Observable, P: KernelMatrix, mu: FiniteDistribution) -> float:
    """Half-square-sum form (1/2) sum mu(z) P(z,z') [f(z') - f(z)]^2.

    Agrees with dirichlet_form only when P is mu-reversible.
    """
    d = f.values[None, :] - f.values[:, None]
    return float(0.5 * np.sum(mu.weights[:, None] * P.entries * d * d))


def var_lambda_cycle_series(f: Observable, P1: KernelMatrix, P2: KernelMatrix,
                            mu: FiniteDistribution, lam: float,
                            truncation: int | None = None) -> float:
    """Truncated-series oracle for finite.var_lambda_cycle."""
    fbar = centered(f, mu)
    if lam == 0.0:
        return inner(fbar, fbar, mu)
    if truncation is None:
        truncation = int(np.ceil(np.log(1e-14) / np.log(lam ** 2))) + 1
    total = -inner(fbar, fbar, mu)
    a = fbar.copy()  # (P1 P2)^k fbar
    b = fbar.copy()  # (P2 P1)^k fbar
    for k in range(truncation + 1):
        w = lam ** (2 * k)
        total += w * inner(fbar, a + lam * P1.entries @ a, mu)
        total += w * inner(fbar, b + lam * P2.entries @ b, mu)
        a = P1.entries @ (P2.entries @ a)
        b = P2.entries @ (P1.entries @ b)
    return total


def symmetrized_lift_identity_residual(pair: SubKernelPair, theta: float,
                                       kmax: int = 30) -> float:
    """Max residual of S(P^lifted)^k f-lift = lift of P^k f over k <= kmax.

    S denotes the mu-symmetrization (P + P*)/2; the identity underlies the
    lifted-vs-collapsed variance bound.
    """
    lifted, mu, _ = lifted_kernel(pair, theta)
    coll = collapsed_kernel(pair)
    # mu-adjoint of the lifted kernel
    w = mu.weights
    adj = (w[None, :] * lifted.entries.T) / w[:, None]
    S = (lifted.entries + adj) / 2.0
    n = pair.pi.n
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        f = rng.standard_normal(n)
        fl = np.repeat(f, 2)
        pf = f.copy()
        sf = fl.copy()
        for _k in range(kmax):
            pf = coll.entries @ pf
            sf = S @ sf
            worst = max(worst, float(np.max(np.abs(sf - np.repeat(pf, 2)))))
    return worst


def zz_tabulated(xs, us) -> Potential:
    """1-D potential interpolated with a cubic spline through (xs, us)."""
    spline = CubicSpline(np.asarray(xs, dtype=float), np.asarray(us, dtype=float))
    dspline = spline.derivative()
    d2 = spline.derivative(2)
    grid = np.linspace(xs[0], xs[-1], 2049)
    bmax = float(np.max(np.abs(d2(grid)))) * 1.05 + 1e-9

    return Potential(
        U=lambda x: spline(x[..., 0]),
        grad=lambda x: dspline(x),
        d=1,
        hessian_bound=lambda x, v: bmax,
    )


def steep_double_well() -> Potential:
    """U(x) = 10 (x^2 - 2)^2: steep enough that a large leapfrog step
    overflows the energy, or drops it past exp's range."""
    return Potential(U=lambda x: 10.0 * (x[..., 0] ** 2 - 2.0) ** 2,
                     grad=lambda x: 40.0 * x * (x ** 2 - 2.0), d=1)


def estimate_var_continuous_centred(pot: Potential, spec, f, horizon: float,
                                    replicates: int, seed: int, degree=None):
    """zigzag.estimate_var_continuous (lam = 0) in two passes per replicate:
    the path mean of f over the kept span first, then batch means of f minus
    that mean, with floor(sqrt(span)) batches.  Returns (estimate, se)."""
    burn = horizon / 10.0
    span = (burn + horizon) - burn
    n = int(math.sqrt(span))
    delta = span / n
    per = np.empty(replicates)
    for r in range(replicates):
        rng = replicate_rng(seed, r)
        v0 = np.where(rng.random(pot.d) < 0.5, -1.0, 1.0)
        traj = simulate_zigzag(pot, spec, np.zeros(pot.d), v0, horizon + burn, rng)
        mean = _window_integrals(traj, f, degree, [burn, burn + horizon])[0] / horizon
        ints = _window_integrals(traj, lambda x, v: np.asarray(f(x, v)) - mean,
                                 degree, np.linspace(burn, burn + horizon, n + 1))
        per[r] = delta * (ints / delta).var(ddof=1)
    return float(per.mean()), float(per.std(ddof=1) / math.sqrt(replicates))


def project_symmetric(f: Observable, Q: DeterministicInvolution, sign: int) -> Observable:
    """Projection (f + sign * Qf) / 2 onto the +/- eigenspace of Q."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return Observable((f.values + sign * f.values[Q.perm]) / 2.0)


def verify_ordering_reference(P1: KernelMatrix, P2: KernelMatrix,
                              mu: FiniteDistribution, Q: DeterministicInvolution,
                              lambdas, trials: int = 100,
                              rng_seed: int = 0) -> OrderingReport:
    """Per-vector oracle for finite.verify_ordering_theorem: one observable
    and one var_lambda solve at a time, on the same draws."""
    cert = dirichlet_dominance_certificate(P1, P2, mu, Q, side="left")
    if not cert.holds:
        raise HypothesisNotCertified(
            f"dominance certificate fails (min eig {cert.dominance_matrix_min_eig:.3e})")
    rng = np.random.default_rng(rng_seed)
    worst_plus = 0.0
    worst_minus = 0.0
    lambdas = list(lambdas)
    for _ in range(trials):
        f = Observable(rng.standard_normal(mu.n))
        fp = project_symmetric(f, Q, +1)
        fm = project_symmetric(f, Q, -1)
        for lam in lambdas:
            worst_plus = max(worst_plus, var_lambda(fp, P1, mu, lam)
                             - var_lambda(fp, P2, mu, lam))
            worst_minus = max(worst_minus, var_lambda(fm, P2, mu, lam)
                              - var_lambda(fm, P1, mu, lam))
    return OrderingReport(worst_plus, worst_minus)


# Per-state loop references for the zoo constructors, which build the same
# matrices by index arithmetic.  State id on X x {-1,+1}: 2*x + (v == -1).

def pv_index(x: int, v: int, n: int) -> int:
    # v = +1 -> even slot, v = -1 -> odd slot
    return 2 * (x % n) + (0 if v == 1 else 1)


def velocity_flip_loop(n: int) -> DeterministicInvolution:
    perm = np.empty(2 * n, dtype=np.intp)
    for x in range(n):
        perm[pv_index(x, 1, n)] = pv_index(x, -1, n)
        perm[pv_index(x, -1, n)] = pv_index(x, 1, n)
    return DeterministicInvolution(perm)


def ring_shift_flow_loop(n: int) -> FlowMap:
    psi = np.empty(2 * n, dtype=np.intp)
    for x in range(n):
        for v in (1, -1):
            psi[pv_index(x, v, n)] = pv_index(x + v, v, n)
    return FlowMap(psi)


def gustafson_ring_loop(target: RingTarget):
    n = target.n
    w = target.weights
    P = np.zeros((2 * n, 2 * n))
    for x in range(n):
        for v in (1, -1):
            z = pv_index(x, v, n)
            a = min(1.0, w[(x + v) % n] / w[x])
            P[z, pv_index(x + v, v, n)] += a
            P[z, pv_index(x, -v, n)] += 1.0 - a
    return KernelMatrix(P), half_lift(target.pi), velocity_flip_loop(n)


def lifted_kernel_loop(pair: SubKernelPair, theta: float):
    """lifted_kernel with the minimal and the maximal switching rate of each
    state computed in the loop and mixed with weight theta."""
    n = pair.pi.n
    P = np.zeros((2 * n, 2 * n))
    for v, tv in ((1, pair.T_plus), (-1, pair.T_minus)):
        esc, esc_back = pair.escape(v), pair.escape(-v)
        for x in range(n):
            minimal = max(0.0, esc_back[x] - esc[x])
            maximal = 1.0 - esc[x]
            rv = (1.0 - theta) * minimal + theta * maximal
            if rv < -1e-12 or rv > 1.0 - esc[x] + 1e-12:
                raise ValueError("switching rate outside [0, 1 - T_v(x, X)]")
            z = pv_index(x, v, n)
            for y in range(n):
                P[z, pv_index(y, v, n)] += tv[x, y]
            P[z, pv_index(x, v, n)] += 1.0 - esc[x] - rv
            P[z, pv_index(x, -v, n)] += rv
    return KernelMatrix(P), half_lift(pair.pi), velocity_flip_loop(n)


def guided_walk_ring_loop(target: RingTarget, step_dist: np.ndarray) -> SubKernelPair:
    q = np.asarray(step_dist, dtype=float)
    m = q.size
    n = target.n
    w = target.weights
    out = {}
    for v in (1, -1):
        T = np.zeros((n, n))
        for x in range(n):
            for k in range(1, m + 1):
                y = (x + k * v) % n
                T[x, y] += q[k - 1] * min(1.0, w[y] / w[x])
        out[v] = T
    return SubKernelPair(out[1], out[-1], target.pi)


def neal_pair_kernels_loop(T2: KernelMatrix, pi: FiniteDistribution):
    n = T2.n
    t = T2.entries
    assert check_mu_reversible(T2, pi)

    def idx(x1, x2):
        return x1 * n + x2

    mu = FiniteDistribution((pi.weights[:, None] * t).ravel())
    perm = np.array([idx(j % n, j // n) for j in range(n * n)], dtype=np.intp)
    Q = DeterministicInvolution(perm)
    M2 = np.zeros((n * n, n * n))
    M1 = np.zeros((n * n, n * n))
    for x1 in range(n):
        for x2 in range(n):
            z = idx(x1, x2)
            stay = 0.0
            for y2 in range(n):
                M2[z, idx(x1, y2)] = t[x1, y2]
                if y2 != x2:
                    u = t[x1, y2] / (1.0 - t[x1, x2]) * min(
                        1.0, (1.0 - t[x1, x2]) / (1.0 - t[x1, y2]))
                    M1[z, idx(x1, y2)] = u
                    stay += u
            M1[z, z] = 1.0 - stay
    qm = Q.matrix
    return KernelMatrix(qm @ M1), KernelMatrix(qm @ M2), mu, Q


def extra_chance_finite_loop(mu: FiniteDistribution, psi: FlowMap,
                             Q: DeterministicInvolution, K: int) -> KernelMatrix:
    n = mu.n
    w = mu.weights
    xi = Q.perm
    P = np.zeros((n, n))
    for z in range(n):
        alpha_prev = 0.0
        zk = z
        for _k in range(1, K + 1):
            zk = psi.psi[zk]
            r = 0.0 if w[z] == 0.0 else w[xi[zk]] / w[z]
            alpha = max(alpha_prev, min(1.0, r))
            P[z, zk] += alpha - alpha_prev
            alpha_prev = alpha
        P[z, xi[z]] += 1.0 - alpha_prev
    return KernelMatrix(P)
