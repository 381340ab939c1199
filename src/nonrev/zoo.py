"""Finite-state kernel families with a velocity-flip or swap structure.

Constructors return (KernelMatrix, FiniteDistribution, DeterministicInvolution)
triples on enumerated product spaces, ready for the exact analysis in
:mod:`nonrev.finite`.  Integer lattices are wrapped to the ring Z_n so flow
maps stay bijective.

State enumeration on X x {-1,+1}: id = 2*x + (0 if v == +1 else 1).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .finite import (
    DeterministicInvolution,
    FiniteDistribution,
    KernelMatrix,
    Observable,
    STRUCT_TOL,
    dirichlet_dominance_certificate,
    HypothesisNotCertified,
    check_mu_reversible,
    var_lambda,
    var_lambda_cycle,
)


def pv_index(x: int, v: int, n: int) -> int:
    # v = +1 -> even slot, v = -1 -> odd slot
    return 2 * (x % n) + (0 if v == 1 else 1)


def velocity_flip(n: int) -> DeterministicInvolution:
    perm = np.empty(2 * n, dtype=np.intp)
    for x in range(n):
        perm[pv_index(x, 1, n)] = pv_index(x, -1, n)
        perm[pv_index(x, -1, n)] = pv_index(x, 1, n)
    return DeterministicInvolution(perm)


def half_lift(pi: FiniteDistribution) -> FiniteDistribution:
    """mu(x, v) = pi(x)/2 on the doubled space."""
    w = np.repeat(pi.weights, 2) / 2.0
    return FiniteDistribution(w)


@dataclass(frozen=True)
class RingTarget:
    """Unnormalized positive weights over the ring Z_n, n >= 3."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.size < 3:
            raise ValueError("ring needs n >= 3")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def pi(self) -> FiniteDistribution:
        return FiniteDistribution.from_unnormalized(self.weights)


@dataclass(frozen=True)
class SubKernelPair:
    """Direction-dependent sub-stochastic kernels T_{+1}, T_{-1}.

    Invariant: skewed detailed balance pi(x) T_{+1}(x,y) = pi(y) T_{-1}(y,x).
    Rejection mass is implicit: rows may sum to less than 1.
    """

    T_plus: np.ndarray
    T_minus: np.ndarray
    pi: FiniteDistribution

    def __post_init__(self):
        tp = np.asarray(self.T_plus, dtype=float)
        tm = np.asarray(self.T_minus, dtype=float)
        object.__setattr__(self, "T_plus", tp)
        object.__setattr__(self, "T_minus", tm)
        if tp.shape != tm.shape or tp.shape[0] != self.pi.n:
            raise ValueError("shape mismatch")
        if np.any(tp < -1e-12) or np.any(tm < -1e-12):
            raise ValueError("sub-kernels must be nonnegative")
        if np.any(tp.sum(axis=1) > 1 + 1e-12) or np.any(tm.sum(axis=1) > 1 + 1e-12):
            raise ValueError("row sums must be <= 1")
        w = self.pi.weights
        if np.max(np.abs(w[:, None] * tp - (w[:, None] * tm).T)) > STRUCT_TOL:
            raise ValueError("skewed detailed balance violated")

    def sub(self, v: int) -> np.ndarray:
        return self.T_plus if v == 1 else self.T_minus

    def escape(self, v: int) -> np.ndarray:
        """T_v(x, X), the per-state total move probability."""
        return self.sub(v).sum(axis=1)


@dataclass(frozen=True)
class SwitchingRate:
    """Velocity switching rates for a lifted kernel.

    kind 'minimal' is max{0, T_{-v}(x,X) - T_v(x,X)}, 'maximal' is
    1 - T_v(x,X), and 'convex' interpolates (1-theta)*minimal + theta*maximal.
    All three satisfy the admissibility constraints
    0 <= rho_{v,-v} <= 1 - T_v(x,X) and
    rho_{v,-v}(x) - rho_{-v,v}(x) = T_{-v}(x,X) - T_v(x,X).
    """

    kind: str
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("minimal", "maximal", "convex"):
            raise ValueError("kind must be minimal, maximal or convex")
        if self.kind == "convex" and not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")

    def rho(self, pair: SubKernelPair, v: int) -> np.ndarray:
        """rho_{v,-v}(x) as a vector over x."""
        tv = pair.escape(v)
        tmv = pair.escape(-v)
        minimal = np.maximum(0.0, tmv - tv)
        maximal = 1.0 - tv
        if self.kind == "minimal":
            return minimal
        if self.kind == "maximal":
            return maximal
        return (1.0 - self.theta) * minimal + self.theta * maximal


def _barker(r):
    r = np.minimum(r, sys.float_info.max)  # finite r unchanged, inf -> max/max = 1
    return r / (1.0 + r)


@dataclass(frozen=True)
class AcceptanceRule:
    """Acceptance function phi with r*phi(1/r) = phi(r), phi <= min{1,r}.

    phi maps arrays of ratios in [0, inf] elementwise, and phi(inf) is the
    limit of phi(r) as r grows, so overflowing ratios are accepted.
    """

    kind: str
    phi: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        # balance condition checked on a log-spaced grid, plus 0 and infinity
        rs = np.logspace(-3, 3, 25)
        grid = np.concatenate([rs, 1.0 / rs, [0.0, 1e300, np.inf]])
        try:
            with np.errstate(all="ignore"):
                vals = np.asarray(self.phi(grid), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError("phi must map arrays of ratios elementwise") from exc
        if vals.shape != grid.shape:
            raise ValueError("phi must map arrays of ratios elementwise")
        phi, back, (zero, big, inf) = vals[:25], vals[25:50], vals[50:]
        if np.any(np.abs(rs * back - phi) > 1e-12 * np.maximum(1.0, phi)):
            raise ValueError("phi violates r*phi(1/r) = phi(r)")
        if np.any(phi > np.minimum(1.0, rs) + 1e-12):
            raise ValueError("phi must be dominated by min{1, r}")
        if zero != 0.0:
            raise ValueError("phi(0) must be 0")
        if not abs(inf - big) <= 1e-12:
            raise ValueError("phi(inf) must be the limit of phi(r) as r grows")

    @staticmethod
    def metropolis() -> "AcceptanceRule":
        return AcceptanceRule("metropolis", lambda r: np.minimum(1.0, r))

    @staticmethod
    def barker() -> "AcceptanceRule":
        return AcceptanceRule("barker", _barker)


@dataclass(frozen=True)
class FlowMap:
    """Bijection psi on the enumerated product space, with psi^{-1} = xi o psi o xi."""

    psi: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.psi, dtype=np.intp)
        object.__setattr__(self, "psi", p)
        if sorted(p.tolist()) != list(range(p.size)):
            raise ValueError("psi must be a bijection")

    @property
    def n(self) -> int:
        return self.psi.size

    @property
    def inverse(self) -> np.ndarray:
        inv = np.empty(self.n, dtype=np.intp)
        inv[self.psi] = np.arange(self.n)
        return inv

    def check_reversal(self, Q: DeterministicInvolution) -> bool:
        xi = Q.perm
        return bool(np.array_equal(self.inverse, xi[self.psi[xi]]))


def gustafson_ring(target: RingTarget):
    """Persistent-direction walk on Z_n x {-1,+1} with momentum flip on reject.

    Moves x -> x+v with probability min{1, pi(x+v)/pi(x)}, otherwise flips v.
    """
    n = target.n
    w = target.weights
    P = np.zeros((2 * n, 2 * n))
    for x in range(n):
        for v in (1, -1):
            z = pv_index(x, v, n)
            a = min(1.0, w[(x + v) % n] / w[x])
            P[z, pv_index(x + v, v, n)] += a
            P[z, pv_index(x, -v, n)] += 1.0 - a
    return KernelMatrix(P), half_lift(target.pi), velocity_flip(n)


def mh_subkernels(target: RingTarget, q_plus: np.ndarray, q_minus: np.ndarray) -> SubKernelPair:
    """Accept-weighted sub-kernels T_v(x,y) = min{1, r_v(x,y)} q_v(x,y).

    r_v(x,y) = pi(y) q_{-v}(y,x) / (pi(x) q_v(x,y)); zero proposals give zero
    mass so the skewed detailed balance holds entrywise.
    """
    pi = target.pi
    w = pi.weights
    qs = {1: np.asarray(q_plus, dtype=float), -1: np.asarray(q_minus, dtype=float)}
    for q in qs.values():
        if np.max(np.abs(q.sum(axis=1) - 1.0)) > 1e-12 * target.n:
            raise ValueError("proposals must be row-stochastic")
    out = {}
    for v in (1, -1):
        q = qs[v]
        qrev = qs[-v]
        # min{pi(x)q_v(x,y), pi(y)q_{-v}(y,x)} / pi(x)
        flux = np.minimum(w[:, None] * q, (w[:, None] * qrev).T)
        out[v] = flux / w[:, None]
    return SubKernelPair(out[1], out[-1], pi)


def lifted_kernel(pair: SubKernelPair, rho: SwitchingRate):
    """Lifted kernel on X x {-1,+1}: move with T_v, switch velocity at rate rho."""
    n = pair.pi.n
    P = np.zeros((2 * n, 2 * n))
    for v in (1, -1):
        tv = pair.sub(v)
        esc = pair.escape(v)
        rv = rho.rho(pair, v)
        if np.any(rv < -1e-12) or np.any(rv > 1.0 - esc + 1e-12):
            raise ValueError("switching rate outside [0, 1 - T_v(x, X)]")
        for x in range(n):
            z = pv_index(x, v, n)
            for y in range(n):
                P[z, pv_index(y, v, n)] += tv[x, y]
            P[z, pv_index(x, v, n)] += 1.0 - esc[x] - rv[x]
            P[z, pv_index(x, -v, n)] += rv[x]
    return KernelMatrix(P), half_lift(pair.pi), velocity_flip(n)


def collapsed_kernel(pair: SubKernelPair) -> KernelMatrix:
    """pi-reversible mixture (T_1 + T_{-1})/2 plus diagonal rejection mass."""
    p = (pair.T_plus + pair.T_minus) / 2.0
    p = p + np.diag(1.0 - p.sum(axis=1))
    return KernelMatrix(p)


def lift_observable(f: Observable, n: int) -> Observable:
    """f on X lifted to X x {-1,+1} ignoring the velocity."""
    return Observable(np.repeat(f.values, 2))


def symmetrized_lift_identity_residual(pair: SubKernelPair, rho: SwitchingRate,
                                       kmax: int = 30) -> float:
    """Max residual of S(P^lifted)^k f-lift = lift of P^k f over k <= kmax.

    S denotes the mu-symmetrization (P + P*)/2; the identity underlies the
    lifted-vs-collapsed variance bound.
    """
    lifted, mu, _ = lifted_kernel(pair, rho)
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


def guided_walk_ring(target: RingTarget, step_dist: np.ndarray) -> SubKernelPair:
    """Guided-walk sub-kernels: jump x -> x + k*v with weight q(k), MH-accepted.

    step_dist is the law of |z| on {1..m}, m < n/2.
    """
    q = np.asarray(step_dist, dtype=float)
    m = q.size
    n = target.n
    if m >= n / 2:
        raise ValueError("step support must satisfy m < n/2")
    if abs(q.sum() - 1.0) > 1e-12:
        raise ValueError("step_dist must sum to 1")
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


def neal_pair_kernels(T2: KernelMatrix, pi: FiniteDistribution):
    """Pair-space kernels for the two-variable swap construction.

    mu(x1,x2) = pi(x1) T2(x1,x2), Q swaps the coordinates, P_i = Q M_i with
    M2 resampling x2 from T2(x1, .) and M1 the never-stay variant that
    forbids y2 = x2 via the ratio acceptance U.
    """
    n = T2.n
    if pi.n != n:
        raise ValueError("shape mismatch")
    t = T2.entries
    if not check_mu_reversible(T2, pi):
        raise ValueError("T2 must be pi-reversible")
    if np.any(t <= 0) or np.any(t >= 1):
        raise ValueError("T2 entries must lie strictly in (0, 1)")

    def idx(x1, x2):
        return x1 * n + x2

    mu = FiniteDistribution((pi.weights[:, None] * t).ravel())
    # swap involution: idx(x1, x2) -> idx(x2, x1)
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
    P1 = KernelMatrix(qm @ M1)
    P2 = KernelMatrix(qm @ M2)
    return P1, P2, mu, Q


def metropolized_flow_finite(mu: FiniteDistribution, psi: FlowMap,
                             Q: DeterministicInvolution,
                             phi: AcceptanceRule) -> KernelMatrix:
    """Move to psi(z) with probability phi(r(z)), else jump to xi(z).

    r(z) = mu(xi o psi(z)) / mu(z) with the 0-convention when either mass
    vanishes (unreachable for strictly positive mu, but guarded).
    """
    if not psi.check_reversal(Q):
        raise ValueError("flow map must satisfy psi^{-1} = xi o psi o xi")
    w, xi, z = mu.weights, Q.perm, np.arange(mu.n)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = phi.phi(np.where(w == 0.0, 0.0, w[xi[psi.psi]] / w))
    P = np.zeros((mu.n, mu.n))
    P[z, psi.psi] += a
    P[z, xi] += 1.0 - a
    return KernelMatrix(P)


def ring_shift_flow(n: int) -> FlowMap:
    """psi(x, v) = (x + v, v) on Z_n x {-1,+1}."""
    psi = np.empty(2 * n, dtype=np.intp)
    for x in range(n):
        for v in (1, -1):
            psi[pv_index(x, v, n)] = pv_index(x + v, v, n)
    return FlowMap(psi)


def extra_chance_finite(mu: FiniteDistribution, psi: FlowMap,
                        Q: DeterministicInvolution, K: int) -> KernelMatrix:
    """Multi-stage proposal: try psi^k(z), k = 1..K, with the monotone
    acceptance ladder alpha_k = max{alpha_{k-1}, min{1, r_k}}; leftover mass
    rho_K goes to xi(z)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if not psi.check_reversal(Q):
        raise ValueError("flow map must satisfy psi^{-1} = xi o psi o xi")
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


@dataclass
class TwoCycleReport:
    max_violation: float
    max_composition_violation: float | None
    lambdas: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        worst = self.max_violation
        if self.max_composition_violation is not None:
            worst = max(worst, self.max_composition_violation)
        return worst <= 1e-9


def two_cycle_variance_experiment(P11: KernelMatrix, P12: KernelMatrix,
                                  P21: KernelMatrix, P22: KernelMatrix,
                                  mu: FiniteDistribution,
                                  Q: DeterministicInvolution,
                                  f: Observable, lambdas) -> TwoCycleReport:
    """Alternating-kernel comparison under slotwise Dirichlet dominance.

    Certifies E(g, QP_{1,j}) >= E(g, QP_{2,j}) for j = 1, 2, then checks
    var(f, {P11, P12}) <= var(f, {P21, P22}) for Qf = f over the lambda grid.
    When both P_{i,1} fix f, additionally checks the composed-kernel ordering
    var_{lam}(f, P11 P12) <= var_{lam}(f, P21 P22).
    """
    if np.max(np.abs(f.values[Q.perm] - f.values)) > STRUCT_TOL:
        raise ValueError("requires Qf = f")
    for a, b in ((P11, P21), (P12, P22)):
        cert = dirichlet_dominance_certificate(a, b, mu, Q, side="left")
        if not cert.holds:
            raise HypothesisNotCertified(
                f"slot dominance fails (min eig {cert.dominance_matrix_min_eig:.3e})")
    lambdas = list(lambdas)
    worst = 0.0
    for lam in lambdas:
        v1 = var_lambda_cycle(f, P11, P12, mu, lam)
        v2 = var_lambda_cycle(f, P21, P22, mu, lam)
        worst = max(worst, v1 - v2)
    comp_worst = None
    fixes = all(np.max(np.abs(P.entries @ f.values - f.values)) <= STRUCT_TOL
                for P in (P11, P21))
    if fixes:
        c1 = KernelMatrix(P11.entries @ P12.entries)
        c2 = KernelMatrix(P21.entries @ P22.entries)
        comp_worst = 0.0
        for lam in lambdas:
            comp_worst = max(comp_worst,
                             var_lambda(f, c1, mu, lam) - var_lambda(f, c2, mu, lam))
    return TwoCycleReport(worst, comp_worst, lambdas)
