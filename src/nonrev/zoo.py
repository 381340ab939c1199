"""Finite-state kernel families with a velocity-flip or swap structure.

Constructors return (KernelMatrix, FiniteDistribution, DeterministicInvolution)
triples on enumerated product spaces, ready for the exact analysis in
:mod:`nonrev.finite`.  Integer lattices are wrapped to the ring Z_n so flow
maps stay bijective.

State enumeration on X x {-1,+1}: id = 2*x + (0 if v == +1 else 1).
Constructors fill their matrices by index arithmetic over all states at
once, never by per-state loops.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _native
from .finite import (
    DeterministicInvolution,
    FiniteDistribution,
    KernelMatrix,
    Observable,
    STRUCT_TOL,
    check_mu_reversible,
)


def velocity_flip(n: int) -> DeterministicInvolution:
    return DeterministicInvolution(np.arange(2 * n) ^ 1)  # swaps slots 2x, 2x+1


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
        if not np.all((w > 0) & np.isfinite(w)):
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
        if not (np.all(tp >= -1e-12) and np.all(tm >= -1e-12)):
            raise ValueError("sub-kernels must be nonnegative")
        if not (np.all(tp.sum(axis=1) <= 1 + 1e-12) and np.all(tm.sum(axis=1) <= 1 + 1e-12)):
            raise ValueError("row sums must be <= 1")
        w = self.pi.weights
        if not np.max(np.abs(w[:, None] * tp - (w[:, None] * tm).T)) <= STRUCT_TOL:
            raise ValueError("skewed detailed balance violated")

    def escape(self, v: int) -> np.ndarray:
        """T_v(x, X), the per-state total move probability."""
        return (self.T_plus if v == 1 else self.T_minus).sum(axis=1)


def _metropolis(r):
    return np.minimum(1.0, r)


def _barker(r):
    r = np.minimum(r, sys.float_info.max)  # finite r unchanged, inf -> max/max = 1
    return r / (1.0 + r)


def _smoothed_metropolis(eps: float, r):
    """r [1 - Phi(se/2 + ln r / se)] + [1 - Phi(se/2 - ln r / se)] with
    se = sqrt(eps); min{1, r} at eps = 0, and 0 at r = 0."""
    if eps == 0.0:
        return _metropolis(r)
    ndtr, _ = _native.gaussian_cdf()  # loaded by the phi_eps path alone
    se = math.sqrt(eps)
    # finite r unchanged, inf -> max: the formula grows with r, so
    # phi(inf) >= phi(1e300) (it is 1 to within rounding unless eps is large)
    r = np.asarray(np.minimum(r, sys.float_info.max), dtype=float)
    out = np.zeros_like(r)
    pos = r > 0
    lr = np.log(r[pos])
    out[pos] = r[pos] * ndtr(-(se / 2 + lr / se)) + ndtr(-(se / 2 - lr / se))
    return out


@dataclass(frozen=True)
class AcceptanceRule:
    """Acceptance function phi with r*phi(1/r) = phi(r), phi <= min{1,r}.

    phi maps arrays of ratios in [0, inf] elementwise, and phi(inf) lies
    between phi(1e300) and 1, as the limit of phi(r) as r grows does, so
    overflowing ratios are accepted at least as often as huge finite ones.
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
        # phi_eps at large eps is still visibly below 1 at r = 1e300, so the
        # limit is bracketed rather than matched
        if not big <= inf <= 1.0:
            raise ValueError("phi(inf) must lie between phi(1e300) and 1, "
                             f"got {inf!r} with phi(1e300) = {big!r}")

    @staticmethod
    def metropolis() -> "AcceptanceRule":
        return AcceptanceRule("metropolis", _metropolis)

    @staticmethod
    def barker() -> "AcceptanceRule":
        return AcceptanceRule("barker", _barker)

    @staticmethod
    def phi_eps(eps: float) -> "AcceptanceRule":
        """Gaussian-smoothed Metropolis, phi_eps(r) = E[min{1, r e^W}] with
        W ~ N(-eps/2, eps); eps = 0 is min{1, r}.  Its Zig-Zag switching rate
        -log phi_eps(e^{-s}) is the penalty intensity."""
        if not eps >= 0:
            raise ValueError("eps must be >= 0")
        return AcceptanceRule(f"phi_eps={eps!r}",
                              lambda r: _smoothed_metropolis(eps, r))


@dataclass(frozen=True)
class FlowMap:
    """Bijection psi on the enumerated product space, with psi^{-1} = xi o psi o xi."""

    psi: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.psi, dtype=np.intp)
        object.__setattr__(self, "psi", p)
        if sorted(p.tolist()) != list(range(p.size)):
            raise ValueError("psi must be a bijection")

    def check_reversal(self, Q: DeterministicInvolution) -> bool:
        p, xi = self.psi, Q.perm
        return bool(np.array_equal(p[xi[p[xi]]], np.arange(p.size)))


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


def lifted_kernel(pair: SubKernelPair, theta: float):
    """Lifted kernel on X x {-1,+1}: move with T_v, switch velocity at rate

        rho_{v,-v}(x) = (1 - theta) max{0, T_{-v}(x,X) - T_v(x,X)}
                        + theta (1 - T_v(x,X)),

    from the minimal rate (theta = 0) to the maximal one (theta = 1).  Every
    theta in [0, 1] keeps 0 <= rho_{v,-v} <= 1 - T_v(x,X) and
    rho_{v,-v}(x) - rho_{-v,v}(x) = T_{-v}(x,X) - T_v(x,X).
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    n = pair.pi.n
    z = np.arange(2 * n)
    # T_v(x, X) for v = +1 and v = -1 interleaved into state-id order, so
    # esc[z ^ 1] is T_{-v}(x, X)
    esc = np.stack([pair.escape(1), pair.escape(-1)], axis=1).ravel()
    rv = (1.0 - theta) * np.maximum(0.0, esc[z ^ 1] - esc) + theta * (1.0 - esc)
    if np.any(rv < -1e-12) or np.any(rv > 1.0 - esc + 1e-12):
        raise ValueError("switching rate outside [0, 1 - T_v(x, X)]")
    P = np.zeros((2 * n, 2 * n))
    P[0::2, 0::2] += pair.T_plus
    P[1::2, 1::2] += pair.T_minus
    P[z, z] += 1.0 - esc - rv
    P[z, z ^ 1] += rv
    return KernelMatrix(P), half_lift(pair.pi), velocity_flip(n)


def gustafson_ring(target: RingTarget):
    """Persistent-direction walk on Z_n x {-1,+1}: move x -> x+v with
    probability min{1, pi(x+v)/pi(x)}, otherwise flip v.  It is the
    maximal-rate lift of the unit-step guided walk."""
    return lifted_kernel(guided_walk_ring(target, (1.0,)), 1.0)


def collapsed_kernel(pair: SubKernelPair) -> KernelMatrix:
    """pi-reversible mixture (T_1 + T_{-1})/2 plus diagonal rejection mass."""
    p = (pair.T_plus + pair.T_minus) / 2.0
    p = p + np.diag(1.0 - p.sum(axis=1))
    return KernelMatrix(p)


def lift_observable(f: Observable) -> Observable:
    """f on X lifted to X x {-1,+1} ignoring the velocity."""
    return Observable(np.repeat(f.values, 2))


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
    # axes (v, x, k), v = +1 then -1; the m targets x + k*v of a row are
    # distinct as 2m < n
    d = np.arange(2)[:, None, None]
    x = np.arange(n)[None, :, None]
    y = (x + np.arange(1, m + 1) * (1 - 2 * d)) % n
    T = np.zeros((2, n, n))
    T[d, x, y] += q * np.minimum(1.0, w[y] / w[x])
    return SubKernelPair(T[0], T[1], target.pi)


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

    # state id of (x1, x2) is x1 * n + x2
    mu = FiniteDistribution((pi.weights[:, None] * t).ravel())
    # swap involution: (x1, x2) -> (x2, x1)
    Q = DeterministicInvolution(np.arange(n * n).reshape(n, n).T.ravel())
    i = np.arange(n)
    # u[x1, x2, y2], the move x2 -> y2 != x2 of M1
    s = 1.0 - t
    u = t[:, None, :] / s[:, :, None] * np.minimum(1.0, s[:, :, None] / s[:, None, :])
    u[:, i, i] = 0.0
    # left to right, as the defining sum runs; np.sum would add pairwise
    # and differ in the last bits on rows longer than 8
    stay = np.cumsum(u, axis=2)[:, :, -1]
    M1 = np.zeros((n, n, n, n))
    M2 = np.zeros((n, n, n, n))
    M1[i, :, i, :] = u
    M2[i, :, i, :] = t[:, None, :]
    M1 = M1.reshape(n * n, n * n)
    M1[np.arange(n * n), np.arange(n * n)] = 1.0 - stay.ravel()
    P1 = KernelMatrix(M1[Q.perm])
    P2 = KernelMatrix(M2.reshape(n * n, n * n)[Q.perm])
    return P1, P2, mu, Q


def metropolized_flow_finite(mu: FiniteDistribution, psi: FlowMap,
                             Q: DeterministicInvolution,
                             phi: AcceptanceRule) -> KernelMatrix:
    """Move to psi(z) with probability phi(r(z)), else jump to xi(z), where
    r(z) = mu(xi o psi(z)) / mu(z) (finite and positive: mu is strictly
    positive)."""
    if not psi.check_reversal(Q):
        raise ValueError("flow map must satisfy psi^{-1} = xi o psi o xi")
    w, xi, z = mu.weights, Q.perm, np.arange(mu.n)
    a = phi.phi(w[xi[psi.psi]] / w)
    P = np.zeros((mu.n, mu.n))
    P[z, psi.psi] += a
    P[z, xi] += 1.0 - a
    return KernelMatrix(P)


def ring_shift_flow(n: int) -> FlowMap:
    """psi(x, v) = (x + v, v) on Z_n x {-1,+1}."""
    z = np.arange(2 * n)
    v = 1 - 2 * (z % 2)
    return FlowMap(2 * ((z // 2 + v) % n) + z % 2)


def extra_chance_finite(mu: FiniteDistribution, psi: FlowMap,
                        Q: DeterministicInvolution, K: int) -> KernelMatrix:
    """Multi-stage proposal: try psi^k(z), k = 1..K, with the monotone
    acceptance ladder alpha_k = max{alpha_{k-1}, min{1, r_k}}; leftover mass
    rho_K goes to xi(z)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if not psi.check_reversal(Q):
        raise ValueError("flow map must satisfy psi^{-1} = xi o psi o xi")
    w = mu.weights
    xi = Q.perm
    z = np.arange(mu.n)
    P = np.zeros((mu.n, mu.n))
    zk, alpha_prev = z, np.zeros(mu.n)
    for _k in range(K):  # stages, each over all states z at once
        zk = psi.psi[zk]
        alpha = np.maximum(alpha_prev, np.minimum(1.0, w[xi[zk]] / w))
        P[z, zk] += alpha - alpha_prev
        alpha_prev = alpha
    P[z, xi] += 1.0 - alpha_prev
    return KernelMatrix(P)

