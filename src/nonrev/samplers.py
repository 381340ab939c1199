"""Continuous-state samplers and empirical discounted-variance estimation.

Implements the guided walk on the line, GHMC with leapfrog integration and
partial momentum refreshment, the extra-chance multi-proposal step, and the
plug-in estimator for the discounted sum of autocovariances with replicate
standard errors.

Reproducibility contract: every replicate r of a run seeded with s owns the
counter-based Philox stream keyed by s * 2**64 + r, so runs are
bit-reproducible and replicates can execute in any order or in parallel.
The batched driver splits that stream into a refresh-noise sub-stream and an
accept-uniform sub-stream (a 2**128 jump apart), which makes its output
independent of the internal buffering block size.  It runs all acceptance
rules in one batch, and every rule reads each replicate's two sub-streams,
so the rules share common random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .zoo import AcceptanceRule


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 64) + replicate))


@dataclass(frozen=True)
class PhaseState:
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)
        if x.shape != v.shape:
            raise ValueError("x and v must have the same shape")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise ValueError("state must be finite")


@dataclass(frozen=True)
class Potential:
    """Smooth potential U with gradient, the target exp(-U(x)) of GHMC (with
    unit-variance Gaussian momentum) and of the Zig-Zag process (with uniform
    velocities on {-1,1}^d).

    U and grad must accept arrays of shape (..., d) and broadcast over the
    leading axes; U returns shape (...), grad returns (..., d).
    hessian_bound(x, v, tau) must bound max_i sup_{s in [0,tau]}
    |(Hess U(x + s v) v)_i|; it feeds the Zig-Zag thinning envelope.
    gaussian_sigmas marks diagonal-Gaussian targets eligible for exact
    Zig-Zag event-time inversion.
    """

    U: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    d: int
    hessian_bound: Callable[[np.ndarray, np.ndarray, float], float] | None = None
    gaussian_sigmas: np.ndarray | None = None

    def __post_init__(self):
        rng = np.random.default_rng(12345)
        probes = rng.standard_normal((5, self.d))
        h = 1e-6
        for p in probes:
            g = np.asarray(self.grad(p[None, :]))[0]
            for i in range(self.d):
                e = np.zeros(self.d)
                e[i] = h
                fd = (float(np.squeeze(self.U((p + e)[None, :])))
                      - float(np.squeeze(self.U((p - e)[None, :])))) / (2 * h)
                if abs(fd - g[i]) > 1e-5 * max(1.0, abs(g[i])):
                    raise ValueError("grad disagrees with finite differences")


def _energy(Ux, v: np.ndarray):
    """H(x, v) = U(x) + |v|^2 / 2 from Ux = U(x), momentum marginal N(0, I)."""
    return Ux + np.add.reduce(v * v, axis=-1) / 2.0


def leapfrog(H: Potential, x: np.ndarray, v: np.ndarray,
             step: float, nleap: int):
    """Velocity-Verlet flow for U(x) + |v|^2 / 2; symmetric splitting
    so the map psi satisfies psi^{-1} = xi o psi o xi with xi(x,v) = (x,-v)."""
    half = 0.5 * step
    kick = half * np.asarray(H.grad(x))  # shared by consecutive half-kicks
    for _ in range(nleap):
        v = v - kick
        x = x + step * v
        kick = half * np.asarray(H.grad(x))
        v = v - kick
    return x, v


def _refresh(v, noise, omega):
    return v * math.cos(omega) + noise * math.sin(omega)


def _ghmc_update(H, x, Ux, v, u, step, nleap, rules, diagnostics=None):
    """Leapfrog proposal and accept stage of one GHMC transition on k * R rows,
    block i of R rows under rules[i]; v is the refreshed momentum, Ux = U(x).
    Non-finite energy errors reject; rejection flips the momentum.  Returns the
    next (x, U(x), v).  The caller silences floating-point warnings."""
    xn, vn = leapfrog(H, x, v, step, nleap)
    Un = np.asarray(H.U(xn))
    de = _energy(Ux, v) - _energy(Un, vn)
    r = np.exp(de)
    a = np.concatenate([rule.phi(ri)
                        for rule, ri in zip(rules, r.reshape(len(rules), -1))])
    ok = np.isfinite(de)
    if diagnostics is not None and not ok.all():
        diagnostics["overflow"] = diagnostics.get("overflow", 0) + int((~ok).sum())
    acc = ((u < a) & ok)[:, None]
    return np.where(acc, xn, x), np.where(acc[:, 0], Un, Ux), np.where(acc, vn, -v)


def ghmc_step(state: PhaseState, H: Potential, step: float,
              nleap: int, omega: float, phi: AcceptanceRule,
              rng: np.random.Generator, diagnostics: dict | None = None) -> PhaseState:
    """Partial momentum refresh (angle omega), leapfrog proposal, accept with
    phi(exp(-energy error)), momentum flip on rejection.

    Draw order: refresh normals first, then the accept uniform.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if not 0 < omega <= math.pi / 2:
        raise ValueError("omega must lie in (0, pi/2]")
    noise = rng.standard_normal(state.x.size)
    u = rng.random()
    x = state.x[None, :]
    v = _refresh(state.v, noise, omega)[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        x, _, v = _ghmc_update(H, x, np.asarray(H.U(x)), v, np.array([u]),
                               step, nleap, [phi], diagnostics)
    return PhaseState(x[0], v[0])


def extra_chance_step(state: PhaseState, H: Potential, step: float,
                      nleap: int, K: int, rng: np.random.Generator) -> PhaseState:
    """Accept stage with K chained proposals psi^k and the monotone ladder
    alpha_k = max{alpha_{k-1}, min{1, r_k}}; no momentum refresh inside."""
    if K < 1:
        raise ValueError("K must be >= 1")
    u = rng.random()
    e0 = float(_energy(H.U(state.x), state.v))
    alpha = 0.0
    x, v = state.x, state.v
    for _k in range(K):
        x, v = leapfrog(H, x, v, step, nleap)
        with np.errstate(over="ignore", invalid="ignore"):
            de = e0 - float(_energy(H.U(x), v))
        r = math.exp(min(de, 700.0)) if np.isfinite(de) else 0.0
        alpha = max(alpha, min(1.0, r))
        if u < alpha:
            return PhaseState(x, v)
    return PhaseState(state.x, -state.v)


def guided_walk_step(x: float, v: int, logdensity: Callable[[float], float],
                     step_draw: Callable[[np.random.Generator], float],
                     rng: np.random.Generator):
    """Propose x + |z| v with z from the symmetric step law; MH-accept against
    the target, flip the direction on rejection."""
    z = abs(step_draw(rng))
    y = x + z * v
    logr = logdensity(y) - logdensity(x)
    if math.log(max(rng.random(), 1e-300)) < logr:
        return y, v
    return x, -v


@dataclass
class ChainStats:
    """Replicate summary of a discounted-variance estimate."""

    autocovariances: np.ndarray
    replicates: int
    per_replicate: np.ndarray
    estimate: float
    se: float

    def __post_init__(self):
        if self.autocovariances.size and self.autocovariances[0] < 0:
            raise ValueError("lag-0 autocovariance must be nonnegative")
        if self.se < 0:
            raise ValueError("standard error must be nonnegative")


def default_max_lag(lam: float) -> int:
    if lam == 0.0:
        return 0
    return int(math.ceil(math.log(1e-8) / math.log(lam)))


def _autocov(values: np.ndarray, max_lag: int) -> np.ndarray:
    c = values - values.mean()
    n = c.size
    out = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        out[k] = np.dot(c[: n - k], c[k:]) / n  # biased normalization
    return out


def estimate_var_lambda(chains, lam: float, max_lag: int | None = None) -> ChainStats:
    """Plug-in discounted-autocovariance estimator.

    chains: array (replicates, length) of observable values (a single 1-D
    chain is treated as one replicate).  Per replicate the estimate is
    gamma_0 + 2 sum_{k<=K} lam^k gamma_k with biased autocovariances; the
    standard error is the replicate sample SD divided by sqrt(R).
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    chains = np.atleast_2d(np.asarray(chains, dtype=float))
    if max_lag is None:
        max_lag = default_max_lag(lam)
    if chains.shape[1] < 10 * max(1, max_lag):
        raise ValueError("chain shorter than 10 * max_lag")
    weights = lam ** np.arange(max_lag + 1)
    weights[1:] *= 2.0
    per = np.empty(chains.shape[0])
    acc_cov = np.zeros(max_lag + 1)
    for r, row in enumerate(chains):
        g = _autocov(row, max_lag)
        acc_cov += g
        per[r] = float(np.dot(weights, g))
    R = chains.shape[0]
    est = float(per.mean())
    se = float(per.std(ddof=1) / math.sqrt(R)) if R > 1 else 0.0
    return ChainStats(acc_cov / R, R, per, est, se)


def run_ghmc_chains(H: Potential, step: float, nleap: int,
                    omega: float, rules: Sequence[AcceptanceRule], n_steps: int,
                    replicates: int, seed: int,
                    observables: Sequence[Callable[[np.ndarray], np.ndarray]],
                    x0: float = 0.0, burn_in: int = 0,
                    block: int = 100_000):
    """Replicate-batched GHMC driver advancing all acceptance rules at once.

    Each replicate owns its Philox stream, split into a noise sub-stream and
    a uniform sub-stream so pre-drawing in blocks does not change the draws.
    Every rule uses the same draws, so its chains are bit-identical to a run
    with that rule alone.  Returns a list of (len(rules) * R, n_steps) arrays,
    one per observable of the position x; rows [i*R:(i+1)*R] are rules[i]'s.
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    k, R, d = len(rules), replicates, H.d
    noise_rngs = [replicate_rng(seed, r) for r in range(R)]
    unif_rngs = [np.random.Generator(g.bit_generator.jumped(1)) for g in noise_rngs]
    cos, sin = math.cos(omega), math.sin(omega)
    x = np.full((k * R, d), float(x0))
    Ux = np.asarray(H.U(x))
    v = np.tile(np.stack([rng.standard_normal(d) for rng in noise_rngs]), (k, 1))
    out = [np.empty((k * R, n_steps)) for _ in observables]
    total = n_steps + burn_in
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, total, block):
            b = min(block, total - start)
            # every rule's rows get its replicate's refresh term and uniform
            noise = np.stack([rng.standard_normal((b, d)) for rng in noise_rngs],
                             axis=1) * sin
            noise = np.tile(noise, (1, k, 1))
            unif = np.tile(np.stack([rng.random(b) for rng in unif_rngs], axis=1),
                           (1, k))
            for i in range(b):
                x, Ux, v = _ghmc_update(H, x, Ux, v * cos + noise[i], unif[i],
                                        step, nleap, rules)
                t = start + i - burn_in
                if t >= 0:
                    for o, f in zip(out, observables):
                        o[:, t] = f(x)
    return out


def ordered_within_se(a: float, se_a: float, b: float, se_b: float) -> float:
    """Violation of a <= b + 2 * sqrt(se_a^2 + se_b^2): 0.0 when the ordering
    holds within two combined standard errors, the excess otherwise, and NaN
    when an input is NaN, so that a `violation <= tol` test fails."""
    gap = a - b - 2.0 * math.hypot(se_a, se_b)
    return 0.0 if gap <= 0.0 else gap


@dataclass
class RuleComparisonRow:
    rule: str
    lam: float
    observable: str
    estimate: float
    se: float


@dataclass
class RuleComparisonReport:
    """max_violation is the worst ``ordered_within_se`` of a rule against
    the first rule over all lambdas and observables (NaN if any is NaN)."""

    rows: list
    max_violation: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= 0.0


def compare_acceptance_rules(H: Potential, omega: float, step: float,
                             nleap: int, rules: Sequence[AcceptanceRule],
                             lambdas: Sequence[float],
                             observables: dict,
                             n_steps: int = 100_000, replicates: int = 16,
                             seed: int = 0, burn_in: int | None = None) -> RuleComparisonReport:
    """Paired GHMC runs across acceptance rules with shared noise streams.

    All rules run in one batch on the same per-replicate Philox streams
    (common refresh noise and accept uniforms).  PASS when, for every lambda
    and observable, the estimate never beats the first (most accepting) rule
    by more than 2 combined standard errors; the report carries the worst
    excess as max_violation.  Raises ValueError unless there are at least
    two rules of distinct kinds, a lambda and an observable.
    """
    kinds = [rule.kind for rule in rules]
    if len(kinds) < 2 or len(set(kinds)) < len(kinds):
        raise ValueError(f"need at least two acceptance rules of distinct kinds, got {kinds}")
    if len(lambdas) == 0 or len(observables) == 0:
        raise ValueError("need at least one lambda and one observable")
    if burn_in is None:
        burn_in = n_steps // 10
    names = list(observables)
    chains = run_ghmc_chains(H, step, nleap, omega, rules, n_steps, replicates,
                             seed, [observables[k] for k in names], burn_in=burn_in)
    R = replicates
    stats = {(kind, lam, name): estimate_var_lambda(vals[i * R:(i + 1) * R], lam)
             for i, kind in enumerate(kinds)
             for name, vals in zip(names, chains) for lam in lambdas}
    rows = [RuleComparisonRow(*key, st.estimate, st.se) for key, st in stats.items()]
    violations = []
    for (_kind, lam, name), b in stats.items():
        a = stats[kinds[0], lam, name]
        violations.append(ordered_within_se(a.estimate, a.se, b.estimate, b.se))
    return RuleComparisonReport(rows, float(np.max(violations)))


def refresh_comparison_witness(omega: float):
    """Closed-form values of <g, Q(R_{pi/2} - R_omega) g>_mu for g1(v) = v and
    g2(v) = v^2 under the unit-variance momentum refreshment of GHMC.

    The two signs differ for omega in (0, pi/2), demonstrating that full and
    partial refreshment are not Dirichlet-comparable.  Asserts nothing.
    """
    g1 = math.cos(omega)
    g2 = -2.0 * math.cos(omega) ** 2
    return g1, g2
