"""Continuous-state samplers and empirical discounted-variance estimation.

Implements GHMC with leapfrog integration and partial momentum refreshment,
and the plug-in estimator for the discounted sum of autocovariances with
replicate standard errors.

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

from .finite import worst_excess
from .zoo import AcceptanceRule

_BLOCK = 2_048  # GHMC transitions drawn, advanced and recorded at a time


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 64) + replicate))


@dataclass(frozen=True)
class Potential:
    """Smooth potential U with gradient, the target exp(-U(x)) of GHMC (with
    unit-variance Gaussian momentum) and of the Zig-Zag process (with uniform
    velocities on {-1,1}^d).

    U and grad must accept arrays of shape (..., d) and broadcast over the
    leading axes; U returns shape (...), grad returns (..., d).
    hessian_bound(x, v) must bound max_i sup_{s in [0, 1]}
    |(Hess U(x + s v) v)_i|; it feeds the Zig-Zag thinning envelope.
    gaussian_sigmas marks diagonal-Gaussian targets eligible for exact
    Zig-Zag event-time inversion.
    """

    U: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    d: int
    hessian_bound: Callable[[np.ndarray, np.ndarray], float] | None = None
    gaussian_sigmas: np.ndarray | None = None

    def __post_init__(self):
        rng = np.random.default_rng(12345)
        probes = rng.standard_normal((5, self.d))
        h = 1e-6
        for p in probes:
            with np.errstate(all="ignore"):  # refused below, by name
                u, g = self.U(p[None, :]), np.asarray(self.grad(p[None, :]))[0]
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(g))):
                raise ValueError(f"U or grad is not finite at the probe {p.tolist()!r}")
            for i in range(self.d):
                e = np.zeros(self.d)
                e[i] = h
                fd = (float(np.squeeze(self.U((p + e)[None, :])))
                      - float(np.squeeze(self.U((p - e)[None, :])))) / (2 * h)
                if not abs(fd - g[i]) <= 1e-5 * max(1.0, abs(g[i])):
                    raise ValueError("grad disagrees with finite differences")


def _energy(Ux, v: np.ndarray):
    """H(x, v) = U(x) + |v|^2 / 2 from Ux = U(x), momentum marginal N(0, I)."""
    return Ux + np.add.reduce(v * v, axis=-1) / 2.0


def leapfrog(H: Potential, x: np.ndarray, v: np.ndarray, kick: np.ndarray,
             step: float, nleap: int):
    """Velocity-Verlet flow for U(x) + |v|^2 / 2; symmetric splitting
    so the map psi satisfies psi^{-1} = xi o psi o xi with xi(x,v) = (x,-v).
    kick is the opening half-kick 0.5 * step * grad U(x); returns the final
    (x, v) and the closing half-kick at the final x, which opens the next
    flow from there."""
    half = 0.5 * step
    for _ in range(nleap):
        v = v - kick
        x = x + step * v
        kick = half * np.asarray(H.grad(x))  # shared by consecutive half-kicks
        v = v - kick
    return x, v, kick


def _ghmc_update(H, x, Ux, kick, v, u, step, nleap, rules):
    """Leapfrog proposal and accept stage of one GHMC transition on k * R rows,
    block i of R rows under rules[i]; v is the refreshed momentum, Ux = U(x)
    and kick = 0.5 * step * grad U(x).  Non-finite energy errors reject;
    rejection flips the momentum.  Returns the next (x, U(x), v, kick).  The
    caller silences floating-point warnings."""
    xn, vn, kn = leapfrog(H, x, v, kick, step, nleap)
    Un = np.asarray(H.U(xn))
    n = len(u)
    e = _energy(np.concatenate((Ux, Un)), np.concatenate((v, vn)))
    de = e[:n] - e[n:]
    r = np.exp(de)
    a = np.empty(n)
    R = n // len(rules)
    for i, rule in enumerate(rules):
        a[i * R:(i + 1) * R] = rule.phi(r[i * R:(i + 1) * R])
    acc = ((u < a) & np.isfinite(de))[:, None]
    return (np.where(acc, xn, x), np.where(acc[:, 0], Un, Ux),
            np.where(acc, vn, -v), np.where(acc, kn, kick))


@dataclass
class ChainStats:
    """Replicate summary of a discounted-variance estimate."""

    autocovariances: np.ndarray
    estimate: float
    se: float


def default_max_lag(lam: float) -> int:
    if lam == 0.0:
        return 0
    return int(math.ceil(math.log(1e-8) / math.log(lam)))


def min_chain_length(lam: float) -> int:
    """Shortest chain estimate_var_lambda accepts at lam: ten lag windows."""
    return 10 * max(1, default_max_lag(lam))


def _autocov(values: np.ndarray, max_lag: int) -> np.ndarray:
    c = values - values.mean()
    n = c.size
    out = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        out[k] = np.dot(c[: n - k], c[k:]) / n  # biased normalization
    return out


def estimate_var_lambda(chains, lam: float) -> ChainStats:
    """Plug-in discounted-autocovariance estimator.

    chains: array (R, length) of observable values, R >= 2 replicates and
    length >= min_chain_length(lam).  Per replicate the estimate is
    gamma_0 + 2 sum_{k<=K} lam^k gamma_k with biased autocovariances and
    K = default_max_lag(lam) (the first lag with lam^K <= 1e-8); the
    standard error is the replicate sample SD divided by sqrt(R).
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    chains = np.asarray(chains, dtype=float)
    if chains.ndim != 2 or chains.shape[0] < 2:
        raise ValueError("need a (replicates, length) array with at least 2 "
                         f"replicates for a standard error, got shape {chains.shape}")
    if chains.shape[1] < min_chain_length(lam):
        raise ValueError("chain shorter than 10 * max_lag")
    max_lag = default_max_lag(lam)
    weights = lam ** np.arange(max_lag + 1)
    weights[1:] *= 2.0
    per = np.empty(chains.shape[0])
    acc_cov = np.zeros(max_lag + 1)
    for r, row in enumerate(chains):
        g = _autocov(row, max_lag)
        acc_cov += g
        per[r] = float(np.dot(weights, g))
    R = chains.shape[0]
    return ChainStats(acc_cov / R, float(per.mean()), float(per.std(ddof=1) / math.sqrt(R)))


def run_ghmc_chains(H: Potential, step: float, nleap: int,
                    omega: float, rules: Sequence[AcceptanceRule], n_steps: int,
                    replicates: int, seed: int,
                    observables: Sequence[Callable[[np.ndarray], np.ndarray]],
                    *, burn_in: int = 0):
    """Replicate-batched GHMC driver advancing all acceptance rules at once.

    Each replicate owns its Philox stream, split into a noise sub-stream and
    a uniform sub-stream so pre-drawing in blocks does not change the draws.
    Every rule uses the same draws, so its chains are bit-identical to a run
    with that rule alone.  The closing half-kick of each leapfrog flow opens
    the next one from an accepted proposal, which saves a gradient per step.
    Returns a list of (len(rules) * R, n_steps) arrays, one per observable of
    the position x, recorded after burn_in >= 0 steps; rows [i*R:(i+1)*R] are
    rules[i]'s.  Each observable maps an (m, d) array of positions row by row
    to m values; it is applied once per block, to all the positions the block
    recorded.
    """
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in!r}")
    k, R, d = len(rules), replicates, H.d
    noise_rngs = [replicate_rng(seed, r) for r in range(R)]
    unif_rngs = [np.random.Generator(g.bit_generator.jumped(1)) for g in noise_rngs]
    cos, sin = math.cos(omega), math.sin(omega)
    x = np.zeros((k * R, d))
    Ux = np.asarray(H.U(x))
    kick = 0.5 * step * np.asarray(H.grad(x))
    v = np.tile(np.stack([rng.standard_normal(d) for rng in noise_rngs]), (k, 1))
    out = [np.empty((k * R, n_steps)) for _ in observables]
    total = n_steps + burn_in
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, total, _BLOCK):
            b = min(_BLOCK, total - start)
            # every rule's rows get its replicate's refresh term and uniform
            noise = np.stack([rng.standard_normal((b, d)) for rng in noise_rngs],
                             axis=1) * sin
            noise = np.tile(noise, (1, k, 1))
            unif = np.tile(np.stack([rng.random(b) for rng in unif_rngs], axis=1),
                           (1, k))
            xs = np.empty_like(noise)  # x after each of the block's steps
            for i in range(b):
                x, Ux, v, kick = _ghmc_update(H, x, Ux, kick, v * cos + noise[i],
                                              unif[i], step, nleap, rules)
                xs[i] = x
            lo = max(0, burn_in - start)  # the block's first recorded step
            if lo < b:
                t = start + lo - burn_in
                rows = xs[lo:].reshape(-1, d)
                for o, f in zip(out, observables):
                    o[:, t:t + b - lo] = np.reshape(f(rows), (b - lo, k * R)).T
    return out


def ordered_within_se(a: float, se_a: float, b: float, se_b: float) -> float:
    """Violation of a <= b + 2 * sqrt(se_a^2 + se_b^2), as finite.worst_excess
    forms it: 0.0 when the ordering holds within two combined standard
    errors, the excess otherwise, and NaN when an input is NaN."""
    return worst_excess(a - b - 2.0 * math.hypot(se_a, se_b))


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
                             seed: int = 0) -> RuleComparisonReport:
    """Paired GHMC runs across acceptance rules with shared noise streams.

    All rules run in one batch on the same per-replicate Philox streams
    (common refresh noise and accept uniforms), after n_steps // 10 steps
    of burn-in.  PASS when, for every lambda and observable, the estimate
    never beats the first (most accepting) rule by more than 2 combined
    standard errors; the report carries the worst excess as max_violation.
    Raises ValueError before sampling unless there are at least two rules of
    distinct kinds, a lambda, an observable and 2 replicates, every lambda
    lies in [0, 1) and n_steps >= min_chain_length(max(lambdas)); after
    sampling, when the chains of some rule and observable never moved
    (lag-0 autocovariance exactly 0.0, as when every proposal is rejected).
    """
    kinds = [rule.kind for rule in rules]
    if len(kinds) < 2 or len(set(kinds)) < len(kinds):
        raise ValueError(f"need at least two acceptance rules of distinct kinds, got {kinds}")
    if len(lambdas) == 0 or len(observables) == 0 or replicates < 2:
        raise ValueError("need at least one lambda, one observable and 2 replicates")
    if not all(0.0 <= lam < 1.0 for lam in lambdas):
        raise ValueError(f"lambda must lie in [0, 1), got {list(lambdas)!r}")
    if n_steps < (need := min_chain_length(max(lambdas))):
        raise ValueError(f"n_steps must be >= {need} at lambda {max(lambdas)!r}, got {n_steps}")
    names = list(observables)
    chains = run_ghmc_chains(H, step, nleap, omega, rules, n_steps, replicates,
                             seed, [observables[k] for k in names],
                             burn_in=n_steps // 10)
    R = replicates
    stats = {(kind, lam, name): estimate_var_lambda(vals[i * R:(i + 1) * R], lam)
             for i, kind in enumerate(kinds)
             for name, vals in zip(names, chains) for lam in lambdas}
    frozen = {(k, name) for (k, _, name), st in stats.items() if st.autocovariances[0] == 0.0}
    if frozen:
        raise ValueError(f"no evidence: chains never moved for {sorted(frozen)}")
    rows = [RuleComparisonRow(*key, st.estimate, st.se) for key, st in stats.items()]
    violations = []
    for (_kind, lam, name), b in stats.items():
        a = stats[kinds[0], lam, name]
        violations.append(ordered_within_se(a.estimate, a.se, b.estimate, b.se))
    return RuleComparisonReport(rows, worst_excess(violations))

