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
rules in one batch, and the kernel gives every rule's rows each replicate's
draws, so the rules share common random numbers.  Its transitions run in a C
kernel, ``_ghmc.c``, with the bits of the numpy transition in
tests/oracles.py; it serves diagonal-Gaussian targets in d <= 2 under the
Metropolis and Barker rules, and the driver refuses every other target and
rule.
The estimator's autocovariances run in a C kernel, ``_autocov.c``, that
calls numpy's own float64 dot, with the bits of one np.dot per lag.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _native
from .finite import _lambda_grid, worst_excess
from .zoo import AcceptanceRule, _barker, _metropolis

_BLOCK = 2_048  # GHMC transitions drawn, advanced and recorded at a time


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    # operator.index: a numpy integer seed would wrap to 0 when shifted by 64
    return np.random.Generator(np.random.Philox(
        key=(operator.index(seed) << 64) + operator.index(replicate)))


def _check_integers(seed, *counts) -> None:
    """Refuse, by name and in order, each (name, value, least) of counts that
    is a bool, not an integer or below least, then a seed outside [0, 2**64),
    the CLI's range and the top 64 bits of a replicate's Philox key."""
    for name, value, least in [*counts, ("seed", seed, 0)]:
        if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                           and value >= least):
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if seed >= 2 ** 64:
        raise ValueError(f"seed must be an integer below 2**64, got {seed!r}")


@dataclass(frozen=True)
class Potential:
    """Smooth potential U with gradient, the target exp(-U(x)) of GHMC (with
    unit-variance Gaussian momentum) and of the Zig-Zag process (with uniform
    velocities on {-1,1}^d).

    U and grad must accept arrays of shape (..., d) and broadcast over the
    leading axes; U returns shape (...), grad returns (..., d).
    hessian_bound(x, v) must bound max_i sup_{s in [0, 1]}
    |(Hess U(x + s v) v)_i|; it feeds the Zig-Zag thinning envelope.
    gaussian_sigmas marks the diagonal-Gaussian targets of zz_gaussian,
    U(x) = sum_i x_i^2 / (2 sigma_i^2): exact Zig-Zag event-time inversion
    and the GHMC kernel compute from the sigmas, not from U and grad, so
    they must be d finite positive values with grad(x) = x / sigma^2.
    """

    U: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    d: int
    hessian_bound: Callable[[np.ndarray, np.ndarray], float] | None = None
    gaussian_sigmas: np.ndarray | None = None

    def __post_init__(self):
        if self.gaussian_sigmas is not None:
            s = np.asarray(self.gaussian_sigmas, dtype=float)
            if s.shape != (self.d,) or not np.all((s > 0) & np.isfinite(s)):
                raise ValueError(f"gaussian_sigmas must be d = {self.d} finite positive "
                                 f"values, got {s.tolist()!r}")
            with np.errstate(over="ignore", divide="ignore"):
                inv2 = 1.0 / (s * s)
        rng = np.random.default_rng(12345)
        probes = rng.standard_normal((5, self.d))
        h = 1e-6
        for p in probes:
            with np.errstate(all="ignore"):  # refused below, by name
                u, g = self.U(p[None, :]), np.asarray(self.grad(p[None, :]))[0]
                want = g if self.gaussian_sigmas is None else p * inv2  # the sigmas' grad
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(g))):
                raise ValueError(f"U or grad is not finite at the probe {p.tolist()!r}")
            if not np.all(np.abs(g - want) <= 1e-12 * np.maximum(1.0, np.abs(g))):
                raise ValueError(f"grad disagrees with gaussian_sigmas at the probe "
                                 f"{p.tolist()!r}")
            for i in range(self.d):
                e = np.zeros(self.d)
                e[i] = h
                fd = (float(np.squeeze(self.U((p + e)[None, :])))
                      - float(np.squeeze(self.U((p - e)[None, :])))) / (2 * h)
                if not abs(fd - g[i]) <= 1e-5 * max(1.0, abs(g[i])):
                    raise ValueError("grad disagrees with finite differences")


_NO_EXP_LOOP = "np.exp has no float64 loop ('d->d') for the GHMC kernel to call"


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


def _autocov(chains: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocovariances at lags 0..max_lag of each row of the (R, n)
    block chains: row r is c = chains[r] - chains[r].mean() and lag k is
    np.dot(c[:n - k], c[k:]) / n, with the bits of that numpy loop whatever
    the block's layout and dtype.  Refuses max_lag outside [0, n)."""
    # C order first: on a Fortran-ordered block mean(axis=1) does not sum
    # each row as row.mean() does
    chains = np.ascontiguousarray(chains, dtype=float)
    R, n = chains.shape
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag must lie in [0, {n}) for chains of length {n}, "
                         f"got {max_lag!r}")
    out = np.empty((R, max_lag + 1))
    _native.entry("autocov_rows")(chains, chains.mean(axis=1), max_lag, out)
    return out


def estimate_var_lambda(chains, lam: float) -> ChainStats:
    """Plug-in discounted-autocovariance estimator.

    chains: array (R, length) of observable values, R >= 2 replicates and
    length >= min_chain_length(lam).  Per replicate the estimate is
    gamma_0 + 2 sum_{k<=K} lam^k gamma_k with biased autocovariances and
    K = default_max_lag(lam) (the first lag with lam^K <= 1e-8); the
    standard error is the replicate sample SD divided by sqrt(R).
    """
    (lam,) = _lambda_grid([lam])
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
    for r, g in enumerate(_autocov(chains, max_lag)):
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
    Every rule reads the same draws, passed once per block, so its chains are
    bit-identical to a run with that rule alone.  The closing half-kick of
    each leapfrog flow opens the next one from an accepted proposal, which
    saves a gradient per step.
    Returns a list of (len(rules) * R, n_steps) arrays, one per observable of
    the position x, recorded after burn_in >= 0 steps; rows [i*R:(i+1)*R] are
    rules[i]'s.  Each observable maps an (m, d) array of positions row by row
    to m values; it is applied once per block, to all the positions the block
    recorded.

    The transitions run in the C kernel ``_ghmc.c``, which serves
    diagonal-Gaussian targets (gaussian_sigmas set) in d <= 2 under rules
    whose phi is the Metropolis or Barker function; any other target or rule
    raises ValueError before any draw, after the checks that n_steps,
    burn_in, replicates, nleap and seed are integers (not bools) of at least
    0, 0, 1, 1 and 0 (seed below 2**64), that step is finite and > 0 and
    omega finite, and of empty rules.  A failed build of the kernel raises
    RuntimeError before any draw.
    """
    _check_integers(seed, ("n_steps", n_steps, 0), ("burn_in", burn_in, 0),
                    ("replicates", replicates, 1), ("nleap", nleap, 1))
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega!r}")
    if len(rules) == 0:
        raise ValueError("rules is empty: GHMC needs at least one acceptance rule")
    k, R, d = len(rules), replicates, H.d
    if not (H.gaussian_sigmas is not None and d <= 2
            and all(rule.phi is _metropolis or rule.phi is _barker for rule in rules)):
        raise ValueError("run_ghmc_chains serves diagonal-Gaussian targets (gaussian_sigmas "
                         "set) in d <= 2 under rules whose phi is the Metropolis or Barker "
                         f"function, got d = {d} and rules {[rule.kind for rule in rules]}")
    ghmc_run = _native.entry("ghmc_run")  # built or loaded before any draw
    if "d->d" not in np.exp.types:
        raise RuntimeError(_NO_EXP_LOOP)
    s = np.asarray(H.gaussian_sigmas, dtype=float)
    inv2 = 1.0 / (s * s)  # as zz_gaussian forms it
    barker = np.array([rule.phi is _barker for rule in rules], dtype=np.intc)
    noise_rngs = [replicate_rng(seed, r) for r in range(R)]
    unif_rngs = [np.random.Generator(g.bit_generator.jumped(1)) for g in noise_rngs]
    cos, sin = math.cos(omega), math.sin(omega)
    x = np.zeros((k * R, d))
    Ux = np.array(H.U(x), dtype=float)  # x, Ux, v and kick: updated in place
    kick = 0.5 * step * np.asarray(H.grad(x), dtype=float)
    v = np.tile(np.stack([rng.standard_normal(d) for rng in noise_rngs]), (k, 1))
    out = [np.empty((k * R, n_steps)) for _ in observables]
    total = n_steps + burn_in
    for start in range(0, total, _BLOCK):
        b = min(_BLOCK, total - start)
        # (b, R, d) and (b, R): the kernel reads them for every rule's rows
        noise = np.stack([rng.standard_normal((b, d)) for rng in noise_rngs],
                         axis=1) * sin
        unif = np.stack([rng.random(b) for rng in unif_rngs], axis=1)
        xs = np.empty((b, k * R, d))  # x after each of the block's steps
        ghmc_run(np.exp, barker, inv2, cos, step, nleap, noise, unif, x, Ux, v, kick, xs)
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
    lies in [0, 1), n_steps >= min_chain_length(max(lambdas)) and
    run_ghmc_chains serves H and the rules; after sampling, when the chains
    of some rule and observable never moved (lag-0 autocovariance exactly
    0.0, as when every proposal is rejected).  A failed build of the C
    kernels raises RuntimeError before sampling.
    """
    kinds = [rule.kind for rule in rules]
    if len(kinds) < 2 or len(set(kinds)) < len(kinds):
        raise ValueError(f"need at least two acceptance rules of distinct kinds, got {kinds}")
    if len(observables) == 0 or replicates < 2:
        raise ValueError("need at least one observable and 2 replicates")
    grid = _lambda_grid(lambdas)
    if n_steps < (need := min_chain_length(max(grid))):
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

