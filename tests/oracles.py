"""Test oracles and fixtures that the package itself never calls.

Each one recomputes a quantity of the package by a different route (a
truncated series, a half-square-sum form, an explicit symmetrization, a
per-state loop in place of index arithmetic, a per-vector solve in place of
a block solve, one intensity call per thinning proposal in place of a block,
one lambda per call in place of a grid, a centred second pass in place of
one batch-means pass), builds a target the catalog does not use, or drives
one of the package's clocks on its own, so it lives beside the tests that
use it rather than inside the package under test.  Seventeen are earlier
forms of package code kept verbatim (the three flip-time references,
expectation_mu, the generic jump generator, the per-function gap and the
Gram form that applied the jump generator per function and velocity, the
GHMC driver that recorded every observable on every step and the energy it
formed (the one numpy form of GHMC, since the package runs its GHMC
transitions in C only), the finite grids and neal-ordering loop that solved
every lambda in this process, the PQ form of the dominance certificate, the
per-lag autocovariance loop with the estimator that called it row by row,
and the trajectory's state_at with the window integrals that searched it per
node set and summed each window with its own np.dot), so that a rewrite can
be held to them bit for bit.
"""

import math

import numpy as np
from scipy.interpolate import CubicSpline

from nonrev import finite, zoo
from nonrev.experiments import ResultRow, _check, _neal_t2
from nonrev.finite import (DeterministicInvolution, FiniteDistribution,
                           HypothesisNotCertified, KernelMatrix, NotReversibleError,
                           Observable, OrderingCertificate, OrderingReport,
                           _check_dims, _lambda_grid, centered, check_mu_reversible,
                           check_muQ_reversible, dirichlet_dominance_certificate,
                           inner, psd_certificate)
from nonrev.samplers import Potential, default_max_lag, replicate_rng
from nonrev.zigzag import (_GL3, _GL8, EnvelopeViolation, ZigZagTrajectory,
                           _all_velocities, _gh_nodes, _lockstep, _thinned_clock,
                           _window_integrals, batch_means_variance, intensity,
                           simulate_zigzag)
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


# Per-lambda references for the grid forms of finite.var_lambda,
# finite.var_lambda_series and finite.var_lambda_cycle: one lambda per call,
# and the cycle scales P1 by lam^2 before the product, as (lam^2 P1) @ P2.

def var_lambda_reference(f: Observable, P: KernelMatrix, mu: FiniteDistribution,
                         lam: float) -> float:
    """Discounted asymptotic variance 2<fbar, (Id - lam P)^{-1} fbar>_mu - |fbar|^2."""
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    _check_dims(f.n, P.n, mu.n)
    fbar = centered(f, mu)
    g = np.linalg.solve(np.eye(P.n) - lam * P.entries, fbar)
    return 2.0 * inner(fbar, g, mu) - inner(fbar, fbar, mu)


def var_lambda_series_reference(f: Observable, P: KernelMatrix, mu: FiniteDistribution,
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


def var_lambda_cycle_reference(f: Observable, P1: KernelMatrix, P2: KernelMatrix,
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


def thinned_flip_time(spec, pot: Potential, i: int, x: np.ndarray, v: np.ndarray,
                      rng, horizon: float = np.inf) -> float:
    """zigzag._thinned_clock driven on its own through one zigzag._lockstep,
    its slope from one gradient call, as the event loop gives it."""
    slope = float(np.asarray(pot.grad(x[None, :]))[0, i] * v[i])
    return _lockstep(spec, pot, [_thinned_clock(spec, pot, i, x, v, rng, horizon, slope)])[0]


def thinned_flip_time_reference(spec, pot: Potential, i: int, x: np.ndarray,
                                v: np.ndarray, rng, horizon: float = np.inf) -> float:
    """First arrival of the inhomogeneous rate t -> lambda_i(x + t v, v) by
    thinning against the affine envelope lam(0) + B t, refreshed per unit
    time window.

    Valid for every intensity kind here (gamma is constant): smooth kinds
    are 1-Lipschitz transforms of s(t) = dU_i(x + t v) v_i, so the ray bound
    B on |s'(t)| dominates |d lambda / dt| as well.  An intensity above the
    envelope (a hessian_bound that is too small) raises EnvelopeViolation.

    The scalar form of thinned_flip_time above: one intensity call per
    proposal, and each proposal reads one exponential() and, inside the
    window, one random() in turn.
    """
    if pot.hessian_bound is None:
        raise EnvelopeViolation("no ray bound available for thinning envelope")
    s = 0.0
    while s < horizon:
        base = float(intensity(spec, pot, i, x + s * v, v))
        B = float(pot.hessian_bound(x + s * v, v)) + 1e-12
        u = 0.0
        lam0 = base
        while u < 1.0:
            e = rng.exponential()
            # first point of rate lam0 + B t after u, within the window
            du = 2 * e / (lam0 + math.sqrt(lam0 * lam0 + 2 * B * e))
            if u + du >= 1.0:
                break
            u += du
            lam0 = base + B * u
            true = float(intensity(spec, pot, i, x + (s + u) * v, v))
            if true > lam0 + 1e-9:
                raise EnvelopeViolation(
                    f"intensity {true} exceeds envelope {lam0} at offset {s + u}")
            if rng.random() * lam0 < true:
                return s + u
        s += 1.0
    return math.inf


def state_at(traj: ZigZagTrajectory, t):
    """Positions and velocities of the path at times t (vectorized), each
    from a search over all event times; refuses t outside [0, horizon]."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t < 0) or np.any(t > traj.horizon + 1e-12):
        raise ValueError("t outside [0, horizon]")
    k = np.clip(np.searchsorted(traj.times, t, side="right") - 1, 0, None)
    x = traj.X[k] + (t - traj.times[k])[:, None] * traj.V[k]
    return x, traj.V[k]


def window_integrals_reference(traj: ZigZagTrajectory, f, degree: int | None,
                               edges) -> np.ndarray:
    """Time integrals of f(Z_s) over the windows [edges[k], edges[k+1]].

    The path is cut at the edges and at the event times strictly between
    the first and last edge, and every segment gets the Gauss-Legendre rule;
    f is evaluated once per node over all segments, and each window sums
    its own segments with one dot product per node.
    """
    edges = np.asarray(edges, dtype=float)
    if not (edges[0] >= 0.0 and np.all(np.diff(edges) > 0)
            and edges[-1] <= traj.horizon + 1e-12):
        raise ValueError("bad integration window")
    nodes, weights = _GL3 if (degree is not None and degree <= 4) else _GL8
    # np.union1d's points, sorted, without the numpy.ma import np.unique makes on first use
    inside = traj.times[(traj.times > edges[0]) & (traj.times < edges[-1])]
    cut = np.sort(np.concatenate((edges, inside[~np.isin(inside, edges, assume_unique=True)])))
    bounds = np.searchsorted(cut, edges).tolist()
    a, b = cut[:-1], cut[1:]
    half, mid = (b - a) / 2.0, (a + b) / 2.0
    totals = [0.0] * (len(bounds) - 1)
    for z, w in zip(nodes, weights):
        x, v = state_at(traj, mid + z * half)
        vals = np.asarray(f(x, v), dtype=float)
        wh = w * half
        for k, (s, e) in enumerate(zip(bounds, bounds[1:])):
            totals[k] += float(np.dot(wh[s:e], vals[s:e]))
    return np.array(totals)


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


def estimate_var_continuous_reference(pot: Potential, spec, f, horizon: float,
                                      replicates: int, lam: float, seed: int,
                                      degree: int | None = None):
    """zigzag.estimate_var_continuous with one replicate simulated and
    reduced after another, each by its own simulate_zigzag call."""
    if replicates < 2:
        raise ValueError("need at least 2 replicates for a standard error")
    if lam != 0:
        raise ValueError(f"only lam = 0 is supported, got {lam!r}")
    d = pot.d
    burn = horizon / 10.0
    per = np.empty(replicates)
    for r in range(replicates):
        rng = replicate_rng(seed, r)
        v0 = np.where(rng.random(d) < 0.5, -1.0, 1.0)
        traj = simulate_zigzag(pot, spec, np.zeros(d), v0, horizon + burn, rng)
        per[r] = batch_means_variance(traj, f, burn, burn + horizon, degree)
    return float(per.mean()), float(per.std(ddof=1) / math.sqrt(replicates))


def _flip(v: np.ndarray, i: int) -> np.ndarray:
    w = v.copy()
    w[..., i] = -w[..., i]
    return w


def jump_generator(pot: Potential, spec, g, x: np.ndarray, v: np.ndarray):
    """(Jg)(x, v) = sum_i lambda_i(x, v) [g(x, flip_i v) - g(x, v)] plus the
    refresh term: the generator without its transport term <grad_x g, v>.
    Batched over the leading axis."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    d = pot.d
    gv = np.asarray(g(x, v), dtype=float)
    flips = [np.asarray(g(x, _flip(v, i)), dtype=float) - gv for i in range(d)]
    out = np.zeros_like(gv)
    for i, dg in enumerate(flips):
        out += intensity(spec, pot, i, x, v) * dg
    lb = spec.refresh_rate
    if lb > 0 and spec.refresh_mode == "full":
        vs = _all_velocities(d)
        mean = sum(np.asarray(g(x, np.broadcast_to(w, v.shape)), dtype=float)
                   for w in vs) / vs.shape[0]
        out += lb * (mean - gv)
    elif lb > 0:
        for dg in flips:
            out += (lb / d) * dg
    return out


def gap_gram_reference(pot: Potential, spec1, spec2, gs, m: int) -> np.ndarray:
    """zigzag._gap_gram as it was before its tables: G[j, k] = <g_j, (J2 - J1)
    Q g_k>_mu on m nodes per half-axis, each (J2 - J1) Q g_k formed by
    jump_generator at every velocity, and each entry summed over the
    velocities one dot product at a time."""
    x, wx = _gh_nodes(pot, m)
    vs = _all_velocities(pot.d)
    qgs = [lambda x, v, g=g: g(x, -v) for g in gs]
    gram = np.zeros((len(gs), len(gs)))
    for w in vs:
        v = np.broadcast_to(w, x.shape).copy()
        gv = [np.asarray(g(x, v), dtype=float) for g in gs]
        dv = [jump_generator(pot, spec2, qg, x, v) - jump_generator(pot, spec1, qg, x, v)
              for qg in qgs]
        for j, a in enumerate(gv):
            for k, b in enumerate(dv):
                gram[j, k] += float(np.dot(wx, a * b))
    return gram / vs.shape[0]


def expectation_mu(pot: Potential, fn, m: int = 40) -> float:
    """E_mu[fn(x, v)] for a diagonal Gaussian mu, by the gap quadrature's
    tensor nodes over x and an exact sum over v."""
    x, wx = _gh_nodes(pot, m)
    vs = _all_velocities(pot.d)
    total = 0.0
    for w in vs:
        vv = np.broadcast_to(w, x.shape).copy()
        total += float(np.dot(wx, np.asarray(fn(x, vv), dtype=float)))
    return total / vs.shape[0]


def dirichlet_gap_reference(pot: Potential, spec1, spec2, g, m: int = 40) -> float:
    """<g, (J2 - J1) Q g>_mu for one function g, as zigzag.dirichlet_gap_quadrature
    computed it before it returned the Gram form of a list: one expectation_mu
    of g (J2 - J1) Q g per resolution, m and m + 16, the finer one returned."""

    def qg(x, v):
        return g(x, -v)

    def integrand(x, v):
        diff = (jump_generator(pot, spec2, qg, x, v)
                - jump_generator(pot, spec1, qg, x, v))
        return np.asarray(g(x, v), dtype=float) * diff

    coarse = expectation_mu(pot, integrand, m)
    fine = expectation_mu(pot, integrand, m + 16)
    if abs(fine - coarse) > 1e-4 * max(1.0, abs(fine)):
        raise ValueError(f"quadrature not converged: {coarse!r} vs {fine!r}")
    return fine


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
    and one var_lambda_reference solve at a time, on the same draws."""
    cert = dirichlet_dominance_certificate(P1, P2, mu, Q)
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
            worst_plus = max(worst_plus, var_lambda_reference(fp, P1, mu, lam)
                             - var_lambda_reference(fp, P2, mu, lam))
            worst_minus = max(worst_minus, var_lambda_reference(fm, P2, mu, lam)
                              - var_lambda_reference(fm, P1, mu, lam))
    return OrderingReport(worst_plus, worst_minus)


# Earlier forms of package code, verbatim: finite.verify_ordering_theorem
# with its own copy of the var_lambda formula, solving both kernels per
# lambda inside the loop, the PQ form of the dominance certificate, and
# the exact clock in two Python forms (the compiled kernel's flip_time now):
# with a separate gamma == 0, a >= 0 branch, and the last one before the
# kernel took it over.

def verify_ordering_block_reference(P1: KernelMatrix, P2: KernelMatrix,
                                    mu: FiniteDistribution, Q: DeterministicInvolution,
                                    lambdas, trials: int = 100,
                                    rng_seed: int = 0) -> OrderingReport:
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


def dirichlet_dominance_certificate_pq(P1: KernelMatrix, P2: KernelMatrix,
                                       mu: FiniteDistribution,
                                       Q: DeterministicInvolution) -> OrderingCertificate:
    """The PQ form of finite.dirichlet_dominance_certificate (its former
    side="right"): the mu-symmetrized D^{1/2} (P2 Q - P1 Q) D^{-1/2}."""
    _check_dims(P1.n, P2.n, mu.n, Q.n)
    for P in (P1, P2):
        if not check_muQ_reversible(P, mu, Q):
            raise NotReversibleError("certificate requires (mu,Q)-reversible kernels")
    s = P2.entries[:, Q.perm] - P1.entries[:, Q.perm]
    r = np.sqrt(mu.weights)
    return psd_certificate((r[:, None] * s) / r[None, :])


def exact_flip_time_split_reference(a: float, b: float, gamma: float,
                                     e: float) -> float:
    """First time Lambda(t) = e for rate (a + b t)_+ + gamma, b > 0.

    The root of c t + b t^2 / 2 = e is taken in the conjugate form
    2e / (c + sqrt(c^2 + 2be)), which does not cancel when c >> sqrt(be).
    """
    if gamma == 0.0:
        if a >= 0:
            return 2 * e / (a + math.sqrt(a * a + 2 * b * e))
        t0 = -a / b
        return t0 + math.sqrt(2 * e / b)
    if a >= 0:
        ag = a + gamma
        return 2 * e / (ag + math.sqrt(ag * ag + 2 * b * e))
    t0 = -a / b
    if e < gamma * t0:
        return e / gamma
    rem = e - gamma * t0
    return t0 + 2 * rem / (gamma + math.sqrt(gamma * gamma + 2 * b * rem))


# Earlier forms of finite._resolvent_var, finite.var_lambda_cycle and the
# lambda loop of experiments.run_neal_ordering, verbatim: every system built
# as eye - c P and solved in this process, and each neal observable drawn
# inside the loop.

def resolvent_var_reference(fbar: np.ndarray, P: KernelMatrix, w: np.ndarray,
                            grid) -> np.ndarray:
    sq = w @ (fbar * fbar)
    eye = np.eye(P.n)
    return np.array([2.0 * (w @ (fbar * np.linalg.solve(eye - lam * P.entries, fbar))) - sq
                     for lam in grid])


def var_lambda_cycle_grid_reference(f: Observable, P1: KernelMatrix, P2: KernelMatrix,
                                    mu: FiniteDistribution, lambdas) -> np.ndarray:
    grid = _lambda_grid(lambdas)
    _check_dims(f.n, P1.n, P2.n, mu.n)
    fbar = centered(f, mu)
    sq = inner(fbar, fbar, mu)
    eye = np.eye(P1.n)
    p12, p21 = P1.entries @ P2.entries, P2.entries @ P1.entries
    out = []
    for lam in grid:
        a = np.linalg.solve(eye - lam ** 2 * p12, fbar + lam * P1.entries @ fbar)
        b = np.linalg.solve(eye - lam ** 2 * p21, fbar + lam * P2.entries @ fbar)
        out.append(inner(fbar, a, mu) + inner(fbar, b, mu) - sq)
    return np.array(out)


def run_neal_ordering_reference(cfg: dict, seed: int):
    T2, pi = _neal_t2(cfg["weights"])
    P1, P2, mu, Q = zoo.neal_pair_kernels(T2, pi)
    n = pi.n
    rng = np.random.default_rng(seed)
    rows, resids, diffs = [], [], []
    for lam in cfg["lambdas"]:  # a fresh observable per lambda
        f = rng.standard_normal(n)
        g = Observable(np.add.outer(f, f).ravel())  # g(x1,x2) = f(x1)+f(x2)
        fb = Observable(np.repeat(f, n))            # f(x1) lifted to pairs
        fbar = finite.centered(Observable(f), pi)
        var_pi = finite.inner(fbar, fbar, pi)
        vals = {}
        for name, P in (("P1", P1), ("P2", P2)):
            vg = finite.var_lambda(g, P, mu, [lam])[0]
            vf = finite.var_lambda(fb, P, mu, [lam])[0]
            vals[name] = vf
            ident = -(1 - lam ** 2) / lam * var_pi + (1 + lam) ** 2 / lam * vf
            resid = abs(vg - ident)
            resids.append(resid)
            rows.append(ResultRow("neal-ordering", name, lam, vg, 0.0, ident,
                                  resid <= 1e-9))
        diffs.append(vals["P1"] - vals["P2"])
    checks = [_check("pair-variance-identity", resids),
              _check("never-stay-dominates", diffs)]
    return rows, checks


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


GHMC_BLOCK_REFERENCE = 100_000  # transitions of noise and uniforms drawn at a time


def _energy(Ux, v: np.ndarray):
    """H(x, v) = U(x) + |v|^2 / 2 from Ux = U(x), momentum marginal N(0, I)."""
    return Ux + np.add.reduce(v * v, axis=-1) / 2.0


def leapfrog_reference(H: Potential, x: np.ndarray, v: np.ndarray,
                       step: float, nleap: int):
    """Velocity-Verlet flow for U(x) + |v|^2 / 2, opening with its own
    gradient call: the package's numpy leapfrog before it took the opening
    half-kick.  The splitting is symmetric, so the map psi satisfies
    psi^{-1} = xi o psi o xi with xi(x, v) = (x, -v)."""
    half = 0.5 * step
    kick = half * np.asarray(H.grad(x))  # shared by consecutive half-kicks
    for _ in range(nleap):
        v = v - kick
        x = x + step * v
        kick = half * np.asarray(H.grad(x))
        v = v - kick
    return x, v


def ghmc_update_reference(H, x, Ux, v, u, step, nleap, rules):
    """One GHMC transition on k * R rows, block i of R rows under rules[i]:
    the package's numpy transition before it carried the half-kick, and the
    transition that _ghmc.c computes from the carried one.  v is the
    refreshed momentum; non-finite energy errors reject, and rejection
    flips the momentum.  Returns the next (x, U(x), v)."""
    xn, vn = leapfrog_reference(H, x, v, step, nleap)
    Un = np.asarray(H.U(xn))
    de = _energy(Ux, v) - _energy(Un, vn)
    r = np.exp(de)
    a = np.concatenate([rule.phi(ri)
                        for rule, ri in zip(rules, r.reshape(len(rules), -1))])
    acc = ((u < a) & np.isfinite(de))[:, None]
    return np.where(acc, xn, x), np.where(acc[:, 0], Un, Ux), np.where(acc, vn, -v)


def run_ghmc_chains_reference(H: Potential, step: float, nleap: int,
                              omega: float, rules, n_steps: int,
                              replicates: int, seed: int, observables,
                              *, burn_in: int = 0):
    """samplers.run_ghmc_chains as it was before it recorded positions per
    block, in numpy: draws buffered GHMC_BLOCK_REFERENCE steps at a time,
    every observable called on every step, a gradient call opening each
    flow.  It runs any target and rule; the package serves only those of its
    C kernel."""
    k, R, d = len(rules), replicates, H.d
    noise_rngs = [replicate_rng(seed, r) for r in range(R)]
    unif_rngs = [np.random.Generator(g.bit_generator.jumped(1)) for g in noise_rngs]
    cos, sin = math.cos(omega), math.sin(omega)
    x = np.zeros((k * R, d))
    Ux = np.asarray(H.U(x))
    v = np.tile(np.stack([rng.standard_normal(d) for rng in noise_rngs]), (k, 1))
    out = [np.empty((k * R, n_steps)) for _ in observables]
    total = n_steps + burn_in
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, total, GHMC_BLOCK_REFERENCE):
            b = min(GHMC_BLOCK_REFERENCE, total - start)
            # every rule's rows get its replicate's refresh term and uniform
            noise = np.stack([rng.standard_normal((b, d)) for rng in noise_rngs],
                             axis=1) * sin
            noise = np.tile(noise, (1, k, 1))
            unif = np.tile(np.stack([rng.random(b) for rng in unif_rngs], axis=1),
                           (1, k))
            for i in range(b):
                x, Ux, v = ghmc_update_reference(H, x, Ux, v * cos + noise[i],
                                                 unif[i], step, nleap, rules)
                t = start + i - burn_in
                if t >= 0:
                    for o, f in zip(out, observables):
                        o[:, t] = f(x)
    return out


def autocov_reference(values: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocovariances of one row at lags 0..max_lag, one np.dot per
    lag: samplers._autocov before its lag loop moved into C."""
    c = values - values.mean()
    n = c.size
    out = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        out[k] = np.dot(c[: n - k], c[k:]) / n  # biased normalization
    return out


def estimate_var_lambda_reference(chains, lam: float):
    """samplers.estimate_var_lambda with autocov_reference per row, as it was
    before the lag loop moved into C; returns (autocovariances, estimate,
    se)."""
    chains = np.asarray(chains, dtype=float)
    max_lag = default_max_lag(lam)
    weights = lam ** np.arange(max_lag + 1)
    weights[1:] *= 2.0
    per = np.empty(chains.shape[0])
    acc_cov = np.zeros(max_lag + 1)
    for r, row in enumerate(chains):
        g = autocov_reference(row, max_lag)
        acc_cov += g
        per[r] = float(np.dot(weights, g))
    R = chains.shape[0]
    return acc_cov / R, float(per.mean()), float(per.std(ddof=1) / math.sqrt(R))


def exact_flip_time_reference(a: float, b: float, gamma: float, e: float) -> float:
    """First time Lambda(t) = e for rate (a + b t)_+ + gamma, b > 0.

    The root of c t + b t^2 / 2 = e is taken in the conjugate form
    2e / (c + sqrt(c^2 + 2be)), which does not cancel when c >> sqrt(be).
    """
    if a >= 0:
        ag = a + gamma
        return 2 * e / (ag + math.sqrt(ag * ag + 2 * b * e))
    t0 = -a / b
    if gamma == 0.0:
        return t0 + math.sqrt(2 * e / b)
    if e < gamma * t0:
        return e / gamma
    rem = e - gamma * t0
    return t0 + 2 * rem / (gamma + math.sqrt(gamma * gamma + 2 * b * rem))
