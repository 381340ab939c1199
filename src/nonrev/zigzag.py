"""Event-driven Zig-Zag process on R^d x {-1,1}^d.

Velocity coordinate i flips at intensity lambda_i(x, v); between events the
position moves linearly.  With s = dU/dx_i(x) v_i, intensities come in three
kinds, each -log phi(e^{-s}) for an acceptance function phi of
:class:`nonrev.zoo.AcceptanceRule`: canonical (s)_+ (Metropolis), penalty
(Gaussian-smoothed phi_eps) and barker (softplus, Barker).  Every kind takes
an extra x-only rate gamma on top, and all satisfy the switching
identity lambda_i(x, v) - lambda_i(x, -v) = s.

One event loop simulates every process; the coordinate clocks are drawn in
one of two ways, picked from the potential and the spec: exact inversion of
the integrated rate for diagonal-Gaussian potentials with canonical
intensities, and thinning against an affine-along-the-ray envelope
otherwise.

Observables are plain callables g(x, v), vectorized over a leading axis.
The generator is L g = <grad_x g, v> + J g, where the jump part J holds the
flips and the refresh clock.  Two processes on the same potential share the
transport term, so their Dirichlet-form gap needs J alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import samplers
from .finite import _cpus, _in_shares
from .samplers import Potential


def zz_gaussian(sigmas) -> Potential:
    s = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if not np.all((s > 0) & np.isfinite(s)):
        raise ValueError("sigmas must be positive")
    with np.errstate(over="ignore", divide="ignore"):
        inv2 = 1.0 / (s * s)
    if not np.all(np.isfinite(inv2)):
        raise ValueError(f"sigma {float(s.min())!r} is too small: 1/sigma^2 overflows")
    bmax = float(np.max(inv2))
    return Potential(
        U=lambda x: 0.5 * np.add.reduce(x * x * inv2, axis=-1),
        grad=lambda x: x * inv2,
        d=s.size,
        hessian_bound=lambda x, v: bmax,
        gaussian_sigmas=s,
    )


def zz_double_well() -> Potential:
    """U(x) = (x^2 - 1)^2 in one dimension."""

    def hb(x, v):
        m = max(abs(float(x[0])), abs(float(x[0]) + float(v[0])))
        return 12.0 * m * m + 4.0

    return Potential(
        U=lambda x: (x[..., 0] ** 2 - 1.0) ** 2,
        grad=lambda x: 4.0 * x * (x ** 2 - 1.0),
        d=1,
        hessian_bound=hb,
    )


def _log_phi_eps_exp(eps: float, s):
    """log phi_eps(e^s) for eps > 0, numerically stable for large |s|."""
    from scipy.special import log_ndtr  # loaded by the penalty path alone
    s = np.asarray(s, dtype=float)
    se = math.sqrt(eps)
    a = s + log_ndtr(-(se / 2 + s / se))
    b = log_ndtr(-(se / 2 - s / se))
    return np.logaddexp(a, b)


_KINDS = ("canonical", "penalty", "barker")


@dataclass(frozen=True)
class IntensitySpec:
    """Per-coordinate switching intensities plus an optional refresh clock.

    kind applies to every coordinate, and the constant gamma >= 0 is added
    to every kind (an x-only rate, so gamma - Q gamma = 0 structurally).
    eps, gamma and refresh_rate must be finite (infinite rates stall time).
    refresh_mode 'full' resamples v uniformly on {-1,1}^d at rate
    refresh_rate; 'partial' flips each coordinate independently at rate
    refresh_rate / d.
    """

    kind: str = "canonical"
    eps: float = 0.0
    gamma: float = 0.0
    refresh_rate: float = 0.0
    refresh_mode: str = "full"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if self.kind == "penalty" and self.eps <= 0:
            raise ValueError("penalty requires eps > 0")
        if not math.isfinite(self.eps):
            raise ValueError(f"eps must be finite, got {self.eps!r}")
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma!r}")
        if not 0 <= self.refresh_rate < math.inf:
            raise ValueError(f"refresh_rate must be finite and >= 0, got {self.refresh_rate!r}")
        if self.refresh_mode not in ("full", "partial"):
            raise ValueError("refresh_mode must be 'full' or 'partial'")


def intensity(spec: IntensitySpec, pot: Potential, i: int, x: np.ndarray,
              v: np.ndarray):
    """lambda_i(x, v) for batched states x, v of shape (..., d)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return _rate(spec, np.asarray(pot.grad(x))[..., i] * v[..., i])


def _rate(spec: IntensitySpec, s):
    """The intensity at slope s = dU/dx_i(x) v_i."""
    if spec.kind == "canonical":
        lam = np.maximum(0.0, s)
    elif spec.kind == "penalty":
        # -log phi_eps(density ratio e^{-s}), eps > 0; tends to (s)_+ as eps
        # -> 0 and satisfies lambda(s) - lambda(-s) = s by the balance of phi_eps
        lam = -_log_phi_eps_exp(spec.eps, -s)
    else:
        lam = np.logaddexp(0.0, s)  # softplus
    if spec.gamma != 0.0:
        lam = lam + spec.gamma
    return lam


@dataclass
class ZigZagTrajectory:
    """Piecewise-linear path: segment k starts at (times[k], X[k]) with
    velocity V[k]; the event ending it has label types[k] (the last segment
    runs to the horizon and has no label)."""

    times: np.ndarray
    X: np.ndarray
    V: np.ndarray
    types: list
    horizon: float

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("event times must be strictly increasing")
        if not np.all(np.isin(self.V, (-1.0, 1.0))):
            raise ValueError("velocities must be +-1")
        if len(self.types) != self.times.size - 1:
            raise ValueError("one event label per interior segment boundary")

    @property
    def n_events(self) -> int:
        return len(self.types)

    def state_at(self, t):
        """Positions and velocities at times t (vectorized)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < 0) or np.any(t > self.horizon + 1e-12):
            raise ValueError("t outside [0, horizon]")
        k = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, None)
        x = self.X[k] + (t - self.times[k])[:, None] * self.V[k]
        return x, self.V[k]


class EnvelopeViolation(RuntimeError):
    pass


def _exact_flip_time(a: float, b: float, gamma: float, e: float) -> float:
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


_BLOCK = 8  # thinning proposals per intensity request
_EVENT_BLOCK = 512  # events per exact-clock draw when there is no refresh clock


def _thinned_clock(spec: IntensitySpec, pot: Potential, i: int,
                   x: np.ndarray, v: np.ndarray, rng,
                   horizon: float = np.inf, slope: float | None = None):
    """First arrival of the inhomogeneous rate t -> lambda_i(x + t v, v) by
    thinning against the affine envelope lam(0) + B t, refreshed per unit
    time window.  A ``_lockstep`` run: it yields (i, x, v, offsets) and is
    sent the intensities at x + o v, o in offsets, as a list of floats.  A
    caller that holds the slope dU/dx_i(x) v_i passes it, and the first
    window's base rate is computed from it; every other base is asked for.

    Valid for every intensity kind here (gamma is constant): smooth kinds
    are 1-Lipschitz transforms of s(t) = dU_i(x + t v) v_i, so the ray bound
    B on |s'(t)| dominates |d lambda / dt| as well.  An intensity above the
    envelope (a hessian_bound that is too small) raises EnvelopeViolation,
    and a NaN proposal intensity or window base raises RuntimeError.

    Each window draws its proposals in blocks of up to _BLOCK, every one an
    exponential() for the offset and then a random() for the accept test,
    and asks for a block's intensities at once.  A block that accepts
    before its last draw restores the generator to the block's start and
    redraws up to the accepted proposal, so a returning call reads the
    stream exactly as one proposal at a time would (a raising call may have
    drawn further).
    """
    if pot.hessian_bound is None:
        raise EnvelopeViolation("no ray bound available for thinning envelope")
    s = 0.0
    while s < horizon:
        if slope is None:
            base, = yield i, x, v, [s]
        else:  # first window only
            base, slope = float(_rate(spec, slope)), None
        B = float(pot.hessian_bound(x + s * v, v)) + 1e-12
        u = 0.0
        lam0 = base
        while u < 1.0:
            state = rng.bit_generator.state
            block = []  # (offset, envelope, uniform) per proposal
            for _ in range(_BLOCK):
                e = rng.exponential()
                # first point of rate lam0 + B t after u, within the window
                du = 2 * e / (lam0 + math.sqrt(lam0 * lam0 + 2 * B * e))
                if u + du >= 1.0:
                    u = 1.0  # this draw ends the window
                    break
                u += du
                lam0 = base + B * u
                block.append((u, lam0, rng.random()))
            if not block:
                break
            trues = yield i, x, v, [s + p[0] for p in block]
            for k, ((uk, env, r), true) in enumerate(zip(block, trues)):
                if not true <= env + 1e-9:  # true and env are never NaN below
                    if math.isnan(true) or math.isnan(env):
                        raise RuntimeError(f"NaN intensity {true} or envelope {env} "
                                           f"at offset {s + uk}")
                    raise EnvelopeViolation(
                        f"intensity {true} exceeds envelope {env} at offset {s + uk}")
                if r * env < true:
                    if k + 1 < len(block) or u == 1.0:  # drew past proposal k
                        rng.bit_generator.state = state
                        for _ in range(k + 1):
                            rng.exponential()
                            rng.random()
                    return s + uk
        s += 1.0
    return math.inf


def _thinned_flip_time(spec, pot, i, x, v, rng, horizon=np.inf, slope=None) -> float:
    """``_thinned_clock`` driven on its own."""
    return _lockstep(spec, pot, [_thinned_clock(spec, pot, i, x, v, rng, horizon, slope)])[0]


def _lockstep(spec: IntensitySpec, pot: Potential, runs) -> list:
    """The return values of the generators runs (each yielding as
    ``_thinned_clock`` does, or never), driven in rounds: each round advances
    every unfinished run to its request, makes one ``intensity`` call per
    coordinate on all rows x + o v asked for, and sends each run its slice,
    the floats it would receive alone (rows are evaluated elementwise)."""
    out, replies = [None] * len(runs), dict.fromkeys(range(len(runs)))
    while replies:  # the runs still going, and what to send each
        asks = {}
        for r, reply in replies.items():
            try:
                asks[r] = runs[r].send(reply)
            except StopIteration as stop:
                out[r] = stop.value
        replies = {}
        for i in {ask[0] for ask in asks.values()}:
            rs = [r for r, ask in asks.items() if ask[0] == i]
            n = [len(asks[r][3]) for r in rs]
            xs, vs = (np.repeat([asks[r][k] for r in rs], n, axis=0) for k in (1, 2))
            rows = xs + np.concatenate([asks[r][3] for r in rs])[:, None] * vs
            rates = intensity(spec, pot, i, rows, vs).tolist()
            for r, k in zip(rs, n):
                replies[r], rates = rates[:k], rates[k:]
    return out


def simulate_zigzag(pot: Potential, spec: IntensitySpec, x0, v0, horizon: float,
                    rng: np.random.Generator) -> ZigZagTrajectory:
    """Run the process to the horizon; returns the full event skeleton.

    One event loop on Python floats moves x, flips or refreshes v and
    records the skeleton; the coordinate clocks are drawn in one of two
    ways.  A diagonal Gaussian (``pot.gaussian_sigmas``) with canonical
    rates inverts the integrated rate exactly.  With a refresh clock, each
    event reads rng as one ``standard_exponential`` call for the d
    coordinate clocks and the refresh clock (the layout of that many scalar
    ``exponential()`` calls), then the refresh draw.  Without one, one call
    draws the clocks of _EVENT_BLOCK events, and before returning the
    generator is set back to that block's start and redraws only the
    clocks used.  Every other input thins each coordinate in order
    (``_thinned_clock``), then draws one ``exponential()`` for the refresh
    clock and the refresh draw.  The one gradient call per event gives
    every coordinate's first-window base rate, and it raises RuntimeError
    when non-finite, as does a NaN intensity between events.  Either way a
    returning call leaves rng where a loop that draws per event, and per
    proposal when thinning, leaves it; a raising call may have drawn
    further.  The horizon must be finite and positive, and x0 finite; both
    are checked before anything is drawn.
    """
    return _lockstep(spec, pot, [_event_loop(pot, spec, x0, v0, horizon, rng)])[0]


def _event_loop(pot: Potential, spec: IntensitySpec, x0, v0, horizon: float, rng):
    """``simulate_zigzag``'s loop as a ``_lockstep`` run; exact clocks never yield."""
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    d = pot.d
    x = np.array(x0, dtype=float).reshape(d)
    v = np.array(v0, dtype=float).reshape(d)
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if not np.all(np.isin(v, (-1.0, 1.0))):
        raise ValueError("v0 must be +-1 valued")
    exact = pot.gaussian_sigmas is not None and spec.kind == "canonical"
    if exact:
        inv2 = (1.0 / (pot.gaussian_sigmas ** 2)).tolist()
        gamma = float(spec.gamma)
    rate = spec.refresh_rate
    n_clocks = d + (rate > 0)
    blocked = exact and rate == 0  # every draw is a standard exponential
    full = spec.refresh_mode == "full"
    x, v = x.tolist(), v.tolist()
    times, Xs, Vs, types = [0.0], list(x), list(v), []
    t = 0.0
    e, k = [], 0  # clocks drawn, and how many of them are used
    while True:
        best_dt, best = math.inf, d
        if exact:
            if not blocked:
                e, k = rng.standard_exponential(n_clocks).tolist(), 0
            elif k == len(e):
                state = rng.bit_generator.state
                e, k = rng.standard_exponential(_EVENT_BLOCK * d).tolist(), 0
            for i in range(d):
                dt_i = _exact_flip_time(x[i] * v[i] * inv2[i], inv2[i], gamma,
                                        e[k + i])
                if dt_i < best_dt:
                    best_dt, best = dt_i, i
            k += d
        else:
            xa, va = np.array(x), np.array(v)
            grad = np.asarray(pot.grad(xa[None, :]))
            if not np.isfinite(grad).all():
                raise RuntimeError("non-finite gradient encountered")
            slopes = (grad[0] * va).tolist()
            for i in range(d):
                dt_i = yield from _thinned_clock(spec, pot, i, xa, va, rng,
                                                 horizon - t + 1.0, slopes[i])
                if dt_i < best_dt:
                    best_dt, best = dt_i, i
        if rate > 0:
            dt_r = (e[d] if exact else rng.exponential()) / rate
            if dt_r < best_dt:
                best_dt, best = dt_r, d
        if best_dt >= horizon - t:
            break
        t += best_dt
        x = [xi + best_dt * vi for xi, vi in zip(x, v)]
        if best < d:
            v[best] = -v[best]
            types.append(f"flip({best})")
        else:
            if full:
                v = [-1.0 if u < 0.5 else 1.0 for u in rng.random(d).tolist()]
            else:
                j = int(rng.integers(d))
                v[j] = -v[j]
            types.append("refresh")
        times.append(t)
        Xs.extend(x)
        Vs.extend(v)
    if blocked and k < len(e):  # give back the block's unused clocks
        rng.bit_generator.state = state
        rng.standard_exponential(k)
    return ZigZagTrajectory(np.array(times), np.array(Xs).reshape(-1, d),
                            np.array(Vs).reshape(-1, d), types, horizon)


_GL3 = np.polynomial.legendre.leggauss(3)
_GL8 = np.polynomial.legendre.leggauss(8)


def _window_integrals(traj: ZigZagTrajectory, f, degree: int | None,
                      edges) -> np.ndarray:
    """Time integrals of f(Z_s) over the windows [edges[k], edges[k+1]].

    Each window is cut at the event times strictly inside it, and every
    segment gets the Gauss-Legendre rule; f is evaluated once per node over
    the segments of all windows, and each window sums its own segments with
    one dot product per node.
    """
    edges = np.asarray(edges, dtype=float)
    if not (edges[0] >= 0.0 and np.all(np.diff(edges) > 0)
            and edges[-1] <= traj.horizon + 1e-12):
        raise ValueError("bad integration window")
    nodes, weights = _GL3 if (degree is not None and degree <= 4) else _GL8
    lo = np.searchsorted(traj.times, edges[:-1], side="right")
    hi = np.searchsorted(traj.times, edges[1:], side="left")
    points = np.concatenate([np.concatenate(([a], traj.times[i:j]))
                             for a, i, j in zip(edges[:-1], lo, hi)]
                            + [edges[-1:]])
    bounds = np.concatenate(([0], np.cumsum(hi - lo + 1))).tolist()
    windows = list(zip(bounds[:-1], bounds[1:]))
    a, b = points[:-1], points[1:]
    half = (b - a) / 2.0
    mid = (a + b) / 2.0
    totals = [0.0] * len(windows)
    for z, w in zip(nodes, weights):
        x, v = traj.state_at(mid + z * half)
        vals = np.asarray(f(x, v), dtype=float)
        wh = w * half
        for k, (s, e) in enumerate(windows):
            totals[k] += float(np.dot(wh[s:e], vals[s:e]))
    return np.array(totals)


def trajectory_integral(traj: ZigZagTrajectory, f, degree: int | None = None) -> float:
    """Time integral of f(Z_s) over the whole path, [0, horizon].

    f(x, v) must be vectorized over a leading axis.  A 3-point
    Gauss-Legendre rule per segment is exact for position-polynomials up to
    degree 4 (pass degree <= 4); otherwise an 8-point rule is used.
    """
    return float(_window_integrals(traj, f, degree, [0.0, traj.horizon])[0])


def batch_means_variance(traj: ZigZagTrajectory, f, t_start: float,
                         t_end: float, degree: int | None = None) -> float:
    """Asymptotic-variance estimate from block averages of the path integral
    over [t_start, t_end], cut into floor(sqrt(t_end - t_start)) batches.

    The batch means' sample variance does not change when a constant is
    subtracted from f, so f needs no centring.
    """
    span = t_end - t_start
    n_batches = int(math.sqrt(span))
    if n_batches < 2:
        raise ValueError(f"batch means need at least 2 batches, got {n_batches} "
                         f"for a span of {span!r}")
    if traj.n_events < 2:
        raise ValueError("degenerate trajectory: fewer than 2 events")
    edges = np.linspace(t_start, t_end, n_batches + 1)
    ints = _window_integrals(traj, f, degree, edges)
    delta = span / n_batches
    means = ints / delta
    return float(delta * means.var(ddof=1))


def estimate_var_continuous(pot: Potential, spec: IntensitySpec, f,
                            horizon: float, replicates: int, lam: float,
                            seed: int, degree: int | None = None):
    """Replicate estimate of the asymptotic variance of f.

    Each replicate starts at x = 0 with uniform random velocities, simulates
    horizon*1.1, discards the first tenth as burn-in and applies batch means
    to f itself, in one pass over the path.  The replicates are cut into
    min(CPUs, replicates // 2) contiguous shares, at least one, and each
    share runs in its own process (``_in_shares``).  Within a share the
    replicates advance in lockstep (``_lockstep``), so their thinning
    intensities are evaluated together, and each reads its own stream as it
    would alone; the estimate is therefore the same bits whatever the
    shares.  lam must be 0 (no discount); the slot mirrors the discrete
    estimators.  Returns (estimate, se).
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates for a standard error")
    if lam != 0:
        raise ValueError(f"only lam = 0 is supported, got {lam!r}")
    burn = horizon / 10.0

    def replicate(r):  # only its estimate outlives it
        rng = samplers.replicate_rng(seed, r)
        v0 = np.where(rng.random(pot.d) < 0.5, -1.0, 1.0)
        traj = yield from _event_loop(pot, spec, np.zeros(pot.d), v0, horizon + burn, rng)
        return batch_means_variance(traj, f, burn, burn + horizon, degree)
    n = min(_cpus(), replicates // 2)  # both are at least 1
    per = np.array(_in_shares(lambda share: _lockstep(spec, pot, [replicate(r) for r in share]),
                              range(replicates), n))
    return float(per.mean()), float(per.std(ddof=1) / math.sqrt(replicates))


def _all_velocities(d: int) -> np.ndarray:
    out = np.array(np.meshgrid(*([[-1.0, 1.0]] * d), indexing="ij"))
    return out.reshape(d, -1).T


def _gh_nodes(pot: Potential, m: int):
    """Tensor quadrature over x for the diagonal Gaussian mu(dx) propto
    exp(-U); normalized weights.

    Per axis: Gauss-Legendre on [-L, 0] and [0, L] with the density folded
    into the weights.  Splitting at 0 keeps convergence spectral for the
    canonical rate's kink (which sits at x_i = 0 for centered Gaussians).
    """
    t, w = np.polynomial.legendre.leggauss(m)
    axes_x, axes_w = [], []
    for s in pot.gaussian_sigmas:
        L = 8.0 * s
        xp = (t + 1.0) / 2.0 * L
        wp = w * L / 2.0
        axes_x.append(np.concatenate([-xp[::-1], xp]))
        axes_w.append(np.concatenate([wp[::-1], wp]))
    x = np.stack([gr.ravel() for gr in np.meshgrid(*axes_x, indexing="ij")], axis=-1)
    weight = np.ones(x.shape[0])
    for gw in np.meshgrid(*axes_w, indexing="ij"):
        weight = weight * gw.ravel()
    weight = weight * np.exp(-np.asarray(pot.U(x)))
    return x, weight / weight.sum()


def _gap_gram(pot: Potential, spec1: IntensitySpec, spec2: IntensitySpec,
              gs, m: int) -> np.ndarray:
    """G[j, k] = <g_j, (J2 - J1) Q g_k>_mu on m nodes per half-axis, from one
    table of basis values and rates per velocity.

    J g = sum_i lambda_i(x, v) [g(x, flip_i v) - g(x, v)] plus the refresh
    term.  In the order of _all_velocities, flipping coordinate i of v_b
    gives v_(b ^ 1 << (d - 1 - i)), and -v_b is v_(n - 1 - b).  Each J Q g_k
    adds the coordinate terms, then the refresh term; each entry is summed
    over the velocities one dot product at a time."""
    x, wx = _gh_nodes(pot, m)
    vs = _all_velocities(pot.d)
    n, d = vs.shape
    vb = [np.broadcast_to(w, x.shape).copy() for w in vs]
    gv = [[np.asarray(g(x, v), dtype=float) for v in vb] for g in gs]
    specs = (spec1, spec2)
    rates = [[[intensity(s, pot, i, x, v) for i in range(d)] for v in vb] for s in specs]
    gram = np.zeros((len(gs), len(gs)))
    for b in range(n):
        dv = []
        for q in (row[::-1] for row in gv):  # q[c] = (Q g)(x, v_c)
            flips = [q[b ^ (1 << (d - 1 - i))] - q[b] for i in range(d)]
            jq = []
            for spec, lam in zip(specs, rates):
                out = np.zeros_like(q[b])
                for i, dg in enumerate(flips):
                    out += lam[b][i] * dg
                lb = spec.refresh_rate
                if lb > 0 and spec.refresh_mode == "full":
                    out += lb * (sum(q) / n - q[b])
                elif lb > 0:
                    for dg in flips:
                        out += (lb / d) * dg
                jq.append(out)
            dv.append(jq[1] - jq[0])
        for j, row in enumerate(gv):
            for k, dq in enumerate(dv):
                gram[j, k] += float(np.dot(wx, row[b] * dq))
    return gram / n


def dirichlet_gap_quadrature(pot: Potential, spec1: IntensitySpec,
                             spec2: IntensitySpec, gs, m: int = 40) -> np.ndarray:
    """Gram matrix G[j, k] = <g_j, -(L1 - L2) Q g_k>_mu of the functions gs
    by quadrature.  Both processes move on the same potential, so the
    transport terms cancel and -(L1 - L2) = J2 - J1 on the jump parts.
    G[j, j] >= 0 says that the spec1 process has the larger Dirichlet form at
    g_j (hence the smaller variance for flip-symmetric observables);
    finite.psd_certificate(G) says so on the whole span of gs.

    mu must be a diagonal Gaussian (``pot.gaussian_sigmas``) with d in
    {1, 2}.  Evaluated at two resolutions (m and m + 16 nodes per
    half-axis); a relative disagreement above 1e-4 in any entry raises
    (grid too coarse).  An empty list of functions raises ValueError.
    """
    if len(gs) == 0:
        raise ValueError("gap quadrature needs at least one function")
    if pot.gaussian_sigmas is None or pot.d > 2:
        raise ValueError("gap quadrature needs a diagonal Gaussian with d in {1, 2}")
    coarse, fine = (_gap_gram(pot, spec1, spec2, gs, n) for n in (m, m + 16))
    bad = ~(np.abs(fine - coarse) <= 1e-4 * np.maximum(1.0, np.abs(fine)))
    if bad.any():
        raise ValueError(f"quadrature not converged: {coarse[bad]!r} vs {fine[bad]!r}")
    return fine
