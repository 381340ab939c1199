"""Event-driven Zig-Zag process on R^d x {-1,1}^d.

Velocity coordinate i flips at intensity lambda_i(x, v); between events the
position moves linearly.  With s = dU/dx_i(x) v_i, intensities come in three
kinds, each -log phi(e^{-s}) for an acceptance function phi of
:class:`nonrev.zoo.AcceptanceRule`: canonical (s)_+ (Metropolis), penalty
(Gaussian-smoothed phi_eps) and barker (softplus, Barker).  Every kind takes
an extra x-only rate gamma on top, and all satisfy the switching
identity lambda_i(x, v) - lambda_i(x, -v) = s.

The coordinate clocks are drawn in one of two ways, picked from the
potential and the spec: exact inversion of the integrated rate for
diagonal-Gaussian potentials with canonical intensities, in an event loop
in ``_zigzag_exact.c`` that ``_native`` builds on first use (a C compiler
is needed), and thinning against an affine-along-the-ray envelope
otherwise, in an event loop on Python floats.

Observables are plain callables g(x, v), vectorized over a leading axis.
Trajectory integrals sum their windows in ``_autocov.c``, through numpy's
float64 dot, so they need the compiler on either path.
The generator is L g = <grad_x g, v> + J g, where the jump part J holds the
flips and the refresh clock.  Two processes on the same potential share the
transport term, so their Dirichlet-form gap needs J alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _native, samplers
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
    if not np.all(inv2 > 0):
        raise ValueError(f"sigma {float(s.max())!r} is too large: 1/sigma^2 is 0")
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
    _, log_ndtr = _native.gaussian_cdf()  # loaded by the penalty path alone
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
    velocity V[k]; the event ending it has code codes[k], i < d for a flip
    of coordinate i and d for a refresh (the last segment runs to the
    horizon and has no code).  The times start at 0.0 and increase
    strictly, to the last one before the finite horizon."""

    times: np.ndarray
    X: np.ndarray
    V: np.ndarray
    codes: np.ndarray
    horizon: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.times)) and np.all(np.diff(self.times) > 0)):
            raise ValueError("event times must be finite and strictly increasing")
        if not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite, got {self.horizon!r}")
        if not (self.times.size and self.times[0] == 0.0):
            raise ValueError(f"the path must start at time 0.0, got {self.times[:1].tolist()}")
        if not self.times[-1] < self.horizon:
            raise ValueError(f"the last event time {self.times[-1]} must lie before "
                             f"the horizon {self.horizon}")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("event positions must be finite")
        if not np.all(np.abs(self.V) == 1.0):
            raise ValueError("velocities must be +-1")
        if not (self.codes.shape == (self.times.size - 1,)
                and np.issubdtype(self.codes.dtype, np.integer)
                and np.all((self.codes >= 0) & (self.codes <= self.X.shape[1]))):
            raise ValueError("one integer event code in [0, d] per interior segment boundary")

    @property
    def n_events(self) -> int:
        return self.codes.size


class EnvelopeViolation(RuntimeError):
    pass


_MAX_ROWS = 65_536  # cap on the skeleton rows of the exact kernel's first buffers


def _thinned_clock(spec: IntensitySpec, pot: Potential, i: int,
                   x: np.ndarray, v: np.ndarray, rng, horizon: float, slope: float):
    """First arrival of the inhomogeneous rate t -> lambda_i(x + t v, v) by
    thinning against the affine envelope lam(0) + B t, refreshed per unit
    time window.  A ``_lockstep`` run: it yields (i, x, v, o) and is sent
    the intensity at x + o v as a float.  The first window's base rate is
    computed from the slope dU/dx_i(x) v_i; every other base is asked for.

    Valid for every intensity kind here (gamma is constant): smooth kinds
    are 1-Lipschitz transforms of s(t) = dU_i(x + t v) v_i, so the ray bound
    B on |s'(t)| dominates |d lambda / dt| as well.  An intensity above the
    envelope (a hessian_bound that is too small) raises EnvelopeViolation,
    and a NaN proposal intensity or window base raises RuntimeError.

    Each proposal draws an exponential() for its offset, asks for its
    intensity, checks it against the envelope and then draws a random()
    for the accept test, so a call reads the stream as the scalar loop
    that evaluates one proposal at a time does, up to the proposal at
    which it returns or raises.
    """
    if pot.hessian_bound is None:
        raise EnvelopeViolation("no ray bound available for thinning envelope")
    s, base = 0.0, float(_rate(spec, slope))
    while s < horizon:
        if s > 0.0:
            base = yield i, x, v, s
        B = float(pot.hessian_bound(x + s * v, v)) + 1e-12
        u = 0.0
        lam0 = base
        while True:
            e = rng.exponential()
            # first point of rate lam0 + B t after u, within the window
            du = 2 * e / (lam0 + math.sqrt(lam0 * lam0 + 2 * B * e))
            if u + du >= 1.0:
                break
            u += du
            lam0 = base + B * u
            true = yield i, x, v, s + u
            if not true <= lam0 + 1e-9:  # true and lam0 are never NaN below
                if math.isnan(true) or math.isnan(lam0):
                    raise RuntimeError(f"NaN intensity {true} or envelope {lam0} "
                                       f"at offset {s + u}")
                raise EnvelopeViolation(
                    f"intensity {true} exceeds envelope {lam0} at offset {s + u}")
            if rng.random() * lam0 < true:
                return s + u
        s += 1.0
    return math.inf


def _lockstep(spec: IntensitySpec, pot: Potential, runs) -> list:
    """The return values of the generators runs (each yielding as
    ``_thinned_clock`` does, or never), driven in rounds: each round advances
    every unfinished run to its request, makes one ``intensity`` call per
    coordinate on the rows x + o v asked for, and sends each run its float,
    the one it would receive alone (rows are evaluated elementwise)."""
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
            xs, vs, offsets = (np.array([asks[r][k] for r in rs]) for k in (1, 2, 3))
            rates = intensity(spec, pot, i, xs + offsets[:, None] * vs, vs).tolist()
            replies.update(zip(rs, rates))
    return out


def simulate_zigzag(pot: Potential, spec: IntensitySpec, x0, v0, horizon: float,
                    rng: np.random.Generator) -> ZigZagTrajectory:
    """Run the process to the horizon; returns the full event skeleton.

    Each event draws the coordinate clocks in coordinate order, then the
    refresh clock, then the refresh draw, in one of two ways.  A diagonal
    Gaussian (``pot.gaussian_sigmas``) with canonical rates inverts the
    integrated rate exactly, in the compiled kernel ``_zigzag_exact.c``
    (``_exact_loop``): one standard exponential per clock.  Every other
    input runs an event loop on Python floats that thins each coordinate in
    order (``_thinned_clock``), then draws one ``exponential()`` for the
    refresh clock and the refresh draw.  Its one gradient call per event
    gives every coordinate's first-window base rate, and it raises
    RuntimeError when non-finite, as does a NaN intensity between events.
    Either way a returning call leaves rng where a loop that draws per
    event, and per proposal when thinning, leaves it.  A thinned call that
    raises stops after the offending proposal's exponential; an exact call
    that raises may have drawn further.  The horizon must be finite and
    positive, and x0 finite; both are checked before anything is drawn, as
    is the kernel's build (RuntimeError when the compiler fails).
    """
    return _lockstep(spec, pot, [_event_loop(pot, spec, x0, v0, horizon, rng)])[0]


def _is_exact(pot: Potential, spec: IntensitySpec) -> bool:
    return pot.gaussian_sigmas is not None and spec.kind == "canonical"


def _mean_rate(sigmas: np.ndarray, spec: IntensitySpec) -> float:
    """Events per unit time of the exact path on the diagonal Gaussian of
    these sigmas, at stationarity: coordinate i flips at the mean rate
    E[(x_i v_i / sigma_i^2)_+] + gamma = 1 / (sigma_i sqrt(2 pi)) + gamma,
    and refreshes add theirs."""
    return (float(np.sum(1.0 / (sigmas * math.sqrt(2.0 * math.pi))))
            + len(sigmas) * spec.gamma + spec.refresh_rate)


def _first_rows(pot: Potential, spec: IntensitySpec, horizon: float) -> int:
    """Rows of the exact kernel's first buffers: 1.25 times the events
    expected over the horizon, plus 64, at most _MAX_ROWS."""
    return int(min(_MAX_ROWS, 1.25 * horizon * _mean_rate(pot.gaussian_sigmas, spec) + 64))


def _exact_loop(pot: Potential, spec: IntensitySpec, x: np.ndarray, v: np.ndarray,
                horizon: float, rng: np.random.Generator) -> ZigZagTrajectory:
    """The exact branch of ``_event_loop``: the kernel's ``exact_run`` fills
    skeleton buffers of ``_first_rows`` rows, and whenever they are full
    they double and it resumes from the last row.  The generator's lock is
    held during each call."""
    run = _native.entry("exact_run")
    inv2 = np.asarray(1.0 / (pot.gaussian_sigmas ** 2), dtype=float).reshape(pot.d)
    size = _first_rows(pot, spec, horizon)
    times, codes = np.empty(size), np.empty(size, dtype=np.int64)
    X, V = np.empty((size, pot.d)), np.empty((size, pot.d))
    times[0], X[0], V[0] = 0.0, x, v
    n, bitgen = 1, rng.bit_generator
    while True:
        with bitgen.lock:
            n = run(bitgen.capsule, inv2, spec.gamma, spec.refresh_rate,
                    spec.refresh_mode == "full", horizon, times, X, V, codes, n)
        if n < len(times):
            return ZigZagTrajectory(times[:n], X[:n], V[:n], codes[1:n], horizon)
        times, X, V, codes = (np.concatenate((a, np.empty_like(a)))
                              for a in (times, X, V, codes))


def _event_loop(pot: Potential, spec: IntensitySpec, x0, v0, horizon: float, rng):
    """``simulate_zigzag``'s loop as a ``_lockstep`` run; exact clocks never yield."""
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    d = pot.d
    x = np.array(x0, dtype=float).reshape(d)
    v = np.array(v0, dtype=float).reshape(d)
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if not np.all(np.abs(v) == 1.0):
        raise ValueError("v0 must be +-1 valued")
    if _is_exact(pot, spec):
        return _exact_loop(pot, spec, x, v, horizon, rng)
    rate = spec.refresh_rate
    full = spec.refresh_mode == "full"
    x, v = x.tolist(), v.tolist()
    times, Xs, Vs, codes = [0.0], list(x), list(v), []
    t = 0.0
    while True:
        best_dt, best = math.inf, d
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
            dt_r = rng.exponential() / rate
            if dt_r < best_dt:
                best_dt, best = dt_r, d
        if best_dt >= horizon - t:
            break
        t += best_dt
        x = [xi + best_dt * vi for xi, vi in zip(x, v)]
        if best == d and full:
            v = [-1.0 if u < 0.5 else 1.0 for u in rng.random(d).tolist()]
        else:  # a flip, or the coordinate a partial refresh flips
            j = best if best < d else int(rng.integers(d))
            v[j] = -v[j]
        codes.append(best)
        times.append(t)
        Xs.extend(x)
        Vs.extend(v)
    return ZigZagTrajectory(np.array(times), np.reshape(Xs, (-1, d)), np.reshape(Vs, (-1, d)),
                            np.array(codes, dtype=np.int64), horizon)


_GL3 = np.polynomial.legendre.leggauss(3)
_GL8 = np.polynomial.legendre.leggauss(8)


def _window_integrals(traj: ZigZagTrajectory, f, degree: int | None,
                      edges) -> np.ndarray:
    """Time integrals of f(Z_s) over the windows [edges[k], edges[k+1]].

    The path is cut at the edges and at the event times strictly between
    the first and last edge, and every segment gets the Gauss-Legendre rule.
    Each cut segment's event segment is found once; a node set's states
    are that segment's start moved along its velocity, except where a node
    rounds past the segment's end (a segment a few ulps long), which takes
    the full search over the event times.  f is evaluated once per node
    over all segments, and each window sums its own segments with one
    np.dot per node, all windows in one call of ``_autocov.c``'s
    window_sums.
    """
    edges = np.asarray(edges, dtype=float)
    if not (edges[0] >= 0.0 and np.all(np.diff(edges) > 0)
            and edges[-1] <= traj.horizon + 1e-12):
        raise ValueError("bad integration window")
    nodes, weights = _GL3 if (degree is not None and degree <= 4) else _GL8
    times, X, V, top = traj.times, traj.X, traj.V, traj.horizon + 1e-12
    # np.union1d's points, without the numpy.ma import np.unique makes on first use
    cut = np.sort(np.concatenate((edges, times[(times > edges[0]) & (times < edges[-1])])))
    cut = cut[np.concatenate(([True], cut[1:] != cut[:-1]))]  # an event on an edge once
    a, b = cut[:-1], cut[1:]
    half, mid = (b - a) / 2.0, (a + b) / 2.0
    # the event segment each cut segment lies in, its start, and its end:
    # the next event time, or for the last segment the last time admitted,
    # so a node past it takes the full search and is refused there (take
    # gathers rows faster than indexing)
    seg = np.maximum(np.searchsorted(times, a, side="right") - 1, 0)
    t0, X0, V0 = times[seg], X.take(seg, axis=0), V.take(seg, axis=0)
    t1 = np.append(times[1:], top)[seg]
    vals = []
    for z in nodes:
        t = mid + z * half
        if np.all((t0 <= t) & (t < t1)):
            x, v = X0 + (t - t0)[:, None] * V0, V0
        else:  # a node rounded onto its segment's end: the full search
            if np.any(t < 0) or np.any(t > top):
                raise ValueError("t outside [0, horizon]")
            k = np.maximum(np.searchsorted(times, t, side="right") - 1, 0)
            x, v = X[k] + (t - times[k])[:, None] * V[k], V[k]
        vals.append(np.asarray(f(x, v), dtype=float))
    totals = np.empty(edges.size - 1)
    _native.entry("window_sums")(tuple(vals), weights, half, np.searchsorted(cut, edges),
                                 totals)
    return totals


def trajectory_integral(traj: ZigZagTrajectory, f, degree: int | None = None) -> float:
    """Time integral of f(Z_s) over the whole path, [0, horizon].

    f(x, v) must be vectorized over a leading axis.  A 3-point
    Gauss-Legendre rule per segment is exact for position-polynomials up to
    degree 4 (pass degree <= 4); otherwise an 8-point rule is used.
    """
    return float(_window_integrals(traj, f, degree, [0.0, traj.horizon])[0])


def _batch_count(t_start: float, t_end: float) -> int:
    """floor(sqrt(t_end - t_start)) batches, refused below 2 or unless finite t_start < t_end."""
    span = t_end - t_start
    if not 0 < span < math.inf:
        raise ValueError(f"batch means need finite t_start < t_end, got {t_start!r}, {t_end!r}")
    n_batches = int(math.sqrt(span))
    if n_batches < 2:
        raise ValueError(f"batch means need at least 2 batches, got {n_batches} "
                         f"for a span of {span!r}")
    return n_batches


def batch_means_variance(traj: ZigZagTrajectory, f, t_start: float,
                         t_end: float, degree: int | None = None) -> float:
    """Asymptotic-variance estimate from block averages of the path integral
    over [t_start, t_end], cut into floor(sqrt(t_end - t_start)) batches.

    The batch means' sample variance does not change when a constant is
    subtracted from f, so f needs no centring.
    """
    n_batches = _batch_count(t_start, t_end)
    if traj.n_events < 2:
        raise ValueError("degenerate trajectory: fewer than 2 events")
    ints = _window_integrals(traj, f, degree, np.linspace(t_start, t_end, n_batches + 1))
    delta = (t_end - t_start) / n_batches
    return float(delta * (ints / delta).var(ddof=1))


def estimate_var_continuous(pot: Potential, spec: IntensitySpec, f,
                            horizon: float, replicates: int, lam: float,
                            seed: int, degree: int | None = None):
    """Replicate estimate of the asymptotic variance of f.

    Each replicate starts at x = 0 with uniform random velocities, simulates
    horizon*1.1, discards the first tenth as burn-in and applies batch means
    to f itself, in one pass over the path.  Exact-path replicates
    (``_is_exact``) all run in the calling process, as a fork costs more
    than the half of their work it moves below about 70k events per call,
    past every catalog size; thinned ones are cut into min(CPUs,
    replicates // 2) contiguous shares, at least one, each in its own
    process (``_in_shares``).  Within a share the replicates advance in
    lockstep (``_lockstep``), so their thinning intensities are evaluated
    together, and each reads its own stream as it would alone; the
    estimate is therefore the same bits whatever the shares.  replicates
    and seed must be integers (not bools), seed in [0, 2**64).  lam must
    be 0 (no discount); the slot mirrors the discrete estimators.  Returns
    (estimate, se).
    """
    if isinstance(replicates, numbers.Integral) and replicates < 2:
        raise ValueError("need at least 2 replicates for a standard error")
    samplers._check_integers(seed, ("replicates", replicates, 2))
    if lam != 0:
        raise ValueError(f"only lam = 0 is supported, got {lam!r}")
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    burn = horizon / 10.0
    _batch_count(burn, burn + horizon)  # refused here, before any stream

    def replicate(r):  # only its estimate outlives it
        rng = samplers.replicate_rng(seed, r)
        v0 = np.where(rng.random(pot.d) < 0.5, -1.0, 1.0)
        traj = yield from _event_loop(pot, spec, np.zeros(pot.d), v0, horizon + burn, rng)
        return batch_means_variance(traj, f, burn, burn + horizon, degree)
    _native.entry("window_sums")  # built or loaded here, before any stream, not in each share
    n = 1 if _is_exact(pot, spec) else min(_cpus(), replicates // 2)  # both are at least 1
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
