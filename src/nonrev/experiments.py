"""Named experiment catalog: each entry builds its kernels or processes,
computes variance/ordering numbers, and returns result rows plus named
PASS/FAIL checks for the CLI harness."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import finite, samplers, zigzag, zoo
from .finite import FiniteDistribution, KernelMatrix, Observable


@dataclass
class ResultRow:
    experiment: str
    case_id: str
    lam: float
    value: float
    se: float = 0.0
    oracle: float | None = None
    passed: bool = True

    def to_csv(self) -> str:
        oracle = "" if self.oracle is None else repr(float(self.oracle))
        return (f"{self.experiment},{self.case_id},{float(self.lam)!r},"
                f"{float(self.value)!r},{float(self.se)!r},{oracle},"
                f"{str(self.passed).lower()}")


CSV_HEADER = "experiment,case_id,lambda,value,se,oracle,pass"


def _check(name: str, excess, tol: float = 1e-9) -> dict:
    """A named check whose violation is finite.worst_excess(excess)."""
    try:
        violation = finite.worst_excess(excess)
    except ValueError as err:
        raise ValueError(f"check {name}: {err}") from err
    return {"name": name, "pass": violation <= tol,
            "max_violation": violation, "tol": float(tol)}


def _position_observable(n: int) -> Observable:
    """x-only observable on the ring x {-1,+1} space (Qf = f)."""
    vals = np.cos(2 * math.pi * np.arange(n) / n) + 0.3 * np.arange(n) / n
    return zoo.lift_observable(Observable(vals))


def _ring_cycle(weights):
    """(mu, Q, psi, R, f) on the ring x {-1,+1}: the half lift of the target,
    the velocity flip, the shift flow, the (mu, Q)-reversible lazy flip
    refresh R = (Id + Q)/2 and the position observable."""
    target = zoo.RingTarget(weights)
    n = target.n
    Q = zoo.velocity_flip(n)
    R = KernelMatrix(0.5 * np.eye(2 * n) + 0.5 * Q.matrix)
    return (zoo.half_lift(target.pi), Q, zoo.ring_shift_flow(n), R,
            _position_observable(n))


DEFAULT_RING = (1.0, 2.0, 3.0, 2.0, 1.0)
DEFAULT_LAMBDAS = tuple(round(0.1 * k, 2) for k in range(1, 10))


def run_gustafson_ring(cfg: dict, seed: int):
    target = zoo.RingTarget(cfg["weights"])
    P, mu, Q = zoo.gustafson_ring(target)
    checks = []
    checks.append(_check("invariance",
                         0.0 if finite.check_invariance(P, mu) else 1.0))
    checks.append(_check("muQ-reversible",
                         0.0 if finite.check_muQ_reversible(P, mu, Q) else 1.0))
    qp, pq = finite.reversible_parts(P, Q)
    checks.append(_check("reversible-parts-detailed-balance",
                         [0.0 if finite.check_mu_reversible(k, mu) else 1.0 for k in (qp, pq)]))
    f = _position_observable(target.n)
    lams = cfg["lambdas"]
    vals = finite.var_lambda(f, P, mu, lams)
    oracle = finite.var_lambda_series(f, P, mu, lams)
    gap = np.abs(vals - oracle)
    rows = [ResultRow("gustafson-ring", "var", lam, v, 0.0, o, d <= finite.SOLVE_TOL)
            for lam, v, o, d in zip(lams, vals, oracle, gap)]
    checks.append(_check("series-oracle-agreement", gap, finite.SOLVE_TOL))
    return rows, checks


def run_lifted_ordering(cfg: dict, seed: int):
    target = zoo.RingTarget(cfg["weights"])
    pair = zoo.guided_walk_ring(target, cfg["step_dist"])
    kinds = [("minimal", 0.0), ("convex-0.5", 0.5), ("maximal", 1.0)]
    f_base = Observable(np.cos(2 * math.pi * np.arange(target.n) / target.n))
    f = zoo.lift_observable(f_base)
    lams = cfg["lambdas"]
    vals = {}
    for name, theta in kinds:
        P, mu, _Q = zoo.lifted_kernel(pair, theta)
        vals[name] = finite.var_lambda(f, P, mu, lams)
    vals["collapsed"] = finite.var_lambda(f_base, zoo.collapsed_kernel(pair), pair.pi, lams)
    rows = [ResultRow("lifted-ordering", name, lam, v[i])
            for i, lam in enumerate(lams) for name, v in vals.items()]
    lifted = np.array([vals[name] for name, _ in kinds])  # rate x lambda
    checks = [_check("rate-ordering-minimal<=convex<=maximal", lifted[:-1] - lifted[1:]),
              _check("lifted<=collapsed", lifted - vals["collapsed"])]
    return rows, checks


def _neal_t2(weights) -> tuple[KernelMatrix, FiniteDistribution]:
    pi = FiniteDistribution.from_unnormalized(np.asarray(weights, dtype=float))
    t = 0.5 * np.eye(pi.n) + 0.5 * np.tile(pi.weights, (pi.n, 1))
    return KernelMatrix(t), pi


def run_neal_ordering(cfg: dict, seed: int):
    T2, pi = _neal_t2(cfg["weights"])
    P1, P2, mu, Q = zoo.neal_pair_kernels(T2, pi)
    n = pi.n
    rng = np.random.default_rng(seed)
    draws = [rng.standard_normal(n) for _ in cfg["lambdas"]]  # a fresh observable per lambda

    def one_lambda(item):
        lam, f = item
        g = Observable(np.add.outer(f, f).ravel())  # g(x1,x2) = f(x1)+f(x2)
        fb = Observable(np.repeat(f, n))            # f(x1) lifted to pairs
        fbar = finite.centered(Observable(f), pi)
        var_pi = finite.inner(fbar, fbar, pi)
        rows, resids, vals = [], [], {}
        for name, P in (("P1", P1), ("P2", P2)):
            vg = finite.var_lambda(g, P, mu, [lam])[0]
            vf = finite.var_lambda(fb, P, mu, [lam])[0]
            vals[name] = vf
            ident = -(1 - lam ** 2) / lam * var_pi + (1 + lam) ** 2 / lam * vf
            resid = abs(vg - ident)
            resids.append(resid)
            rows.append(ResultRow("neal-ordering", name, lam, vg, 0.0, ident,
                                  resid <= 1e-9))
        return rows, resids, vals["P1"] - vals["P2"]
    # the lambdas' solves run in shares, as a grid's do
    rows, resids, diffs = zip(*finite._map_grid(one_lambda, list(zip(cfg["lambdas"], draws)),
                                                mu.n))
    checks = [_check("pair-variance-identity", [r for pair in resids for r in pair]),
              _check("never-stay-dominates", list(diffs))]
    return [row for pair in rows for row in pair], checks


def run_two_cycle_extra_chance(cfg: dict, seed: int):
    mu, Q, psi, R, f = _ring_cycle(cfg["weights"])
    Ks, lams = cfg["K_values"], cfg["lambdas"]
    kernels = {K: zoo.extra_chance_finite(mu, psi, Q, K) for K in Ks}
    vals = np.array([finite.var_lambda_cycle(f, R, kernels[K], mu, lams)
                     for K in Ks])  # K x lambda
    rows = [ResultRow("two-cycle-extra-chance", f"K={K}", lam, v[i])
            for i, lam in enumerate(lams) for K, v in zip(Ks, vals)]
    # Dirichlet forms of Q P_K (and so of P_K Q) nondecreasing in K, certified by PSD test
    neg_eigs = [-finite.dirichlet_dominance_certificate(
        kernels[Kb], kernels[Ka], mu, Q).dominance_matrix_min_eig
        for Ka, Kb in zip(Ks[:-1], Ks[1:])]
    checks = [_check("variance-nonincreasing-in-K", vals[1:] - vals[:-1]),
              _check("dirichlet-form-nondecreasing-in-K", neg_eigs, finite.PSD_TOL)]
    return rows, checks


def run_ghmc_phi_compare(cfg: dict, seed: int):
    # exact finite comparison on the ring
    mu, Q, psi, R, f = _ring_cycle(cfg["weights"])
    P_met = zoo.metropolized_flow_finite(mu, psi, Q, zoo.AcceptanceRule.metropolis())
    P_bar = zoo.metropolized_flow_finite(mu, psi, Q, zoo.AcceptanceRule.barker())
    lams = cfg["lambdas"]
    vm, vb = (finite.var_lambda_cycle(f, R, P, mu, lams) for P in (P_met, P_bar))
    rows = [ResultRow("ghmc-phi-compare", name, lam, v)
            for lam, m, b in zip(lams, vm, vb)
            for name, v in (("finite-metropolis", m), ("finite-barker", b))]
    checks = [_check("finite-metropolis<=barker", vm - vb)]
    # Monte Carlo GHMC comparison on the 1-D Gaussian
    H = zigzag.zz_gaussian([1.0])
    obs = {"x2": lambda x: x[:, 0] ** 2, "absx": lambda x: np.abs(x[:, 0])}
    rep = samplers.compare_acceptance_rules(
        H, omega=math.pi / 4, step=cfg["step"], nleap=cfg["nleap"],
        rules=[zoo.AcceptanceRule.metropolis(), zoo.AcceptanceRule.barker()],
        lambdas=cfg["mc_lambdas"], observables=obs,
        n_steps=cfg["steps"], replicates=cfg["replicates"],
        seed=seed)
    for row in rep.rows:
        rows.append(ResultRow("ghmc-phi-compare", f"mc-{row.rule}-{row.observable}",
                              row.lam, row.estimate, row.se))
    checks.append(_check("mc-metropolis<=barker+2se", rep.max_violation, 0.0))
    return rows, checks


def _gamma_pair(cfg: dict):
    """zigzag-1d-gamma's target sigmas, and its rates without and with gamma."""
    return (np.array([1.0]), zigzag.IntensitySpec("canonical"),
            zigzag.IntensitySpec("canonical", gamma=cfg["gamma"]))


def run_zigzag_1d_gamma(cfg: dict, seed: int):
    sigmas, spec1, spec2 = _gamma_pair(cfg)
    pot = zigzag.zz_gaussian(sigmas)
    f = lambda x, v: x[:, 0]
    e1, s1 = zigzag.estimate_var_continuous(pot, spec1, f, cfg["horizon"],
                                            cfg["replicates"], 0.0, seed, degree=1)
    e2, s2 = zigzag.estimate_var_continuous(pot, spec2, f, cfg["horizon"],
                                            cfg["replicates"], 0.0, seed, degree=1)
    rows = [ResultRow("zigzag-1d-gamma", "canonical", 0.0, e1, s1),
            ResultRow("zigzag-1d-gamma", "plus-gamma", 0.0, e2, s2)]
    checks = [_check("canonical<=plus-gamma+2se",
                     samplers.ordered_within_se(e1, s1, e2, s2), 0.0)]
    gap = float(zigzag.dirichlet_gap_quadrature(pot, spec1, spec2,
                                                [lambda x, v: x[:, 0] * v[:, 0]])[0, 0])
    rows.append(ResultRow("zigzag-1d-gamma", "dirichlet-gap", 0.0, gap))
    checks.append(_check("dirichlet-gap-nonnegative", -gap, 1e-8))
    return rows, checks


def _basis_2d():
    """20 smooth test functions x1^a x2^b v1^p v2^q on R^2 x {-1,1}^2."""
    return [lambda x, v, a=a, b=b, p=p, q=q:
            x[:, 0] ** a * x[:, 1] ** b * v[:, 0] ** p * v[:, 1] ** q
            for a, b in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
            for p, q in [(0, 0), (1, 0), (0, 1), (1, 1)]]


def _refresh_pair(cfg: dict):
    """zigzag-2d-refresh's target sigmas, and its partial and full refresh
    rates."""
    return (np.array([1.0, 1.0]),
            *(zigzag.IntensitySpec("canonical", refresh_rate=cfg["refresh_rate"],
                                   refresh_mode=mode) for mode in ("partial", "full")))


def run_zigzag_2d_refresh(cfg: dict, seed: int):
    sigmas, partial, full = _refresh_pair(cfg)
    pot = zigzag.zz_gaussian(sigmas)
    gram = zigzag.dirichlet_gap_quadrature(pot, partial, full, _basis_2d(),
                                           m=cfg["quad_nodes"])
    gaps = np.diag(gram)
    rows = [ResultRow("zigzag-2d-refresh", f"gap-basis-{k}", 0.0, gap)
            for k, gap in enumerate(gaps.tolist())]
    # the gaps certify each basis function, the Gram form's eigenvalue their span
    check = _check("gap-nonnegative-on-basis", -gaps, 1e-8)
    try:
        check["span_min_eig"] = finite.psd_certificate(gram).dominance_matrix_min_eig
    except ValueError as err:
        raise ValueError(f"check {check['name']}: {err}") from err
    checks = [check]
    f = lambda x, v: x[:, 0] + x[:, 1]
    e1, s1 = zigzag.estimate_var_continuous(pot, partial, f, cfg["horizon"],
                                            cfg["replicates"], 0.0, seed, degree=1)
    e2, s2 = zigzag.estimate_var_continuous(pot, full, f, cfg["horizon"],
                                            cfg["replicates"], 0.0, (seed + 1) % 2**64, degree=1)
    rows.append(ResultRow("zigzag-2d-refresh", "partial", 0.0, e1, s1))
    rows.append(ResultRow("zigzag-2d-refresh", "full", 0.0, e2, s2))
    checks.append(_check("partial<=full+2se",
                         samplers.ordered_within_se(e1, s1, e2, s2), 0.0))
    return rows, checks


def run_phi_eps_bounds(cfg: dict, seed: int):
    rs = np.logspace(-3, 3, cfg["grid_points"])
    rows, sym, bound_excess, mono = [], [], [], []
    phi0 = zoo.AcceptanceRule.phi_eps(0.0).phi(rs)
    prev = phi0
    for eps in sorted(cfg["eps_values"]):
        rule = zoo.AcceptanceRule.phi_eps(eps)
        vals = rule.phi(rs)
        sym.append(np.abs(rs * rule.phi(1.0 / rs) - vals))
        diff = phi0 - vals
        # past eps = log 2 the bound exceeds phi0 and holds trivially; the
        # cap keeps expm1 finite
        bound = phi0 * math.sqrt(math.expm1(min(eps, 700.0)))
        bound_excess += [-diff, diff - bound]
        mono.append(vals - prev)
        prev = vals
        for r, val in list(zip(rs, vals))[:: max(1, rs.size // 5)]:
            rows.append(ResultRow("phi-eps-bounds", f"eps={eps}", 0.0,
                                  float(val), 0.0, None, True))
    checks = [_check("balance-symmetry", sym, 1e-10),
              _check("appendix-bound", bound_excess, 1e-12),
              _check("monotone-in-eps", mono, 1e-12)]
    return rows, checks


# name -> (description, defaults, runner); insertion order is the stable
# catalog order used by `nonrev list`.
EXPERIMENTS = {
    "gustafson-ring": (
        "persistent-direction ring walk: invariance, flip-reversibility and "
        "exact discounted variances vs the series oracle",
        {"weights": DEFAULT_RING, "lambdas": DEFAULT_LAMBDAS},
        run_gustafson_ring),
    "lifted-ordering": (
        "lifted guided walk: variance ordering in the switching rate "
        "(minimal <= convex <= maximal) and lifted <= collapsed",
        {"weights": DEFAULT_RING, "step_dist": (1.0,),
         "lambdas": DEFAULT_LAMBDAS},
        run_lifted_ordering),
    "neal-ordering": (
        "pair-space swap kernels: exact variance identity and the never-stay "
        "kernel dominating the independent refresh",
        {"weights": (0.2, 0.3, 0.5), "lambdas": DEFAULT_LAMBDAS},
        run_neal_ordering),
    "two-cycle-extra-chance": (
        "alternating refresh/flow cycle: variance nonincreasing in the number "
        "of extra proposal chances K",
        {"weights": DEFAULT_RING, "K_values": (1, 2, 3),
         "lambdas": DEFAULT_LAMBDAS},
        run_two_cycle_extra_chance),
    "ghmc-phi-compare": (
        "acceptance-rule comparison: metropolis beats barker exactly on the "
        "ring and within noise for GHMC on a Gaussian",
        {"weights": DEFAULT_RING, "lambdas": DEFAULT_LAMBDAS,
         "mc_lambdas": (0.5,), "step": 0.9, "nleap": 2,
         "steps": 20000, "replicates": 8},
        run_ghmc_phi_compare),
    "zigzag-1d-gamma": (
        "1-D zig-zag: canonical rates vs canonical plus extra rate gamma, "
        "batch-means variance ordering and quadrature Dirichlet gap",
        {"gamma": 0.5, "horizon": 2000.0, "replicates": 16},
        run_zigzag_1d_gamma),
    "zigzag-2d-refresh": (
        "2-D zig-zag: per-coordinate refresh flips vs full velocity resample, "
        "Dirichlet gap on a 20-function basis and empirical ordering",
        {"refresh_rate": 1.0, "horizon": 800.0, "replicates": 16,
         "quad_nodes": 24},
        run_zigzag_2d_refresh),
    "phi-eps-bounds": (
        "smoothed acceptance function: balance symmetry, monotonicity in eps "
        "and the uniform approximation bound",
        {"grid_points": 41, "eps_values": (0.01, 0.1, 1.0)},
        run_phi_eps_bounds),
}


@dataclass(frozen=True)
class Param:
    """Range of a config value, or of each entry of a grid: lo <= x < hi (lo < x
    if lo_open); a grid has >= min_len entries, strictly increasing if asked."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    min_len: int = 1
    increasing: bool = False

    def __str__(self) -> str:
        if self.lo == -math.inf and self.hi == math.inf:
            return ""
        return f" in {'(' if self.lo_open else '['}{self.lo:g}, {self.hi:g})"


_POSITIVE, _COUNT = Param(0.0, lo_open=True), Param(1)
# at lambda = 0 every kernel has the same variance |fbar|^2: no evidence
_DISCOUNT = Param(0.0, 1.0, lo_open=True)

# name -> Param; a name means the same thing in every entry of EXPERIMENTS
PARAMS = {
    "weights": Param(), "step_dist": Param(),  # type and finiteness only
    "lambdas": _DISCOUNT, "mc_lambdas": _DISCOUNT,
    # the checks compare consecutive K, so each must be a real step up
    "K_values": Param(1, min_len=2, increasing=True),
    "replicates": Param(2),  # a standard error needs 2
    "horizon": Param(4.0),  # batch means need floor(sqrt(T)) >= 2 batches
    "step": _POSITIVE, "gamma": _POSITIVE, "refresh_rate": _POSITIVE, "eps_values": _POSITIVE,
    "nleap": _COUNT, "steps": _COUNT, "quad_nodes": _COUNT, "grid_points": _COUNT,
}


def cross_key_error(params: dict) -> str | None:
    """Why params break the one rule across keys, steps >= the estimator's
    samplers.min_chain_length at the largest of mc_lambdas; None if not."""
    lams = params.get("mc_lambdas")
    if lams and params["steps"] < (need := samplers.min_chain_length(max(lams))):
        return f"steps must be >= {need} for mc_lambdas {lams!r}, got {params['steps']!r}"
    return None


# events a Zig-Zag replicate may be predicted to make: 500 times the most a
# default predicts (about 2,000, zigzag-1d-gamma), and few enough that the
# exact loop's buffers, which double past the event count at 48 B a row in
# 2-D, stay under about 150 MB
_MAX_EVENTS = 10 ** 6
# name -> the target sigmas and the two rates of a Zig-Zag entry, from its params
_ZIGZAG_PAIRS = {"zigzag-1d-gamma": _gamma_pair, "zigzag-2d-refresh": _refresh_pair}


def size_error(name: str, params: dict) -> str | None:
    """Why the replicates of a Zig-Zag entry are too long to run: each
    makes about 1.1 x horizon x the exact path's mean rate of events
    (the estimator adds a tenth as burn-in), at most _MAX_EVENTS; None if
    not, or if name is no Zig-Zag entry."""
    if name not in _ZIGZAG_PAIRS:
        return None
    sigmas, *specs = _ZIGZAG_PAIRS[name](params)
    events = 1.1 * params["horizon"] * max(zigzag._mean_rate(sigmas, spec) for spec in specs)
    if events > _MAX_EVENTS:
        return (f"horizon {params['horizon']!r} at these rates predicts {events:.3g} events "
                f"per replicate, more than {_MAX_EVENTS}")
    return None
