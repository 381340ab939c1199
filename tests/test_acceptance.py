"""Acceptance gate: ten numbered criteria, one test (and one pass/fail line
under pytest -v) each.  Tolerances are pinned next to each assertion."""

import math
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from nonrev import _native, cli, finite, samplers, zigzag, zoo
from nonrev.experiments import EXPERIMENTS
from nonrev.finite import (DeterministicInvolution, FiniteDistribution,
                           KernelMatrix, Observable)
from oracles import thinned_flip_time

LAM_GRID = [round(0.05 * k, 2) for k in range(1, 20)]  # 0.05 .. 0.95


def random_reversible_kernel(rng, mu: FiniteDistribution) -> KernelMatrix:
    """mu-reversible stochastic matrix from a random symmetric flux."""
    n = mu.n
    F = rng.random((n, n))
    F = (F + F.T) / 2.0
    K = F / mu.weights[:, None]
    K = K / (1.25 * K.sum(axis=1).max())
    return KernelMatrix(K + np.diag(1.0 - K.sum(axis=1)))


def random_muQ_kernel(rng, mu, Q) -> KernelMatrix:
    return KernelMatrix(Q.matrix @ random_reversible_kernel(rng, mu).entries)


def dominated_pair(rng, mu, Q):
    """(P1, P2) with E(g, QP1) >= E(g, QP2) for all g, by construction:
    QP1 = M0 + c (M1 - Id) adds a PSD Dirichlet increment to QP2 = M0."""
    M0 = random_reversible_kernel(rng, mu)
    M1 = random_reversible_kernel(rng, mu)
    c = float(np.min(np.diag(M0.entries))) * rng.uniform(0.3, 0.95)
    Mp = KernelMatrix(M0.entries + c * (M1.entries - np.eye(mu.n)))
    qm = Q.matrix
    return KernelMatrix(qm @ Mp.entries), KernelMatrix(qm @ M0.entries)


def structure_ok(P, mu, Q) -> bool:
    if not finite.check_invariance(P, mu):
        return False
    if not finite.check_muQ_reversible(P, mu, Q):
        return False
    qp, pq = finite.reversible_parts(P, Q)
    return (finite.check_mu_reversible(qp, mu)
            and finite.check_mu_reversible(pq, mu))


def test_criterion_01_structure_suite():
    t0 = time.time()
    rng = np.random.default_rng(101)
    for n in (3, 5, 8):
        target = zoo.RingTarget(0.5 + rng.random(n))
        mu = zoo.half_lift(target.pi)
        Q = zoo.velocity_flip(n)
        kernels = []
        P, m_, q_ = zoo.gustafson_ring(target)
        kernels.append(P)
        qp, qm = np.zeros((n, n)), np.zeros((n, n))
        for x in range(n):
            qp[x, (x + 1) % n] = 1.0
            qm[x, (x - 1) % n] = 1.0
        pair = zoo.mh_subkernels(target, qp, qm)
        for theta in (0.0, 0.5, 1.0):  # minimal, convex, maximal rate
            kernels.append(zoo.lifted_kernel(pair, theta)[0])
        gw = zoo.guided_walk_ring(target, np.array([1.0]))
        kernels.append(zoo.lifted_kernel(gw, 0.0)[0])
        psi = zoo.ring_shift_flow(n)
        for phi in (zoo.AcceptanceRule.metropolis(), zoo.AcceptanceRule.barker()):
            kernels.append(zoo.metropolized_flow_finite(mu, psi, Q, phi))
        kernels.append(zoo.extra_chance_finite(mu, psi, Q, K=2))
        for P in kernels:
            assert structure_ok(P, mu, Q)  # internal tolerance 1e-10
        # pair-space swap construction on the same n
        T2 = KernelMatrix(0.5 * np.eye(n) + 0.5 * np.tile(target.pi.weights, (n, 1)))
        P1, P2, mu_p, Q_p = zoo.neal_pair_kernels(T2, target.pi)
        assert structure_ok(P1, mu_p, Q_p) and structure_ok(P2, mu_p, Q_p)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"criterion 1 PASS: structure suite on rings 3/5/8 ({elapsed:.2f}s)")


def test_criterion_02_ordering_theorem_suite():
    t0 = time.time()
    rng = np.random.default_rng(202)
    excesses = []
    for _ in range(50):
        n = int(rng.integers(3, 7))
        pi = FiniteDistribution.from_unnormalized(0.5 + rng.random(n))
        mu = zoo.half_lift(pi)
        Q = zoo.velocity_flip(n)
        P1, P2 = dominated_pair(rng, mu, Q)
        report = finite.verify_ordering_theorem(P1, P2, mu, Q, LAM_GRID,
                                                trials=20, rng_seed=int(rng.integers(2 ** 31)))
        excesses += [report.max_violation_plus, report.max_violation_minus]
    worst = finite.worst_excess(excesses)  # NaN if any report is NaN
    elapsed = time.time() - t0
    assert worst < 1e-9
    assert elapsed < 30.0
    print(f"criterion 2 PASS: 50 dominated pairs, both directions, "
          f"max violation {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_03_lifted_chain():
    target = zoo.RingTarget(np.array([1.0, 2.0, 3.0, 2.0, 1.0]))
    n = target.n
    qp, qm = np.zeros((n, n)), np.zeros((n, n))
    for x in range(n):
        qp[x, (x + 1) % n] = 1.0
        qm[x, (x - 1) % n] = 1.0
    pair = zoo.mh_subkernels(target, qp, qm)
    thetas = [0.0, 0.25, 0.5, 0.75, 1.0]  # 0 = minimal rate, 1 = maximal
    kernels = [zoo.lifted_kernel(pair, th) for th in thetas]
    coll = zoo.collapsed_kernel(pair)
    rng = np.random.default_rng(303)
    chain, coll_excess = [], []
    for _ in range(10):
        f0 = Observable(rng.standard_normal(n))
        f = zoo.lift_observable(f0)
        for lam in LAM_GRID:
            vals = [finite.var_lambda(f, P, mu, [lam])[0] for P, mu, _ in kernels]
            chain += [a - b for a, b in zip(vals[:-1], vals[1:])]
            vc = finite.var_lambda(f0, coll, target.pi, [lam])[0]
            coll_excess += [a - vc for a in vals]
    # worst_excess folds to NaN if any value is NaN; max(0.0, nan) is 0.0
    worst_chain = finite.worst_excess(chain)
    worst_coll = finite.worst_excess(coll_excess)
    assert worst_chain < 1e-9
    assert worst_coll < 1e-9

    # full guided-walk chain: minimal-rate lift <= persistent walk <= collapsed
    gw = zoo.guided_walk_ring(target, np.array([1.0]))
    P_min, mu, Q = zoo.lifted_kernel(gw, 0.0)
    P_max, _, _ = zoo.lifted_kernel(gw, 1.0)
    P_gus, _, _ = zoo.gustafson_ring(target)
    # the flip-on-reject walk is exactly the maximal-rate lift of unit steps
    assert np.max(np.abs(P_gus.entries - P_max.entries)) < 1e-14
    coll_gw = zoo.collapsed_kernel(gw)
    ex6 = []
    for _ in range(10):
        f0 = Observable(rng.standard_normal(n))
        f = zoo.lift_observable(f0)
        for lam in LAM_GRID:
            v_lift = finite.var_lambda(f, P_min, mu, [lam])[0]
            v_walk = finite.var_lambda(f, P_gus, mu, [lam])[0]
            v_rw = finite.var_lambda(f0, coll_gw, target.pi, [lam])[0]
            ex6 += [v_lift - v_walk, v_walk - v_rw]
    worst_ex6 = finite.worst_excess(ex6)
    assert worst_ex6 < 1e-9
    print(f"criterion 3 PASS: switching-rate chain {worst_chain:.2e}, "
          f"lifted<=collapsed {worst_coll:.2e}, walk chain {worst_ex6:.2e}")


def test_criterion_04_pair_space_identity():
    rng = np.random.default_rng(404)
    ids, ords = [], []
    for weights in ((0.2, 0.3, 0.5), (1.0, 2.0, 3.0, 2.0, 1.0)):
        pi = FiniteDistribution.from_unnormalized(np.asarray(weights, float))
        n = pi.n
        T2 = KernelMatrix(0.5 * np.eye(n) + 0.5 * np.tile(pi.weights, (n, 1)))
        P1, P2, mu, Q = zoo.neal_pair_kernels(T2, pi)
        Pi = KernelMatrix(np.tile(pi.weights, (n, 1)))
        for _ in range(20):
            f = rng.standard_normal(n)
            g = Observable(np.add.outer(f, f).ravel())
            fb = Observable(np.repeat(f, n))
            var_pi = finite.var_lambda(Observable(f), Pi, pi, [0.0])[0]
            for lam in [round(0.1 * k, 1) for k in range(1, 10)]:
                for P in (P1, P2):
                    vg = finite.var_lambda(g, P, mu, [lam])[0]
                    vf = finite.var_lambda(fb, P, mu, [lam])[0]
                    ident = (-(1 - lam ** 2) / lam * var_pi
                             + (1 + lam) ** 2 / lam * vf)
                    ids.append(abs(vg - ident))
                v1 = finite.var_lambda(fb, P1, mu, [lam])[0]
                v2 = finite.var_lambda(fb, P2, mu, [lam])[0]
                ords.append(v1 - v2)
    worst_id, worst_ord = finite.worst_excess(ids), finite.worst_excess(ords)
    assert worst_id < 1e-9
    assert worst_ord < 1e-9
    print(f"criterion 4 PASS: pair-space identity residual {worst_id:.2e}, "
          f"never-stay dominance {worst_ord:.2e}")


def test_criterion_05_two_cycle_identities():
    rng = np.random.default_rng(505)
    id1, id2 = [], []
    for _ in range(10):
        n = int(rng.integers(3, 7))
        pi = FiniteDistribution.from_unnormalized(0.5 + rng.random(n))
        mu = zoo.half_lift(pi)
        Q = zoo.velocity_flip(n)
        f = Observable(np.repeat(rng.standard_normal(n), 2))  # Qf = f
        fbar = finite.centered(f, mu)
        norm2 = finite.inner(fbar, fbar, mu)

        # identity 1: P1 = lazy flip fixes f
        a = rng.uniform(0.1, 0.9)
        P1 = KernelMatrix((1 - a) * np.eye(2 * n) + a * Q.matrix)
        P2 = random_muQ_kernel(rng, mu, Q)
        comp = KernelMatrix(P1.entries @ P2.entries)
        for lam in (0.2, 0.5, 0.8):
            lhs = finite.var_lambda_cycle(f, P1, P2, mu, [lam])[0]
            rhs = ((2 + lam + 1 / lam) / 2 * finite.var_lambda(f, comp, mu, [lam ** 2])[0]
                   + (lam - 1 / lam) / 2 * norm2)
            id1.append(abs(lhs - rhs))

        # identity 2: {P1, P2} vs {P1 Q, Q P2} for arbitrary (mu,Q)-kernels
        P1b = random_muQ_kernel(rng, mu, Q)
        A = KernelMatrix(P1b.entries @ Q.matrix)
        B = KernelMatrix(Q.matrix @ P2.entries)
        for lam in (0.2, 0.5, 0.8):
            lhs = finite.var_lambda_cycle(f, P1b, P2, mu, [lam])[0]
            rhs = finite.var_lambda_cycle(f, A, B, mu, [lam])[0]
            id2.append(abs(lhs - rhs))
    worst_id1, worst_id2 = finite.worst_excess(id1), finite.worst_excess(id2)
    assert worst_id1 < 1e-9
    assert worst_id2 < 1e-9

    # extra-chance variance nonincreasing in K
    target = zoo.RingTarget(np.array([1.0, 2.0, 3.0, 2.0, 1.0]))
    mu = zoo.half_lift(target.pi)
    Q = zoo.velocity_flip(5)
    psi = zoo.ring_shift_flow(5)
    R = KernelMatrix(0.5 * np.eye(10) + 0.5 * Q.matrix)
    f = Observable(np.repeat(np.cos(2 * math.pi * np.arange(5) / 5), 2))
    mono = []
    for lam in LAM_GRID:
        prev = None
        for K in (1, 2, 3):
            PK = zoo.extra_chance_finite(mu, psi, Q, K)
            v = finite.var_lambda_cycle(f, R, PK, mu, [lam])[0]
            if prev is not None:
                mono.append(v - prev)
            prev = v
    worst_mono = finite.worst_excess(mono)
    assert worst_mono < 1e-9
    print(f"criterion 5 PASS: cycle identities {worst_id1:.2e} / {worst_id2:.2e}, "
          f"extra-chance monotone {worst_mono:.2e}")


@pytest.mark.slow
def test_criterion_06_acceptance_rule_comparison():
    t0 = time.time()
    # exact finite comparison inside a refresh/flow cycle
    target = zoo.RingTarget(np.array([1.0, 2.0, 3.0, 2.0, 1.0]))
    mu = zoo.half_lift(target.pi)
    Q = zoo.velocity_flip(5)
    psi = zoo.ring_shift_flow(5)
    P_met = zoo.metropolized_flow_finite(mu, psi, Q, zoo.AcceptanceRule.metropolis())
    P_bar = zoo.metropolized_flow_finite(mu, psi, Q, zoo.AcceptanceRule.barker())
    R = KernelMatrix(0.5 * np.eye(10) + 0.5 * Q.matrix)
    f = Observable(np.repeat(np.cos(2 * math.pi * np.arange(5) / 5), 2))
    worst = finite.worst_excess([finite.var_lambda_cycle(f, R, P_met, mu, [lam])[0]
                                 - finite.var_lambda_cycle(f, R, P_bar, mu, [lam])[0]
                                 for lam in LAM_GRID])
    assert worst < 1e-9

    # GHMC on the 1-D Gaussian, 16 replicates x 1e6 steps
    H = zigzag.zz_gaussian([1.0])
    report = samplers.compare_acceptance_rules(
        H, omega=math.pi / 4, step=0.9, nleap=2,
        rules=[zoo.AcceptanceRule.metropolis(), zoo.AcceptanceRule.barker()],
        lambdas=[0.2, 0.8],
        observables={"x2": lambda x: x[:, 0] ** 2,
                     "absx": lambda x: np.abs(x[:, 0])},
        n_steps=1_000_000, replicates=16, seed=606)
    elapsed = time.time() - t0
    assert report.passed  # metropolis <= barker + 2 combined SE everywhere
    assert elapsed < 300.0
    print(f"criterion 6 PASS: finite ordering {worst:.2e}, GHMC comparison "
          f"within 2 SE ({elapsed:.1f}s)")


def test_criterion_07_phi_eps_suite():
    t0 = time.time()
    grid = np.logspace(-2, 2, 20)
    eps_values = (0.1, 0.5, 1.0)
    # symmetry and monotonicity in eps
    prev = zoo.AcceptanceRule.phi_eps(0.0).phi(grid)
    for eps in eps_values:
        rule = zoo.AcceptanceRule.phi_eps(eps)
        vals = rule.phi(grid)
        sym = np.max(np.abs(grid * rule.phi(1.0 / grid) - vals))
        assert sym < 1e-10
        assert np.max(vals - prev) < 1e-12  # nonincreasing in eps
        prev = vals
        # smoothing bound, exact on the grid
        phi0 = np.minimum(1.0, grid)
        diff = phi0 - vals
        assert np.min(diff) > -1e-14
        assert np.max(diff - phi0 * math.sqrt(math.expm1(eps))) < 1e-12
    # Monte Carlo oracle with a shared 1e7-sample normal array
    eps = 0.5
    rule = zoo.AcceptanceRule.phi_eps(eps)
    z = np.random.default_rng(707).standard_normal(10_000_000)
    ew = np.exp(z * math.sqrt(eps) - eps / 2)
    for r in grid:
        draws = np.minimum(1.0, r * ew)
        mc = float(draws.mean())
        # far in the tails every draw clips to 1 and the sample SE degenerates
        # to 0; floor it at the estimator granularity 1/N
        se = max(float(draws.std(ddof=1)) / math.sqrt(draws.size),
                 1.0 / draws.size)
        assert abs(rule.phi(float(r)) - mc) < 4 * se
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"criterion 7 PASS: phi_eps symmetry/monotonicity/bound exact, "
          f"MC oracle within 4 SE ({elapsed:.1f}s)")


def test_criterion_08_zigzag_correctness():
    pot = zigzag.zz_gaussian([1.0])
    spec = zigzag.IntensitySpec("canonical")
    T = 100_000.0
    R = 16
    moments = np.empty((R, 4))
    for r in range(R):
        rng = samplers.replicate_rng(808, r)
        traj = zigzag.simulate_zigzag(pot, spec, [0.0], [1.0], T, rng)
        for k in range(1, 5):
            moments[r, k - 1] = zigzag.trajectory_integral(
                traj, lambda x, v, k=k: x[:, 0] ** k, degree=k) / T
    targets = (0.0, 1.0, 0.0, 3.0)
    for k, target in enumerate(targets):
        mean = moments[:, k].mean()
        se = moments[:, k].std(ddof=1) / math.sqrt(R)
        assert abs(mean - target) < 3 * se

    # thinning vs exact inversion: first-event laws agree (KS)
    rng1 = np.random.default_rng(81)
    rng2 = np.random.default_rng(82)
    n = 5000
    exact = np.array([_native.entry("flip_time")(0.7, 1.0, 0.0, rng1.exponential())
                      for _ in range(n)])
    thinned = np.array([thinned_flip_time(
        spec, pot, 0, np.array([0.7]), np.array([1.0]), rng2)
        for _ in range(n)])
    ks = ks_2samp(exact, thinned)
    assert ks.pvalue > 1e-3
    print(f"criterion 8 PASS: occupation moments within 3 SE, "
          f"thinning KS p={ks.pvalue:.3f}")


def test_criterion_09_zigzag_orderings():
    t0 = time.time()
    for name in ("zigzag-1d-gamma", "zigzag-2d-refresh"):
        desc, defaults, runner = EXPERIMENTS[name]
        rows, checks = runner(dict(defaults), seed=909)
        for c in checks:
            assert c["pass"], f"{name}::{c['name']} violation {c['max_violation']}"
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(f"criterion 9 PASS: 1-D gamma ordering and 2-D refresh gap/ordering "
          f"({elapsed:.1f}s)")


def test_criterion_10_determinism(tmp_path):
    import json
    configs = [
        {"experiment": "gustafson-ring", "seed": 5},
        {"experiment": "neal-ordering", "seed": 5},
        {"experiment": "phi-eps-bounds", "seed": 5},
        {"experiment": "ghmc-phi-compare", "seed": 5, "steps": 2000,
         "replicates": 4},
        {"experiment": "zigzag-1d-gamma", "seed": 5, "horizon": 200.0,
         "replicates": 4},
    ]
    for payload in configs:
        name = payload["experiment"]
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / name / sub
            cfg_path = tmp_path / f"{name}-{sub}.json"
            cfg_path.write_text(json.dumps({**payload, "out": str(out)}))
            code = cli.main(["run", str(cfg_path)])
            assert code == 0
            blobs.append((out / f"{name}_results.csv").read_bytes())
        assert blobs[0] == blobs[1], f"{name} CSV not byte-identical"
    print("criterion 10 PASS: byte-identical CSV reruns for 5 experiments")
