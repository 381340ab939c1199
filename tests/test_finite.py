import functools
import math
import os

import numpy as np
import pytest

from nonrev import experiments, finite, zoo
from nonrev.finite import (DeterministicInvolution, FiniteDistribution,
                           HypothesisNotCertified, KernelMatrix,
                           NotReversibleError, Observable)
import oracles
from oracles import (dirichlet_form, dirichlet_form_halfsum, project_symmetric,
                     var_lambda_cycle_series)
from test_zigzag import assert_no_children, record_forks


def two_state_flip(p):
    return KernelMatrix(np.array([[1 - p, p], [p, 1 - p]]))


UNIF2 = FiniteDistribution(np.array([0.5, 0.5]))
LAMS = [0.05 * k for k in range(1, 20)]


class TestTypes:
    def test_distribution_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            FiniteDistribution(np.array([1.0, 0.0]))

    def test_distribution_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            FiniteDistribution(np.array([0.5, 0.4]))

    def test_distribution_rejects_nan(self):
        # every comparison with NaN is False, so each check is the negation
        # of the condition that must hold
        with pytest.raises(ValueError, match="strictly positive"):
            FiniteDistribution(np.array([np.nan, 0.5]))

    def test_kernel_rejects_nan(self):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            KernelMatrix(np.array([[np.nan, 0.5], [0.5, 0.5]]))

    def test_kernel_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            KernelMatrix(np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            KernelMatrix(np.array([[1.2, -0.2], [0.0, 1.0]]))

    def test_involution_rejects_non_involution(self):
        with pytest.raises(ValueError):
            DeterministicInvolution(np.array([1, 2, 0]))

    def test_observable_rejects_nan(self):
        with pytest.raises(ValueError):
            Observable(np.array([1.0, np.nan]))

    def test_size_mismatch_is_a_plain_value_error(self):
        with pytest.raises(ValueError, match="incompatible sizes") as err:
            finite.var_lambda(Observable(np.zeros(3)), two_state_flip(0.3), UNIF2, [0.5])
        assert err.type is ValueError


class TestWorstExcess:
    @pytest.mark.parametrize("excess, worst", [
        (-1.5, 0.0), (0.0, 0.0), (2.5, 2.5), (np.float64(-3.0), 0.0),
        (np.array([-1.0, 0.5, 0.25]), 0.5), (np.array([[-1.0, 2.0], [3.0, -4.0]]), 3.0),
        ([-2.0, -1.0], 0.0), ([np.array([-1.0, 1e-12]), np.array([-3.0, -2.0])], 1e-12)],
        ids=["negative", "zero", "positive", "numpy-scalar", "array", "matrix",
             "list-of-scalars", "list-of-arrays"])
    def test_largest_excess_clipped_at_zero(self, excess, worst):
        got = finite.worst_excess(excess)
        assert type(got) is float and got == worst

    @pytest.mark.parametrize("excess", [-0.0, np.array([-0.0, -1.0]), [-0.0]])
    def test_negative_zero_reads_as_zero(self, excess):
        assert math.copysign(1.0, finite.worst_excess(excess)) == 1.0

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_in_any_position_is_nan(self, position):
        excess = [-1.0, 2.0, -3.0]
        excess[position] = math.nan
        for form in (excess, np.array(excess), [np.array(excess)] * 2):
            assert math.isnan(finite.worst_excess(form))
        assert math.isnan(finite.worst_excess(math.nan))

    @pytest.mark.parametrize("excess", [[], np.array([]), np.empty((0, 3))],
                             ids=["list", "array", "matrix"])
    def test_no_evidence_raises(self, excess):
        with pytest.raises(ValueError):
            finite.worst_excess(excess)

    def test_check_forms_its_violation_by_it(self):
        assert experiments._check("c", [np.array([-1.0, 3e-10])]) == {
            "name": "c", "pass": True, "max_violation": 3e-10, "tol": 1e-9}
        nan = experiments._check("c", [0.0, math.nan], math.inf)
        assert not nan["pass"] and math.isnan(nan["max_violation"])
        with pytest.raises(ValueError):
            experiments._check("c", [])


class TestInvariance:
    def test_identity(self):
        mu = FiniteDistribution(np.array([0.2, 0.3, 0.5]))
        assert finite.check_invariance(KernelMatrix(np.eye(3)), mu)

    def test_cyclic_shift_uniform(self):
        P = KernelMatrix(np.roll(np.eye(3), 1, axis=1))
        mu = FiniteDistribution(np.full(3, 1 / 3))
        assert finite.check_invariance(P, mu)

    def test_uniform_rows_skewed_mu(self):
        mu = FiniteDistribution(np.array([0.7, 0.3]))
        P = KernelMatrix(np.full((2, 2), 0.5))
        assert not finite.check_invariance(P, mu)


class TestIsometricInvolution:
    def test_identity(self):
        mu = FiniteDistribution(np.array([0.7, 0.3]))
        assert finite.check_isometric_involution(
            DeterministicInvolution(np.arange(2)), mu)

    def test_velocity_flip_on_half_lift(self):
        # mu(x, v) = pi(x)/2 with xi(x, v) = (x, -v)
        mu = FiniteDistribution(np.array([0.35, 0.35, 0.15, 0.15]))
        Q = DeterministicInvolution(np.array([1, 0, 3, 2]))
        assert finite.check_isometric_involution(Q, mu)

    def test_mass_mismatch_fails(self):
        mu = FiniteDistribution(np.array([0.2, 0.3, 0.5]))
        Q = DeterministicInvolution(np.array([1, 0, 2]))
        assert not finite.check_isometric_involution(Q, mu)


def near_invariant_pair(moved):
    """A lifted guided walk on a ring with a low-mass site, and the same
    kernel with `moved` mass shifted between the two positive entries of
    row 3: mu stays invariant to 1e-10, but at the low-mass states the
    mu-adjoint's rows miss 1 by about 1e3 `moved`."""
    P, mu, Q = zoo.lifted_kernel(
        zoo.guided_walk_ring(zoo.RingTarget([1e-3, 1, 1]), (1.0,)), 1.0)
    a = P.entries.copy()
    i, j = np.flatnonzero(a[3] > 0)
    a[3, i] -= moved
    a[3, j] += moved
    return P, KernelMatrix(a), mu, Q


class TestAdjoint:
    """check_muQ_reversible forms the mu-adjoint mu(z') P(z', z) / mu(z)
    itself and compares it with QPQ."""

    def test_reversible_fixed_point(self):
        # with Q the identity, a mu-reversible kernel is its own adjoint
        mu = FiniteDistribution.from_unnormalized(np.random.default_rng(0).random(4) + 0.1)
        every_row_mu = KernelMatrix(np.tile(mu.weights, (4, 1)))
        for P, m in ((two_state_flip(0.3), UNIF2), (every_row_mu, mu)):
            assert finite.check_mu_reversible(P, m)
            assert finite.check_muQ_reversible(P, m, DeterministicInvolution(np.arange(P.n)))

    def test_cyclic_shift(self):
        # the adjoint of z -> z + 1 is z -> z - 1: QPQ for the reversal
        # z -> 3 - z, not P itself
        P = KernelMatrix(np.roll(np.eye(4), 1, axis=1))
        mu = FiniteDistribution(np.full(4, 0.25))
        assert finite.check_muQ_reversible(P, mu, DeterministicInvolution(np.arange(4)[::-1]))
        assert not finite.check_muQ_reversible(P, mu, DeterministicInvolution(np.arange(4)))

    @pytest.mark.parametrize("moved, reversible", [(2e-14, True), (-2e-14, True),
                                                   (1e-11, False), (-1e-11, False)])
    def test_near_invariant_kernel(self, moved, reversible):
        # its adjoint is not stochastic to 1e-12 n: still a bool, and the
        # certificate's refusal is NotReversibleError
        P, Pm, mu, Q = near_invariant_pair(moved)
        w = mu.weights
        adj_rows = (w[None, :] * Pm.entries.T / w[:, None]).sum(axis=1)
        assert np.max(np.abs(adj_rows - 1.0)) > 1e-12 * Pm.n
        assert finite.check_invariance(Pm, mu)
        assert finite.check_muQ_reversible(Pm, mu, Q) is reversible
        if reversible:
            assert finite.dirichlet_dominance_certificate(Pm, P, mu, Q).holds
        else:
            with pytest.raises(NotReversibleError):
                finite.dirichlet_dominance_certificate(Pm, P, mu, Q)


class TestMuQReversible:
    def test_reversible_with_identity_q(self):
        assert finite.check_muQ_reversible(
            two_state_flip(0.3), UNIF2, DeterministicInvolution(np.arange(2)))

    def test_cyclic_shift_fails_with_identity_q(self):
        P = KernelMatrix(np.roll(np.eye(3), 1, axis=1))
        mu = FiniteDistribution(np.full(3, 1 / 3))
        assert not finite.check_muQ_reversible(
            P, mu, DeterministicInvolution(np.arange(3)))

    def test_bad_involution_raises(self):
        mu = FiniteDistribution(np.array([0.2, 0.8]))
        Q = DeterministicInvolution(np.array([1, 0]))
        with pytest.raises(ValueError):
            finite.check_muQ_reversible(two_state_flip(0.3), mu, Q)

    def test_non_invariant_kernel_is_not_reversible(self):
        # the mu-adjoint of a kernel that moves mu is not stochastic, so it
        # cannot equal QPQ: False, not an error
        cases = [(KernelMatrix(np.full((2, 2), 0.5)), FiniteDistribution(np.array([0.7, 0.3])),
                  DeterministicInvolution(np.arange(2))),
                 (KernelMatrix(np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))),
                  FiniteDistribution(np.full(4, 0.25)), DeterministicInvolution([1, 0, 3, 2]))]
        for P, mu, Q in cases:
            assert not finite.check_invariance(P, mu)
            assert finite.check_muQ_reversible(P, mu, Q) is False


class TestReversibleParts:
    def test_p_equals_q(self):
        Q = DeterministicInvolution(np.array([1, 0]))
        qp, pq = finite.reversible_parts(KernelMatrix(Q.matrix), Q)
        assert np.allclose(qp.entries, np.eye(2))
        assert np.allclose(pq.entries, np.eye(2))

    def test_p_identity(self):
        Q = DeterministicInvolution(np.array([1, 0]))
        qp, pq = finite.reversible_parts(KernelMatrix(np.eye(2)), Q)
        assert np.allclose(qp.entries, Q.matrix)
        assert np.allclose(pq.entries, Q.matrix)


class TestProjectors:
    def test_projector_identities(self):
        rng = np.random.default_rng(1)
        Q = DeterministicInvolution(np.array([1, 0, 3, 2]))
        f = Observable(rng.standard_normal(4))
        fp = project_symmetric(f, Q, +1)
        fm = project_symmetric(f, Q, -1)
        assert np.allclose(fp.values + fm.values, f.values, atol=1e-15, rtol=0)
        # projections are idempotent and land in the right eigenspace
        assert np.array_equal(project_symmetric(fp, Q, +1).values, fp.values)
        assert np.array_equal(fp.values[Q.perm], fp.values)
        assert np.array_equal(fm.values[Q.perm], -fm.values)

    def test_odd_function_kills_plus_projection(self):
        Q = DeterministicInvolution(np.array([1, 0]))
        f = Observable(np.array([1.0, -1.0]))  # f(x, v) = v
        assert np.all(project_symmetric(f, Q, +1).values == 0)


class TestDirichletForm:
    def test_constant_and_identity(self):
        f = Observable(np.ones(2))
        assert dirichlet_form(f, two_state_flip(0.3), UNIF2) == pytest.approx(0.0)
        g = Observable(np.array([2.0, -1.0]))
        assert dirichlet_form(g, KernelMatrix(np.eye(2)), UNIF2) == pytest.approx(0.0)

    def test_two_state_hand_value(self):
        # <f,(Id-P)f> = 2p for f = (1,-1) on the flip-p chain
        for p in (0.1, 0.5, 0.9):
            f = Observable(np.array([1.0, -1.0]))
            assert dirichlet_form(f, two_state_flip(p), UNIF2) == pytest.approx(2 * p)

    def test_halfsum_agrees_under_reversibility(self):
        rng = np.random.default_rng(2)
        mu = FiniteDistribution.from_unnormalized(rng.random(5) + 0.1)
        A = rng.random((5, 5))
        F = (A + A.T) / 2
        M = F / mu.weights[:, None]
        M = M / (M.sum(axis=1).max() * 1.2)
        M = M + np.diag(1 - M.sum(axis=1))
        P = KernelMatrix(M)
        assert finite.check_mu_reversible(P, mu)
        f = Observable(rng.standard_normal(5))
        a = dirichlet_form(f, P, mu)
        b = dirichlet_form_halfsum(f, P, mu)
        assert abs(a - b) <= 1e-10


class TestVarLambda:
    def test_lambda_zero_is_variance(self):
        rng = np.random.default_rng(3)
        f = Observable(rng.standard_normal(2))
        fbar = f.values - UNIF2.weights @ f.values
        expect = float(UNIF2.weights @ (fbar * fbar))
        v = finite.var_lambda(f, two_state_flip(0.3), UNIF2, [0.0])
        assert v[0] == pytest.approx(expect)

    def test_identity_kernel_geometric(self):
        f = Observable(np.array([1.0, -1.0]))
        lams = [0.2, 0.5, 0.9]
        v = finite.var_lambda(f, KernelMatrix(np.eye(2)), UNIF2, lams)
        assert v.dtype == np.float64 and v.shape == (3,)
        assert v == pytest.approx([(1 + lam) / (1 - lam) for lam in lams])

    def test_series_oracle(self):
        f = Observable(np.array([1.0, -1.0]))
        P = two_state_flip(0.5)
        v = finite.var_lambda(f, P, UNIF2, [0.5])
        o = finite.var_lambda_series(f, P, UNIF2, [0.5])
        assert abs(v[0] - o[0]) <= 1e-8

    def test_series_oracle_random_up_to_099(self):
        rng = np.random.default_rng(4)
        mu = FiniteDistribution.from_unnormalized(rng.random(8) + 0.1)
        P = KernelMatrix(np.tile(mu.weights, (8, 1)))
        f = Observable(rng.standard_normal(8))
        a = finite.var_lambda(f, P, mu, [0.3, 0.9, 0.99])
        b = finite.var_lambda_series(f, P, mu, [0.3, 0.9, 0.99])
        assert np.max(np.abs(a - b)) <= 1e-8

    def test_rejects_bad_lambda(self):
        f = Observable(np.zeros(2))
        with pytest.raises(ValueError):
            finite.var_lambda(f, two_state_flip(0.3), UNIF2, [1.0])


class TestVarLambdaCycle:
    def test_identity_at_lambda_zero(self):
        f = Observable(np.array([1.0, -1.0]))
        v = finite.var_lambda_cycle(f, KernelMatrix(np.eye(2)),
                                    KernelMatrix(np.eye(2)), UNIF2, [0.0])
        assert v[0] == pytest.approx(1.0)

    def test_series_oracle_and_symmetry(self):
        rng = np.random.default_rng(5)
        mu = FiniteDistribution.from_unnormalized(rng.random(4) + 0.1)
        P1 = KernelMatrix(np.tile(mu.weights, (4, 1)))
        M = 0.6 * np.eye(4) + 0.4 * np.tile(mu.weights, (4, 1))
        P2 = KernelMatrix(M)
        f = Observable(rng.standard_normal(4))
        a = finite.var_lambda_cycle(f, P1, P2, mu, [0.7])[0]
        b = var_lambda_cycle_series(f, P1, P2, mu, 0.7)
        assert abs(a - b) <= 1e-9
        swapped = finite.var_lambda_cycle(f, P2, P1, mu, [0.7])
        assert swapped[0] == pytest.approx(a, abs=1e-12)


GRID_FUNCTIONS = {
    "var_lambda": lambda lams: finite.var_lambda(
        Observable(np.zeros(2)), two_state_flip(0.3), UNIF2, lams),
    "var_lambda_series": lambda lams: finite.var_lambda_series(
        Observable(np.zeros(2)), two_state_flip(0.3), UNIF2, lams),
    "var_lambda_cycle": lambda lams: finite.var_lambda_cycle(
        Observable(np.zeros(2)), two_state_flip(0.3), two_state_flip(0.3), UNIF2, lams),
    "verify_ordering_theorem": lambda lams: finite.verify_ordering_theorem(
        two_state_flip(0.4), two_state_flip(0.2), UNIF2,
        DeterministicInvolution(np.arange(2)), lams, trials=1),
}


@pytest.mark.parametrize("lambdas", [[], [1.0], [-0.1], [math.nan]],
                         ids=["empty", "one", "negative", "nan"])
@pytest.mark.parametrize("name", list(GRID_FUNCTIONS))
def test_grid_refused_before_any_solve(name, lambdas, monkeypatch):
    # a grid that certifies nothing, or reaches outside [0, 1), is refused
    # before any solve; the valid lambda in front does not let the bad one through
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the grid was validated")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    monkeypatch.setattr(finite, "dirichlet_dominance_certificate", no_solve)
    for grid in [lambdas] + ([[0.5, *lambdas]] if lambdas else []):
        with pytest.raises(ValueError) as err:
            GRID_FUNCTIONS[name](grid)
        assert err.type is ValueError


def ring_families(weights, step_dist):
    """Every kernel the finite catalog entries build on one ring, with the
    observable each entry uses: (name, f, P, mu) for var_lambda, and
    (name, f, P1, P2, mu) for var_lambda_cycle."""
    target = zoo.RingTarget(weights)
    f = experiments._position_observable(target.n)
    P, mu, _Q = zoo.gustafson_ring(target)
    single = [("gustafson", f, P, mu)]
    pair = zoo.guided_walk_ring(target, step_dist)
    f_base = Observable(np.cos(2 * math.pi * np.arange(target.n) / target.n))
    for theta in (0.0, 0.5, 1.0):
        P, mu, _Q = zoo.lifted_kernel(pair, theta)
        single.append((f"lifted-{theta}", zoo.lift_observable(f_base), P, mu))
    single.append(("collapsed", f_base, zoo.collapsed_kernel(pair), pair.pi))
    mu, Q, psi, R, f = experiments._ring_cycle(weights)
    cycles = [(f"extra-chance-K={K}", f, R, zoo.extra_chance_finite(mu, psi, Q, K), mu)
              for K in (1, 2, 3)]
    for rule in (zoo.AcceptanceRule.metropolis(), zoo.AcceptanceRule.barker()):
        cycles.append((f"flow-{rule.kind}", f, R,
                       zoo.metropolized_flow_finite(mu, psi, Q, rule), mu))
    return single, cycles


RINGS = {"default": (experiments.DEFAULT_RING, (1.0,)),
         "200-site": (tuple(0.5 + np.random.default_rng(200).random(200)), (0.5, 0.3, 0.2))}
CATALOG_LAMBDAS = list(experiments.DEFAULT_LAMBDAS)


def doubled(lam, n):
    """Whether var_lambda_series sums lam in doubling form on n states."""
    K = finite._series_terms(lam)
    return K > n * math.log2(K)


class TestGridMatchesPerLambdaReference:
    """The grid forms against one-lambda-per-call references: bit for bit on
    the catalog's kernels, to rounding on generic dense pairs, where forming
    P1 P2 once reorders the roundings of (lam^2 P1) P2."""

    @pytest.mark.parametrize("ring", list(RINGS))
    def test_catalog_kernels_bitwise(self, ring):
        single, cycles = ring_families(*RINGS[ring])
        for name, f, P, mu in single:
            ref = [oracles.var_lambda_reference(f, P, mu, lam) for lam in CATALOG_LAMBDAS]
            assert np.array_equal(finite.var_lambda(f, P, mu, CATALOG_LAMBDAS), ref), name
        for name, f, P1, P2, mu in cycles:
            ref = [oracles.var_lambda_cycle_reference(f, P1, P2, mu, lam)
                   for lam in CATALOG_LAMBDAS]
            got = finite.var_lambda_cycle(f, P1, P2, mu, CATALOG_LAMBDAS)
            assert np.array_equal(got, ref), name

    def test_neal_pair_kernels_bitwise(self):
        for weights in ((0.2, 0.3, 0.5), tuple(0.5 + np.random.default_rng(20).random(20))):
            T2, pi = experiments._neal_t2(weights)
            P1, P2, mu, _Q = zoo.neal_pair_kernels(T2, pi)
            g = Observable(np.add.outer(np.arange(pi.n), np.cos(np.arange(pi.n))).ravel())
            for P in (P1, P2):
                ref = [oracles.var_lambda_reference(g, P, mu, lam)
                       for lam in CATALOG_LAMBDAS]
                assert np.array_equal(finite.var_lambda(g, P, mu, CATALOG_LAMBDAS), ref)

    @pytest.mark.parametrize("ring", list(RINGS))
    def test_series_linear_sums_bitwise(self, ring):
        # every lambda below the doubling switch sums the same moments in the
        # same order; on 400 states the whole catalog grid stays linear
        (name, f, P, mu), *_ = ring_families(*RINGS[ring])[0]
        linear = [lam for lam in CATALOG_LAMBDAS if not doubled(lam, P.n)]
        assert linear == (CATALOG_LAMBDAS if P.n == 400 else CATALOG_LAMBDAS[:6])
        ref = [oracles.var_lambda_series_reference(f, P, mu, lam) for lam in linear]
        assert np.array_equal(finite.var_lambda_series(f, P, mu, linear), ref)
        # sharing the moments across a grid changes no lambda's sum
        both = finite.var_lambda_series(f, P, mu, CATALOG_LAMBDAS)
        assert np.array_equal(both[:len(linear)], ref)

    @pytest.mark.parametrize("n", [3, 8, 40])
    def test_generic_dense_pairs_to_rounding(self, n):
        rng = np.random.default_rng(n)
        mu = FiniteDistribution.from_unnormalized(rng.random(n) + 0.1)
        P1, P2 = (KernelMatrix(m / m.sum(axis=1)[:, None]) for m in rng.random((2, n, n)))
        f = Observable(rng.standard_normal(n))
        got = finite.var_lambda_cycle(f, P1, P2, mu, LAMS)
        ref = [oracles.var_lambda_cycle_reference(f, P1, P2, mu, lam) for lam in LAMS]
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
        ref = [oracles.var_lambda_reference(f, P1, mu, lam) for lam in LAMS]
        assert np.array_equal(finite.var_lambda(f, P1, mu, LAMS), ref)


class TestSeriesDoubling:
    """Past K > n log2 K terms the series oracle doubles S_m instead of
    summing K terms, so it finishes at every accepted lambda."""

    DEFAULT = ring_families(*RINGS["default"])[0][0]

    def test_matches_linear_sum_up_to_0999(self):
        name, f, P, mu = self.DEFAULT
        lams = [0.7, 0.8, 0.9, 0.99, 0.999]
        assert all(doubled(lam, P.n) for lam in lams)
        got = finite.var_lambda_series(f, P, mu, lams)
        ref = [oracles.var_lambda_series_reference(f, P, mu, lam) for lam in lams]
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [3, 8])
    def test_doubling_sum_matches_linear_sum_on_dense_kernels(self, n):
        rng = np.random.default_rng(10 + n)
        mu = FiniteDistribution.from_unnormalized(rng.random(n) + 0.1)
        m = rng.random((n, n))
        P = KernelMatrix(m / m.sum(axis=1)[:, None])
        f = Observable(rng.standard_normal(n))
        fbar = finite.centered(f, mu)
        sq = finite.inner(fbar, fbar, mu)
        for lam in (0.1, 0.5, 0.9, 0.99, 0.999):
            got = 2.0 * finite.inner(fbar, finite._doubling_sum(P, fbar, lam), mu) - sq
            ref = oracles.var_lambda_series_reference(f, P, mu, lam)
            assert got == pytest.approx(ref, rel=1e-13, abs=1e-15)

    def test_finishes_next_to_one(self):
        name, f, P, mu = self.DEFAULT
        lams = [0.9999999, 1 - 1e-12, 0.9999999999999999]
        got = finite.var_lambda_series(f, P, mu, lams)
        exact = finite.var_lambda(f, P, mu, lams)
        np.testing.assert_allclose(got, exact, rtol=1e-13, atol=0)


class TestDominanceCertificate:
    def test_equal_kernels_hold_with_zero_eig(self):
        Q = DeterministicInvolution(np.arange(2))
        cert = finite.dirichlet_dominance_certificate(
            two_state_flip(0.3), two_state_flip(0.3), UNIF2, Q)
        assert cert.holds
        assert cert.dominance_matrix_min_eig == pytest.approx(0.0, abs=1e-12)

    def test_peskun_dominated_pair(self):
        Q = DeterministicInvolution(np.arange(2))
        cert = finite.dirichlet_dominance_certificate(
            two_state_flip(0.4), two_state_flip(0.2), UNIF2, Q)
        assert cert.holds
        swapped = finite.dirichlet_dominance_certificate(
            two_state_flip(0.2), two_state_flip(0.4), UNIF2, Q)
        assert not swapped.holds
        # the symmetrized difference of the kernels is [[-0.2, 0.2], [0.2, -0.2]]
        assert swapped.dominance_matrix_min_eig == pytest.approx(-0.4, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_psd_certificate_refuses_a_non_finite_form(self, bad):
        with pytest.raises(ValueError, match="form is not finite"):
            finite.psd_certificate(np.array([[1.0, bad], [0.0, 2.0]]))

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (3,), (0,), (2, 2, 2)])
    def test_psd_certificate_refuses_a_form_that_is_not_square(self, shape):
        with pytest.raises(ValueError, match="not a non-empty square matrix"):
            finite.psd_certificate(np.zeros(shape))

    def test_psd_certificate_reads_the_symmetric_part(self):
        # a skew part adds nothing to the quadratic form
        cert = finite.psd_certificate(np.array([[1.0, 5.0], [-5.0, 2.0]]))
        assert cert == finite.OrderingCertificate(1.0, True)
        assert finite.psd_certificate(np.diag([1.0, -0.5 * finite.PSD_TOL])).holds
        assert not finite.psd_certificate(np.diag([1.0, -2.0 * finite.PSD_TOL])).holds


class TestOrderingTheorem:
    def test_equal_kernels_zero_violation(self):
        Q = DeterministicInvolution(np.arange(2))
        rep = finite.verify_ordering_theorem(
            two_state_flip(0.3), two_state_flip(0.3), UNIF2, Q,
            [0.1, 0.5, 0.9], trials=10)
        assert rep.ok
        assert rep.max_violation_plus == pytest.approx(0.0, abs=1e-12)

    def test_peskun_pair_ordering(self):
        Q = DeterministicInvolution(np.arange(3))
        mu = FiniteDistribution(np.array([0.2, 0.3, 0.5]))
        base = np.tile(mu.weights, (3, 1))
        P2 = KernelMatrix(0.5 * np.eye(3) + 0.5 * base)
        P1 = KernelMatrix(0.2 * np.eye(3) + 0.8 * base)
        rep = finite.verify_ordering_theorem(P1, P2, mu, Q,
                                             [0.05 * k for k in range(1, 20)],
                                             trials=50)
        assert rep.ok

    def test_nan_violation_is_not_ok(self):
        assert not finite.OrderingReport(0.0, math.nan).ok
        assert not finite.OrderingReport(math.nan, 0.0).ok
        assert finite.OrderingReport(0.0, 1e-9).ok

    def test_violation_above_1e9_is_not_ok(self):
        assert finite.OrderingReport(1e-9, 1e-9).ok
        assert not finite.OrderingReport(1e-8, 0.0).ok
        assert not finite.OrderingReport(0.0, 1e-8).ok

    def test_uncertified_hypothesis_raises(self):
        Q = DeterministicInvolution(np.arange(2))
        with pytest.raises(HypothesisNotCertified):
            finite.verify_ordering_theorem(two_state_flip(0.2),
                                           two_state_flip(0.4), UNIF2, Q, [0.5])

    @pytest.mark.parametrize("trials, lambdas", [
        (0, [0.5]), (-1, [0.5]), (10, []), (0, [1.5]),
        (10, [0.5, 1.0]), (10, [-0.1]), (10, [math.nan])],
        ids=["no-trials", "negative-trials", "empty-grid", "no-trials-bad-lambda",
             "lambda-one", "negative-lambda", "nan-lambda"])
    def test_no_evidence_raises(self, trials, lambdas):
        # an empty sample or grid certifies nothing, and a lambda outside
        # [0, 1) is refused even when no observable would reach it
        with pytest.raises(ValueError) as err:
            finite.verify_ordering_theorem(two_state_flip(0.4), two_state_flip(0.2),
                                           UNIF2, DeterministicInvolution(np.arange(2)),
                                           lambdas, trials=trials)
        assert err.type is ValueError


def lifted_dominated_pair(seed, n=4):
    """(P1, P2, mu, Q) on a ring of n sites lifted to 2n states with
    E(g, QP1) >= E(g, QP2): QP1 = M0 + c (M1 - Id) adds a PSD Dirichlet
    increment to QP2 = M0."""
    rng = np.random.default_rng(seed)
    mu = FiniteDistribution.from_unnormalized(np.repeat(0.5 + rng.random(n), 2))
    Q = DeterministicInvolution(np.arange(2 * n) ^ 1)

    def reversible():
        F = rng.random((2 * n, 2 * n))
        K = (F + F.T) / 2.0 / mu.weights[:, None]
        K = K / (1.25 * K.sum(axis=1).max())
        return K + np.diag(1.0 - K.sum(axis=1))

    M0, M1 = reversible(), reversible()
    c = float(np.min(np.diag(M0))) * 0.8
    return (KernelMatrix((M0 + c * (M1 - np.eye(2 * n)))[Q.perm]),
            KernelMatrix(M0[Q.perm]), mu, Q)


class TestBatchedOrderingCheck:
    """The block-solve check against its per-vector oracle, and a negative
    control: a pair that is not dominated must fail once the certificate
    is forced to hold."""

    def test_negative_control_fails_and_matches_oracle(self, monkeypatch):
        P1, P2, mu, Q = lifted_dominated_pair(5)
        assert not finite.dirichlet_dominance_certificate(P2, P1, mu, Q).holds
        forced = lambda *args, **kwargs: finite.OrderingCertificate(0.0, True)  # noqa: E731
        monkeypatch.setattr(finite, "dirichlet_dominance_certificate", forced)
        monkeypatch.setattr(oracles, "dirichlet_dominance_certificate", forced)
        got = finite.verify_ordering_theorem(P2, P1, mu, Q, LAMS, trials=20, rng_seed=9)
        ref = oracles.verify_ordering_reference(P2, P1, mu, Q, LAMS, trials=20, rng_seed=9)
        assert not got.ok and not ref.ok
        for a, b in ((got.max_violation_plus, ref.max_violation_plus),
                     (got.max_violation_minus, ref.max_violation_minus)):
            assert a > 1e-6 and b > 1e-6
            assert a == pytest.approx(b, rel=1e-12, abs=0)

    @pytest.mark.parametrize("swap", [False, True], ids=["dominated", "forced"])
    def test_bit_identical_to_the_earlier_form(self, monkeypatch, swap):
        # pairs like finite-exact's (rings of 3..6 sites, 20 trials), and the
        # same pairs swapped with the certificate forced, whose violations
        # are far from 0
        if swap:
            forced = lambda *args, **kwargs: finite.OrderingCertificate(0.0, True)  # noqa: E731
            monkeypatch.setattr(finite, "dirichlet_dominance_certificate", forced)
            monkeypatch.setattr(oracles, "dirichlet_dominance_certificate", forced)
        for seed in range(8):
            P1, P2, mu, Q = lifted_dominated_pair(seed, n=3 + seed % 4)
            if swap:
                P1, P2 = P2, P1
            for lams, trials in ((LAMS, 20), ([0.5], 1)):
                got = finite.verify_ordering_theorem(P1, P2, mu, Q, lams, trials=trials,
                                                     rng_seed=seed)
                ref = oracles.verify_ordering_block_reference(P1, P2, mu, Q, lams,
                                                              trials=trials, rng_seed=seed)
                assert (got.max_violation_plus.hex(), got.max_violation_minus.hex()) == (
                    ref.max_violation_plus.hex(), ref.max_violation_minus.hex())
                if trials == 20:
                    assert got.ok != swap

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dominated_pair_matches_oracle(self, seed):
        P1, P2, mu, Q = lifted_dominated_pair(seed, n=3 + seed)
        got = finite.verify_ordering_theorem(P1, P2, mu, Q, LAMS, trials=20, rng_seed=seed)
        ref = oracles.verify_ordering_reference(P1, P2, mu, Q, LAMS, trials=20,
                                                rng_seed=seed)
        assert got.ok and ref.ok
        assert got.max_violation_plus == pytest.approx(ref.max_violation_plus,
                                                       rel=1e-12, abs=1e-15)
        assert got.max_violation_minus == pytest.approx(ref.max_violation_minus,
                                                        rel=1e-12, abs=1e-15)


@functools.cache
def ring_400():
    """Of ring_families on the 200-site ring, the Gustafson and convex
    lifted kernels (400 states) and the collapsed kernel (200), then one
    extra-chance and one flow cycle (400)."""
    single, cycles = ring_families(*RINGS["200-site"])
    return [single[0], single[2], single[-1]], [cycles[1], cycles[-1]]


def forced_shares(monkeypatch, shares):
    """Every grid, on however few states, forks into `shares` shares."""
    monkeypatch.setattr(finite, "_cpus", lambda: shares)
    monkeypatch.setattr(finite, "_FORK_STATES", 1)


def report_hex(report):
    return report.max_violation_plus.hex(), report.max_violation_minus.hex()


class TestGridInShares:
    """The finite grids, their systems built in one pass and their solves
    run in forked shares, against the earlier in-process forms kept in
    tests/oracles.py: the same bytes under 1, 2 and 4 forced shares."""

    @pytest.mark.parametrize("shares", [1, 2, 4])
    def test_ring_kernels_bitwise(self, shares, monkeypatch):
        single, cycles = ring_400()
        forced_shares(monkeypatch, shares)
        forks = record_forks(monkeypatch)
        for name, f, P, mu in single:
            ref = oracles.resolvent_var_reference(finite.centered(f, mu), P, mu.weights,
                                                  CATALOG_LAMBDAS)
            got = finite.var_lambda(f, P, mu, CATALOG_LAMBDAS)
            assert got.tobytes() == ref.tobytes(), name
        for name, f, P1, P2, mu in cycles:
            ref = oracles.var_lambda_cycle_grid_reference(f, P1, P2, mu, CATALOG_LAMBDAS)
            got = finite.var_lambda_cycle(f, P1, P2, mu, CATALOG_LAMBDAS)
            assert got.tobytes() == ref.tobytes(), name
        # a 9-lambda grid forks shares - 1 children, a cycle's two families one
        assert len(forks) == len(single) * (shares - 1) + len(cycles) * min(shares - 1, 1)
        assert_no_children()

    @pytest.mark.parametrize("shares", [1, 2, 4])
    def test_neal_ordering_bitwise(self, shares, monkeypatch):
        cfg = {"weights": tuple(0.5 + np.random.default_rng(20).random(20)),
               "lambdas": CATALOG_LAMBDAS}
        ref_rows, ref_checks = oracles.run_neal_ordering_reference(cfg, 7)
        forced_shares(monkeypatch, shares)
        forks = record_forks(monkeypatch)
        rows, checks = experiments.run_neal_ordering(cfg, 7)
        assert [r.to_csv() for r in rows] == [r.to_csv() for r in ref_rows]
        assert [{k: repr(v) for k, v in c.items()} for c in checks] == [
            {k: repr(v) for k, v in c.items()} for c in ref_checks]
        assert len(forks) == shares - 1  # one lambda per call: only the loop forks
        assert_no_children()

    @pytest.mark.parametrize("shares", [1, 2, 4])
    def test_tiny_ordering_pairs_bitwise(self, shares, monkeypatch):
        forced_shares(monkeypatch, shares)
        for seed in range(8):
            P1, P2, mu, Q = lifted_dominated_pair(seed, n=3 + seed % 4)
            got = finite.verify_ordering_theorem(P1, P2, mu, Q, LAMS, trials=20,
                                                 rng_seed=seed)
            ref = oracles.verify_ordering_block_reference(P1, P2, mu, Q, LAMS, trials=20,
                                                          rng_seed=seed)
            assert report_hex(got) == report_hex(ref)
        assert_no_children()

    def test_shifted_is_eye_minus_c_a(self):
        single, _cycles = ring_families(*RINGS["default"])
        (_, _, gustafson, _), (_, _, lifted, _), *_ = single
        T2, pi = experiments._neal_t2((0.2, 0.3, 0.5))
        neal, *_ = zoo.neal_pair_kernels(T2, pi)
        mu, Q, psi, R, _f = experiments._ring_cycle(experiments.DEFAULT_RING)
        extra = zoo.extra_chance_finite(mu, psi, Q, 2)
        for P in (gustafson, lifted, neal, extra, R):
            a = P.entries
            off = ~np.eye(P.n, dtype=bool)
            assert (a[off] == 0).any()
            for c in (0.0, 0.25, 0.81, 0.99):
                got, ref = finite._shifted(a, c), np.eye(P.n) - c * a
                assert np.array_equal(got, ref)
                # only the off-diagonal zeros change sign, to -0.0
                assert np.array_equal(np.signbit(got) != np.signbit(ref), off & (ref == 0))

    @pytest.mark.parametrize("cpus, threads", [(1, 1), (2, 2), (2, 4), (4, 4), (4, 3)])
    def test_blas_thread_request_cuts_no_share(self, cpus, threads, monkeypatch):
        # a thread request that fills the CPUs still leaves a 400-state grid
        # min(items, CPUs) shares: the BLAS runs one thread whatever it asks
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(threads))
        monkeypatch.setattr(finite, "_cpus", lambda: cpus)
        forks = record_forks(monkeypatch)
        (name, f, P, mu), *_ = ring_400()[0]
        assert P.n == 400
        finite.var_lambda(f, P, mu, CATALOG_LAMBDAS)
        (name, f, P1, P2, mu), *_ = ring_400()[1]
        finite.var_lambda_cycle(f, P1, P2, mu, CATALOG_LAMBDAS)
        # a 9-lambda grid forks cpus - 1 children, a cycle's two families one
        assert len(forks) == (cpus - 1) + min(cpus - 1, 1)
        assert_no_children()

    def test_no_fork_below_256_states(self, monkeypatch):
        # the 200-state collapsed kernel, catalog defaults and the benchmark's
        # warm-up sizes stay in this process whatever the CPUs
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(finite, "_cpus", lambda: 4)
        name, f, P, mu = ring_400()[0][-1]
        assert name == "collapsed" and P.n == 200
        finite.var_lambda(f, P, mu, CATALOG_LAMBDAS)
        warm = {"gustafson-ring": 12, "lifted-ordering": 12, "two-cycle-extra-chance": 12,
                "neal-ordering": 4}  # finite-exact's warm-up weights
        for name, k in warm.items():
            _desc, defaults, runner = experiments.EXPERIMENTS[name]
            runner(defaults, 1)
            runner({**defaults, "weights": tuple(np.linspace(0.5, 1.5, k))}, 1)

    @pytest.mark.parametrize("states, cpus, shares", [
        (255, 8, [9]), (400, 1, [9]), (256, 4, [2, 2, 2, 3]), (256, 8, [1] * 7 + [2]),
        (400, 16, [1] * 9)])
    def test_share_rule(self, states, cpus, shares, monkeypatch):
        # min(items, CPUs) contiguous shares from 256 states on, whatever the
        # BLAS thread count the environment asks for
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        seen, real = [], finite._in_shares
        monkeypatch.setattr(finite, "_cpus", lambda: cpus)
        monkeypatch.setattr(finite, "_in_shares", lambda run, items, n: seen.extend(
            real(lambda share: [share], items, n)) or real(run, items, n))
        assert finite._map_grid(lambda x: -x, list(range(9)), states) == [
            -x for x in range(9)]
        assert list(map(len, seen)) == shares
        assert [x for part in seen for x in part] == list(range(9))
        assert_no_children()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_in_shares_cuts_and_concatenates(self, n):
        # share k holds items[len * k // n : len * (k + 1) // n]; the first
        # runs here, each other in its own child, and the lists join in order
        out = finite._in_shares(lambda share: [(os.getpid(), list(share))], range(7), n)
        assert [share for _pid, share in out] == [
            list(range(7 * k // n, 7 * (k + 1) // n)) for k in range(n)]
        pids = [pid for pid, _share in out]
        assert pids[0] == os.getpid() and len(set(pids)) == n
        assert finite._in_shares(lambda share: [-x for x in share], list(range(7)), n) == [
            -x for x in range(7)]
        assert_no_children()

    def test_child_linalg_error_raised_with_its_type_and_message(self, monkeypatch):
        parent, solve = os.getpid(), np.linalg.solve

        def failing(a, b):
            if os.getpid() != parent:
                raise np.linalg.LinAlgError(f"singular in child {os.getpid()}")
            return solve(a, b)

        forced_shares(monkeypatch, 4)
        forks = record_forks(monkeypatch)
        monkeypatch.setattr(np.linalg, "solve", failing)
        name, f, P, mu = ring_families(*RINGS["default"])[0][0]
        with pytest.raises(np.linalg.LinAlgError) as err:
            finite.var_lambda(f, P, mu, CATALOG_LAMBDAS)
        # three children raised; the lowest share's error comes first
        assert type(err.value) is np.linalg.LinAlgError
        assert len(forks) == 3 and str(err.value) == f"singular in child {forks[0]}"
        assert_no_children()
