import math

import numpy as np
import pytest

from nonrev import finite
from nonrev.finite import (DeterministicInvolution, FiniteDistribution,
                           HypothesisNotCertified, KernelMatrix,
                           NotReversibleError, Observable)
import oracles
from oracles import (dirichlet_form, dirichlet_form_halfsum, project_symmetric,
                     var_lambda_cycle_series)


def two_state_flip(p):
    return KernelMatrix(np.array([[1 - p, p], [p, 1 - p]]))


UNIF2 = FiniteDistribution(np.array([0.5, 0.5]))


class TestTypes:
    def test_distribution_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            FiniteDistribution(np.array([1.0, 0.0]))

    def test_distribution_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            FiniteDistribution(np.array([0.5, 0.4]))

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


class TestAdjoint:
    def test_reversible_fixed_point(self):
        P = two_state_flip(0.3)
        assert np.allclose(finite.adjoint(P, UNIF2).entries, P.entries,
                           atol=1e-14)

    def test_cyclic_shift(self):
        P = KernelMatrix(np.roll(np.eye(4), 1, axis=1))
        mu = FiniteDistribution(np.full(4, 0.25))
        back = np.roll(np.eye(4), -1, axis=1)
        assert np.allclose(finite.adjoint(P, mu).entries, back, atol=1e-14)

    def test_adjoint_is_involution(self):
        rng = np.random.default_rng(0)
        mu = FiniteDistribution.from_unnormalized(rng.random(4) + 0.1)
        # mu-invariant kernel: all rows equal to mu
        P = KernelMatrix(np.tile(mu.weights, (4, 1)))
        PP = finite.adjoint(finite.adjoint(P, mu), mu)
        assert np.max(np.abs(PP.entries - P.entries)) <= 1e-12

    def test_requires_invariance(self):
        mu = FiniteDistribution(np.array([0.7, 0.3]))
        with pytest.raises(NotReversibleError):
            finite.adjoint(KernelMatrix(np.full((2, 2), 0.5)), mu)


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
        assert finite.var_lambda(f, two_state_flip(0.3), UNIF2, 0.0) == pytest.approx(expect)

    def test_identity_kernel_geometric(self):
        f = Observable(np.array([1.0, -1.0]))
        for lam in (0.2, 0.5, 0.9):
            v = finite.var_lambda(f, KernelMatrix(np.eye(2)), UNIF2, lam)
            assert v == pytest.approx((1 + lam) / (1 - lam))

    def test_series_oracle(self):
        f = Observable(np.array([1.0, -1.0]))
        P = two_state_flip(0.5)
        v = finite.var_lambda(f, P, UNIF2, 0.5)
        o = finite.var_lambda_series(f, P, UNIF2, 0.5)
        assert abs(v - o) <= 1e-8

    def test_series_oracle_random_up_to_099(self):
        rng = np.random.default_rng(4)
        mu = FiniteDistribution.from_unnormalized(rng.random(8) + 0.1)
        P = KernelMatrix(np.tile(mu.weights, (8, 1)))
        f = Observable(rng.standard_normal(8))
        for lam in (0.3, 0.9, 0.99):
            a = finite.var_lambda(f, P, mu, lam)
            b = finite.var_lambda_series(f, P, mu, lam)
            assert abs(a - b) <= 1e-8

    def test_rejects_bad_lambda(self):
        f = Observable(np.zeros(2))
        with pytest.raises(ValueError):
            finite.var_lambda(f, two_state_flip(0.3), UNIF2, 1.0)


class TestVarLambdaCycle:
    def test_identity_at_lambda_zero(self):
        f = Observable(np.array([1.0, -1.0]))
        v = finite.var_lambda_cycle(f, KernelMatrix(np.eye(2)),
                                    KernelMatrix(np.eye(2)), UNIF2, 0.0)
        assert v == pytest.approx(1.0)

    def test_series_oracle_and_symmetry(self):
        rng = np.random.default_rng(5)
        mu = FiniteDistribution.from_unnormalized(rng.random(4) + 0.1)
        P1 = KernelMatrix(np.tile(mu.weights, (4, 1)))
        M = 0.6 * np.eye(4) + 0.4 * np.tile(mu.weights, (4, 1))
        P2 = KernelMatrix(M)
        f = Observable(rng.standard_normal(4))
        a = finite.var_lambda_cycle(f, P1, P2, mu, 0.7)
        b = var_lambda_cycle_series(f, P1, P2, mu, 0.7)
        assert abs(a - b) <= 1e-9
        assert finite.var_lambda_cycle(f, P2, P1, mu, 0.7) == pytest.approx(a, abs=1e-12)


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
        assert swapped.witness is not None
        # the witness really violates the Dirichlet dominance
        g = swapped.witness
        d1 = dirichlet_form(g, two_state_flip(0.2), UNIF2)
        d2 = dirichlet_form(g, two_state_flip(0.4), UNIF2)
        assert d1 < d2


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


LAMS = [0.05 * k for k in range(1, 20)]


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
        assert (got.trials, got.lambdas) == (ref.trials, ref.lambdas)
