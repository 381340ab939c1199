import numpy as np
import pytest

from nonrev import finite, zoo
from nonrev.finite import (DeterministicInvolution, FiniteDistribution,
                           KernelMatrix, Observable)

RING5 = zoo.RingTarget(np.array([1.0, 2.0, 3.0, 2.0, 1.0]))
RING4 = zoo.RingTarget(np.array([1.0, 0.5, 2.0, 1.5]))


def nearest_neighbour_proposals(n):
    q_plus = np.zeros((n, n))
    q_minus = np.zeros((n, n))
    for x in range(n):
        q_plus[x, (x + 1) % n] = 1.0
        q_minus[x, (x - 1) % n] = 1.0
    return q_plus, q_minus


def mh_pair(target):
    qp, qm = nearest_neighbour_proposals(target.n)
    return zoo.mh_subkernels(target, qp, qm)


class TestEnumeration:
    def test_pv_index_layout(self):
        assert zoo.pv_index(0, 1, 5) == 0
        assert zoo.pv_index(0, -1, 5) == 1
        assert zoo.pv_index(3, 1, 5) == 6
        assert zoo.pv_index(6, 1, 5) == zoo.pv_index(1, 1, 5)  # wraps

    def test_velocity_flip_is_isometric_involution(self):
        Q = zoo.velocity_flip(4)
        mu = zoo.half_lift(RING4.pi)
        assert finite.check_isometric_involution(Q, mu)
        # it swaps the even/odd slots pairwise
        assert Q.perm[0] == 1 and Q.perm[1] == 0

    def test_half_lift_weights(self):
        mu = zoo.half_lift(RING4.pi)
        assert mu.weights[0] == mu.weights[1] == pytest.approx(RING4.pi.weights[0] / 2)
        assert mu.weights.sum() == pytest.approx(1.0)

    def test_ring_target_validation(self):
        with pytest.raises(ValueError):
            zoo.RingTarget(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            zoo.RingTarget(np.array([1.0, -1.0, 2.0]))


class TestGustafson:
    def test_structure(self):
        for target in (RING5, RING4):
            P, mu, Q = zoo.gustafson_ring(target)
            assert finite.check_invariance(P, mu)
            assert finite.check_muQ_reversible(P, mu, Q)
            assert not finite.check_mu_reversible(P, mu)

    def test_hand_row(self):
        # uniform ring: every move accepted, never flips
        target = zoo.RingTarget(np.ones(5))
        P, _, _ = zoo.gustafson_ring(target)
        z = zoo.pv_index(2, 1, 5)
        assert P.entries[z, zoo.pv_index(3, 1, 5)] == 1.0

    def test_reject_flips_velocity(self):
        P, _, _ = zoo.gustafson_ring(RING5)
        # from the mode x=2 moving right, pi(3)/pi(2) = 2/3
        z = zoo.pv_index(2, 1, 5)
        assert P.entries[z, zoo.pv_index(3, 1, 5)] == pytest.approx(2 / 3)
        assert P.entries[z, zoo.pv_index(2, -1, 5)] == pytest.approx(1 / 3)


class TestSubKernels:
    def test_skewed_detailed_balance(self):
        pair = mh_pair(RING5)
        w = pair.pi.weights
        lhs = w[:, None] * pair.T_plus
        rhs = (w[:, None] * pair.T_minus).T
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_row_sums_substochastic(self):
        pair = mh_pair(RING5)
        assert np.all(pair.escape(1) <= 1 + 1e-12)
        assert np.all(pair.escape(-1) <= 1 + 1e-12)

    def test_min_flux_formula(self):
        # nearest-neighbour MH: T_+ (x, x+1) = min{1, pi(x+1)/pi(x)}
        pair = mh_pair(RING5)
        w = RING5.weights
        for x in range(5):
            expect = min(1.0, w[(x + 1) % 5] / w[x])
            assert pair.T_plus[x, (x + 1) % 5] == pytest.approx(expect)

    def test_validation_rejects_broken_pair(self):
        pair = mh_pair(RING5)
        bad = pair.T_plus.copy()
        bad[0, 1] += 0.05
        with pytest.raises(ValueError):
            zoo.SubKernelPair(bad, pair.T_minus, pair.pi)

    def test_collapsed_is_pi_reversible(self):
        pair = mh_pair(RING5)
        coll = zoo.collapsed_kernel(pair)
        assert finite.check_mu_reversible(coll, RING5.pi)


class TestSwitchingRates:
    def test_minimal_formula(self):
        pair = mh_pair(RING5)
        rho = zoo.SwitchingRate("minimal").rho(pair, 1)
        expect = np.maximum(0.0, pair.escape(-1) - pair.escape(1))
        assert np.allclose(rho, expect)

    def test_ordering_and_admissibility(self):
        pair = mh_pair(RING5)
        for v in (1, -1):
            mn = zoo.SwitchingRate("minimal").rho(pair, v)
            cv = zoo.SwitchingRate("convex", 0.5).rho(pair, v)
            mx = zoo.SwitchingRate("maximal").rho(pair, v)
            assert np.all(mn <= cv + 1e-15) and np.all(cv <= mx + 1e-15)
            assert np.all(mx <= 1.0 - pair.escape(v) + 1e-15)
            # the skew constraint rho_{v,-v} - rho_{-v,v} = T_{-v} - T_v
            for rate in (zoo.SwitchingRate("minimal"),
                         zoo.SwitchingRate("convex", 0.3),
                         zoo.SwitchingRate("maximal")):
                diff = rate.rho(pair, v) - rate.rho(pair, -v)
                assert np.allclose(diff, pair.escape(-v) - pair.escape(v))

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            zoo.SwitchingRate("other")
        with pytest.raises(ValueError):
            zoo.SwitchingRate("convex", 1.5)


class TestLiftedKernel:
    def test_structure_all_kinds(self):
        pair = mh_pair(RING5)
        for rate in (zoo.SwitchingRate("minimal"),
                     zoo.SwitchingRate("convex", 0.25),
                     zoo.SwitchingRate("maximal")):
            P, mu, Q = zoo.lifted_kernel(pair, rate)
            assert finite.check_invariance(P, mu)
            assert finite.check_muQ_reversible(P, mu, Q)

    def test_variance_ordering_minimal_beats_maximal(self):
        pair = mh_pair(RING5)
        Pmin, mu, Q = zoo.lifted_kernel(pair, zoo.SwitchingRate("minimal"))
        Pmax, _, _ = zoo.lifted_kernel(pair, zoo.SwitchingRate("maximal"))
        cert = finite.dirichlet_dominance_certificate(Pmin, Pmax, mu, Q, side="left")
        assert cert.holds
        f = zoo.lift_observable(Observable(np.array([1.0, -1.0, 0.5, 0.0, -0.5])), 5)
        for lam in (0.2, 0.5, 0.8):
            v_min = finite.var_lambda(f, Pmin, mu, lam)
            v_max = finite.var_lambda(f, Pmax, mu, lam)
            assert v_min <= v_max + 1e-9

    def test_maximal_dominated_by_collapsed(self):
        pair = mh_pair(RING5)
        Pmax, mu, _ = zoo.lifted_kernel(pair, zoo.SwitchingRate("maximal"))
        coll = zoo.collapsed_kernel(pair)
        f0 = Observable(np.array([1.0, -1.0, 0.5, 0.0, -0.5]))
        f = zoo.lift_observable(f0, 5)
        for lam in (0.3, 0.7):
            assert (finite.var_lambda(f, Pmax, mu, lam)
                    <= finite.var_lambda(f0, coll, RING5.pi, lam) + 1e-9)

    def test_symmetrization_identity(self):
        pair = mh_pair(RING5)
        for rate in (zoo.SwitchingRate("minimal"), zoo.SwitchingRate("maximal")):
            resid = zoo.symmetrized_lift_identity_residual(pair, rate, kmax=30)
            assert resid < 1e-9


class TestAcceptanceRules:
    def test_metropolis_and_barker_pass_validation(self):
        zoo.AcceptanceRule.metropolis()
        zoo.AcceptanceRule.barker()

    def test_barker_between_half_and_full_metropolis(self):
        phi = zoo.AcceptanceRule.barker().phi
        for r in np.logspace(-3, 3, 40):
            assert 0.5 * min(1.0, r) <= phi(r) <= min(1.0, r) + 1e-15

    def test_rejects_unbalanced_phi(self):
        with pytest.raises(ValueError, match=r"r\*phi\(1/r\) = phi\(r\)"):
            zoo.AcceptanceRule("bad", lambda r: np.minimum(1.0, 0.5 * r + 0.1))
        with pytest.raises(ValueError, match="dominated by min"):
            # balanced but exceeds min{1, r}
            zoo.AcceptanceRule("bad", lambda r: 2.0 * np.minimum(1.0, r))

    def test_rejects_malformed_phi(self):
        with pytest.raises(ValueError, match="arrays"):
            zoo.AcceptanceRule("scalar", lambda r: min(1.0, r))
        with pytest.raises(ValueError, match=r"phi\(inf\)"):
            zoo.AcceptanceRule("nan-at-inf", lambda r: r / (1.0 + r))

    def test_phi_is_elementwise_and_one_at_infinity(self):
        r = np.array([0.0, 0.5, 2.0, 1e300, np.inf])
        for rule, want in ((zoo.AcceptanceRule.metropolis(), np.minimum(1.0, r[:3])),
                           (zoo.AcceptanceRule.barker(), r[:3] / (1.0 + r[:3]))):
            vals = rule.phi(r)
            assert vals.shape == r.shape
            assert np.array_equal(vals[:3], want)
            assert np.array_equal(vals[3:], [1.0, 1.0])


class TestFlowMaps:
    def test_ring_shift_reversal(self):
        psi = zoo.ring_shift_flow(6)
        assert psi.check_reversal(zoo.velocity_flip(6))
        inv = psi.inverse
        assert np.array_equal(inv[psi.psi], np.arange(12))

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            zoo.FlowMap(np.array([0, 0, 1]))

    def test_metropolized_flow_matches_gustafson(self):
        P_ref, mu, Q = zoo.gustafson_ring(RING5)
        psi = zoo.ring_shift_flow(5)
        P = zoo.metropolized_flow_finite(mu, psi, Q, zoo.AcceptanceRule.metropolis())
        assert np.max(np.abs(P.entries - P_ref.entries)) < 1e-15

    def test_metropolized_flow_matches_loop_reference(self):
        def loop_reference(mu, psi, Q, phi):
            w, xi = mu.weights, Q.perm
            P = np.zeros((mu.n, mu.n))
            for z in range(mu.n):
                a = phi.phi(w[xi[psi.psi[z]]] / w[z])
                P[z, psi.psi[z]] += a
                P[z, xi[z]] += 1.0 - a
            return P

        rng = np.random.default_rng(11)
        for n in (3, 5, 12):
            mu = zoo.half_lift(zoo.RingTarget(0.1 + 3.0 * rng.random(n)).pi)
            Q = zoo.velocity_flip(n)
            # psi = xi puts the move and the flip mass on the same entry
            for psi in (zoo.ring_shift_flow(n), zoo.FlowMap(Q.perm)):
                for phi in (zoo.AcceptanceRule.metropolis(), zoo.AcceptanceRule.barker()):
                    P = zoo.metropolized_flow_finite(mu, psi, Q, phi)
                    assert np.array_equal(P.entries, loop_reference(mu, psi, Q, phi))

    def test_barker_flow_is_muQ_reversible(self):
        _, mu, Q = zoo.gustafson_ring(RING4)
        psi = zoo.ring_shift_flow(4)
        P = zoo.metropolized_flow_finite(mu, psi, Q, zoo.AcceptanceRule.barker())
        assert finite.check_invariance(P, mu)
        assert finite.check_muQ_reversible(P, mu, Q)

    def test_flow_without_reversal_symmetry_rejected(self):
        mu = zoo.half_lift(RING4.pi)
        Q = zoo.velocity_flip(4)
        # a velocity-ignoring rotation breaks psi^{-1} = xi psi xi
        bad = zoo.FlowMap(np.roll(np.arange(8), 1))
        with pytest.raises(ValueError):
            zoo.metropolized_flow_finite(mu, bad, Q, zoo.AcceptanceRule.metropolis())


class TestExtraChance:
    def test_k1_equals_metropolized_flow(self):
        _, mu, Q = zoo.gustafson_ring(RING5)
        psi = zoo.ring_shift_flow(5)
        P1 = zoo.extra_chance_finite(mu, psi, Q, K=1)
        P_ref = zoo.metropolized_flow_finite(mu, psi, Q, zoo.AcceptanceRule.metropolis())
        assert np.max(np.abs(P1.entries - P_ref.entries)) < 1e-15

    def test_structure_and_dirichlet_monotonicity(self):
        _, mu, Q = zoo.gustafson_ring(RING5)
        psi = zoo.ring_shift_flow(5)
        rng = np.random.default_rng(3)
        fs = [Observable(rng.standard_normal(10)) for _ in range(4)]
        prev = None
        for K in (1, 2, 3):
            P = zoo.extra_chance_finite(mu, psi, Q, K)
            assert finite.check_invariance(P, mu)
            assert finite.check_muQ_reversible(P, mu, Q)
            if prev is not None:
                # more proposal stages -> larger Dirichlet form
                cert = finite.dirichlet_dominance_certificate(P, prev, mu, Q,
                                                              side="left")
                assert cert.holds
                for f in fs:
                    d_prev = finite.dirichlet_form_halfsum(f, KernelMatrix(
                        Q.matrix @ prev.entries), mu)
                    d_cur = finite.dirichlet_form_halfsum(f, KernelMatrix(
                        Q.matrix @ P.entries), mu)
                    assert d_cur >= d_prev - 1e-12
            prev = P

    def test_invalid_k(self):
        _, mu, Q = zoo.gustafson_ring(RING4)
        with pytest.raises(ValueError):
            zoo.extra_chance_finite(mu, zoo.ring_shift_flow(4), Q, K=0)


class TestGuidedWalk:
    def test_structure(self):
        pair = zoo.guided_walk_ring(RING5, np.array([0.7, 0.3]))
        # valid skewed pair by construction; lifted kernel is (mu, Q)-reversible
        P, mu, Q = zoo.lifted_kernel(pair, zoo.SwitchingRate("minimal"))
        assert finite.check_muQ_reversible(P, mu, Q)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            zoo.guided_walk_ring(RING5, np.array([0.5, 0.4]))  # doesn't sum to 1
        with pytest.raises(ValueError):
            zoo.guided_walk_ring(RING5, np.full(3, 1 / 3))  # support too wide


class TestNealPair:
    @staticmethod
    def t2(pi_weights, a=0.4):
        pi = FiniteDistribution.from_unnormalized(np.asarray(pi_weights, float))
        T2 = KernelMatrix(a * np.eye(pi.n) + (1 - a) * np.tile(pi.weights, (pi.n, 1)))
        return T2, pi

    def test_two_state_hand_case(self):
        # P1 = Q M1 first swaps the pair, then (for n = 2) the never-stay
        # kernel flips the second slot with the metropolis odds
        # min{1, t(x2, 1-x1)/t(x2, x1)}
        T2, pi = self.t2([0.3, 0.7])
        P1, P2, mu, Q = zoo.neal_pair_kernels(T2, pi)
        t = T2.entries
        for x1 in range(2):
            for x2 in range(2):
                z = x1 * 2 + x2
                flip = min(1.0, t[x2, 1 - x1] / t[x2, x1])
                assert P1.entries[z, x2 * 2 + (1 - x1)] == pytest.approx(flip)
                assert P1.entries[z, x2 * 2 + x1] == pytest.approx(1.0 - flip)

    def test_structure_and_dominance(self):
        T2, pi = self.t2([1.0, 2.0, 1.5])
        P1, P2, mu, Q = zoo.neal_pair_kernels(T2, pi)
        for P in (P1, P2):
            assert finite.check_invariance(P, mu)
            assert finite.check_muQ_reversible(P, mu, Q)
        cert = finite.dirichlet_dominance_certificate(P1, P2, mu, Q, side="left")
        assert cert.holds

    def test_variance_ordering(self):
        T2, pi = self.t2([1.0, 3.0, 2.0, 1.0])
        P1, P2, mu, Q = zoo.neal_pair_kernels(T2, pi)
        rng = np.random.default_rng(11)
        for _ in range(5):
            f0 = rng.standard_normal(4)
            g = Observable(np.add.outer(f0, f0).ravel())  # symmetric: Qg = g
            for lam in (0.2, 0.6, 0.9):
                assert (finite.var_lambda(g, P1, mu, lam)
                        <= finite.var_lambda(g, P2, mu, lam) + 1e-9)

    def test_rejects_degenerate_t2(self):
        pi = FiniteDistribution.from_unnormalized(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            zoo.neal_pair_kernels(KernelMatrix(np.eye(2)), pi)


class TestTwoCycle:
    def test_refresh_vs_full_switch_report(self):
        # cycle {R, P} with R = (1-a) Id + a Q.  QR = a Id + (1-a) Q, so the
        # Dirichlet form of QR is (1-a) <g, (Id - Q) g> and the lighter
        # switcher (small a) dominates.
        P, mu, Q = zoo.gustafson_ring(RING5)
        n2 = mu.n
        R_light = KernelMatrix(0.7 * np.eye(n2) + 0.3 * Q.matrix)
        R_heavy = KernelMatrix(0.2 * np.eye(n2) + 0.8 * Q.matrix)
        f = zoo.lift_observable(Observable(np.array([1.0, 0.0, -1.0, 0.5, 0.0])), 5)
        report = zoo.two_cycle_variance_experiment(
            R_light, P, R_heavy, P, mu, Q, f, lambdas=[0.2, 0.5, 0.8])
        assert report.ok
        # R fixes velocity-independent f, so the composed check also ran
        assert np.max(np.abs(R_light.entries @ f.values - f.values)) < 1e-12
        assert report.max_composition_violation is not None

    def test_composition_branch(self):
        P, mu, Q = zoo.gustafson_ring(RING4)
        R1 = KernelMatrix(0.9 * np.eye(8) + 0.1 * Q.matrix)
        R2 = KernelMatrix(0.5 * np.eye(8) + 0.5 * Q.matrix)
        f = zoo.lift_observable(Observable(np.array([2.0, -1.0, 0.0, 1.0])), 4)
        report = zoo.two_cycle_variance_experiment(
            R1, P, R2, P, mu, Q, f, lambdas=[0.3, 0.7])
        assert report.max_composition_violation is not None
        assert report.ok

    def test_requires_symmetric_observable(self):
        P, mu, Q = zoo.gustafson_ring(RING4)
        f = Observable(np.arange(8, dtype=float))  # depends on v
        with pytest.raises(ValueError):
            zoo.two_cycle_variance_experiment(P, P, P, P, mu, Q, f, [0.5])

    def test_uncertified_slot_raises(self):
        P, mu, Q = zoo.gustafson_ring(RING4)
        R1 = KernelMatrix(0.1 * np.eye(8) + 0.9 * Q.matrix)
        R2 = KernelMatrix(0.9 * np.eye(8) + 0.1 * Q.matrix)
        f = zoo.lift_observable(Observable(np.array([2.0, -1.0, 0.0, 1.0])), 4)
        with pytest.raises(finite.HypothesisNotCertified):
            # dominance runs the wrong way: QR1 has the smaller Dirichlet form
            zoo.two_cycle_variance_experiment(R1, P, R2, P, mu, Q, f, [0.5])
