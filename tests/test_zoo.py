import math

import numpy as np
import pytest
from scipy.stats import norm

from nonrev import finite, zoo
from nonrev.finite import (DeterministicInvolution, FiniteDistribution,
                           KernelMatrix, Observable)
import oracles
from oracles import dirichlet_form_halfsum, pv_index, symmetrized_lift_identity_residual
from test_acceptance import dominated_pair, random_muQ_kernel

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
        assert pv_index(0, 1, 5) == 0
        assert pv_index(0, -1, 5) == 1
        assert pv_index(3, 1, 5) == 6
        assert pv_index(6, 1, 5) == pv_index(1, 1, 5)  # wraps

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_ring_target_refuses_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="weights must be positive"):
            zoo.RingTarget(np.array([1.0, bad, 2.0]))


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
        z = pv_index(2, 1, 5)
        assert P.entries[z, pv_index(3, 1, 5)] == 1.0

    def test_reject_flips_velocity(self):
        P, _, _ = zoo.gustafson_ring(RING5)
        # from the mode x=2 moving right, pi(3)/pi(2) = 2/3
        z = pv_index(2, 1, 5)
        assert P.entries[z, pv_index(3, 1, 5)] == pytest.approx(2 / 3)
        assert P.entries[z, pv_index(2, -1, 5)] == pytest.approx(1 / 3)


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

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_validation_rejects_nan_entry(self, side):
        pair = mh_pair(RING5)
        tp, tm = pair.T_plus.copy(), pair.T_minus.copy()
        (tp if side == "plus" else tm)[0, 1] = np.nan
        with pytest.raises(ValueError, match="nonnegative"):
            zoo.SubKernelPair(tp, tm, pair.pi)

    def test_collapsed_is_pi_reversible(self):
        pair = mh_pair(RING5)
        coll = zoo.collapsed_kernel(pair)
        assert finite.check_mu_reversible(coll, RING5.pi)


def interleaved_escape(pair):
    """T_v(x, X) in state-id order: entry z ^ 1 is T_{-v}(x, X)."""
    return np.stack([pair.escape(1), pair.escape(-1)], axis=1).ravel()


def switching_rates(pair, theta):
    """rho_{v,-v}(x) in state-id order, read off the lifted kernel's
    P[z, z ^ 1]: the sub-kernels never move mass onto the flipped state."""
    P = zoo.lifted_kernel(pair, theta)[0].entries
    z = np.arange(P.shape[0])
    return P[z, z ^ 1]


class TestSwitchingRates:
    def test_minimal_formula(self):
        pair = mh_pair(RING5)
        esc = interleaved_escape(pair)
        expect = np.maximum(0.0, esc[np.arange(10) ^ 1] - esc)
        assert np.allclose(switching_rates(pair, 0.0), expect)

    def test_ordering_and_admissibility(self):
        pair = mh_pair(RING5)
        esc = interleaved_escape(pair)
        flip = np.arange(10) ^ 1
        mn, cv, mx = (switching_rates(pair, theta) for theta in (0.0, 0.5, 1.0))
        assert np.all(mn <= cv + 1e-15) and np.all(cv <= mx + 1e-15)
        assert np.all(mx <= 1.0 - esc + 1e-15)
        # the skew constraint rho_{v,-v} - rho_{-v,v} = T_{-v} - T_v
        for theta in (0.0, 0.3, 1.0):
            rho = switching_rates(pair, theta)
            assert np.all(rho >= 0.0)
            assert np.allclose(rho - rho[flip], esc[flip] - esc)

    def test_theta_validation(self):
        pair = mh_pair(RING5)
        for theta in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="theta"):
                zoo.lifted_kernel(pair, theta)


class TestLiftedKernel:
    def test_structure_all_kinds(self):
        pair = mh_pair(RING5)
        for theta in (0.0, 0.25, 1.0):
            P, mu, Q = zoo.lifted_kernel(pair, theta)
            assert finite.check_invariance(P, mu)
            assert finite.check_muQ_reversible(P, mu, Q)

    def test_variance_ordering_minimal_beats_maximal(self):
        pair = mh_pair(RING5)
        Pmin, mu, Q = zoo.lifted_kernel(pair, 0.0)
        Pmax, _, _ = zoo.lifted_kernel(pair, 1.0)
        cert = finite.dirichlet_dominance_certificate(Pmin, Pmax, mu, Q)
        assert cert.holds
        f = zoo.lift_observable(Observable(np.array([1.0, -1.0, 0.5, 0.0, -0.5])))
        for lam in (0.2, 0.5, 0.8):
            v_min = finite.var_lambda(f, Pmin, mu, [lam])[0]
            v_max = finite.var_lambda(f, Pmax, mu, [lam])[0]
            assert v_min <= v_max + 1e-9

    def test_maximal_dominated_by_collapsed(self):
        pair = mh_pair(RING5)
        Pmax, mu, _ = zoo.lifted_kernel(pair, 1.0)
        coll = zoo.collapsed_kernel(pair)
        f0 = Observable(np.array([1.0, -1.0, 0.5, 0.0, -0.5]))
        f = zoo.lift_observable(f0)
        for lam in (0.3, 0.7):
            assert (finite.var_lambda(f, Pmax, mu, [lam])[0]
                    <= finite.var_lambda(f0, coll, RING5.pi, [lam])[0] + 1e-9)

    def test_symmetrization_identity(self):
        pair = mh_pair(RING5)
        for theta in (0.0, 1.0):
            resid = symmetrized_lift_identity_residual(pair, theta, kmax=30)
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

    def test_phi_at_infinity_between_phi_1e300_and_one(self):
        # phi_eps approaches 1 slowly at large eps (1e-9 short at r = 1e300
        # for eps = 1000), which a match within 1e-12 once rejected
        for eps in (10.0, 100.0, 1000.0, 1e4, 1e6):
            rule = zoo.AcceptanceRule.phi_eps(eps)
            big, inf = rule.phi(np.array([1e300, np.inf]))
            assert big <= inf <= 1.0
        metropolis = lambda r: np.minimum(1.0, r)
        for at_inf in (np.nan, 1.5, 0.5):
            with pytest.raises(ValueError, match=r"phi\(inf\)"):
                zoo.AcceptanceRule("bad-at-inf", lambda r, a=at_inf: np.where(
                    np.isinf(r), a, metropolis(r)))

    def test_phi_is_elementwise_and_one_at_infinity(self):
        r = np.array([0.0, 0.5, 2.0, 1e300, np.inf])
        for rule, want in ((zoo.AcceptanceRule.metropolis(), np.minimum(1.0, r[:3])),
                           (zoo.AcceptanceRule.barker(), r[:3] / (1.0 + r[:3]))):
            vals = rule.phi(r)
            assert vals.shape == r.shape
            assert np.array_equal(vals[:3], want)
            assert np.array_equal(vals[3:], [1.0, 1.0])
        for eps in (0.01, 0.5, 1.0, 3.0):
            vals = zoo.AcceptanceRule.phi_eps(eps).phi(r)
            assert vals.shape == r.shape and vals[0] == 0.0
            assert np.array_equal(vals[3:], [1.0, 1.0])


class TestSmoothedMetropolis:
    def test_eps0_is_metropolis(self):
        rule = zoo.AcceptanceRule.phi_eps(0.0)
        for r in (0.0, 0.3, 1.0, 2.5):
            assert rule.phi(r) == min(1.0, r)
        grid = np.concatenate([[0.0], np.logspace(-3, 3, 25), [1e300, np.inf]])
        assert np.array_equal(rule.phi(grid),
                              zoo.AcceptanceRule.metropolis().phi(grid))

    def test_balance_and_domination(self):
        for eps in (0.0, 0.01, 0.5, 1.0, 3.0):
            zoo.AcceptanceRule.phi_eps(eps)  # passes the rule's own validation
        rule = zoo.AcceptanceRule.phi_eps(0.7)
        for r in np.logspace(-3, 3, 31):
            lhs = r * rule.phi(1.0 / r)
            rhs = rule.phi(r)
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert rhs <= min(1.0, r) + 1e-15
        assert rule.phi(0.0) == 0.0

    def test_value_at_one(self):
        # phi_1(1) = 2 (1 - Phi(1/2))
        assert zoo.AcceptanceRule.phi_eps(1.0).phi(1.0) == pytest.approx(
            2 * (1 - norm.cdf(0.5)))

    def test_monte_carlo_oracle(self):
        # phi_eps(r) = E[min(1, r e^W)], W ~ N(-eps/2, eps)
        eps = 0.5
        rule = zoo.AcceptanceRule.phi_eps(eps)
        rng = np.random.default_rng(42)
        w = rng.standard_normal(1_000_000) * math.sqrt(eps) - eps / 2
        ew = np.exp(w)
        for r in (0.2, 0.8, 1.0, 1.7, 4.0):
            draws = np.minimum(1.0, r * ew)
            mc = draws.mean()
            se = draws.std(ddof=1) / math.sqrt(draws.size)
            assert abs(rule.phi(r) - mc) < 4 * se

    def test_smoothing_bounds(self):
        # 0 <= phi_0 - phi_eps <= phi_0 * sqrt(e^eps - 1)
        eps = 0.3
        rule = zoo.AcceptanceRule.phi_eps(eps)
        q = math.sqrt(math.expm1(eps))
        for r in np.logspace(-2, 2, 25):
            p0 = min(1.0, r)
            pe = rule.phi(r)
            assert -1e-14 <= p0 - pe <= p0 * q + 1e-14

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            zoo.AcceptanceRule.phi_eps(-0.1)


class TestFlowMaps:
    def test_ring_shift_reversal(self):
        psi = zoo.ring_shift_flow(6)
        assert psi.check_reversal(zoo.velocity_flip(6))
        # xi o psi o xi undoes psi
        xi = zoo.velocity_flip(6).perm
        assert np.array_equal(xi[psi.psi[xi]][psi.psi], np.arange(12))

    def test_reversal_check_is_inverse_equality(self):
        # psi o xi o psi o xi = id is the condition psi^{-1} = xi o psi o xi
        rng = np.random.default_rng(5)
        for n in (3, 4, 7):
            Q = zoo.velocity_flip(n)
            xi = Q.perm
            flows = [zoo.ring_shift_flow(n), zoo.FlowMap(xi),
                     zoo.FlowMap(np.arange(2 * n)),
                     *(zoo.FlowMap(rng.permutation(2 * n)) for _ in range(50))]
            verdicts = []
            for psi in flows:
                inverse = np.argsort(psi.psi)
                verdicts.append(np.array_equal(inverse, xi[psi.psi[xi]]))
                assert psi.check_reversal(Q) == verdicts[-1]
            assert all(verdicts[:3]) and not all(verdicts)

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            zoo.FlowMap(np.array([0, 0, 1]))

    def test_metropolized_flow_matches_gustafson(self):
        P_ref, mu, Q = zoo.gustafson_ring(RING5)
        psi = zoo.ring_shift_flow(5)
        P = zoo.metropolized_flow_finite(mu, psi, Q, zoo.AcceptanceRule.metropolis())
        assert np.max(np.abs(P.entries - P_ref.entries)) < 1e-15

    def test_metropolized_flow_matches_loop_reference(self):
        rng = np.random.default_rng(11)
        rules = (zoo.AcceptanceRule.metropolis(), zoo.AcceptanceRule.barker(),
                 zoo.AcceptanceRule.phi_eps(0.5))
        for n in (3, 5, 12):
            mu = zoo.half_lift(zoo.RingTarget(0.1 + 3.0 * rng.random(n)).pi)
            Q = zoo.velocity_flip(n)
            # psi = xi puts the move and the flip mass on the same entry
            for psi in (zoo.ring_shift_flow(n), zoo.FlowMap(Q.perm)):
                for phi in rules:
                    P = zoo.metropolized_flow_finite(mu, psi, Q, phi)
                    ref = oracles.extra_chance_finite_loop(mu, psi, Q, 1, phi)
                    assert np.array_equal(P.entries, ref.entries), (n, phi.kind)

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
        assert np.array_equal(P1.entries, P_ref.entries)

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
                cert = finite.dirichlet_dominance_certificate(P, prev, mu, Q)
                assert cert.holds
                for f in fs:
                    d_prev = dirichlet_form_halfsum(f, KernelMatrix(
                        Q.matrix @ prev.entries), mu)
                    d_cur = dirichlet_form_halfsum(f, KernelMatrix(
                        Q.matrix @ P.entries), mu)
                    assert d_cur >= d_prev - 1e-12
            prev = P

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_stages_past_the_state_count_keep_the_bits(self, m):
        # an orbit of psi has at most n states, so a stage past n repeats a
        # ratio and adds exactly 0.0: the ladder stops at n stages, where
        # K_values [1, 10**12] once ran 10**12 of them
        rng = np.random.default_rng(m)
        Q = zoo.velocity_flip(m)
        xi, n = Q.perm, 2 * m
        pairs = rng.permutation(n).reshape(-1, 2)
        J = np.empty(n, dtype=np.intp)
        J[pairs[:, 0]], J[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
        # psi = xi o J satisfies psi^{-1} = xi psi xi for any involution J
        flows = (zoo.ring_shift_flow(m), zoo.FlowMap(xi), zoo.FlowMap(xi[J]))
        metropolis = zoo.AcceptanceRule.metropolis()
        for mu in (zoo.half_lift(random_ring(m).pi),
                   FiniteDistribution.from_unnormalized(0.1 + rng.random(n))):
            for psi in flows:
                want = zoo.extra_chance_finite(mu, psi, Q, n).entries
                for K in (n + 1, 3 * n):
                    assert bit_equal(zoo.extra_chance_finite(mu, psi, Q, K).entries, want)
                assert bit_equal(oracles.extra_chance_finite_loop(
                    mu, psi, Q, 3 * n, metropolis).entries, want)

    def test_invalid_k(self):
        _, mu, Q = zoo.gustafson_ring(RING4)
        with pytest.raises(ValueError):
            zoo.extra_chance_finite(mu, zoo.ring_shift_flow(4), Q, K=0)


class TestGuidedWalk:
    def test_structure(self):
        pair = zoo.guided_walk_ring(RING5, np.array([0.7, 0.3]))
        # valid skewed pair by construction; lifted kernel is (mu, Q)-reversible
        P, mu, Q = zoo.lifted_kernel(pair, 0.0)
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
        cert = finite.dirichlet_dominance_certificate(P1, P2, mu, Q)
        assert cert.holds

    def test_variance_ordering(self):
        T2, pi = self.t2([1.0, 3.0, 2.0, 1.0])
        P1, P2, mu, Q = zoo.neal_pair_kernels(T2, pi)
        rng = np.random.default_rng(11)
        for _ in range(5):
            f0 = rng.standard_normal(4)
            g = Observable(np.add.outer(f0, f0).ravel())  # symmetric: Qg = g
            for lam in (0.2, 0.6, 0.9):
                assert (finite.var_lambda(g, P1, mu, [lam])[0]
                        <= finite.var_lambda(g, P2, mu, [lam])[0] + 1e-9)

    def test_rejects_degenerate_t2(self):
        pi = FiniteDistribution.from_unnormalized(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            zoo.neal_pair_kernels(KernelMatrix(np.eye(2)), pi)



def bit_equal(a, b) -> bool:
    """Entrywise equal floats, signs of zeros included."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def random_ring(n):
    return zoo.RingTarget(0.1 + 3.0 * np.random.default_rng(n).random(n))


def diagonal_mass_pair(target):
    """mh_subkernels on dense random proposals, diagonals included, so the
    lifted kernel adds its stay mass onto a nonzero T_v(x, x)."""
    rng = np.random.default_rng(target.n + 1)
    qp, qm = rng.random((2, target.n, target.n))
    return zoo.mh_subkernels(target, qp / qp.sum(axis=1, keepdims=True),
                             qm / qm.sum(axis=1, keepdims=True))


RING_SIZES = [3, 4, 5, 6, 7, 8, 200]
RATES = {"minimal": 0.0, "convex": 0.3, "maximal": 1.0}  # theta by name
# a 3-point step law needs 2 * 3 < n
STEP_CASES = ([(n, [1.0]) for n in RING_SIZES]
              + [(n, [0.5, 0.3, 0.2]) for n in RING_SIZES if n > 6])


class TestLoopReferences:
    """Each loop-free constructor equals its per-state loop reference in
    tests/oracles.py bit for bit."""

    @pytest.mark.parametrize("n", RING_SIZES)
    def test_flip_shift_and_persistent_walk(self, n):
        assert np.array_equal(zoo.velocity_flip(n).perm, oracles.velocity_flip_loop(n).perm)
        assert np.array_equal(zoo.ring_shift_flow(n).psi, oracles.ring_shift_flow_loop(n).psi)
        P, mu, Q = zoo.gustafson_ring(random_ring(n))
        P_ref, mu_ref, Q_ref = oracles.gustafson_ring_loop(random_ring(n))
        assert bit_equal(P.entries, P_ref.entries)
        assert bit_equal(mu.weights, mu_ref.weights)
        assert np.array_equal(Q.perm, Q_ref.perm)

    @pytest.mark.parametrize("n, steps", STEP_CASES)
    def test_guided_walk_and_its_lifts(self, n, steps):
        pair = zoo.guided_walk_ring(random_ring(n), np.array(steps))
        ref = oracles.guided_walk_ring_loop(random_ring(n), np.array(steps))
        assert bit_equal(pair.T_plus, ref.T_plus)
        assert bit_equal(pair.T_minus, ref.T_minus)
        for theta in RATES.values():
            assert bit_equal(zoo.lifted_kernel(pair, theta)[0].entries,
                             oracles.lifted_kernel_loop(pair, theta)[0].entries)

    @pytest.mark.parametrize("n", RING_SIZES)
    def test_lifted_kernel_with_diagonal_mass(self, n):
        pair = diagonal_mass_pair(random_ring(n))
        assert np.all(np.diag(pair.T_plus) > 0) and np.all(np.diag(pair.T_minus) > 0)
        for theta in RATES.values():
            assert bit_equal(zoo.lifted_kernel(pair, theta)[0].entries,
                             oracles.lifted_kernel_loop(pair, theta)[0].entries)

    @pytest.mark.parametrize("n", RING_SIZES)
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_extra_chance(self, n, K):
        mu = zoo.half_lift(random_ring(n).pi)
        Q, psi = zoo.velocity_flip(n), zoo.ring_shift_flow(n)
        assert bit_equal(zoo.extra_chance_finite(mu, psi, Q, K).entries,
                         oracles.extra_chance_finite_loop(
                             mu, psi, Q, K, zoo.AcceptanceRule.metropolis()).entries)

    @pytest.mark.parametrize("n", [3, 9, 20])
    def test_neal_pair(self, n):
        # rows of 9 and 20 entries: a pairwise sum of the stay mass would
        # differ from the loop's left-to-right sum in the last bits
        pi = random_ring(n).pi
        T2 = KernelMatrix(0.3 * np.eye(n) + 0.7 * np.tile(pi.weights, (n, 1)))
        got = zoo.neal_pair_kernels(T2, pi)
        ref = oracles.neal_pair_kernels_loop(T2, pi)
        for a, b in zip(got[:2], ref[:2]):
            assert bit_equal(a.entries, b.entries)
        assert bit_equal(got[2].weights, ref[2].weights)
        assert np.array_equal(got[3].perm, ref[3].perm)


def zoo_families():
    """(name, P, mu, Q) for every kernel family of the zoo."""
    target = random_ring(6)
    P, mu, Q = zoo.gustafson_ring(target)
    yield "gustafson", P, mu, Q
    pairs = (("mh", mh_pair(target)), ("mh-diagonal", diagonal_mass_pair(target)),
             ("guided", zoo.guided_walk_ring(target, np.array([0.6, 0.4]))))
    for pair_name, pair in pairs:
        for rate, theta in RATES.items():
            yield (f"lifted-{pair_name}-{rate}", *zoo.lifted_kernel(pair, theta))
    psi = zoo.ring_shift_flow(6)
    for rule in (zoo.AcceptanceRule.metropolis(), zoo.AcceptanceRule.barker()):
        yield f"flow-{rule.kind}", zoo.metropolized_flow_finite(mu, psi, Q, rule), mu, Q
    for K in (1, 3):
        yield f"extra-chance-{K}", zoo.extra_chance_finite(mu, psi, Q, K), mu, Q
    pi = target.pi
    T2 = KernelMatrix(0.4 * np.eye(6) + 0.6 * np.tile(pi.weights, (6, 1)))
    P1, P2, mu2, Q2 = zoo.neal_pair_kernels(T2, pi)
    yield "neal-P1", P1, mu2, Q2
    yield "neal-P2", P2, mu2, Q2


FAMILIES = list(zoo_families())


class TestQGathers:
    """Q is a permutation, so the index gathers of `finite` give exactly
    the floats of the permutation-matrix products they replace."""

    @pytest.mark.parametrize("name, P, mu, Q", FAMILIES, ids=[f[0] for f in FAMILIES])
    def test_gathers_equal_products(self, name, P, mu, Q):
        qm = Q.matrix
        qp, pq = finite.reversible_parts(P, Q)
        assert np.array_equal(qp.entries, qm @ P.entries)
        assert np.array_equal(pq.entries, P.entries @ qm)
        # the QPQ of check_muQ_reversible
        assert np.array_equal(P.entries[Q.perm][:, Q.perm], qm @ P.entries @ qm)
        assert finite.check_muQ_reversible(P, mu, Q)

    @pytest.mark.parametrize("form", ["QP", "PQ"])
    def test_certificate_equals_product_form(self, form):
        P1, P2, mu, Q = zoo.neal_pair_kernels(
            KernelMatrix(0.4 * np.eye(5) + 0.6 * np.tile(RING5.pi.weights, (5, 1))),
            RING5.pi)
        qm = Q.matrix
        certify = (finite.dirichlet_dominance_certificate if form == "QP"
                   else oracles.dirichlet_dominance_certificate_pq)
        for a, b in ((P1, P2), (P2, P1)):
            diff = (qm @ b.entries - qm @ a.entries if form == "QP"
                    else b.entries @ qm - a.entries @ qm)
            r = np.sqrt(mu.weights)
            sim = (r[:, None] * diff) / r[None, :]  # D^{1/2} diff D^{-1/2}
            want = np.linalg.eigh((sim + sim.T) / 2.0)[0][0]
            assert certify(a, b, mu, Q).dominance_matrix_min_eig == want

    def test_pq_form_certifies_the_same(self):
        # PQ = Q(QP)Q and Q commutes with diag(mu): the two forms are similar
        # through a permutation.  Criterion 2's draws, each pair as given,
        # reversed, and against a random (mu, Q)-reversible kernel
        rng = np.random.default_rng(202)
        eig_gaps, holds = [], []
        for _ in range(50):
            n = int(rng.integers(3, 7))
            mu = zoo.half_lift(FiniteDistribution.from_unnormalized(0.5 + rng.random(n)))
            Q = zoo.velocity_flip(n)
            P1, P2 = dominated_pair(rng, mu, Q)
            rng.integers(2 ** 31)  # criterion 2's rng_seed draw
            R = random_muQ_kernel(rng, mu, Q)
            for a, b in ((P1, P2), (P2, P1), (P1, R), (R, P2)):
                qp = finite.dirichlet_dominance_certificate(a, b, mu, Q)
                pq = oracles.dirichlet_dominance_certificate_pq(a, b, mu, Q)
                assert qp.holds == pq.holds
                holds.append(qp.holds)
                eig_gaps.append(abs(qp.dominance_matrix_min_eig
                                    - pq.dominance_matrix_min_eig))
        assert max(eig_gaps) <= 1e-15
        assert all(holds[0::4]) and not any(holds[1::4])  # both verdicts occur
