import math

import numpy as np
import pytest

from nonrev import finite, samplers
from nonrev.finite import FiniteDistribution, KernelMatrix, Observable
from nonrev.samplers import (PhaseState, Potential, estimate_var_lambda,
                             leapfrog, replicate_rng)
from nonrev.zigzag import zz_double_well, zz_gaussian, zz_tabulated
from nonrev.zoo import AcceptanceRule


def energy(H, x, v):
    return samplers._energy(H.U(x), v)


class ScriptedRng:
    """Replays pre-recorded standard_normal / random draws."""

    def __init__(self, normals, uniforms):
        self.normals = list(normals)
        self.uniforms = list(uniforms)

    def standard_normal(self, size=None):
        out = self.normals.pop(0)
        return np.asarray(out) if size is not None else float(out)

    def random(self, size=None):
        out = self.uniforms.pop(0)
        return np.asarray(out) if size is not None else float(out)


class TestHamiltonian:
    def test_gradient_check_rejects_wrong_grad(self):
        with pytest.raises(ValueError, match="finite differences"):
            Potential(U=lambda x: np.sum(x * x, axis=-1),
                      grad=lambda x: 3.0 * x, d=2)
        with pytest.raises(ValueError, match="finite differences"):
            # right in the first coordinate only
            Potential(U=lambda x: 0.5 * np.sum(x * x, axis=-1),
                      grad=lambda x: x * np.array([1.0, 2.0]), d=2)

    def test_builtin_potentials_pass_their_own_check(self):
        # construction runs the finite-difference gradient check
        zz_gaussian([2.0, 2.0, 2.0])
        zz_gaussian([0.3, 1.0, 2.5])
        zz_double_well(a=0.5, b=1.5)
        zz_double_well(a=10.0, b=2.0)
        xs = np.linspace(-6, 6, 401)
        zz_tabulated(xs, 0.25 * xs ** 4 - xs ** 2)

    def test_energy_shape(self):
        H = zz_gaussian([1.0, 1.0])
        x = np.zeros((4, 2))
        v = np.ones((4, 2))
        assert energy(H, x, v).shape == (4,)
        assert energy(H, x, v)[0] == pytest.approx(1.0)


class TestLeapfrog:
    def test_flip_reversal_on_random_probes(self):
        # psi^{-1} = xi o psi o xi with xi(x, v) = (x, -v)
        rng = np.random.default_rng(0)
        worst = 0.0
        for H, step in ((zz_gaussian([1.0]), 0.3), (zz_double_well(), 0.05)):
            for _ in range(100):
                x = rng.standard_normal(1)
                v = rng.standard_normal(1)
                xn, vn = leapfrog(H, x, v, step=step, nleap=7)
                xb, vb = leapfrog(H, xn, -vn, step=step, nleap=7)
                worst = max(worst, float(np.max(np.abs(xb - x))),
                            float(np.max(np.abs(-vb - v))))
        assert worst < 1e-9

    def test_energy_error_scaling(self):
        H = zz_gaussian([1.0])
        x = np.array([1.0])
        v = np.array([0.5])
        errs = []
        for step in (0.1, 0.05):
            xn, vn = leapfrog(H, x, v, step, nleap=int(round(1.0 / step)))
            errs.append(abs(float(energy(H, xn, vn) - energy(H, x, v))))
        # second-order integrator: quartering the error when halving the step
        assert errs[1] < errs[0] / 3.0


class TestGhmcStep:
    H = zz_gaussian([1.0])

    def test_parameter_validation(self):
        state = PhaseState(np.zeros(1), np.zeros(1))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            samplers.ghmc_step(state, self.H, -0.1, 1, 1.0, AcceptanceRule.metropolis(), rng)
        with pytest.raises(ValueError):
            samplers.ghmc_step(state, self.H, 0.1, 1, 2.0, AcceptanceRule.metropolis(), rng)

    def test_scalar_matches_batched_update(self):
        noise = np.array([0.7])
        u = 0.3
        state = PhaseState(np.array([0.4]), np.array([-1.1]))
        out = samplers.ghmc_step(state, self.H, 0.9, 2, math.pi / 4,
                                 AcceptanceRule.metropolis(),
                                 ScriptedRng([noise], [u]))
        x = state.x[None, :]
        refreshed = samplers._refresh(state.v, noise, math.pi / 4)
        x, Ux, v = samplers._ghmc_update(self.H, x, self.H.U(x), refreshed[None, :],
                                         np.array([u]), 0.9, 2,
                                         [AcceptanceRule.metropolis()])
        assert np.array_equal(out.x, x[0]) and np.array_equal(out.v, v[0])
        assert np.array_equal(Ux, self.H.U(x))

    def test_rejection_flips_refreshed_momentum(self):
        # force rejection with u = 1 (accept requires u < a <= 1)
        noise = np.array([0.2])
        state = PhaseState(np.array([2.0]), np.array([1.0]))
        out = samplers.ghmc_step(state, self.H, 0.5, 3, math.pi / 3,
                                 AcceptanceRule.metropolis(),
                                 ScriptedRng([noise], [1.0]))
        refreshed = samplers._refresh(state.v, noise, math.pi / 3)
        assert np.allclose(out.x, state.x)
        assert np.allclose(out.v, -refreshed)

    def test_nonfinite_energy_rejects(self):
        diag = {}
        noise = np.array([5.0])
        state = PhaseState(np.array([1.0]), np.array([30.0]))
        # huge step on a steep potential overflows the proposal energy
        H = zz_double_well(a=10.0, b=2.0)
        out = samplers.ghmc_step(state, H, 50.0, 5, math.pi / 2,
                                 AcceptanceRule.metropolis(),
                                 ScriptedRng([noise], [0.0]), diagnostics=diag)
        assert np.allclose(out.x, state.x)
        assert diag.get("overflow", 0) == 1

    @pytest.mark.parametrize("rule", [AcceptanceRule.metropolis(),
                                      AcceptanceRule.barker()],
                             ids=["metropolis", "barker"])
    def test_overflowing_ratio_accepts(self, rule):
        # a finite energy drop of about 1.28e4 makes exp(de) overflow to inf;
        # phi(inf) = 1, so the move must be accepted, as extra_chance_step does
        diag = {}
        H = zz_double_well(a=10.0, b=2.0)
        state = PhaseState(np.array([10.0]), np.array([0.0]))
        xn, vn = leapfrog(H, state.x, state.v, 0.01, 1)
        de = float(energy(H, state.x, state.v) - energy(H, xn, vn))
        assert 709.8 < de < math.inf
        out = samplers.ghmc_step(state, H, 0.01, 1, math.pi / 2, rule,
                                 ScriptedRng([np.zeros(1)], [0.999]),
                                 diagnostics=diag)
        ref = samplers.extra_chance_step(state, H, 0.01, 1, 1,
                                         ScriptedRng([], [0.999]))
        assert np.array_equal(out.x, xn) and np.array_equal(ref.x, xn)
        assert "overflow" not in diag


class TestExtraChance:
    H = zz_gaussian([1.0])

    def test_k_validation(self):
        state = PhaseState(np.zeros(1), np.ones(1))
        with pytest.raises(ValueError):
            samplers.extra_chance_step(state, self.H, 0.1, 1, 0, np.random.default_rng(0))

    def test_k1_matches_metropolis_accept_stage(self):
        state = PhaseState(np.array([0.3]), np.array([0.8]))
        for u in (0.05, 0.95):
            out = samplers.extra_chance_step(state, self.H, 0.9, 2, 1,
                                             ScriptedRng([], [u]))
            xn, vn = leapfrog(self.H, state.x, state.v, 0.9, 2)
            de = float(energy(self.H, state.x, state.v) - energy(self.H, xn, vn))
            if u < min(1.0, math.exp(de)):
                assert np.allclose(out.x, xn) and np.allclose(out.v, vn)
            else:
                assert np.allclose(out.x, state.x) and np.allclose(out.v, -state.v)

    def test_ladder_uses_later_stage(self):
        # pick u between alpha_1 and alpha_2 so only the second proposal lands
        state = PhaseState(np.array([0.5]), np.array([1.2]))
        H = self.H
        x1, v1 = leapfrog(H, state.x, state.v, 1.5, 1)
        x2, v2 = leapfrog(H, x1, v1, 1.5, 1)
        e0 = float(energy(H, state.x, state.v))
        a1 = min(1.0, math.exp(e0 - float(energy(H, x1, v1))))
        a2 = max(a1, min(1.0, math.exp(e0 - float(energy(H, x2, v2)))))
        assert a2 > a1  # construction sanity
        u = 0.5 * (a1 + a2)
        out = samplers.extra_chance_step(state, H, 1.5, 1, 2, ScriptedRng([], [u]))
        assert np.allclose(out.x, x2) and np.allclose(out.v, v2)


class TestGuidedWalk:
    def test_wall_flip_on_bounded_support(self):
        logdensity = lambda x: 0.0 if 0.0 <= x <= 1.0 else -math.inf
        step_draw = lambda rng: 0.4
        x, v = samplers.guided_walk_step(0.9, 1, logdensity, step_draw,
                                         np.random.default_rng(0))
        assert (x, v) == (0.9, -1)

    def test_uniform_interior_move_always_accepts(self):
        logdensity = lambda x: 0.0 if 0.0 <= x <= 1.0 else -math.inf
        x, v = samplers.guided_walk_step(0.2, 1, logdensity, lambda rng: 0.3,
                                         np.random.default_rng(0))
        assert (x, v) == (pytest.approx(0.5), 1)

    def test_gaussian_moments(self):
        rng = replicate_rng(5, 0)
        logdensity = lambda x: -0.5 * x * x
        x, v = 0.0, 1
        xs = np.empty(20000)
        for i in range(xs.size):
            x, v = samplers.guided_walk_step(
                x, v, logdensity, lambda r: r.standard_normal(), rng)
            xs[i] = x
        assert abs(xs.mean()) < 0.1
        assert abs(xs.var() - 1.0) < 0.1


class TestEstimator:
    def test_lag0_is_biased_variance(self):
        rng = np.random.default_rng(1)
        row = rng.standard_normal(500)
        st = estimate_var_lambda(row, lam=0.0)
        assert st.estimate == pytest.approx(float(np.var(row)))
        assert st.se == 0.0  # single replicate

    def test_iid_case_matches_population_variance(self):
        rng = np.random.default_rng(2)
        chains = rng.standard_normal((16, 4000))
        st = estimate_var_lambda(chains, lam=0.5)
        # iid: all positive-lag autocovariances vanish, var_lam = var
        assert abs(st.estimate - 1.0) < 3 * max(st.se, 1e-12)

    def test_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            estimate_var_lambda(rng.standard_normal(100), lam=1.0)
        with pytest.raises(ValueError):
            estimate_var_lambda(rng.standard_normal(50), lam=0.9)  # too short

    def test_default_max_lag(self):
        assert samplers.default_max_lag(0.0) == 0
        k = samplers.default_max_lag(0.5)
        assert 0.5 ** k <= 1e-8 < 0.5 ** (k - 1)

    def test_consistency_against_exact_finite_chain(self):
        # simulate a 3-state reversible chain and compare to the exact
        # discounted variance from the resolvent formula
        P = np.array([[0.6, 0.3, 0.1],
                      [0.2, 0.5, 0.3],
                      [0.1, 0.45, 0.45]])
        vals_, vecs = np.linalg.eig(P.T)
        w = np.real(vecs[:, np.argmin(np.abs(vals_ - 1.0))])
        mu = FiniteDistribution.from_unnormalized(np.abs(w))
        f = Observable(np.array([1.0, -0.5, 2.0]))
        lam = 0.5
        exact = finite.var_lambda(f, KernelMatrix(P), mu, lam)
        cum = P.cumsum(axis=1)
        R, T = 16, 20000
        vals = np.empty((R, T))
        for r in range(R):
            rng = replicate_rng(9, r)
            s = int(np.searchsorted(mu.weights.cumsum(), rng.random()))
            for t in range(T):
                s = int(np.searchsorted(cum[s], rng.random()))
                vals[r, t] = f.values[s]
        st = estimate_var_lambda(vals, lam)
        assert abs(st.estimate - exact) < 4 * st.se


class TestGhmcDriver:
    H = zz_gaussian([1.0])
    OBS = [lambda x: x[:, 0], lambda x: x[:, 0] ** 2]
    R = 8

    def run(self, seed=0, block=100_000, n_steps=3000, rules=None):
        return samplers.run_ghmc_chains(
            self.H, step=0.9, nleap=2, omega=math.pi / 4,
            rules=rules or [AcceptanceRule.metropolis()],
            n_steps=n_steps, replicates=self.R, seed=seed,
            observables=self.OBS, burn_in=200, block=block)

    def test_deterministic_and_block_independent(self):
        for rules in ([AcceptanceRule.metropolis()],
                      [AcceptanceRule.metropolis(), AcceptanceRule.barker()]):
            a = self.run(rules=rules)
            b = self.run(rules=rules)
            c = self.run(rules=rules, block=137)
            for j in range(2):
                assert np.array_equal(a[j], b[j])
                assert np.array_equal(a[j], c[j])

    def test_fused_rules_match_single_rule_runs(self):
        met, bar = AcceptanceRule.metropolis(), AcceptanceRule.barker()
        fused = self.run(seed=3, rules=[met, bar])
        alone = [self.run(seed=3, rules=[rule]) for rule in (met, bar)]
        for j in range(2):
            assert fused[j].shape == (2 * self.R, 3000)
            assert np.array_equal(fused[j][:self.R], alone[0][j])
            assert np.array_equal(fused[j][self.R:], alone[1][j])
        assert not np.array_equal(fused[0][:self.R], fused[0][self.R:])

    def test_rule_runs_its_phi_not_its_kind(self):
        # the kind is a label: a "metropolis" rule with Barker's phi is Barker
        relabelled = AcceptanceRule("metropolis", AcceptanceRule.barker().phi)
        a = self.run(seed=2, rules=[relabelled])
        b = self.run(seed=2, rules=[AcceptanceRule.barker()])
        c = self.run(seed=2, rules=[AcceptanceRule.metropolis()])
        assert np.array_equal(a[0], b[0])
        assert not np.array_equal(a[0], c[0])

    def test_moment_preservation(self):
        chains = self.run(seed=4, n_steps=6000)
        means = chains[0].mean(axis=1)
        seconds = chains[1].mean(axis=1)
        for vals, target in ((means, 0.0), (seconds, 1.0)):
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - target) < 3 * se

    def compare(self, rules=None, lambdas=(0.5,), observables=None):
        return samplers.compare_acceptance_rules(
            self.H, omega=math.pi / 4, step=0.9, nleap=2,
            rules=([AcceptanceRule.metropolis(), AcceptanceRule.barker()]
                   if rules is None else rules),
            lambdas=list(lambdas),
            observables=({"x2": lambda x: x[:, 0] ** 2}
                         if observables is None else observables),
            n_steps=4000, replicates=8, seed=1)

    def test_compare_acceptance_rules_smoke(self):
        report = self.compare()
        assert report.passed
        kinds = {row.rule for row in report.rows}
        assert kinds == {"metropolis", "barker"}

    def test_compare_rows_match_single_rule_estimates(self):
        report = self.compare()
        for rule, row in zip([AcceptanceRule.metropolis(), AcceptanceRule.barker()],
                             report.rows):
            chains = samplers.run_ghmc_chains(
                self.H, 0.9, 2, math.pi / 4, [rule], 4000, 8, 1,
                [lambda x: x[:, 0] ** 2], burn_in=400)
            st = estimate_var_lambda(chains[0], 0.5)
            assert (row.rule, row.estimate, row.se) == (rule.kind, st.estimate, st.se)

    @pytest.mark.parametrize("kwargs, match", [
        ({"rules": [AcceptanceRule.metropolis()]}, "at least two"),
        ({"rules": []}, "at least two"),
        ({"rules": [AcceptanceRule.barker(), AcceptanceRule.barker()]}, "distinct"),
        ({"lambdas": []}, "lambda"),
        ({"observables": {}}, "observable"),
    ], ids=["one-rule", "no-rules", "duplicate-kind", "no-lambdas", "no-observables"])
    def test_compare_refuses_missing_evidence(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            self.compare(**kwargs)


class TestMisc:
    def test_phase_state_validation(self):
        with pytest.raises(ValueError):
            PhaseState(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            PhaseState(np.array([np.nan]), np.array([0.0]))

    def test_replicate_streams_are_distinct(self):
        a = replicate_rng(7, 0).standard_normal(5)
        b = replicate_rng(7, 1).standard_normal(5)
        c = replicate_rng(7, 0).standard_normal(5)
        assert not np.allclose(a, b)
        assert np.array_equal(a, c)

    def test_ordered_within_se(self):
        # a <= b + 2 sqrt(se_a^2 + se_b^2); the violation is the excess
        assert samplers.ordered_within_se(1.0, 0.3, 0.0, 0.4) == 0.0
        assert samplers.ordered_within_se(2.0, 0.3, 0.0, 0.4) == pytest.approx(1.0)
        assert not samplers.ordered_within_se(np.nan, 0.3, 0.0, 0.4) <= 0.0
        assert not samplers.ordered_within_se(1.0, np.nan, 0.0, 0.4) <= 0.0

    def test_refresh_witness_signs_differ(self):
        for omega in (0.3, math.pi / 4, 1.2):
            g1, g2 = samplers.refresh_comparison_witness(omega)
            assert g1 > 0 > g2
        g1, g2 = samplers.refresh_comparison_witness(math.pi / 2)
        assert g1 == pytest.approx(0.0, abs=1e-15)
        assert g2 == pytest.approx(0.0, abs=1e-15)
