import itertools
import math
import warnings

import numpy as np
import pytest

from nonrev import finite, samplers
from nonrev.finite import FiniteDistribution, KernelMatrix, Observable
from nonrev.samplers import (Potential, estimate_var_lambda, leapfrog,
                             replicate_rng)
from nonrev.zigzag import zz_double_well, zz_gaussian
from nonrev.zoo import AcceptanceRule
from oracles import run_ghmc_chains_reference, steep_double_well, zz_tabulated


def energy(H, x, v):
    return samplers._energy(H.U(x), v)


def flow(H, x, v, step, nleap):
    """leapfrog from (x, v), opening with the half-kick at x."""
    return leapfrog(H, x, v, 0.5 * step * np.asarray(H.grad(x)), step, nleap)[:2]


class TestHamiltonian:
    def test_gradient_check_rejects_wrong_grad(self):
        with pytest.raises(ValueError, match="finite differences"):
            Potential(U=lambda x: np.sum(x * x, axis=-1),
                      grad=lambda x: 3.0 * x, d=2)
        with pytest.raises(ValueError, match="finite differences"):
            # right in the first coordinate only
            Potential(U=lambda x: 0.5 * np.sum(x * x, axis=-1),
                      grad=lambda x: x * np.array([1.0, 2.0]), d=2)

    @pytest.mark.parametrize("U, grad", [
        (lambda x: np.full(x.shape[:-1], np.nan), lambda x: x),
        (lambda x: 0.5 * np.sum(x * x, axis=-1), lambda x: np.full(x.shape, np.nan)),
        (lambda x: np.full(x.shape[:-1], np.inf), lambda x: x),
        (lambda x: 0.5 * np.sum(x * x, axis=-1), lambda x: np.full(x.shape, -np.inf))],
        ids=["nan-potential", "nan-gradient", "inf-potential", "inf-gradient"])
    def test_gradient_check_rejects_nan(self, U, grad):
        with pytest.raises(ValueError, match=r"^U or grad is not finite at the probe \["):
            Potential(U=U, grad=grad, d=2)

    def test_overflowing_potential_is_refused_as_not_finite(self):
        # 1/sigma^2 = 1e308 is finite, but U overflows at a probe: the
        # refusal names the overflow, not the finite differences, and warns
        # of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="U or grad is not finite"):
                zz_gaussian([1e-154])

    def test_builtin_potentials_pass_their_own_check(self):
        # construction runs the finite-difference gradient check
        zz_gaussian([2.0, 2.0, 2.0])
        zz_gaussian([0.3, 1.0, 2.5])
        zz_double_well()
        steep_double_well()
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
                xn, vn = flow(H, x, v, step=step, nleap=7)
                xb, vb = flow(H, xn, -vn, step=step, nleap=7)
                worst = max(worst, float(np.max(np.abs(xb - x))),
                            float(np.max(np.abs(-vb - v))))
        assert worst < 1e-9

    def test_energy_error_scaling(self):
        H = zz_gaussian([1.0])
        x = np.array([1.0])
        v = np.array([0.5])
        errs = []
        for step in (0.1, 0.05):
            xn, vn = flow(H, x, v, step, nleap=int(round(1.0 / step)))
            errs.append(abs(float(energy(H, xn, vn) - energy(H, x, v))))
        # second-order integrator: quartering the error when halving the step
        assert errs[1] < errs[0] / 3.0


class TestGhmcStep:
    """The accept stage of one GHMC transition, samplers._ghmc_update, on a
    single row; the momentum passed in is the refreshed one.  The half-kick
    it returns is the one at the position it returns, accepted or not."""

    H = zz_gaussian([1.0])

    @staticmethod
    def update(H, x, v, u, step, nleap, rule):
        x, v = np.array([[x]]), np.array([[v]])
        with np.errstate(over="ignore", invalid="ignore"):
            kick = 0.5 * step * np.asarray(H.grad(x))
            xn, Un, vn, kn = samplers._ghmc_update(H, x, np.asarray(H.U(x)), kick, v,
                                                   np.array([u]), step, nleap, [rule])
            assert np.array_equal(kn, 0.5 * step * np.asarray(H.grad(xn)))
        return xn[0, 0], Un[0], vn[0, 0]

    def test_rejection_flips_refreshed_momentum(self):
        # force rejection with u = 1 (accept requires u < a <= 1)
        x, U, v = self.update(self.H, 2.0, 0.6, 1.0, 0.5, 3,
                              AcceptanceRule.metropolis())
        assert (x, U, v) == (2.0, float(self.H.U(np.array([2.0]))), -0.6)

    def test_nonfinite_energy_rejects(self):
        # huge step on a steep potential overflows the proposal energy
        H = steep_double_well()
        with np.errstate(over="ignore", invalid="ignore"):
            xn, vn = flow(H, np.array([[1.0]]), np.array([[5.0]]), 50.0, 5)
            assert not np.isfinite(samplers._energy(np.asarray(H.U(xn)), vn)).all()
        x, _, v = self.update(H, 1.0, 5.0, 0.0, 50.0, 5, AcceptanceRule.metropolis())
        assert (x, v) == (1.0, -5.0)

    @pytest.mark.parametrize("rule", [AcceptanceRule.metropolis(),
                                      AcceptanceRule.barker()],
                             ids=["metropolis", "barker"])
    def test_overflowing_ratio_accepts(self, rule):
        # a finite energy drop of about 1.28e4 makes exp(de) overflow to inf;
        # phi(inf) = 1, so the move must be accepted
        H = steep_double_well()
        x0, v0 = np.array([10.0]), np.array([0.0])
        xn, vn = flow(H, x0, v0, 0.01, 1)
        de = float(energy(H, x0, v0) - energy(H, xn, vn))
        assert 709.8 < de < math.inf
        x, _, v = self.update(H, 10.0, 0.0, 0.999, 0.01, 1, rule)
        assert (x, v) == (xn[0], vn[0])


class TestEstimator:
    def test_lag0_is_biased_variance(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((2, 500))
        st = estimate_var_lambda(rows, lam=0.0)
        per = np.var(rows, axis=1)
        assert st.estimate == pytest.approx(float(per.mean()))
        assert st.se == pytest.approx(float(per.std(ddof=1)) / math.sqrt(2))

    def test_iid_case_matches_population_variance(self):
        rng = np.random.default_rng(2)
        chains = rng.standard_normal((16, 4000))
        st = estimate_var_lambda(chains, lam=0.5)
        # iid: all positive-lag autocovariances vanish, var_lam = var
        assert abs(st.estimate - 1.0) < 3 * max(st.se, 1e-12)

    def test_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="lambda"):
            estimate_var_lambda(rng.standard_normal((2, 100)), lam=1.0)
        with pytest.raises(ValueError, match="shorter"):
            estimate_var_lambda(rng.standard_normal((2, 50)), lam=0.9)

    @pytest.mark.parametrize("shape", [(500,), (1, 500), (2, 2, 500)],
                             ids=["1-d", "one-row", "3-d"])
    def test_needs_two_replicate_rows(self, shape):
        # one replicate has no standard error: it used to report se = 0.0
        with pytest.raises(ValueError, match="at least 2"):
            estimate_var_lambda(np.random.default_rng(4).standard_normal(shape), lam=0.5)

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
        exact = finite.var_lambda(f, KernelMatrix(P), mu, [lam])[0]
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

    def run(self, seed=0, n_steps=3000, rules=None):
        return samplers.run_ghmc_chains(
            self.H, step=0.9, nleap=2, omega=math.pi / 4,
            rules=rules or [AcceptanceRule.metropolis()],
            n_steps=n_steps, replicates=self.R, seed=seed,
            observables=self.OBS, burn_in=200)

    def test_deterministic_and_block_independent(self, monkeypatch):
        for rules in ([AcceptanceRule.metropolis()],
                      [AcceptanceRule.metropolis(), AcceptanceRule.barker()]):
            a = self.run(rules=rules)
            b = self.run(rules=rules)
            with monkeypatch.context() as m:
                m.setattr(samplers, "_BLOCK", 137)  # buffers of 137 transitions
                c = self.run(rules=rules)
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

    def test_negative_burn_in_refused_before_any_draw(self, monkeypatch):
        # burn_in = -5 used to return 5 columns of uninitialised memory
        def no_streams(*args):
            raise AssertionError("drew before burn_in was validated")

        monkeypatch.setattr(samplers, "replicate_rng", no_streams)
        for burn_in in (-1, -5):
            with pytest.raises(ValueError, match="burn_in"):
                samplers.run_ghmc_chains(
                    self.H, 0.9, 2, math.pi / 4, [AcceptanceRule.metropolis()],
                    100, 2, 0, self.OBS, burn_in=burn_in)

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

    def test_failing_comparison_reports_its_excess(self):
        # a lazy Metropolis rule listed first has the larger variance, so the
        # ordering fails and the report carries the worst excess, not 0 or 1
        lazy = AcceptanceRule("lazy-metropolis", lambda r: 0.1 * np.minimum(1.0, r))
        report = self.compare(rules=[lazy, AcceptanceRule.metropolis()],
                              lambdas=(0.5, 0.9))
        est = {(row.rule, row.lam): (row.estimate, row.se) for row in report.rows}
        excess = max(samplers.ordered_within_se(*est["lazy-metropolis", lam],
                                                *est[rule, lam])
                     for rule in ("lazy-metropolis", "metropolis")
                     for lam in (0.5, 0.9))
        assert excess > 0.0
        assert report.max_violation == excess
        assert not report.passed
        nan = self.compare(observables={"nan": lambda x: np.full(x.shape[0], np.nan)})
        assert math.isnan(nan.max_violation) and not nan.passed

    @pytest.mark.parametrize("step", [50.0, 1e300])
    def test_frozen_chains_raise(self, step):
        # every proposal is rejected, so each chain stays at x0 and both
        # estimates are 0.0 +- 0.0: an ordering "within 2 SE" with no evidence
        with pytest.raises(ValueError, match="never moved"):
            samplers.compare_acceptance_rules(
                self.H, omega=math.pi / 4, step=step, nleap=2,
                rules=[AcceptanceRule.metropolis(), AcceptanceRule.barker()],
                lambdas=[0.5], observables={"x2": lambda x: x[:, 0] ** 2},
                n_steps=2000, replicates=4, seed=1)

    def test_compare_refuses_one_replicate(self):
        # with one replicate every SE was 0.0 and the comparison passed
        with pytest.raises(ValueError, match="2 replicates"):
            samplers.compare_acceptance_rules(
                self.H, omega=math.pi / 4, step=0.9, nleap=2,
                rules=[AcceptanceRule.metropolis(), AcceptanceRule.barker()],
                lambdas=[0.5], observables={"x2": lambda x: x[:, 0] ** 2},
                n_steps=2000, replicates=1, seed=1)

    @pytest.mark.parametrize("kwargs, match", [
        ({"rules": [AcceptanceRule.metropolis()]}, "at least two"),
        ({"rules": []}, "at least two"),
        ({"rules": [AcceptanceRule.barker(), AcceptanceRule.barker()]}, "distinct"),
        ({"lambdas": []}, "lambda"),
        ({"observables": {}}, "observable"),
        ({"lambdas": [0.5, 1.0]}, r"lambda must lie in \[0, 1\)"),
        ({"lambdas": [0.5, 0.999]}, "n_steps must be >= 184120"),
    ], ids=["one-rule", "no-rules", "duplicate-kind", "no-lambdas", "no-observables",
            "lambda-one", "short-chains"])
    def test_compare_refuses_missing_evidence(self, monkeypatch, kwargs, match):
        # refused before any sampling
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the inputs were validated")

        monkeypatch.setattr(samplers, "run_ghmc_chains", no_sampling)
        with pytest.raises(ValueError, match=match):
            self.compare(**kwargs)


class TestGhmcDriverMatchesReference:
    """run_ghmc_chains against the driver that buffered draws 100,000 steps
    at a time, opened every flow with a gradient call and recorded every
    observable on every step (oracles.run_ghmc_chains_reference): every chain
    bit-identical, for every block layout of burn-in and recorded steps."""

    RULES2 = [AcceptanceRule.metropolis(), AcceptanceRule.barker()]
    RULES3 = RULES2 + [AcceptanceRule.phi_eps(0.5)]
    # (potential, rules, step, nleap); at step 0.25 with 6 leaps the steep
    # well's energies overflow on most proposals, and some still accept
    CONFIGS = {
        "d1-2rules-step0.9": (zz_gaussian([1.0]), RULES2, 0.9, 2),
        "d1-3rules-step2.5": (zz_gaussian([1.0]), RULES3, 2.5, 2),
        "d3-2rules-step2.5": (zz_gaussian([0.7, 1.0, 1.6]), RULES2, 2.5, 2),
        "d3-3rules-step0.9": (zz_gaussian([0.7, 1.0, 1.6]), RULES3, 0.9, 2),
        "steep-3rules-nonfinite": (steep_double_well(), RULES3, 0.25, 6),
    }
    OBS = [lambda x: x[:, 0] ** 2, lambda x: np.abs(x[:, -1]),
           lambda x: np.add.reduce(x * x, axis=-1)]

    LAYOUTS = [(burn, across) for burn in ("0", "1", "block-1", "block+3")
               for across in (False, True)]
    # every config on every layout of 137-step blocks, and one config on the
    # layouts of the real block length
    CASES = ([(config, 137, *layout) for config, layout in itertools.product(CONFIGS, LAYOUTS)]
             + [("d3-3rules-step0.9", samplers._BLOCK, *layout) for layout in LAYOUTS])

    @pytest.mark.parametrize("config, block, burn, across", CASES, ids=[
        f"{c}-block{b}-burn{burn}-{'across' if a else 'within'}" for c, b, burn, a in CASES])
    def test_chains_bit_identical(self, monkeypatch, config, block, burn, across):
        H, rules, step, nleap = self.CONFIGS[config]
        burn_in = {"0": 0, "1": 1, "block-1": block - 1, "block+3": block + 3}[burn]
        # recording ends inside the block it starts in, or in the next one
        n_steps = block - burn_in % block + 40 if across else 40
        real_energy, nonfinite = samplers._energy, []

        def energy(Ux, v):
            e = real_energy(Ux, v)
            nonfinite.append(int(np.sum(~np.isfinite(e))))
            return e

        monkeypatch.setattr(samplers, "_energy", energy)
        monkeypatch.setattr(samplers, "_BLOCK", block)
        args = (H, step, nleap, math.pi / 4, rules, n_steps, 3, 17, self.OBS)
        got = samplers.run_ghmc_chains(*args, burn_in=burn_in)
        want = run_ghmc_chains_reference(*args, burn_in=burn_in)
        for g, w in zip(got, want, strict=True):
            assert g.shape == (3 * len(rules), n_steps)
            assert np.array_equal(g, w)
        assert (sum(nonfinite) > 0) == config.startswith("steep")


class TestMisc:
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
