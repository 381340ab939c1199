import ctypes
import ctypes.util
import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonrev import _native, finite, samplers
from nonrev.finite import FiniteDistribution, KernelMatrix, Observable
from nonrev.samplers import Potential, estimate_var_lambda, replicate_rng
from nonrev.zigzag import zz_double_well, zz_gaussian
from nonrev.zoo import AcceptanceRule, _barker
from oracles import (_energy, autocov_reference, estimate_var_lambda_reference,
                     ghmc_update_reference, leapfrog_reference, run_ghmc_chains_reference,
                     steep_double_well, zz_tabulated)


def energy(H, x, v):
    return _energy(H.U(x), v)


def c_step(H, rules, step, nleap, x, Ux, kick, v, unif):
    """One step of the kernel's entry point ghmc_run on copies of the given
    state, with the momentum refresh v * 1.0 + 0.0 and unif[r] the uniform
    of replicate r, so of row r under every rule: returns (x, U(x), kick, v,
    xs)."""
    x, Ux, kick, v = (np.array(a, dtype=float) for a in (x, Ux, kick, v))
    unif = np.asarray(unif, dtype=float)[None, :]
    inv2 = 1.0 / np.asarray(H.gaussian_sigmas, dtype=float) ** 2
    barker = np.array([rule.phi is _barker for rule in rules], dtype=np.intc)
    xs = np.empty((1, *x.shape))
    _native.entry("ghmc_run")(np.exp, barker, inv2, 1.0, step, nleap,
                              np.zeros((1, unif.size, x.shape[1])), unif, x, Ux, v, kick, xs)
    return x, Ux, kick, v, xs


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

    def test_sigmas_must_give_the_gradient(self):
        # the GHMC kernel and exact Zig-Zag sample the sigmas' Gaussian, and
        # the oracles' GHMC driver and thinned Zig-Zag sample U: a steep
        # double well marked as a unit Gaussian ran different chains on the
        # GHMC kernel and its numpy form
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pot, sigmas in [(steep_double_well(), [1.0]),
                                (zz_gaussian([0.7, 1.3]), [1.3, 0.7]),
                                (zz_gaussian([1.0]), [1e-170])]:  # 1/sigma^2 = inf
                with pytest.raises(ValueError, match="^grad disagrees with gaussian_sigmas"):
                    dataclasses.replace(pot, gaussian_sigmas=np.array(sigmas))

    @pytest.mark.parametrize("sigmas", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], [1.0, 0.0],
                                        [1.0, -2.0], [1.0, np.inf], [np.nan, 1.0]])
    def test_sigmas_must_be_d_finite_positive_values(self, sigmas):
        with pytest.raises(ValueError, match=r"^gaussian_sigmas must be d = 2 finite positive"):
            dataclasses.replace(zz_gaussian([1.0, 2.0]), gaussian_sigmas=np.array(sigmas))

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
                xn, vn = leapfrog_reference(H, x, v, step=step, nleap=7)
                xb, vb = leapfrog_reference(H, xn, -vn, step=step, nleap=7)
                worst = max(worst, float(np.max(np.abs(xb - x))),
                            float(np.max(np.abs(-vb - v))))
        assert worst < 1e-9

    def test_energy_error_scaling(self):
        H = zz_gaussian([1.0])
        x = np.array([1.0])
        v = np.array([0.5])
        errs = []
        for step in (0.1, 0.05):
            xn, vn = leapfrog_reference(H, x, v, step, nleap=int(round(1.0 / step)))
            errs.append(abs(float(energy(H, xn, vn) - energy(H, x, v))))
        # second-order integrator: quartering the error when halving the step
        assert errs[1] < errs[0] / 3.0


class TestGhmcStep:
    """The accept stage of one GHMC transition, one step of the kernel's
    entry point ghmc_run, on a single row; the momentum passed in is the
    refreshed one.  The half-kick it returns is the one at the position it
    returns, accepted or not."""

    H = zz_gaussian([1.0])

    @staticmethod
    def update(H, x, v, u, step, nleap, rule):
        x, v = np.array([[x]]), np.array([[v]])
        kick = 0.5 * step * np.asarray(H.grad(x))
        xn, Un, kn, vn, _ = c_step(H, [rule], step, nleap, x, np.asarray(H.U(x)),
                                         kick, v, [u])
        assert np.array_equal(kn, 0.5 * step * np.asarray(H.grad(xn)))
        return xn[0, 0], Un[0], vn[0, 0]

    def test_rejection_flips_refreshed_momentum(self):
        # force rejection with u = 1 (accept requires u < a <= 1)
        x, U, v = self.update(self.H, 2.0, 0.6, 1.0, 0.5, 3,
                              AcceptanceRule.metropolis())
        assert (x, U, v) == (2.0, float(self.H.U(np.array([2.0]))), -0.6)

    def test_nonfinite_energy_rejects(self):
        # at step 2.5 with 200 leaps sigma 0.1's flow overflows, so the
        # proposal energy is not finite
        H = zz_gaussian([0.1])
        with np.errstate(over="ignore", invalid="ignore"):
            xn, vn = leapfrog_reference(H, np.array([[1.0]]), np.array([[5.0]]), 2.5, 200)
            assert not np.isfinite(_energy(np.asarray(H.U(xn)), vn)).all()
        x, _, v = self.update(H, 1.0, 5.0, 0.0, 2.5, 200, AcceptanceRule.metropolis())
        assert (x, v) == (1.0, -5.0)

    @pytest.mark.parametrize("rule", [AcceptanceRule.metropolis(),
                                      AcceptanceRule.barker()],
                             ids=["metropolis", "barker"])
    def test_overflowing_ratio_accepts(self, rule):
        # one leap of step 1.4 from x = 60 at rest drops a finite energy of
        # about 882, so exp(de) overflows to inf; phi(inf) = 1, so the move
        # must be accepted even at u = 0.999
        x0, v0 = np.array([60.0]), np.array([0.0])
        xn, vn = leapfrog_reference(self.H, x0, v0, 1.4, 1)
        de = float(energy(self.H, x0, v0) - energy(self.H, xn, vn))
        assert 709.8 < de < math.inf
        x, U, v = self.update(self.H, 60.0, 0.0, 0.999, 1.4, 1, rule)
        assert (x, U, v) == (xn[0], float(self.H.U(xn)), vn[0])


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

    @staticmethod
    def assert_same_bits(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_autocov_matches_the_per_lag_loop(self):
        # random lengths, scales and offsets, at lag 0, lag n - 1 and between
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 17, 128, 1_000, 4_097, 12_345):
            chains = (rng.standard_normal((3, n)) * 10.0 ** rng.uniform(-8, 8, (3, 1))
                      + rng.uniform(-1e3, 1e3, (3, 1)))
            for max_lag in {0, n // 3, n - 1}:
                got = samplers._autocov(chains, max_lag)
                self.assert_same_bits(got, [autocov_reference(row, max_lag) for row in chains])

    def test_autocov_calls_the_blas_dot(self):
        # on this row a left-to-right sum of the lag-0 products is not the
        # ddot sum, so a kernel that sums the products itself fails here
        x = np.random.default_rng(5).standard_normal((2, 6_000))
        c = x[0] - x[0].mean()
        left_to_right = 0.0
        for p in (c * c).tolist():
            left_to_right += p
        want = autocov_reference(x[0], 60)
        assert left_to_right / c.size != want[0]
        self.assert_same_bits(samplers._autocov(x, 60)[0], want)

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf],
                                     [np.nan, -np.inf]], ids=str)
    def test_autocov_of_rows_with_nan_and_inf(self, bad):
        rng = np.random.default_rng(12)
        chains = rng.standard_normal((3, 50))
        chains[0, rng.choice(50, len(bad), replace=False)] = bad
        chains[1, -1] = bad[0]
        with np.errstate(invalid="ignore"):
            want = [autocov_reference(row, 10) for row in chains]
            got = samplers._autocov(chains, 10)
        assert np.all(np.isnan(got[:2])) and np.all(np.isfinite(got[2]))
        self.assert_same_bits(got, want)

    @pytest.mark.parametrize("layout", ["C", "Fortran", "strided", "integer"])
    def test_estimate_is_the_per_row_loops_whatever_the_layout(self, layout):
        # every layout gives the bits that the estimator which called the
        # per-lag loop row by row gives on its C-ordered float copy
        rng = np.random.default_rng(13)
        base = np.cumsum(rng.standard_normal((8, 2_500)), axis=1) * 3.0 + 7.0
        chains = {"C": base, "Fortran": np.asfortranarray(base),
                  "strided": np.repeat(base, 2, axis=1)[::2, ::2],
                  "integer": np.rint(base * 1e3).astype(np.int64)}[layout]
        copy = np.array(chains, dtype=float, order="C")
        for lam in (0.0, 0.5, 0.9):
            st = estimate_var_lambda(chains, lam)
            for a, b in zip((st.autocovariances, st.estimate, st.se),
                            estimate_var_lambda_reference(copy, lam)):
                self.assert_same_bits(a, b)

    def test_rows_past_the_blas_threading_threshold(self):
        # OpenBLAS would thread ddot above 10,000 elements at more than one
        # thread; the kernel calls the same function, so the bits hold there
        chains = np.random.default_rng(14).standard_normal((2, 30_000)).cumsum(axis=1)
        st = estimate_var_lambda(chains, 0.9)
        for a, b in zip((st.autocovariances, st.estimate, st.se),
                        estimate_var_lambda_reference(chains, 0.9)):
            self.assert_same_bits(a, b)
        self.assert_same_bits(samplers._autocov(chains, 29_999)[:, [0, 1, 20_000, 29_999]],
                              [autocov_reference(row, 29_999)[[0, 1, 20_000, 29_999]]
                               for row in chains])

    @pytest.mark.parametrize("max_lag", [4, 5, 100, -1])
    def test_autocov_refuses_lags_outside_the_chain(self, max_lag):
        chains = np.random.default_rng(15).standard_normal((2, 4))
        with pytest.raises(ValueError, match=rf"max_lag must lie in \[0, 4\).*got {max_lag}"):
            samplers._autocov(chains, max_lag)
        self.assert_same_bits(samplers._autocov(chains, 3),
                              [autocov_reference(row, 3) for row in chains])

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

    def test_empty_rules_refused_before_any_draw(self, monkeypatch):
        # it raised an unnamed ZeroDivisionError from the rows per rule
        def no_streams(*args):
            raise AssertionError("drew before the rules were validated")

        monkeypatch.setattr(samplers, "replicate_rng", no_streams)
        for H in (self.H, steep_double_well()):  # one the kernel serves, one it refuses
            with pytest.raises(ValueError, match="rules is empty"):
                samplers.run_ghmc_chains(H, 0.9, 2, math.pi / 4, [], 100, 2, 0, self.OBS)

    @pytest.mark.parametrize("n_steps, replicates, match", [
        (-1, 2, r"^n_steps must be an integer >= 0, got -1$"),
        (100, 0, r"^replicates must be an integer >= 1, got 0$"),
        (100, -3, r"^replicates must be an integer >= 1, got -3$")])
    def test_negative_steps_and_no_replicates_refused_before_the_kernel(
            self, n_steps, replicates, match, monkeypatch):
        # they failed after the kernel loaded, with numpy's unnamed "need at
        # least one array to stack" and "negative dimensions are not allowed"
        def too_late(*args):
            raise AssertionError("loaded the kernel or drew before the refusal")

        monkeypatch.setattr(_native, "entry", too_late)
        monkeypatch.setattr(samplers, "replicate_rng", too_late)
        with pytest.raises(ValueError, match=match):
            samplers.run_ghmc_chains(self.H, 0.9, 2, math.pi / 4, [AcceptanceRule.metropolis()],
                                     n_steps, replicates, 0, self.OBS)

    @pytest.mark.parametrize("step, nleap, omega, match", [
        (0.9, 0, math.pi / 4, r"^nleap must be an integer >= 1, got 0$"),
        (0.9, -2, math.pi / 4, r"^nleap must be an integer >= 1, got -2$"),
        (0.0, 2, math.pi / 4, r"^step must be finite and > 0, got 0\.0$"),
        (-0.9, 2, math.pi / 4, r"^step must be finite and > 0, got -0\.9$"),
        (math.nan, 2, math.pi / 4, r"^step must be finite and > 0, got nan$"),
        (math.inf, 2, math.pi / 4, r"^step must be finite and > 0, got inf$"),
        (0.9, 2, math.nan, r"^omega must be finite, got nan$"),
        (0.9, 2, -math.inf, r"^omega must be finite, got -inf$")],
        ids=["nleap-0", "nleap-negative", "step-0", "step-negative", "step-nan", "step-inf",
             "omega-nan", "omega-minus-inf"])
    def test_bad_leapfrog_settings_refused_before_the_kernel(
            self, step, nleap, omega, match, monkeypatch):
        # nleap 0 or -2 and step 0.0 or NaN returned chains that never moved
        def too_late(*args):
            raise AssertionError("loaded the kernel or drew before the refusal")

        monkeypatch.setattr(_native, "entry", too_late)
        monkeypatch.setattr(samplers, "replicate_rng", too_late)
        with pytest.raises(ValueError, match=match):
            samplers.run_ghmc_chains(self.H, step, nleap, omega, [AcceptanceRule.metropolis()],
                                     100, 2, 0, self.OBS)

    @pytest.mark.parametrize("arg, value, match", [
        ("nleap", 2.5, r"^nleap must be an integer >= 1, got 2\.5$"),
        ("nleap", True, r"^nleap must be an integer >= 1, got True$"),
        ("n_steps", 20.5, r"^n_steps must be an integer >= 0, got 20\.5$"),
        ("burn_in", 1.5, r"^burn_in must be an integer >= 0, got 1\.5$"),
        ("seed", 0.5, r"^seed must be an integer >= 0, got 0\.5$"),
        ("seed", -1, r"^seed must be an integer >= 0, got -1$"),
        ("seed", 2 ** 64, r"^seed must be an integer below 2\*\*64, got 18446744073709551616$"),
        ("replicates", 2.0, r"^replicates must be an integer >= 1, got 2\.0$")],
        ids=["nleap-float", "nleap-bool", "n_steps-float", "burn_in-float", "seed-float",
             "seed-negative", "seed-2-to-the-64", "replicates-float"])
    def test_non_integer_counts_refused_before_the_kernel(self, arg, value, match,
                                                          monkeypatch):
        # a float nleap failed in ctypes after every stream was made, with an
        # unnamed "argument 6: TypeError", and nleap=True ran one leap
        def too_late(*args):
            raise AssertionError("loaded the kernel or drew before the refusal")

        monkeypatch.setattr(_native, "entry", too_late)
        monkeypatch.setattr(samplers, "replicate_rng", too_late)
        kwargs = {"nleap": 2, "n_steps": 20, "burn_in": 0, "seed": 0, "replicates": 2,
                  arg: value}
        with pytest.raises(ValueError, match=match):
            samplers.run_ghmc_chains(self.H, 0.9, omega=math.pi / 4,
                                     rules=[AcceptanceRule.metropolis()],
                                     observables=self.OBS, **kwargs)

    def test_numpy_integer_counts_run_as_their_ints(self):
        # seed << 64 wrapped to 0 on a numpy integer, so seed np.int64(4)
        # ran seed 0's streams
        def run(nleap, n_steps, replicates, seed, burn_in):
            return samplers.run_ghmc_chains(self.H, 0.9, nleap, math.pi / 4,
                                            [AcceptanceRule.metropolis()], n_steps,
                                            replicates, seed, self.OBS, burn_in=burn_in)

        want = run(2, 300, 3, 4, 5)
        got = run(*map(np.int64, (2, 300, 3, 4, 5)))
        seed_0 = run(2, 300, 3, 0, 5)
        for a, b, c in zip(want, got, seed_0):
            assert np.array_equal(a, b)
            assert not np.array_equal(a, c)

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
        # Barker listed first has the larger variance, so the ordering fails
        # and the report carries the worst excess, not 0 or 1
        report = self.compare(rules=[AcceptanceRule.barker(), AcceptanceRule.metropolis()],
                              lambdas=(0.5, 0.9))
        est = {(row.rule, row.lam): (row.estimate, row.se) for row in report.rows}
        excess = max(samplers.ordered_within_se(*est["barker", lam], *est[rule, lam])
                     for rule in ("barker", "metropolis") for lam in (0.5, 0.9))
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

    def test_compare_names_a_float_n_steps(self, monkeypatch):
        # its burn-in n_steps // 10 is a float too, and was the one reported
        def too_late(*args):
            raise AssertionError("loaded the kernel or drew before the refusal")

        monkeypatch.setattr(_native, "entry", too_late)
        monkeypatch.setattr(samplers, "replicate_rng", too_late)
        with pytest.raises(ValueError, match=r"^n_steps must be an integer >= 0, got 4000\.5$"):
            samplers.compare_acceptance_rules(
                self.H, omega=math.pi / 4, step=0.9, nleap=2,
                rules=[AcceptanceRule.metropolis(), AcceptanceRule.barker()],
                lambdas=[0.5], observables={"x2": lambda x: x[:, 0] ** 2},
                n_steps=4000.5, replicates=8, seed=1)

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

    MET, BAR = AcceptanceRule.metropolis(), AcceptanceRule.barker()
    RULES2 = [MET, BAR]
    RULES3 = [BAR, MET, BAR]  # Barker's rows first, and a rule run twice
    # (potential, rules, step, nleap); at step 2.5 with 200 leaps sigma 0.1's
    # energies overflow to inf and NaN, and a Gaussian target never accepts
    # those; at step 2.5 the unit Gaussian's flow is unstable and most
    # proposals reject
    CONFIGS = {
        "d1-2rules-step0.9": (zz_gaussian([1.0]), RULES2, 0.9, 2),
        "d2-2rules-step1.7": (zz_gaussian([0.8, 1.3]), RULES2, 1.7, 3),
        "d1-2rules-nonfinite": (zz_gaussian([0.1]), RULES2, 2.5, 200),
        "d1-3rules-step2.5": (zz_gaussian([1.0]), RULES3, 2.5, 2),
        "d2-3rules-step0.4": (zz_gaussian([0.3, 2.0]), RULES3, 0.4, 9),
        "d1-barker-step1.2": (zz_gaussian([2.5]), [BAR], 1.2, 4),
        "d2-metropolis-nonfinite": (zz_gaussian([0.1, 1.0]), [MET], 2.5, 200),
    }
    OBS = [lambda x: x[:, 0] ** 2, lambda x: np.abs(x[:, -1]),
           lambda x: np.add.reduce(x * x, axis=-1)]

    LAYOUTS = [(burn, across) for burn in ("0", "1", "block-1", "block+3")
               for across in (False, True)]
    # every config on every layout of 137-step blocks, and three configs on
    # the layouts of the real block length
    CASES = ([(config, 137, *layout) for config, layout in itertools.product(CONFIGS, LAYOUTS)]
             + [(config, samplers._BLOCK, *layout) for config, layout in itertools.product(
                 ("d2-2rules-step1.7", "d1-2rules-step0.9", "d1-3rules-step2.5"), LAYOUTS)])

    @pytest.mark.parametrize("config, block, burn, across", CASES, ids=[
        f"{c}-block{b}-burn{burn}-{'across' if a else 'within'}" for c, b, burn, a in CASES])
    def test_chains_bit_identical(self, monkeypatch, config, block, burn, across):
        H, rules, step, nleap = self.CONFIGS[config]
        burn_in = {"0": 0, "1": 1, "block-1": block - 1, "block+3": block + 3}[burn]
        # recording ends inside the block it starts in, or in the next one
        n_steps = block - burn_in % block + 40 if across else 40
        monkeypatch.setattr(samplers, "_BLOCK", block)
        args = (H, step, nleap, math.pi / 4, rules, n_steps, 3, 17, self.OBS)
        got = samplers.run_ghmc_chains(*args, burn_in=burn_in)
        want = run_ghmc_chains_reference(*args, burn_in=burn_in)
        for g, w in zip(got, want, strict=True):
            assert g.shape == (3 * len(rules), n_steps)
            assert np.array_equal(g, w)


class TestGhmcKernel:
    """The C kernel, _ghmc.c's ghmc_run, against the numpy GHMC driver and
    transition of tests/oracles.py: the same chains for drawn targets and
    settings, the same decisions at the accept boundary and on non-finite
    energies, no floating-point state left behind, and a refusal, before any
    draw, of every target and rule the kernel does not serve."""

    MET, BAR = AcceptanceRule.metropolis(), AcceptanceRule.barker()
    OBS = [lambda x: x[:, 0], lambda x: x[:, -1] ** 2]

    @classmethod
    def chains(cls, H, rules, step, nleap, omega, seed, driver=samplers.run_ghmc_chains):
        return driver(H, step, nleap, omega, rules, 60, 3, seed, cls.OBS, burn_in=7)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(sigmas=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=2),
           rules=st.sampled_from(["M", "B", "MB", "BM"]),
           step=st.floats(0.01, 3.0), nleap=st.integers(1, 30),
           omega=st.floats(0.0, math.pi), seed=st.integers(0, 2 ** 32))
    def test_chains_match_the_numpy_driver(self, sigmas, rules, step, nleap, omega, seed):
        H = zz_gaussian(sigmas)
        rules = [{"M": self.MET, "B": self.BAR}[c] for c in rules]
        got = self.chains(H, rules, step, nleap, omega, seed)
        want = self.chains(H, rules, step, nleap, omega, seed, run_ghmc_chains_reference)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)

    @staticmethod
    def both(H, rules, step, nleap, x, v, unif, Ux=None):
        """One c_step from x, v (and Ux = U(x) unless given) checked
        bit-equal to ghmc_update_reference, with the kick it returns the
        half-kick at the x it returns; returns the c_step."""
        Ux = np.asarray(H.U(x)) if Ux is None else Ux
        got = c_step(H, rules, step, nleap, x, Ux, 0.5 * step * np.asarray(H.grad(x)), v, unif)
        with np.errstate(over="ignore", invalid="ignore"):
            # c_step's refresh v * 1.0 + 0.0 turns -0.0 into +0.0
            want = ghmc_update_reference(H, x, Ux, v * 1.0 + 0.0,
                                         np.tile(np.asarray(unif, dtype=float), len(rules)),
                                         step, nleap, rules)
            kick = 0.5 * step * np.asarray(H.grad(got[0]))
        x1, U1, k1, v1, xs = got
        for g, w in ((x1, want[0]), (U1, want[1]), (v1, want[2]), (xs[0], x1), (k1, kick)):
            assert np.array_equal(g, w)
        return got

    @pytest.mark.parametrize("rule", ["metropolis", "barker"])
    def test_accepts_exactly_when_u_is_below_phi(self, rule):
        # u = phi(exp(de)) rejects and the double below it accepts, row by
        # row: one ulp of exp, from a libm exp say, moves some decisions
        rule = {"metropolis": self.MET, "barker": self.BAR}[rule]
        H, step, nleap = zz_gaussian([1.0, 0.6]), 0.7, 3
        rng = np.random.default_rng(5)
        x, v = rng.normal(0.0, 1.5, (400, 2)), rng.normal(0.0, 1.0, (400, 2))
        Ux = np.asarray(H.U(x))
        xn, vn = leapfrog_reference(H, x, v, step, nleap)
        de = _energy(Ux, v) - _energy(np.asarray(H.U(xn)), vn)
        a = rule.phi(np.exp(de))
        assert 0.0 < a.min() and np.mean(a < 1.0) > 0.3
        two = np.concatenate
        _, _, _, v1, _ = self.both(H, [rule], step, nleap, two((x, x)), two((v, v)),
                                   two((a, np.nextafter(a, -1.0))))
        assert np.array_equal(v1, two((-v, vn)))  # rejected, then accepted

    def test_overflowing_ratio_accepts_and_infinite_energy_rejects(self):
        # from x = 40 (U = 800, v = 0) eight leaps of 1.99 reach energy 8.7:
        # exp(de) overflows to inf for a finite de, and phi(inf) = 1 accepts;
        # a current energy of inf gives de = +inf, which rejects
        H, step, nleap = zz_gaussian([1.0]), 1.99, 8
        x, v = np.full((2, 1), 40.0), np.zeros((2, 1))
        xn, vn = leapfrog_reference(H, x, v, step, nleap)
        de = energy(H, x, v) - energy(H, xn, vn)
        assert np.all((709.8 < de) & (de < math.inf))
        for Ux, accepted in ((np.asarray(H.U(x)), True), (np.full(2, np.inf), False)):
            # two rules on one replicate: both rows read its uniform
            x1, _, _, v1, _ = self.both(H, [self.MET, self.BAR], step, nleap, x, v,
                                        [0.999], Ux=Ux)
            assert np.array_equal(x1, xn if accepted else x)
            assert np.array_equal(v1, vn if accepted else -v)

    def test_every_rule_reads_each_replicates_draws(self):
        # one call of four steps, 3 replicates under 2 rules, with distinct
        # scripted noise and uniforms per replicate: the same steps as
        # ghmc_update_reference on the draws tiled over the rules
        H, rules, step, nleap, cos = zz_gaussian([0.8, 1.3]), [self.MET, self.BAR], 1.1, 3, 0.6
        R, k, b = 3, 2, 4
        rng = np.random.default_rng(8)
        noise = rng.normal(0.0, 0.8, (b, R, 2))
        unif = np.array([[0.05, 0.5, 0.999], [0.3, 0.999, 0.01], [0.999, 0.2, 0.6],
                         [0.7, 0.02, 0.4]])
        x = np.tile(rng.normal(0.0, 1.0, (R, 2)), (k, 1))
        v = np.tile(rng.normal(0.0, 1.0, (R, 2)), (k, 1))
        Ux = np.asarray(H.U(x))
        state = [a.copy() for a in (x, Ux, v, 0.5 * step * np.asarray(H.grad(x)))]
        xs = np.empty((b, k * R, 2))
        assert _native.entry("ghmc_run")(
            np.exp, np.array([0, 1], dtype=np.intc), 1.0 / H.gaussian_sigmas ** 2, cos, step,
            nleap, noise, unif, *state, xs) == 0
        moved = []
        for s in range(b):
            with np.errstate(over="ignore", invalid="ignore"):
                xn, Un, vn = ghmc_update_reference(H, x, Ux, v * cos + np.tile(noise[s], (k, 1)),
                                                   np.tile(unif[s], k), step, nleap, rules)
            moved.append(np.any(xn != x, axis=1))
            x, Ux, v = xn, Un, vn
            assert np.array_equal(xs[s], x)
        for g, w in zip(state, (x, Ux, v, 0.5 * step * np.asarray(H.grad(x)))):
            assert np.array_equal(g, w)
        moved = np.array(moved)
        assert moved.any() and not moved.all()  # some rows accept, others reject
        assert np.any(moved[:, :R] != moved[:, R:])  # and the rules decide apart

    def test_leaves_no_floating_point_state(self):
        # sigma 0.1 at step 2.5 with 200 leaps overflows in every transition
        H, rules, step, nleap = zz_gaussian([0.1]), [self.MET, self.BAR], 2.5, 200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.chains(H, rules, step, nleap, 0.7, 3)
        with np.errstate(all="raise"):
            assert np.add(np.ones(3), 1.0).tolist() == [2.0] * 3
        # the kernel restores the flags it found, here none
        n, d = 4, 1  # two replicates under two rules
        x = np.zeros((n, d))
        args = (np.exp, np.array([0, 1], dtype=np.intc), np.array([100.0]), 0.0, step,
                nleap, np.ones((5, 2, d)), np.full((5, 2), 0.5), x.copy(), np.zeros(n),
                np.ones((n, d)), np.zeros((n, d)), np.empty((5, n, d)))
        libm = ctypes.CDLL(ctypes.util.find_library("m"))
        libm.feclearexcept(-1)
        assert _native.entry("ghmc_run")(*args) == 0
        assert libm.fetestexcept(-1) == 0
        assert np.array_equal(args[8], x)  # every proposal overflowed and was rejected

    def test_missing_exp_loop_raises_before_any_draw(self, monkeypatch):
        def no_streams(*args):
            raise AssertionError("drew before the kernel was ready")

        monkeypatch.setattr(samplers, "replicate_rng", no_streams)
        monkeypatch.setattr(np, "exp", np.isnan)  # a ufunc without a d->d loop
        match = r"np\.exp has no float64 loop \('d->d'\)"
        with pytest.raises(RuntimeError, match=match):
            samplers.run_ghmc_chains(zz_gaussian([1.0]), 0.9, 2, 0.7, [self.MET],
                                     50, 2, 0, self.OBS)
        x = np.zeros((2, 1))
        with pytest.raises(RuntimeError, match=match):
            c_step(zz_gaussian([1.0]), [self.MET], 0.9, 2, x, np.zeros(2), x, x, [0.5, 0.5])

    @pytest.mark.parametrize("case", [
        "d1-metropolis-barker", "d2-barker", "d3", "metropolis-kind-other-phi",
        "phi-eps-0", "phi-eps-0.5", "steep-double-well", "sigmaless-gaussian",
        "tabulated"])
    def test_kernel_only_for_its_targets_and_rules(self, monkeypatch, case):
        # what the kernel does not serve is refused by name before the kernel
        # is loaded or a stream made, so also where the compiler is missing
        xs = np.linspace(-3.0, 3.0, 13)
        H, rules = {
            "d1-metropolis-barker": (zz_gaussian([1.0]), [self.MET, self.BAR]),
            "d2-barker": (zz_gaussian([0.7, 1.3]), [AcceptanceRule.barker()]),
            "d3": (zz_gaussian([0.7, 1.0, 1.6]), [self.MET, self.BAR]),
            "metropolis-kind-other-phi": (
                zz_gaussian([1.0]), [AcceptanceRule("metropolis", lambda r: np.minimum(1.0, r))]),
            "phi-eps-0": (zz_gaussian([1.0]), [self.MET, AcceptanceRule.phi_eps(0.0)]),
            "phi-eps-0.5": (zz_gaussian([1.0]), [AcceptanceRule.phi_eps(0.5)]),
            "steep-double-well": (steep_double_well(), [self.MET, self.BAR]),
            "sigmaless-gaussian": (dataclasses.replace(zz_gaussian([1.0]), gaussian_sigmas=None),
                                   [self.MET, self.BAR]),
            "tabulated": (zz_tabulated(xs, 0.5 * xs ** 2), [self.MET]),
        }[case]
        assert AcceptanceRule.metropolis().phi is self.MET.phi
        if case.startswith(("d1", "d2")):
            chains = samplers.run_ghmc_chains(H, 0.9, 2, 0.7, rules, 30, 2, 0, self.OBS)
            assert chains[0].shape == (2 * len(rules), 30)
            assert np.any(np.diff(chains[0], axis=1) != 0)
            return

        def too_late(*args):
            raise AssertionError("loaded the kernel or drew before the refusal")

        monkeypatch.setattr(_native, "entry", too_late)
        monkeypatch.setattr(samplers, "replicate_rng", too_late)
        with pytest.raises(ValueError, match=(
                r"^run_ghmc_chains serves diagonal-Gaussian targets \(gaussian_sigmas set\) "
                r"in d <= 2 under rules whose phi is the Metropolis or Barker function, "
                rf"got d = {H.d} and rules \[")):
            samplers.run_ghmc_chains(H, 0.9, 2, 0.7, rules, 30, 2, 0, self.OBS)


class TestMisc:
    def test_replicate_streams_are_distinct(self):
        a = replicate_rng(7, 0).standard_normal(5)
        b = replicate_rng(7, 1).standard_normal(5)
        c = replicate_rng(7, 0).standard_normal(5)
        assert not np.allclose(a, b)
        assert np.array_equal(a, c)
        # a numpy integer seed keys the stream of its int, not of seed 0
        assert np.array_equal(replicate_rng(np.int64(7), np.int64(0)).standard_normal(5), a)
        with pytest.raises(TypeError):
            replicate_rng(7.0, 0)

    def test_ordered_within_se(self):
        # a <= b + 2 sqrt(se_a^2 + se_b^2); the violation is the excess
        assert samplers.ordered_within_se(1.0, 0.3, 0.0, 0.4) == 0.0
        assert samplers.ordered_within_se(2.0, 0.3, 0.0, 0.4) == pytest.approx(1.0)
        assert not samplers.ordered_within_se(np.nan, 0.3, 0.0, 0.4) <= 0.0
        assert not samplers.ordered_within_se(1.0, np.nan, 0.0, 0.4) <= 0.0
