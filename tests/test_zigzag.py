import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from nonrev import experiments, zigzag
from nonrev.samplers import replicate_rng
from nonrev.zigzag import (EnvelopeViolation, IntensitySpec, Potential,
                           intensity, simulate_zigzag, zz_gaussian)
from oracles import estimate_var_continuous_centred, zz_tabulated


def sigmaless(pot):
    """The same target without the diagonal-Gaussian mark, so that
    simulate_zigzag draws its clocks by thinning."""
    return dataclasses.replace(pot, gaussian_sigmas=None)


def free_potential():
    """U identically zero: the process never flips."""
    return Potential(U=lambda x: np.zeros(x.shape[:-1]),
                     grad=lambda x: np.zeros_like(x), d=1,
                     hessian_bound=lambda x, v: 0.0)


class TestIntensities:
    POT = zz_gaussian([1.5])

    def specs(self):
        return [IntensitySpec("canonical"),
                IntensitySpec("penalty", eps=0.4),
                IntensitySpec("barker"),
                IntensitySpec("canonical", gamma=0.3),
                IntensitySpec("barker", gamma=0.3)]

    def test_switching_identity(self):
        # lambda_i(x, v) - lambda_i(x, -v) = dU/dx_i v_i for every kind
        for spec in self.specs():
            for xi in (-2.0, -0.3, 0.0, 1.7):
                x = np.array([xi])
                for vi in (1.0, -1.0):
                    v = np.array([vi])
                    diff = (float(intensity(spec, self.POT, 0, x, v))
                            - float(intensity(spec, self.POT, 0, x, -v)))
                    assert diff == pytest.approx(xi / 1.5 ** 2 * vi, abs=1e-12)

    def test_canonical_is_minimal(self):
        spec_c = IntensitySpec("canonical")
        for spec in self.specs()[1:]:
            for xi in (-2.0, 0.0, 0.5, 3.0):
                x, v = np.array([xi]), np.array([1.0])
                assert (float(intensity(spec, self.POT, 0, x, v))
                        >= float(intensity(spec_c, self.POT, 0, x, v)) - 1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 1))
        v = np.ones((50, 1))
        for spec in self.specs():
            assert np.all(intensity(spec, self.POT, 0, x, v) >= 0)

    def test_gamma_adds_to_every_kind(self):
        x = np.array([[-1.0], [0.0], [2.0]])
        v = np.ones((3, 1))
        for kind, eps in (("canonical", 0.0), ("penalty", 0.4), ("barker", 0.0)):
            base = intensity(IntensitySpec(kind, eps=eps), self.POT, 0, x, v)
            plus = intensity(IntensitySpec(kind, eps=eps, gamma=0.3),
                             self.POT, 0, x, v)
            assert np.array_equal(plus, base + 0.3)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            IntensitySpec("smooth")
        with pytest.raises(ValueError):
            IntensitySpec("penalty", eps=0.0)
        for rate in (-1.0, math.nan):
            with pytest.raises(ValueError, match="refresh_rate"):
                IntensitySpec(refresh_rate=rate)
        with pytest.raises(ValueError):
            IntensitySpec(refresh_mode="half")
        for gamma in (-0.5, math.nan):
            with pytest.raises(ValueError, match="gamma"):
                IntensitySpec("canonical", gamma=gamma)

    def test_penalty_sup_bound(self):
        # sup_s |lambda^eps - lambda^0| <= -log(1 - sqrt(e^eps - 1)), eps < log 2
        eps = 0.2
        bound = -math.log1p(-math.sqrt(math.expm1(eps)))
        spec_p = IntensitySpec(kind="penalty", eps=eps)
        spec_c = IntensitySpec(kind="canonical")
        pot = zz_gaussian([1.0])
        for xi in np.linspace(-4, 4, 41):
            x = np.array([xi])
            v = np.array([1.0])
            gap = abs(float(intensity(spec_p, pot, 0, x, v))
                      - float(intensity(spec_c, pot, 0, x, v)))
            assert gap <= bound + 1e-12


class TestExactInversion:
    def test_against_numeric_integral(self):
        # Lambda(t) = int_0^t (a + b s)_+ + gamma ds; the returned time solves
        # Lambda(t) = e
        for a, b, gamma, e in [(0.5, 2.0, 0.0, 1.3), (-1.0, 0.5, 0.0, 0.2),
                               (0.3, 1.0, 0.7, 2.0), (-2.0, 1.5, 0.4, 0.1),
                               (-2.0, 1.5, 0.4, 3.0)]:
            t = zigzag._exact_flip_time(a, b, gamma, e)
            integral = quad(lambda s: max(0.0, a + b * s) + gamma, 0.0, t)[0]
            assert integral == pytest.approx(e, abs=1e-9)

    def test_large_rate_does_not_cancel(self):
        # the root of a t + t^2 / 2 = 1 is 1e-8 to 16 digits at a = 1e8;
        # (-a + sqrt(a^2 + 2e)) / b returned 1.49e-8
        assert zigzag._exact_flip_time(1e8, 1.0, 0.0, 1.0) == pytest.approx(
            1e-8, rel=1e-12)
        assert zigzag._exact_flip_time(1e8, 1.0, 0.5, 1.0) == pytest.approx(
            1.0 / (1e8 + 0.5), rel=1e-12)
        # gamma-remainder branch: t0 = 1, then rate gamma + b (t - t0)
        t = zigzag._exact_flip_time(-1.0, 1.0, 1e8, 1e8 + 1.0)
        assert t - 1.0 == pytest.approx(1e-8, rel=1e-7)

    def test_narrow_target_first_event(self):
        # sigma = 1e-4 from x = 1 moving away: a = b = 1e8, and the first
        # event time solves a t + b t^2 / 2 = e for the first clock e
        pot = zz_gaussian([1e-4])
        traj = simulate_zigzag(pot, IntensitySpec("canonical"), [1.0], [1.0],
                               1.0, np.random.default_rng(4))
        e = np.random.default_rng(4).standard_exponential()
        a = b = 1e8
        t = traj.times[1]
        assert traj.types[0] == "flip(0)"
        assert (a * t + b * t * t / 2 - e) / e == pytest.approx(0.0, abs=1e-14)
        assert t == pytest.approx(e / a, rel=1e-7)


class TestSimulation:
    def test_free_flight_has_no_events(self):
        traj = simulate_zigzag(free_potential(), IntensitySpec("canonical"),
                               [0.5], [1.0], horizon=10.0,
                               rng=np.random.default_rng(0))
        assert traj.n_events == 0
        x, v = traj.state_at([10.0])
        assert x[0, 0] == pytest.approx(10.5)

    def test_gaussian_moments(self):
        pot = zz_gaussian([1.0])
        rng = np.random.default_rng(3)
        traj = simulate_zigzag(pot, IntensitySpec("canonical"),
                               [0.0], [1.0], horizon=20_000.0, rng=rng)
        T = traj.horizon
        moments = [zigzag.trajectory_integral(
            traj, lambda x, v, k=k: x[:, 0] ** k, degree=k) / T
            for k in (1, 2, 3, 4)]
        assert abs(moments[0]) < 0.1
        assert abs(moments[1] - 1.0) < 0.1
        assert abs(moments[2]) < 0.3
        assert abs(moments[3] - 3.0) < 0.4
        # each event lies on the line of the segment before it; float
        # accumulation scales with the time stamps, here up to 2e4
        pred = traj.X[:-1] + np.diff(traj.times)[:, None] * traj.V[:-1]
        assert np.max(np.abs(pred - traj.X[1:])) < 1e-9

    def test_thinning_matches_exact_inversion_in_law(self):
        # first-event times from x = 0.5, v = +1 under the two schedulers
        pot = zz_gaussian([1.0])
        spec = IntensitySpec("canonical")
        rng1 = np.random.default_rng(10)
        rng2 = np.random.default_rng(20)
        n = 3000
        exact = np.array([zigzag._exact_flip_time(0.5, 1.0, 0.0,
                                                  rng1.exponential())
                          for _ in range(n)])
        thinned = np.array([zigzag._thinned_flip_time(
            spec, pot, 0, np.array([0.5]), np.array([1.0]), rng2)
            for _ in range(n)])
        assert ks_2samp(exact, thinned).pvalue > 1e-3

    def test_forced_thinning_agrees_on_moments(self):
        pot = sigmaless(zz_gaussian([1.0]))
        spec = IntensitySpec("canonical")
        traj = simulate_zigzag(pot, spec, [0.0], [1.0], horizon=5000.0,
                               rng=np.random.default_rng(7))
        m2 = zigzag.trajectory_integral(traj, lambda x, v: x[:, 0] ** 2,
                                        degree=2) / traj.horizon
        assert abs(m2 - 1.0) < 0.15

    def test_gamma_is_one_process_exact_and_thinned(self):
        # canonical plus a constant gamma takes the exact path on a marked
        # Gaussian and thins without the mark; both must simulate the same
        # rate (about 2.4 events per unit time here, where thinning once
        # ignored gamma and gave 0.4)
        pot = zz_gaussian([1.0])
        spec = IntensitySpec("canonical", gamma=2.0)
        rates = [simulate_zigzag(target, spec, [0.0], [1.0], 3000.0,
                                 np.random.default_rng(1)).n_events / 3000.0
                 for target in (pot, sigmaless(pot))]
        assert rates[0] > 2.0
        assert rates[1] == pytest.approx(rates[0], rel=0.05)

    def test_envelope_violation_detected(self):
        lying = Potential(U=lambda x: 0.5 * np.sum(x * x, axis=-1),
                          grad=lambda x: x, d=1,
                          hessian_bound=lambda x, v: 0.05)
        with pytest.raises(EnvelopeViolation):
            simulate_zigzag(lying, IntensitySpec("canonical"), [5.0], [1.0],
                            horizon=100.0, rng=np.random.default_rng(0))

    def test_refresh_events_labelled(self):
        pot = zz_gaussian([1.0, 1.0])
        spec = IntensitySpec("canonical", refresh_rate=2.0, refresh_mode="partial")
        traj = simulate_zigzag(pot, spec, [0.0, 0.0], [1.0, -1.0],
                               horizon=200.0, rng=np.random.default_rng(1))
        labels = set(traj.types)
        assert "refresh" in labels
        assert any(lab.startswith("flip(") for lab in labels)

    def test_input_validation(self):
        pot = zz_gaussian([1.0])
        with pytest.raises(ValueError):
            simulate_zigzag(pot, IntensitySpec(), [0.0], [1.0], 0.0,
                            np.random.default_rng(0))
        with pytest.raises(ValueError):
            simulate_zigzag(pot, IntensitySpec(), [0.0], [0.5], 1.0,
                            np.random.default_rng(0))

    @pytest.mark.parametrize("thin", [False, True])
    def test_non_finite_start_rejected_before_any_draw(self, thin):
        pot = zz_gaussian([1.0, 1.0])
        if thin:
            pot = sigmaless(pot)
        for bad in (np.nan, np.inf):
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match="x0 must be finite"):
                simulate_zigzag(pot, IntensitySpec(), [0.0, bad], [1.0, -1.0],
                                1.0, rng)
            assert rng.bit_generator.state == state


def exact_clock(pot, spec, i, x, v, rng, remaining):
    inv2 = 1.0 / pot.gaussian_sigmas[i] ** 2
    return zigzag._exact_flip_time(float(x[i] * v[i] * inv2), float(inv2),
                                   float(spec.gamma), rng.exponential())


def thinned_clock(pot, spec, i, x, v, rng, remaining):
    return zigzag._thinned_flip_time(spec, pot, i, x, v, rng,
                                     horizon=remaining + 1.0)


def reference_loop(pot, spec, x0, v0, horizon, rng, clock):
    """The event loop in its numpy form: array state, and per event one
    clock(...) per coordinate in order, one scalar exponential() for the
    refresh clock, then the refresh draw."""
    d = pot.d
    x = np.array(x0, dtype=float).reshape(d).copy()
    v = np.array(v0, dtype=float).reshape(d).copy()
    times, Xs, Vs, types = [0.0], [x.copy()], [v.copy()], []
    t = 0.0
    while True:
        remaining = horizon - t
        best_dt, best_ev = math.inf, None
        for i in range(d):
            dt_i = clock(pot, spec, i, x, v, rng, remaining)
            if dt_i < best_dt:
                best_dt, best_ev = dt_i, ("flip", i)
        if spec.refresh_rate > 0:
            dt_r = rng.exponential() / spec.refresh_rate
            if dt_r < best_dt:
                best_dt, best_ev = dt_r, ("refresh", None)
        if best_dt >= remaining or best_ev is None:
            break
        t += best_dt
        x += best_dt * v
        kind, i = best_ev
        if kind == "flip":
            v[i] = -v[i]
            label = f"flip({i})"
        else:
            if spec.refresh_mode == "full":
                v = np.where(rng.random(d) < 0.5, -1.0, 1.0)
            else:
                j = int(rng.integers(d))
                v[j] = -v[j]
            label = "refresh"
        times.append(t)
        Xs.append(x.copy())
        Vs.append(v.copy())
        types.append(label)
    return np.array(times), np.array(Xs), np.array(Vs), types


class TestExactLoopMatchesReference:
    G1, G2 = zz_gaussian([1.0]), zz_gaussian([1.0, 1.0])
    PARTIAL = IntensitySpec("canonical", refresh_rate=1.0, refresh_mode="partial")
    FULL = IntensitySpec("canonical", refresh_rate=1.0, refresh_mode="full")
    CASES = {
        "canonical-1d": (G1, IntensitySpec("canonical"), exact_clock),
        "gamma-1d": (G1, IntensitySpec("canonical", gamma=0.5), exact_clock),
        "partial-2d": (G2, PARTIAL, exact_clock),
        "full-2d": (G2, FULL, exact_clock),
        "canonical-3d": (zz_gaussian([0.5, 1.0, 2.0]), IntensitySpec("canonical"),
                         exact_clock),
        "thinned-barker-1d": (G1, IntensitySpec("barker"), thinned_clock),
        "thinned-penalty-1d": (G1, IntensitySpec("penalty", eps=0.5),
                               thinned_clock),
        "thinned-double-well": (zigzag.zz_double_well(),
                                IntensitySpec("canonical"), thinned_clock),
        "thinned-partial-2d": (sigmaless(G2), PARTIAL, thinned_clock),
        "thinned-full-2d": (sigmaless(G2), FULL, thinned_clock),
        "thinned-canonical-3d": (sigmaless(zz_gaussian([0.5, 1.0, 2.0])),
                                 IntensitySpec("canonical"), thinned_clock),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("stream", ["replicate", "default"])
    def test_bit_identical(self, case, stream):
        pot, spec, clock = self.CASES[case]
        d = pot.d
        x0 = np.linspace(-0.8, 1.1, d)
        v0 = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
        make = ((lambda: replicate_rng(31, 2)) if stream == "replicate"
                else (lambda: np.random.default_rng(31)))
        rng, rng_ref = make(), make()
        traj = simulate_zigzag(pot, spec, x0, v0, 300.0, rng)
        times, X, V, types = reference_loop(pot, spec, x0, v0, 300.0, rng_ref,
                                            clock)
        assert traj.n_events > 50
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.X, X)
        assert np.array_equal(traj.V, V)
        assert traj.types == types
        # both loops leave the stream at the same position
        assert rng.random() == rng_ref.random()


def reference_window_integral(traj, f, degree, t_start, t_end):
    """One window's integral, cut and summed on its own."""
    nodes, weights = (zigzag._GL3 if (degree is not None and degree <= 4)
                      else zigzag._GL8)
    cuts = traj.times[(traj.times > t_start) & (traj.times < t_end)]
    edges = np.concatenate(([t_start], cuts, [t_end]))
    a, b = edges[:-1], edges[1:]
    half = (b - a) / 2.0
    mid = (a + b) / 2.0
    total = 0.0
    for z, w in zip(nodes, weights):
        x, v = traj.state_at(mid + z * half)
        total += float(np.dot(w * half, np.asarray(f(x, v), dtype=float)))
    return total


class TestTrajectoryTools:
    @staticmethod
    def short_traj():
        return simulate_zigzag(zz_gaussian([1.0]), IntensitySpec("canonical"),
                               [0.3], [1.0], horizon=50.0,
                               rng=np.random.default_rng(5))

    def test_integral_against_riemann(self):
        traj = self.short_traj()
        f = lambda x, v: np.cos(x[:, 0]) + x[:, 0] ** 2
        ts = (np.arange(500_000) + 0.5) * (traj.horizon / 500_000)
        x, v = traj.state_at(ts)
        riemann = float(np.sum(f(x, v))) * (traj.horizon / ts.size)
        val = zigzag.trajectory_integral(traj, f)
        assert val == pytest.approx(riemann, abs=1e-6)

    def test_integral_exact_for_polynomials(self):
        traj = self.short_traj()
        # quartic integrated segment by segment in closed form
        total = 0.0
        for k in range(traj.times.size - 1):
            a, b = traj.times[k], traj.times[k + 1]
            x0, v0 = traj.X[k, 0], traj.V[k, 0]
            total += quad(lambda s: (x0 + (s - a) * v0) ** 4, a, b)[0]
        x_end, v_end = traj.X[-1, 0], traj.V[-1, 0]
        total += quad(lambda s: (x_end + (s - traj.times[-1]) * v_end) ** 4,
                      traj.times[-1], traj.horizon)[0]
        val = zigzag.trajectory_integral(traj, lambda x, v: x[:, 0] ** 4, degree=4)
        assert val == pytest.approx(total, rel=1e-10)

    def test_state_at_bounds(self):
        traj = self.short_traj()
        with pytest.raises(ValueError):
            traj.state_at([-0.1])
        with pytest.raises(ValueError):
            traj.state_at([traj.horizon + 1.0])

    def test_batch_means_zero_for_constants(self):
        traj = self.short_traj()
        est = zigzag.batch_means_variance(traj, lambda x, v: np.ones(x.shape[0]),
                                          0.0, traj.horizon, degree=0)
        assert abs(est) < 1e-20

    @pytest.mark.parametrize("degree", [1, None])
    def test_batch_means_match_per_window_reference(self, degree):
        traj = self.short_traj()
        f = lambda x, v: np.cos(x[:, 0]) + x[:, 0] * v[:, 0]
        t_start, t_end = 3.7, 47.3

        def reference(edges):
            return np.array([reference_window_integral(traj, f, degree, a, b)
                             for a, b in zip(edges[:-1], edges[1:])])

        # 20 windows, some of which hold no event
        edges = np.linspace(t_start, t_end, 21)
        counts = [np.count_nonzero((traj.times > a) & (traj.times < b))
                  for a, b in zip(edges[:-1], edges[1:])]
        assert 0 in counts and max(counts) > 1
        assert np.array_equal(zigzag._window_integrals(traj, f, degree, edges),
                              reference(edges))
        for window in [(t_start, t_end), (edges[3], edges[4])]:
            assert np.array_equal(zigzag._window_integrals(traj, f, degree, window),
                                  reference(window))
        # batch means over the span use floor(sqrt(43.6)) = 6 batches
        ints = reference(np.linspace(t_start, t_end, 7))
        delta = (t_end - t_start) / 6
        expected = float(delta * (ints / delta).var(ddof=1))
        assert zigzag.batch_means_variance(traj, f, t_start, t_end,
                                           degree) == expected
        assert (zigzag.trajectory_integral(traj, f, degree)
                == reference_window_integral(traj, f, degree, 0.0, traj.horizon))

    def test_batch_means_needs_events(self):
        traj = simulate_zigzag(free_potential(), IntensitySpec(), [0.0], [1.0],
                               horizon=5.0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            zigzag.batch_means_variance(traj, lambda x, v: x[:, 0], 0.0, 5.0)


class TestVarianceEstimation:
    def test_se_shrinks_with_horizon(self):
        pot = zz_gaussian([1.0])
        spec = IntensitySpec("canonical")
        f = lambda x, v: x[:, 0] ** 2
        _, se_short = zigzag.estimate_var_continuous(
            pot, spec, f, horizon=400.0, replicates=12, lam=0.0, seed=2, degree=2)
        _, se_long = zigzag.estimate_var_continuous(
            pot, spec, f, horizon=1600.0, replicates=12, lam=0.0, seed=2, degree=2)
        # quadrupling the horizon should roughly halve the spread
        assert 0.25 < se_long / se_short < 0.95

    # the catalog's targets, observables and rates at short horizons
    CATALOG_TARGETS = {
        "1d-canonical": ([1.0], IntensitySpec("canonical")),
        "1d-plus-gamma": ([1.0], IntensitySpec("canonical", gamma=0.5)),
        "2d-partial": ([1.0, 1.0], IntensitySpec("canonical", refresh_rate=1.0,
                                                 refresh_mode="partial")),
        "2d-full": ([1.0, 1.0], IntensitySpec("canonical", refresh_rate=1.0,
                                              refresh_mode="full")),
    }

    @pytest.mark.parametrize("case", sorted(CATALOG_TARGETS))
    def test_matches_centred_two_pass_oracle(self, case):
        # batch means of f and of f minus its path mean agree, so the
        # one-pass estimator equals the explicitly centred two-pass one
        sigmas, spec = self.CATALOG_TARGETS[case]
        pot = zz_gaussian(sigmas)
        f = lambda x, v: np.sum(x, axis=1)
        est, se = zigzag.estimate_var_continuous(pot, spec, f, 300.0, 3, 0.0,
                                                 909, degree=1)
        ref_est, ref_se = estimate_var_continuous_centred(
            pot, spec, f, 300.0, 3, 909, degree=1)
        assert est == pytest.approx(ref_est, rel=1e-12)
        assert se == pytest.approx(ref_se, rel=1e-12)

    def test_too_few_batches_raises(self):
        # horizon 3 gives floor(sqrt(3)) = 1 batch, whose variance is NaN
        with pytest.raises(ValueError, match="at least 2 batches"):
            zigzag.estimate_var_continuous(zz_gaussian([0.2]), IntensitySpec(),
                                           lambda x, v: x[:, 0], horizon=3.0,
                                           replicates=3, lam=0.0, seed=0)

    def test_validation(self):
        pot = zz_gaussian([1.0])
        f = lambda x, v: x[:, 0]
        with pytest.raises(ValueError):
            zigzag.estimate_var_continuous(pot, IntensitySpec(), f, 100.0,
                                           replicates=1, lam=0.0, seed=0)
        for lam in (-0.5, 0.5, 2.0, math.nan):
            # only the undiscounted variance (lam = 0) is estimated
            with pytest.raises(ValueError, match="lam"):
                zigzag.estimate_var_continuous(pot, IntensitySpec(), f, 100.0,
                                               replicates=4, lam=lam, seed=0)


class TestGeneratorAndQuadrature:
    def test_expectation_mu_gaussian_moments(self):
        pot = zz_gaussian([1.3])
        assert zigzag.expectation_mu(pot, lambda x, v: np.ones(x.shape[0])) \
            == pytest.approx(1.0, abs=1e-12)
        assert zigzag.expectation_mu(pot, lambda x, v: x[:, 0] ** 2) \
            == pytest.approx(1.3 ** 2, abs=1e-10)
        assert zigzag.expectation_mu(pot, lambda x, v: x[:, 0] * v[:, 0]) \
            == pytest.approx(0.0, abs=1e-12)

    def test_generator_integrates_to_zero(self):
        # E_mu[L g] = E_mu[<grad_x g, v> + J g] = 0 for a basis of smooth
        # observables, every intensity kind and both refresh modes; each
        # basis entry is (g, <grad_x g, v>) with the gradient written out
        one_d = [
            (lambda x, v: x[:, 0], lambda x, v: v[:, 0]),
            (lambda x, v: x[:, 0] ** 2, lambda x, v: 2 * x[:, 0] * v[:, 0]),
            (lambda x, v: x[:, 0] * v[:, 0], lambda x, v: np.ones(x.shape[0])),
            (lambda x, v: np.sin(x[:, 0]) * v[:, 0],
             lambda x, v: np.cos(x[:, 0])),
            (lambda x, v: x[:, 0] ** 3 + v[:, 0],
             lambda x, v: 3 * x[:, 0] ** 2 * v[:, 0]),
        ]
        two_d = [
            (lambda x, v: x[:, 0] * v[:, 1], lambda x, v: v[:, 0] * v[:, 1]),
            (lambda x, v: x[:, 0] * x[:, 1] * v[:, 0],
             lambda x, v: x[:, 1] + x[:, 0] * v[:, 0] * v[:, 1]),
        ]
        cases = [(zz_gaussian([1.0]), spec, one_d) for spec in (
            IntensitySpec("canonical"),
            IntensitySpec("penalty", eps=0.3),
            IntensitySpec("barker"),
            IntensitySpec("canonical", gamma=0.4, refresh_rate=1.0),
            IntensitySpec("penalty", eps=0.3, gamma=0.4))]
        cases += [(zz_gaussian([1.0, 0.7]), IntensitySpec(
            "canonical", refresh_rate=1.0, refresh_mode=mode), two_d)
            for mode in ("partial", "full")]
        for pot, spec, basis in cases:
            for g, transport in basis:
                val = zigzag.expectation_mu(
                    pot, lambda x, v: transport(x, v)
                    + zigzag.jump_generator(pot, spec, g, x, v))
                assert abs(val) < 1e-6
        # the jump part alone does not integrate to zero: E[J(x v)] = -E[x^2]
        pot = zz_gaussian([1.0])
        jump = zigzag.expectation_mu(pot, lambda x, v: zigzag.jump_generator(
            pot, IntensitySpec(), one_d[2][0], x, v))
        assert jump == pytest.approx(-1.0, abs=1e-8)

    # the catalog's gaps at its defaults as the full generator, transport
    # term included, gives them (the jump parts alone must agree to 1e-12)
    GAP_1D = 0.9999999999999178
    GAP_BASIS = {3: 0.9999999999999083, 7: 0.9999999999999081,
                 11: 2.9999999999945497, 15: 2.9999999999945492,
                 19: 0.9999999999998164}

    def test_catalog_gaps_match_full_generator(self):
        gamma = experiments.EXPERIMENTS["zigzag-1d-gamma"][1]["gamma"]
        gap = zigzag.dirichlet_gap_quadrature(
            zz_gaussian([1.0]), IntensitySpec("canonical"),
            IntensitySpec("canonical", gamma=gamma), lambda x, v: x[:, 0] * v[:, 0])
        assert gap == pytest.approx(self.GAP_1D, abs=1e-12)
        defaults = experiments.EXPERIMENTS["zigzag-2d-refresh"][1]
        rate, m = defaults["refresh_rate"], defaults["quad_nodes"]
        partial, full = (IntensitySpec("canonical", refresh_rate=rate,
                                       refresh_mode=mode) for mode in ("partial", "full"))
        gaps = [zigzag.dirichlet_gap_quadrature(zz_gaussian([1.0, 1.0]), partial,
                                                full, g, m=m)
                for g in experiments._basis_2d()]
        assert gaps == pytest.approx([self.GAP_BASIS.get(k, 0.0) for k in range(20)],
                                     abs=1e-12)

    def test_gap_zero_for_equal_specs(self):
        pot = zz_gaussian([1.0])
        spec = IntensitySpec("canonical")
        g = lambda x, v: x[:, 0] * v[:, 0]
        assert abs(zigzag.dirichlet_gap_quadrature(pot, spec, spec, g)) < 1e-12

    def test_gap_extra_gamma_closed_form(self):
        # the canonical process dominates the gamma-augmented one; for
        # g = x v the gap is 2 gamma E[x^2]
        pot = zz_gaussian([1.0])
        g = lambda x, v: x[:, 0] * v[:, 0]
        gap = zigzag.dirichlet_gap_quadrature(
            pot, IntensitySpec("canonical"),
            IntensitySpec("canonical", gamma=0.5), g)
        assert gap == pytest.approx(1.0, abs=1e-8)
        # and the reversed orientation is exactly the negation
        rev = zigzag.dirichlet_gap_quadrature(
            pot, IntensitySpec("canonical", gamma=0.5),
            IntensitySpec("canonical"), g)
        assert rev == pytest.approx(-1.0, abs=1e-8)

    def test_dimension_guards(self):
        pot3 = zz_gaussian([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            zigzag.dirichlet_gap_quadrature(pot3, IntensitySpec(),
                                            IntensitySpec(), lambda x, v: x[:, 0])
        pot9 = zz_gaussian(np.ones(9))
        with pytest.raises(ValueError):
            zigzag.expectation_mu(pot9, lambda x, v: np.ones(x.shape[0]))


class TestTabulatedPotential:
    def test_matches_analytic_gaussian(self):
        xs = np.linspace(-6, 6, 401)
        pot_tab = zz_tabulated(xs, 0.5 * xs ** 2)
        pot = zz_gaussian([1.0])
        spec = IntensitySpec("canonical")
        for xi in (-2.0, -0.5, 1.0, 3.0):
            x, v = np.array([xi]), np.array([1.0])
            assert (float(intensity(spec, pot_tab, 0, x, v))
                    == pytest.approx(float(intensity(spec, pot, 0, x, v)),
                                     abs=1e-6))

    def test_simulation_runs_via_thinning(self):
        xs = np.linspace(-6, 6, 401)
        pot_tab = zz_tabulated(xs, 0.5 * xs ** 2)
        traj = simulate_zigzag(pot_tab, IntensitySpec("canonical"), [0.0], [1.0],
                               horizon=500.0, rng=np.random.default_rng(9))
        m2 = zigzag.trajectory_integral(traj, lambda x, v: x[:, 0] ** 2,
                                        degree=2) / traj.horizon
        assert abs(m2 - 1.0) < 0.3
