import collections
import dataclasses
import math
import os
import re
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

import oracles
from nonrev import experiments, zigzag
from nonrev.samplers import replicate_rng
from nonrev.zigzag import (EnvelopeViolation, IntensitySpec, Potential,
                           intensity, simulate_zigzag, zz_gaussian)
from nonrev.finite import PSD_TOL, psd_certificate
from oracles import (dirichlet_gap_reference, estimate_var_continuous_centred,
                     estimate_var_continuous_reference, exact_flip_time_reference,
                     expectation_mu, gap_gram_reference, jump_generator,
                     steep_double_well, thinned_flip_time_reference, zz_tabulated)


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

    @pytest.mark.parametrize("field, kind", [("gamma", "canonical"),
                                             ("refresh_rate", "canonical"),
                                             ("eps", "penalty"), ("eps", "barker")])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_parameters_rejected(self, field, kind, value):
        # an infinite gamma or refresh rate hung simulate_zigzag with ever
        # growing event lists, and so did an infinite penalty eps; a NaN eps
        # simulated no events at all
        with pytest.raises(ValueError, match=field):
            IntensitySpec(kind, **{field: value})

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

    def test_bit_identical_to_the_earlier_form(self):
        # one branch serves a >= 0 at every gamma: a + 0.0 is a, bit for bit
        # (-0.0 + 0.0 = +0.0 only moves a zero that is added to a square
        # root); an equal ZeroDivisionError is a match
        def outcome(fn, *args):
            try:
                return fn(*args).hex()
            except ZeroDivisionError:
                return "ZeroDivisionError"

        rng = np.random.default_rng(14)
        mags = [0.0, 1e-300, 1e8, *rng.exponential(size=4).tolist()]
        avals = mags + [-m for m in mags]
        # b = 1e-30 with e = 1e-300 underflows 2be, so a = 0 divides by zero
        bvals = [1e-30, 1e-8, 1.0, 1e8, *rng.exponential(size=2).tolist()]
        evals = [1e-300, 1e-150, 1e-8, 1.0, 50.0, *rng.exponential(size=3).tolist()]
        seen = set()
        for a in avals:
            for b in bvals:
                for gamma in (0.0, 0.5):
                    for e in evals:
                        got = outcome(zigzag._exact_flip_time, a, b, gamma, e)
                        assert got == outcome(exact_flip_time_reference, a, b, gamma, e)
                        seen.add(got == "ZeroDivisionError")
        assert seen == {False, True}


class TestSimulation:
    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_gaussian_refuses_non_finite_sigmas(self, sigma):
        # a NaN sigma used to give a 0-event trajectory, and an infinite one
        # a ZeroDivisionError in the exact clock
        with pytest.raises(ValueError, match="sigmas must be positive"):
            zz_gaussian([1.0, sigma])

    @pytest.mark.parametrize("sigmas", [[1e-170], [1.0, 1e-160]])
    def test_gaussian_refuses_sigma_whose_inverse_square_overflows(self, sigmas):
        # 1/sigma^2 used to overflow with a RuntimeWarning, and Potential then
        # refused the target as "grad disagrees with finite differences"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"sigma {sigmas[-1]!r} is too small"):
                zz_gaussian(sigmas)

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

    @pytest.mark.parametrize("c", [1e-6, 1e-4])
    def test_envelope_violation_by_a_small_excess(self, c):
        # U = c x^2 / 2 with a ray bound of 0: along the ray the rate grows
        # as 1 + c u past the envelope 1 + 1e-12 u, an excess of about c u,
        # which is above the 1e-9 slack and below 1e-3
        creeping = Potential(U=lambda x: 0.5 * c * np.sum(x * x, axis=-1),
                             grad=lambda x: c * x, d=1,
                             hessian_bound=lambda x, v: 0.0)
        with pytest.raises(EnvelopeViolation, match="exceeds envelope"):
            simulate_zigzag(creeping, IntensitySpec("canonical", gamma=1.0), [0.0],
                            [1.0], horizon=20.0, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("kind", ["canonical", "barker"])
    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    @pytest.mark.parametrize("v0", [1.0, -1.0])
    def test_thinning_refuses_non_finite_gradient(self, kind, bad, v0):
        # at a -inf component with v = +1 both base intensities read 0.0,
        # which is finite: the gradient itself is what the loop tests.  It is
        # bad only at the start x = 0, which the finite-difference probes of
        # Potential, which refuse a NaN gradient, never reach
        broken = Potential(U=lambda x: np.zeros(x.shape[:-1]),
                           grad=lambda x: np.where(x == 0.0, bad, 0.0), d=1,
                           hessian_bound=lambda x, v: 1.0)
        with pytest.raises(RuntimeError, match="non-finite gradient"):
            simulate_zigzag(broken, IntensitySpec(kind), [0.0], [v0],
                            horizon=10.0, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("seed", range(5))
    def test_thinning_refuses_nan_intensity_between_events(self, seed):
        # the gradient is finite at every event, but NaN past |x| = 1.5, where
        # thinning proposals land: a NaN intensity used to read as a rejection,
        # so the path ran out to |x| = 34-50
        def grad(x):
            return np.where(np.abs(x) < 1.5, x, np.nan)

        holed = Potential(U=lambda x: 0.5 * np.sum(x * x, axis=-1), grad=grad, d=1,
                          hessian_bound=lambda x, v: 1.0)
        with pytest.raises(RuntimeError, match="NaN intensity"):
            simulate_zigzag(holed, IntensitySpec("canonical"), [0.0], [1.0],
                            horizon=50.0, rng=np.random.default_rng(seed))

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
    def test_non_finite_horizon_rejected_before_any_draw(self, thin):
        # a NaN horizon never ended the event loop, nor did an infinite one
        pot = zz_gaussian([1.0, 1.0])
        if thin:
            pot = sigmaless(pot)
        for bad in (np.nan, np.inf, -np.inf):
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match="horizon must be finite and positive"):
                simulate_zigzag(pot, IntensitySpec(), [0.0, 0.0], [1.0, -1.0], bad, rng)
            assert rng.bit_generator.state == state

    def test_infinite_horizon_estimate_refused(self):
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            zigzag.estimate_var_continuous(zz_gaussian([1.0]), IntensitySpec(),
                                           lambda x, v: x[:, 0], np.inf, 2, 0.0, 0)

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
    return thinned_flip_time_reference(spec, pot, i, x, v, rng,
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
        # x0 = -0.0: the loop's slope is -0.0 where x + 0 v reads +0.0
        "thinned-canonical-1d-negzero": (sigmaless(G1), IntensitySpec("canonical"),
                                         thinned_clock, [-0.0]),
        "thinned-barker-1d-negzero": (G1, IntensitySpec("barker"), thinned_clock,
                                      [-0.0]),
        "thinned-penalty-1d-negzero": (G1, IntensitySpec("penalty", eps=0.5),
                                       thinned_clock, [-0.0]),
    }

    def assert_same_run(self, case, horizon, make, min_events):
        pot, spec, clock, *start = self.CASES[case]
        d = pot.d
        x0 = start[0] if start else np.linspace(-0.8, 1.1, d)
        v0 = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
        rng, rng_ref = make(), make()
        traj = simulate_zigzag(pot, spec, x0, v0, horizon, rng)
        times, X, V, types = reference_loop(pot, spec, x0, v0, horizon, rng_ref,
                                            clock)
        assert traj.n_events >= min_events
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.X, X)
        assert np.array_equal(traj.V, V)
        assert traj.types == types
        # both loops leave the stream in the same state
        assert stream_state(rng) == stream_state(rng_ref)
        return traj

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("stream", ["replicate", "default"])
    def test_bit_identical(self, case, stream):
        make = ((lambda: replicate_rng(31, 2)) if stream == "replicate"
                else (lambda: np.random.default_rng(31)))
        self.assert_same_run(case, 300.0, make, 51)

    @pytest.mark.parametrize("block", [1, 3, None])
    @pytest.mark.parametrize("case", ["canonical-1d", "gamma-1d", "canonical-3d",
                                      "partial-2d", "full-2d"])
    def test_block_boundaries(self, block, case, monkeypatch):
        # without a refresh clock the exact clocks of _EVENT_BLOCK events are
        # drawn at once and the unused ones given back on return; the refresh
        # cases draw per event whatever the block length
        if block is not None:
            monkeypatch.setattr(zigzag, "_EVENT_BLOCK", block)
        size = zigzag._EVENT_BLOCK
        blocks_used = set()
        for seed, horizon in enumerate([0.05, 0.5, 3.0, 4000.0]):
            traj = self.assert_same_run(case, horizon,
                                        lambda: replicate_rng(37, seed), 0)
            blocks_used.add(min(traj.n_events // size, 2))
        # some run ends inside the first block and some after several
        assert {0, 2} <= blocks_used

    @pytest.mark.parametrize("pot", [zigzag.zz_double_well(),
                                     sigmaless(zz_gaussian([0.7, 1.3]))],
                             ids=["double-well", "sigmaless-gaussian-2d"])
    def test_one_gradient_per_event_position(self, pot):
        # the loop's finiteness gradient also gives each coordinate's first
        # window base: a point the loop stands at is evaluated once, plus
        # once more by the accepted proposal for a flip into it (a gradient
        # call per first-window base would add d more)
        rows = []

        def grad(x):
            rows.extend(map(tuple, np.reshape(x, (-1, pot.d)).tolist()))
            return pot.grad(x)

        counting = dataclasses.replace(pot, grad=grad)
        traj = simulate_zigzag(counting, IntensitySpec("canonical"),
                               np.full(pot.d, 0.3), np.ones(pot.d), 200.0,
                               np.random.default_rng(5))
        seen = collections.Counter(rows)
        flipped_in = [False] + [lab.startswith("flip") for lab in traj.types]
        assert traj.n_events > 50
        assert [seen[tuple(x)] for x in traj.X.tolist()] == [1 + f for f in flipped_in]


class LoggedStream:
    """A Generator whose draws are logged: 'e' per exponential(), 'r' per
    random(), and '|' each time its state is restored.  It stands in for
    its own bit_generator, so the clock's state reads and writes reach the
    state property below."""

    def __init__(self, rng):
        self.rng, self.log = rng, []
        self.bit_generator = self

    @property
    def state(self):
        return self.rng.bit_generator.state

    @state.setter
    def state(self, value):
        self.log.append("|")
        self.rng.bit_generator.state = value

    def exponential(self):
        self.log.append("e")
        return self.rng.exponential()

    def random(self):
        self.log.append("r")
        return self.rng.random()


def stream_state(rng):
    """The generator's state with arrays as lists, so that == compares it."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(w) for k, w in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(rng.bit_generator.state)


def clock_outcome(clock, spec, pot, i, x, v, rng, horizon):
    """The returned flip time, or the EnvelopeViolation message."""
    try:
        return clock(spec, pot, i, x, v, rng, horizon)
    except EnvelopeViolation as err:
        return str(err)


def steep_well_with_bound():
    # |U''| = |120 x^2 - 80| <= 120 m^2 + 80 on a unit ray from x, m the
    # larger end |x| or |x + v|
    return dataclasses.replace(steep_double_well(), hessian_bound=lambda x, v: (
        120.0 * max(abs(float(x[0])), abs(float(x[0] + v[0]))) ** 2 + 80.0))


class TestBlockedThinningClock:
    """_thinned_flip_time evaluates its proposals in blocks and replays the
    stream when a block drew past the accepted proposal; it must return what
    the scalar reference returns and leave the stream where it leaves it."""

    POTENTIALS = {
        "double-well": (zigzag.zz_double_well, 2.0),
        "steep-double-well": (steep_well_with_bound, 2.5),
        "tabulated": (lambda: zz_tabulated(np.linspace(-6, 6, 401),
                                           0.5 * np.linspace(-6, 6, 401) ** 2), 3.0),
        "sigmaless-gaussian-2d": (lambda: sigmaless(zz_gaussian([0.7, 1.3])), 3.0),
    }
    SPECS = [IntensitySpec("canonical"), IntensitySpec("barker"),
             IntensitySpec("penalty", eps=0.1), IntensitySpec("penalty", eps=1.0),
             IntensitySpec("canonical", gamma=0.5)]

    @staticmethod
    def starts(pot, reach, n):
        """n (coordinate, x, v, horizon) draws with x in [-reach, reach];
        the horizons cycle through 1 and 3 unit windows and none."""
        gen = np.random.default_rng(17)
        for k in range(n):
            yield (k % pot.d, gen.uniform(-reach, reach, pot.d),
                   np.where(gen.random(pot.d) < 0.5, -1.0, 1.0),
                   (1.0, 3.0, math.inf)[k % 3])

    def test_same_times_and_stream_as_scalar_loop(self):
        # the unit-scale targets rarely fill a block; the wells cover the
        # block-end and mid-block cases, so coverage is counted over all
        seen = {"capped-inf": 0, "accept-on-block-end": 0,
                "replay-after-window-end": 0, "replay-mid-block": 0}
        for name, (make, reach) in self.POTENTIALS.items():
            pot = make()
            for j, spec in enumerate(self.SPECS):
                rng, rng_ref = replicate_rng(41, j), replicate_rng(41, j)
                for i, x, v, horizon in self.starts(pot, reach, 120):
                    stream, ref = LoggedStream(rng), LoggedStream(rng_ref)
                    t = zigzag._thinned_flip_time(spec, pot, i, x, v, stream, horizon)
                    t_ref = thinned_flip_time_reference(spec, pot, i, x, v, ref,
                                                        horizon)
                    case = (name, spec, i, x, v, horizon)
                    assert t == t_ref, case
                    assert stream_state(rng) == stream_state(rng_ref), case
                    log = "".join(stream.log)
                    # the reference's proposals in its last window, the
                    # accepted one last; an 'e' without its 'r' ends a window
                    tokens = ["e"] + re.findall("er|e", "".join(ref.log))
                    accepted = len(tokens) - 1 - max(
                        k for k, tok in enumerate(tokens) if tok == "e")
                    if t == math.inf:
                        seen["capped-inf"] += horizon < math.inf
                    else:
                        seen["accept-on-block-end"] += (
                            accepted % zigzag._BLOCK == 0 and "|" not in log)
                    seen["replay-after-window-end"] += "e|" in log
                    seen["replay-mid-block"] += "r|" in log
        assert min(seen.values()) > 0, seen

    def test_envelope_violation_message(self):
        # a ray bound a third too small: each call, from a fresh stream, must
        # return the same time or raise with the same message as the scalar loop
        pot = zigzag.zz_double_well()
        lying = dataclasses.replace(pot, hessian_bound=lambda x, v: pot.hessian_bound(x, v) / 3)
        violations = 0
        for j, spec in enumerate(self.SPECS):
            for k, (i, x, v, horizon) in enumerate(self.starts(lying, 2.0, 60)):
                out, ref = (clock_outcome(clock, spec, lying, i, x, v,
                                          replicate_rng(43 + j, k), horizon)
                            for clock in (zigzag._thinned_flip_time,
                                          thinned_flip_time_reference))
                assert out == ref
                violations += isinstance(ref, str)
        assert violations > 0


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


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def record_forks(monkeypatch) -> list:
    """Patch os.fork to list, in this process, the pid of each child."""
    forks, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


class TestLockstepReplicates:
    """estimate_var_continuous advances its replicates in lockstep and pools
    their thinning intensities, in one process or in forked shares; it must
    return what one replicate after another returns, bit for bit."""

    DW = zigzag.zz_double_well()
    G2 = zz_gaussian([0.7, 1.3])
    CASES = {
        "exact-1d-gamma": (zz_gaussian([1.0]), IntensitySpec("canonical", gamma=0.5),
                           200.0),
        "exact-2d-partial": (G2, IntensitySpec("canonical", refresh_rate=1.0,
                                               refresh_mode="partial"), 100.0),
        "exact-2d-full": (G2, IntensitySpec("canonical", refresh_rate=1.0,
                                            refresh_mode="full"), 100.0),
        "thinned-canonical": (DW, IntensitySpec("canonical"), 50.0),
        "thinned-barker": (DW, IntensitySpec("barker"), 50.0),
        "thinned-penalty": (DW, IntensitySpec("penalty", eps=1.0), 50.0),
        "thinned-2d-partial": (sigmaless(G2), IntensitySpec(
            "barker", refresh_rate=1.0, refresh_mode="partial"), 30.0),
        "thinned-2d-full": (sigmaless(G2), IntensitySpec(
            "canonical", refresh_rate=1.0, refresh_mode="full"), 30.0),
    }

    @staticmethod
    def f(x, v):
        return x[:, 0] + 0.5 * x[:, -1] ** 2

    @pytest.mark.parametrize("replicates", [2, 3, 16])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_identical_to_sequential_replicates(self, case, replicates):
        pot, spec, horizon = self.CASES[case]
        args = (pot, spec, self.f, horizon, replicates, 0.0, 61)
        assert (zigzag.estimate_var_continuous(*args, degree=2)
                == estimate_var_continuous_reference(*args, degree=2))

    def test_one_intensity_call_per_round(self, monkeypatch):
        # at d = 1 each round serves every unfinished replicate's request in
        # one call, so the calls are the longest replicate's request count,
        # and the rows are those the replicates evaluate one at a time
        rows = []

        def counting(spec, pot, i, x, v):
            rows.append(len(x))  # the driver always passes stacked rows
            return intensity(spec, pot, i, x, v)

        per_replicate = []

        def mark(*args):
            per_replicate.append(len(rows) - sum(per_replicate))
            return zigzag.batch_means_variance(*args)

        monkeypatch.setattr(zigzag, "intensity", counting)
        monkeypatch.setattr(oracles, "batch_means_variance", mark)
        monkeypatch.setattr(zigzag, "_cpus", lambda: 1)  # one share: all calls here
        args = (self.DW, IntensitySpec("penalty", eps=1.0), self.f, 50.0, 16, 0.0, 62)
        ref = estimate_var_continuous_reference(*args)
        solo_rows, rows[:] = sum(rows), []
        assert zigzag.estimate_var_continuous(*args) == ref
        assert len(per_replicate) == 16 and min(per_replicate) > 10
        assert len(rows) == max(per_replicate)
        assert sum(rows) == solo_rows

    @pytest.mark.parametrize("cpus", [2, 4])
    @pytest.mark.parametrize("replicates", [4, 16])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_forked_shares_bit_identical(self, case, replicates, cpus, monkeypatch):
        # each share runs in its own process; the estimate keeps its bits
        pot, spec, horizon = self.CASES[case]
        args = (pot, spec, self.f, horizon, replicates, 0.0, 61)
        monkeypatch.setattr(zigzag, "_cpus", lambda: cpus)
        assert (zigzag.estimate_var_continuous(*args, degree=2)
                == estimate_var_continuous_reference(*args, degree=2))
        assert_no_children()

    @pytest.mark.parametrize("replicates, shares", [(2, 1), (3, 1), (4, 2), (7, 3),
                                                    (8, 4), (16, 4)])
    def test_two_replicates_per_share(self, replicates, shares, monkeypatch):
        # min(CPUs, replicates // 2) shares, contiguous and in order
        seen, real = [], zigzag._in_shares
        monkeypatch.setattr(zigzag, "_cpus", lambda: 4)
        monkeypatch.setattr(zigzag, "_in_shares", lambda run, items, n: seen.extend(
            real(lambda share: [list(share)], items, n)) or real(run, items, n))
        zigzag.estimate_var_continuous(zz_gaussian([1.0]), IntensitySpec(), self.f,
                                       20.0, replicates, 0.0, 65)
        assert len(seen) == shares and min(map(len, seen)) >= 2
        assert [r for part in seen for r in part] == list(range(replicates))

    def test_one_share_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert zigzag._cpus() == 1

    @pytest.mark.parametrize("error", [EnvelopeViolation, RuntimeError])
    def test_child_error_raised_with_its_type_and_message(self, error, monkeypatch):
        parent = os.getpid()

        def f(x, v):
            if os.getpid() != parent:
                raise error(f"raised in child {os.getpid()}")
            return x[:, 0]

        forks = record_forks(monkeypatch)
        monkeypatch.setattr(zigzag, "_cpus", lambda: 4)
        with pytest.raises(error, match=r"^raised in child (\d+)$") as err:
            zigzag.estimate_var_continuous(zz_gaussian([1.0]), IntensitySpec(), f,
                                           20.0, 8, 0.0, 66)
        # three children raised; the lowest share's error comes first
        assert type(err.value) is error
        assert len(forks) == 3 and str(err.value) == f"raised in child {forks[0]}"
        assert_no_children()

    def test_parent_error_comes_first_and_kills_children(self, monkeypatch):
        parent = os.getpid()

        def f(x, v):
            if os.getpid() == parent:
                raise RuntimeError("raised in the parent")
            time.sleep(60)  # a child still running when the parent raises

        monkeypatch.setattr(zigzag, "_cpus", lambda: 2)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="raised in the parent"):
            zigzag.estimate_var_continuous(zz_gaussian([1.0]), IntensitySpec(), f,
                                           20.0, 4, 0.0, 67)
        assert time.monotonic() - t0 < 30
        assert_no_children()

    def test_child_that_dies_without_a_result(self, monkeypatch):
        parent = os.getpid()

        def f(x, v):
            if os.getpid() != parent:
                os._exit(7)
            return x[:, 0]

        monkeypatch.setattr(zigzag, "_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match=r"share 1 ended without a result "
                                               r"\(exit status 7\)"):
            zigzag.estimate_var_continuous(zz_gaussian([1.0]), IntensitySpec(), f,
                                           20.0, 4, 0.0, 68)
        assert_no_children()

    def test_envelope_violation_raises_through_estimator(self):
        lying = dataclasses.replace(self.DW, hessian_bound=lambda x, v: 0.05)
        with pytest.raises(EnvelopeViolation):
            zigzag.estimate_var_continuous(lying, IntensitySpec("barker"), self.f,
                                           50.0, 4, 0.0, 63)

    @pytest.mark.parametrize("where, match", [
        # NaN at the start x = 0, where every replicate's first event stands
        (lambda x: x == 0.0, "non-finite gradient"),
        # finite at x = 0, NaN where proposals past |x| = 1.5 land
        (lambda x: np.abs(x) >= 1.5, "NaN intensity")], ids=["at-event", "at-proposal"])
    def test_nan_gradient_raises_through_estimator(self, where, match):
        holed = Potential(U=lambda x: 0.5 * np.sum(x * x, axis=-1),
                          grad=lambda x: np.where(where(x), np.nan, x), d=1,
                          hessian_bound=lambda x, v: 1.0)
        with pytest.raises(RuntimeError, match=match):
            zigzag.estimate_var_continuous(holed, IntensitySpec("canonical"), self.f,
                                           50.0, 4, 0.0, 64)


class TestGeneratorAndQuadrature:
    def test_expectation_mu_gaussian_moments(self):
        pot = zz_gaussian([1.3])
        assert expectation_mu(pot, lambda x, v: np.ones(x.shape[0])) \
            == pytest.approx(1.0, abs=1e-12)
        assert expectation_mu(pot, lambda x, v: x[:, 0] ** 2) \
            == pytest.approx(1.3 ** 2, abs=1e-10)
        assert expectation_mu(pot, lambda x, v: x[:, 0] * v[:, 0]) \
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
                val = expectation_mu(
                    pot, lambda x, v: transport(x, v)
                    + jump_generator(pot, spec, g, x, v))
                assert abs(val) < 1e-6
        # the jump part alone does not integrate to zero: E[J(x v)] = -E[x^2]
        pot = zz_gaussian([1.0])
        jump = expectation_mu(pot, lambda x, v: jump_generator(
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
            IntensitySpec("canonical", gamma=gamma), [lambda x, v: x[:, 0] * v[:, 0]])
        assert gap[0, 0] == pytest.approx(self.GAP_1D, abs=1e-12)
        defaults = experiments.EXPERIMENTS["zigzag-2d-refresh"][1]
        rate, m = defaults["refresh_rate"], defaults["quad_nodes"]
        partial, full = (IntensitySpec("canonical", refresh_rate=rate,
                                       refresh_mode=mode) for mode in ("partial", "full"))
        gram = zigzag.dirichlet_gap_quadrature(zz_gaussian([1.0, 1.0]), partial,
                                               full, experiments._basis_2d(), m=m)
        assert np.diag(gram) == pytest.approx(
            [self.GAP_BASIS.get(k, 0.0) for k in range(20)], abs=1e-12)

    def test_gap_zero_for_equal_specs(self):
        pot = zz_gaussian([1.0])
        spec = IntensitySpec("canonical")
        g = lambda x, v: x[:, 0] * v[:, 0]
        assert abs(zigzag.dirichlet_gap_quadrature(pot, spec, spec, [g])[0, 0]) < 1e-12

    def test_gap_extra_gamma_closed_form(self):
        # the canonical process dominates the gamma-augmented one; for
        # g = x v the gap is 2 gamma E[x^2]
        pot = zz_gaussian([1.0])
        g = lambda x, v: x[:, 0] * v[:, 0]
        gap = zigzag.dirichlet_gap_quadrature(
            pot, IntensitySpec("canonical"),
            IntensitySpec("canonical", gamma=0.5), [g])
        assert gap[0, 0] == pytest.approx(1.0, abs=1e-8)
        # and the reversed orientation is exactly the negation
        rev = zigzag.dirichlet_gap_quadrature(
            pot, IntensitySpec("canonical", gamma=0.5),
            IntensitySpec("canonical"), [g])
        assert rev[0, 0] == pytest.approx(-1.0, abs=1e-8)

    def test_dimension_guards(self):
        # the nodes exist only for diagonal Gaussians in d <= 2
        for pot in (zz_gaussian([1.0, 1.0, 1.0]), zigzag.zz_double_well()):
            with pytest.raises(ValueError, match="diagonal Gaussian"):
                zigzag.dirichlet_gap_quadrature(pot, IntensitySpec(), IntensitySpec(),
                                                [lambda x, v: x[:, 0]])

    @pytest.mark.parametrize("rate", [0.3, 1.0, 3.0])
    def test_gram_diagonal_is_the_per_function_gap(self, rate):
        # bit for bit, at the catalog's 24 nodes; the symmetric part is PSD
        # on the basis span, and clearly not with the processes swapped
        pot = zz_gaussian([1.0, 1.0])
        partial, full = (IntensitySpec("canonical", refresh_rate=rate, refresh_mode=mode)
                         for mode in ("partial", "full"))
        basis = experiments._basis_2d()
        gram = zigzag.dirichlet_gap_quadrature(pot, partial, full, basis, m=24)
        assert [float(gap).hex() for gap in np.diag(gram)] == [
            dirichlet_gap_reference(pot, partial, full, g, m=24).hex() for g in basis]
        assert psd_certificate(gram).dominance_matrix_min_eig >= -PSD_TOL
        swapped = zigzag.dirichlet_gap_quadrature(pot, full, partial, basis, m=24)
        assert psd_certificate(swapped).dominance_matrix_min_eig <= -1.0

    def test_gram_of_one_function_is_the_1d_gap(self):
        pot = zz_gaussian([1.0])
        specs = (IntensitySpec("canonical"), IntensitySpec("canonical", gamma=0.5))
        g = lambda x, v: x[:, 0] * v[:, 0]
        gram = zigzag.dirichlet_gap_quadrature(pot, *specs, [g])
        assert gram.shape == (1, 1)
        assert float(gram[0, 0]).hex() == dirichlet_gap_reference(pot, *specs, g).hex()

    GRAM_CASES = [(zz_gaussian([1.0, 1.0]), IntensitySpec(
        "canonical", refresh_rate=rate, refresh_mode=first), IntensitySpec(
        "canonical", refresh_rate=rate, refresh_mode=second), experiments._basis_2d())
        for rate in (0.3, 1.0, 3.0)
        for first, second in (("partial", "full"), ("full", "partial"))]
    GRAM_CASES += [
        (zz_gaussian([1.0]), IntensitySpec("canonical"), IntensitySpec(
            "canonical", gamma=experiments.EXPERIMENTS["zigzag-1d-gamma"][1]["gamma"]),
         [lambda x, v: x[:, 0] * v[:, 0]]),
        (zz_gaussian([0.7, 1.3]), IntensitySpec("barker", gamma=0.2), IntensitySpec(
            "penalty", eps=0.5, refresh_rate=0.7), experiments._basis_2d())]

    @pytest.mark.parametrize("case", range(len(GRAM_CASES)))
    @pytest.mark.parametrize("m", [24, 40])
    def test_gram_tables_match_the_jump_generator(self, case, m):
        # the tables keep every bit of the Gram form built by jump_generator
        pot, spec1, spec2, basis = self.GRAM_CASES[case]
        assert np.array_equal(zigzag._gap_gram(pot, spec1, spec2, basis, m),
                              gap_gram_reference(pot, spec1, spec2, basis, m))

    def test_one_basis_call_per_velocity(self, monkeypatch):
        # zigzag-2d-refresh at its defaults: 20 functions x 4 velocities x 2
        # resolutions, and 2 specs x 2 coordinates x 4 velocities x 2
        # resolutions (1,760 and 640 when jump_generator made the Gram form)
        calls = {"basis": 0, "intensity": 0}

        def counted(fn, key):
            def call(*args):
                calls[key] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(zigzag, "intensity", counted(zigzag.intensity, "intensity"))
        defaults = experiments.EXPERIMENTS["zigzag-2d-refresh"][1]
        partial, full = (IntensitySpec("canonical", refresh_rate=defaults["refresh_rate"],
                                       refresh_mode=mode) for mode in ("partial", "full"))
        basis = [counted(g, "basis") for g in experiments._basis_2d()]
        zigzag.dirichlet_gap_quadrature(zz_gaussian([1.0, 1.0]), partial, full, basis,
                                        m=defaults["quad_nodes"])
        assert calls == {"basis": 160, "intensity": 32}

    def test_empty_function_list_raises(self, monkeypatch):
        # refused before any node is built
        monkeypatch.setattr(zigzag, "_gh_nodes", None)
        with pytest.raises(ValueError, match="at least one function"):
            zigzag.dirichlet_gap_quadrature(zz_gaussian([1.0]), IntensitySpec(),
                                            IntensitySpec(), [])

    def test_unconverged_entry_raises(self):
        # two nodes per half-axis cannot resolve x^4 against the 18 of the
        # second resolution
        pot = zz_gaussian([1.0])
        with pytest.raises(ValueError, match="not converged"):
            zigzag.dirichlet_gap_quadrature(
                pot, IntensitySpec("canonical"), IntensitySpec("canonical", gamma=0.5),
                [lambda x, v: x[:, 0] ** 3 * v[:, 0]], m=2)


    def test_nan_entry_is_not_converged(self):
        # NaN beyond |x| = 7 reaches the outer nodes of both resolutions; a
        # NaN entry must not read as converged
        pot = zz_gaussian([1.0])
        g = lambda x, v: np.where(np.abs(x[:, 0]) > 7.0, np.nan, x[:, 0] * v[:, 0])
        with pytest.raises(ValueError, match="not converged"):
            zigzag.dirichlet_gap_quadrature(
                pot, IntensitySpec("canonical"), IntensitySpec("canonical", gamma=0.5), [g])


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
