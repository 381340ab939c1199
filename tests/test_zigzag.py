import collections
import dataclasses
import itertools
import math
import os
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import ks_2samp

import oracles
from nonrev import _native, experiments, zigzag
from nonrev.samplers import replicate_rng
from nonrev.zigzag import (EnvelopeViolation, IntensitySpec, Potential,
                           intensity, simulate_zigzag, zz_gaussian)
from nonrev.finite import PSD_TOL, psd_certificate
from oracles import (dirichlet_gap_reference, estimate_var_continuous_centred,
                     estimate_var_continuous_reference, exact_flip_time_reference,
                     exact_flip_time_split_reference, expectation_mu,
                     gap_gram_reference, jump_generator, state_at, steep_double_well,
                     thinned_flip_time, thinned_flip_time_reference,
                     window_integrals_reference, zz_tabulated)


def sigmaless(pot):
    """The same target without the diagonal-Gaussian mark, so that
    simulate_zigzag draws its clocks by thinning."""
    return dataclasses.replace(pot, gaussian_sigmas=None)


def count_exact_runs(monkeypatch) -> list:
    """Patches _native.entry so that every call of the exact kernel's
    exact_run appends the row it resumes from to the list returned."""
    calls, entry = [], _native.entry

    def counting(name):
        run = entry(name)
        if name != "exact_run":
            return run

        def counted(*args):
            calls.append(args[-1])
            return run(*args)
        return counted
    monkeypatch.setattr(_native, "entry", counting)
    return calls


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
            t = _native.entry("flip_time")(a, b, gamma, e)
            integral = quad(lambda s: max(0.0, a + b * s) + gamma, 0.0, t)[0]
            assert integral == pytest.approx(e, abs=1e-9)

    def test_large_rate_does_not_cancel(self):
        # the root of a t + t^2 / 2 = 1 is 1e-8 to 16 digits at a = 1e8;
        # (-a + sqrt(a^2 + 2e)) / b returned 1.49e-8
        assert _native.entry("flip_time")(1e8, 1.0, 0.0, 1.0) == pytest.approx(
            1e-8, rel=1e-12)
        assert _native.entry("flip_time")(1e8, 1.0, 0.5, 1.0) == pytest.approx(
            1.0 / (1e8 + 0.5), rel=1e-12)
        # gamma-remainder branch: t0 = 1, then rate gamma + b (t - t0)
        t = _native.entry("flip_time")(-1.0, 1.0, 1e8, 1e8 + 1.0)
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
        assert traj.codes[0] == 0
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
                        got = outcome(_native.entry("flip_time"), a, b, gamma, e)
                        assert got == outcome(exact_flip_time_split_reference,
                                              a, b, gamma, e)
                        seen.add(got == "ZeroDivisionError")
        assert seen == {False, True}

    def test_kernel_matches_the_last_python_form(self):
        # the compiled flip_time against the Python form it replaced, bit
        # for bit and ZeroDivisionError for ZeroDivisionError, on every
        # branch: a >= 0 (+-0.0 included), and a < 0 with gamma = 0,
        # e < gamma t0 or e >= gamma t0
        def outcome(fn, *args):
            try:
                return fn(*args).hex()
            except ZeroDivisionError:
                return "ZeroDivisionError"

        def branch(a, b, gamma, e):
            if a >= 0:
                return "a >= 0"
            if gamma == 0.0:
                return "gamma = 0"
            return "e < gamma t0" if e < gamma * (-a / b) else "e >= gamma t0"

        rng = np.random.default_rng(15)
        mags = [0.0, 1e-300, 1e-150, 1e-8, 1.0, 1e8, *rng.exponential(size=3).tolist()]
        avals = mags + [-m for m in mags]
        bvals = [1e-300, 1e-30, 1e-8, 1.0, 1e8, *rng.exponential(size=2).tolist()]
        gammas = [0.0, 1e-300, 1e-8, 0.5, 1e8, *rng.exponential(size=2).tolist()]
        evals = [1e-300, 1e-150, 1e-8, 1.0, 50.0, 1e8, *rng.exponential(size=3).tolist()]
        grid = [(a, b, g, e) for a in avals for b in bvals for g in gammas for e in evals]
        # the cases of test_large_rate_does_not_cancel, and zero divisors:
        # b = 0 at a < 0, and 2be underflowing at a = 0
        extra = [(1e8, 1.0, 0.0, 1.0), (1e8, 1.0, 0.5, 1.0), (-1.0, 1.0, 1e8, 1e8 + 1.0),
                 (-1.0, 0.0, 0.5, 1.0), (0.0, 1e-30, 0.0, 1e-300)]
        outcomes, branches = collections.Counter(), collections.Counter()
        for k, case in enumerate(grid + extra):
            got = outcome(_native.entry("flip_time"), *case)
            assert got == outcome(exact_flip_time_reference, *case), case
            kind = got if got.endswith("Error") else "float"
            outcomes[kind] += 1
            if k < len(grid) and kind == "float":
                branches[branch(*case)] += 1
        assert set(outcomes) == {"float", "ZeroDivisionError"}
        assert len(branches) == 4 and min(branches.values()) > 100


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

    @pytest.mark.parametrize("sigmas", [[1e160], [1.0, 1.5e154]])
    def test_gaussian_refuses_sigma_whose_inverse_square_is_zero(self, sigmas):
        # 1/sigma^2 used to round to 0.0, so U and grad were identically 0
        # and the exact clock divided by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"sigma {sigmas[-1]!r} is too large")):
                zz_gaussian(sigmas)
        assert zz_gaussian([1.3e154]).gaussian_sigmas[0] == 1.3e154

    @pytest.mark.parametrize("given", [[1.0, 2.0], (1, 2)], ids=["list", "int-tuple"])
    def test_sigmas_given_as_a_sequence_run_as_the_array(self, given):
        # Potential checked list sigmas but kept the list, and the exact
        # loop's square of it raised an unnamed TypeError
        pot = dataclasses.replace(zz_gaussian([1.0, 2.0]), gaussian_sigmas=given)
        spec = IntensitySpec("canonical", gamma=0.5, refresh_rate=1.0)
        got, want = np.random.default_rng(8), np.random.default_rng(8)
        traj = simulate_zigzag(pot, spec, [0.1, 0.2], [1.0, -1.0], 50.0, got)
        ref = simulate_zigzag(zz_gaussian([1.0, 2.0]), spec, [0.1, 0.2], [1.0, -1.0],
                              50.0, want)
        for name in ("times", "X", "V", "codes"):
            assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
        assert stream_state(got) == stream_state(want)
        assert pot.gaussian_sigmas.dtype == np.float64
        f = lambda x, v: x[:, 0]
        assert (zigzag.estimate_var_continuous(pot, spec, f, 50.0, 2, 0.0, 3)
                == zigzag.estimate_var_continuous(zz_gaussian([1.0, 2.0]), spec, f,
                                                  50.0, 2, 0.0, 3))

    @pytest.mark.parametrize("bad", [0.0, 2.0, math.nan, math.inf, -math.inf])
    def test_velocity_off_the_unit_values_refused(self, bad):
        # |v| == 1 refuses each value np.isin(v, (-1, 1)) refused, NaN and
        # the infinities included, on the exact and the thinned loop alike
        pot, rng = zz_gaussian([1.0, 2.0]), np.random.default_rng(3)
        state = rng.bit_generator.state
        for spec in (IntensitySpec("canonical"), IntensitySpec("barker")):
            with pytest.raises(ValueError, match=r"^v0 must be \+-1 valued$"):
                simulate_zigzag(pot, spec, [0.1, 0.2], [1.0, bad], 5.0, rng)
        assert rng.bit_generator.state == state
        for V in ([[1.0, -1.0], [bad, 1.0]], [[bad, -1.0], [1.0, 1.0]]):
            with pytest.raises(ValueError, match=r"^velocities must be \+-1$"):
                skeleton([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]], V, 2.0)
        assert skeleton([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]], [[1.0, -1.0], [-1.0, 1.0]],
                        2.0).n_events == 1

    def test_free_flight_has_no_events(self):
        traj = simulate_zigzag(free_potential(), IntensitySpec("canonical"),
                               [0.5], [1.0], horizon=10.0,
                               rng=np.random.default_rng(0))
        assert traj.n_events == 0
        x, v = state_at(traj, [10.0])
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
        exact = np.array([_native.entry("flip_time")(0.5, 1.0, 0.0, rng1.exponential())
                          for _ in range(n)])
        thinned = np.array([thinned_flip_time(
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

    def test_excess_within_the_slack_is_no_violation(self):
        # as above with c = 1e-10: the rate passes the envelope by at most
        # 1e-10 per unit window, inside the 1e-9 slack, so nothing raises
        creeping = Potential(U=lambda x: 0.5e-10 * np.sum(x * x, axis=-1),
                             grad=lambda x: 1e-10 * x, d=1,
                             hessian_bound=lambda x, v: 0.0)
        traj = simulate_zigzag(creeping, IntensitySpec("canonical", gamma=1.0), [0.0],
                               [1.0], horizon=20.0, rng=np.random.default_rng(0))
        assert traj.n_events > 5

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
        # code i < d flips coordinate i and code d is a refresh, on both
        # loops: each flip turns exactly its coordinate's velocity
        spec = IntensitySpec("canonical", refresh_rate=2.0, refresh_mode="partial")
        for pot in (zz_gaussian([1.0, 1.0]), sigmaless(zz_gaussian([1.0, 1.0]))):
            traj = simulate_zigzag(pot, spec, [0.0, 0.0], [1.0, -1.0],
                                   horizon=200.0, rng=np.random.default_rng(1))
            assert traj.codes.dtype == np.int64
            assert traj.n_events == traj.codes.size == traj.times.size - 1
            assert set(traj.codes.tolist()) == {0, 1, 2}
            turned = traj.V[1:] != traj.V[:-1]
            flips = traj.codes < 2
            assert np.array_equal(turned[flips], np.eye(2, dtype=bool)[traj.codes[flips]])

    @pytest.mark.parametrize("codes", [
        np.array([0, 1]), np.array([0, 1, 2, 0]), np.array([[0, 1, 2]]),
        np.array([0.0, 1.0, 2.0]), np.array([False, True, True]),
        np.array(["flip(0)", "flip(1)", "refresh"], dtype=object),
        np.array([0, 3, 1]), np.array([0, -1, 1])],
        ids=["short", "long", "2-d", "float", "bool", "labels", "above-d", "negative"])
    def test_trajectory_refuses_bad_codes(self, codes):
        times = np.array([0.0, 0.5, 1.0, 1.5])
        X, V = np.zeros((4, 2)), np.ones((4, 2))
        assert zigzag.ZigZagTrajectory(times, X, V, np.array([0, 1, 2]), 2.0).n_events == 3
        with pytest.raises(ValueError, match=r"one integer event code in \[0, d\]"):
            zigzag.ZigZagTrajectory(times, X, V, codes, 2.0)

    @pytest.mark.parametrize("times, x, match", [
        ([0.0, np.nan, 1.0], 0.0, "event times must be finite and strictly increasing"),
        ([np.nan, 0.5, 1.0], 0.0, "event times must be finite and strictly increasing"),
        ([0.0, 0.5, np.inf], 0.0, "event times must be finite and strictly increasing"),
        ([-np.inf, 0.5, 1.0], 0.0, "event times must be finite and strictly increasing"),
        ([0.0, 0.5, 0.5], 0.0, "event times must be finite and strictly increasing"),
        ([0.0, 0.5, 1.0], np.nan, "event positions must be finite"),
        ([0.0, 0.5, 1.0], np.inf, "event positions must be finite")],
        ids=["nan-inside", "nan-first", "inf-last", "minus-inf-first", "tie",
             "nan-position", "inf-position"])
    def test_trajectory_refuses_nonfinite_times_and_positions(self, times, x, match):
        # np.diff(times) <= 0 is False at a NaN, so the path with a NaN event
        # time was accepted and its integral of x + 1 read a silent 3.0
        X, V, codes = np.zeros((3, 1)), np.ones((3, 1)), np.array([0, 0])
        X[1] = x
        with pytest.raises(ValueError, match=f"^{match}$"):
            zigzag.ZigZagTrajectory(np.array(times), X, V, codes, 2.0)
        assert zigzag.ZigZagTrajectory(np.array([0.0, 0.5, 1.0]), np.zeros((3, 1)), V,
                                       codes, 2.0).n_events == 2

    @pytest.mark.parametrize("times, horizon, match", [
        ([0.0, 0.5, 1.0], 0.7, r"the last event time 1\.0 must lie before the horizon 0\.7"),
        ([0.0, 0.5, 1.0], 1.0, r"the last event time 1\.0 must lie before the horizon 1\.0"),
        ([0.3, 0.5, 1.0], 2.0, r"the path must start at time 0\.0, got \[0\.3\]"),
        ([-0.5, 0.5, 1.0], 2.0, r"the path must start at time 0\.0, got \[-0\.5\]"),
        ([0.0, 0.5, 1.0], math.inf, "horizon must be finite, got inf"),
        ([0.0, 0.5, 1.0], math.nan, "horizon must be finite, got nan")],
        ids=["past-horizon", "at-horizon", "late-start", "early-start", "inf-horizon",
             "nan-horizon"])
    def test_trajectory_refuses_paths_not_from_zero_to_the_horizon(self, times, horizon,
                                                                   match):
        # the integral of x + 1 read a silent 0.845 over the first path, 2.6 over
        # the late start (its first segment extended back to 0) and NaN at inf
        X, V, codes = np.zeros((3, 1)), np.ones((3, 1)), np.array([0, 0])
        with pytest.raises(ValueError, match=f"^{match}$"):
            zigzag.ZigZagTrajectory(np.array(times), X, V, codes, horizon)

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
    return exact_flip_time_reference(float(x[i] * v[i] * inv2), float(inv2),
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
    times, Xs, Vs, codes = [0.0], [x.copy()], [v.copy()], []
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
            code = i
        else:
            if spec.refresh_mode == "full":
                v = np.where(rng.random(d) < 0.5, -1.0, 1.0)
            else:
                j = int(rng.integers(d))
                v[j] = -v[j]
            code = d
        times.append(t)
        Xs.append(x.copy())
        Vs.append(v.copy())
        codes.append(code)
    return np.array(times), np.array(Xs), np.array(Vs), np.array(codes, dtype=np.int64)


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
        "gamma-partial-3d": (zz_gaussian([0.5, 1.0, 2.0]),
                             IntensitySpec("canonical", gamma=0.4, refresh_rate=0.8,
                                           refresh_mode="partial"), exact_clock),
        "gamma-full-3d": (zz_gaussian([0.7, 1.3, 2.5]),
                          IntensitySpec("canonical", gamma=0.3, refresh_rate=1.2,
                                        refresh_mode="full"), exact_clock),
        # integers(1) draws nothing
        "partial-1d": (G1, PARTIAL, exact_clock),
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
        times, X, V, codes = reference_loop(pot, spec, x0, v0, horizon, rng_ref,
                                            clock)
        assert traj.n_events >= min_events
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.X, X)
        assert np.array_equal(traj.V, V)
        assert traj.codes.dtype == np.int64 and np.array_equal(traj.codes, codes)
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
                                      "partial-2d", "full-2d", "gamma-partial-3d",
                                      "gamma-full-3d", "partial-1d"])
    def test_block_boundaries(self, block, case, monkeypatch):
        # the exact kernel fills skeleton buffers sized from the event rate,
        # at most _MAX_ROWS rows, and when they are full they double and it
        # resumes from the last row; a buffer of one row is full before the
        # first event
        if block is not None:
            monkeypatch.setattr(zigzag, "_MAX_ROWS", block)
        calls = count_exact_runs(monkeypatch)
        per_run = []
        for seed, horizon in enumerate([0.05, 0.5, 3.0, 4000.0]):
            before = len(calls)
            self.assert_same_run(case, horizon, lambda: replicate_rng(37, seed), 0)
            per_run.append(len(calls) - before)
        # buffers sized from the rate take one call; forced small ones take
        # several on the long run, and some short run ends inside 3 rows
        if block is None:
            assert per_run == [1] * 4
        else:
            assert min(per_run) == (2 if block == 1 else 1) and per_run[-1] > 2

    def test_fault_raises_as_the_python_loop_does(self):
        # sigma = 1e160 squares to inf, so 1/sigma^2 = 0 and the first
        # clock divides by zero: ZeroDivisionError in both loops
        # (zz_gaussian refuses that sigma, so the target is built by hand)
        pot = dataclasses.replace(free_potential(), gaussian_sigmas=np.array([1e160]))
        for loop in (simulate_zigzag,
                     lambda *args: reference_loop(*args, exact_clock)):
            with np.errstate(over="ignore"), pytest.raises(
                    ZeroDivisionError, match="float division by zero"):
                loop(pot, IntensitySpec("canonical"), [0.5], [1.0], 1.0,
                     np.random.default_rng(2))

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
        flipped_in = [False] + (traj.codes < pot.d).tolist()
        assert traj.n_events > 50
        assert [seen[tuple(x)] for x in traj.X.tolist()] == [1 + f for f in flipped_in]


class TestExactBuffers:
    """The exact kernel's first buffers, sized from the stationary event
    rate, hold a whole trajectory of the zigzag-exact benchmark's shapes:
    estimate_var_continuous's replicates from x = 0 with uniform velocities,
    to 1.1 times the benchmark's horizons."""

    G2 = zz_gaussian([1.0, 1.0])
    SHAPES = {
        "2d-partial": (G2, IntensitySpec("canonical", refresh_rate=1.0,
                                         refresh_mode="partial"), 1100.0),
        "2d-full": (G2, IntensitySpec("canonical", refresh_rate=1.0, refresh_mode="full"),
                    1100.0),
        "1d-canonical": (zz_gaussian([1.0]), IntensitySpec("canonical"), 2750.0),
        "1d-gamma": (zz_gaussian([1.0]), IntensitySpec("canonical", gamma=0.5), 2750.0),
    }

    @staticmethod
    def replicates(pot, spec, horizon, calls):
        """16 replicates' trajectories, stream states and exact_run calls."""
        out = []
        for r in range(16):
            rng = replicate_rng(3201, r)
            v0 = np.where(rng.random(pot.d) < 0.5, -1.0, 1.0)
            before = len(calls)
            traj = simulate_zigzag(pot, spec, np.zeros(pot.d), v0, horizon, rng)
            out.append((traj, stream_state(rng), len(calls) - before))
        return out

    @pytest.mark.parametrize("shape", SHAPES)
    def test_one_kernel_call_per_trajectory(self, shape, monkeypatch):
        pot, spec, horizon = self.SHAPES[shape]
        calls = count_exact_runs(monkeypatch)
        sized = self.replicates(pot, spec, horizon, calls)
        assert [n_calls for *_, n_calls in sized] == [1] * 16
        # 256-row first buffers double several times, to the same bits
        monkeypatch.setattr(zigzag, "_MAX_ROWS", 256)
        small = self.replicates(pot, spec, horizon, calls)
        assert min(n_calls for *_, n_calls in small) > 1
        for (a, state_a, _), (b, state_b, _) in zip(sized, small):
            assert a.n_events > 256 and state_a == state_b
            for field in ("times", "X", "V", "codes"):
                assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_first_buffers_are_sized_from_the_rate_and_capped(self):
        # 1.25 x horizon x (sum_i 1 / (sigma_i sqrt(2 pi)) + d gamma + refresh) + 64
        spec = IntensitySpec("canonical", gamma=0.5, refresh_rate=0.25)
        rate = (1 / 0.5 + 1 / 2.0) / math.sqrt(2 * math.pi) + 2 * 0.5 + 0.25
        assert zigzag._first_rows(zz_gaussian([0.5, 2.0]), spec, 300.0) == int(
            1.25 * 300.0 * rate + 64)
        assert zigzag._first_rows(zz_gaussian([1.0]), IntensitySpec("canonical"), 1e-9) == 64
        # a horizon or rate too large for the cap, even one whose product
        # overflows a float, asks for _MAX_ROWS rows
        for sigma, horizon in ((1.0, 1e6), (1e-150, 1e300)):
            assert zigzag._first_rows(zz_gaussian([sigma]), spec, horizon) == zigzag._MAX_ROWS


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


class ScriptedStream:
    """A stand-in generator whose exponential() and random() return the
    scripted values in turn."""

    def __init__(self, exponentials, uniforms):
        self.exponentials, self.uniforms = iter(exponentials), iter(uniforms)

    def exponential(self):
        return next(self.exponentials)

    def random(self):
        return next(self.uniforms)


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


class TestThinningClock:
    """thinned_flip_time asks for one proposal's intensity at a time; it
    must return what the scalar reference returns and read the stream draw
    for draw as it does, whether it returns or raises."""

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
        capped_inf = 0
        for name, (make, reach) in self.POTENTIALS.items():
            pot = make()
            for j, spec in enumerate(self.SPECS):
                rng, rng_ref = replicate_rng(41, j), replicate_rng(41, j)
                for i, x, v, horizon in self.starts(pot, reach, 120):
                    stream, ref = LoggedStream(rng), LoggedStream(rng_ref)
                    t = thinned_flip_time(spec, pot, i, x, v, stream, horizon)
                    t_ref = thinned_flip_time_reference(spec, pot, i, x, v, ref,
                                                        horizon)
                    case = (name, spec, i, x, v, horizon)
                    assert t == t_ref, case
                    assert stream_state(rng) == stream_state(rng_ref), case
                    # the same draws in the same order, and no state write
                    assert stream.log == ref.log, case
                    capped_inf += t == math.inf and horizon < math.inf
        assert capped_inf > 0

    def test_zero_intensity_never_accepts(self):
        # U = x^2 / 2 from x = -0.5 with v = +1: the canonical rate is 0 up
        # to offset 0.5, so even a uniform of 0.0 rejects every proposal there
        pot, spec = sigmaless(zz_gaussian([1.0])), IntensitySpec("canonical")
        times = [clock(spec, pot, 0, np.array([-0.5]), np.array([1.0]),
                       ScriptedStream(itertools.repeat(0.01), itertools.repeat(0.0)), 3.0)
                 for clock in (thinned_flip_time, thinned_flip_time_reference)]
        assert times[0] == times[1] > 0.5

    def test_proposal_on_the_window_end_is_not_evaluated(self):
        # from x = 0 the base rate is 0 and B = 1 + 1e-12, so the exponential
        # B / 2 puts the first proposal exactly at u = 1, which ends the
        # window: with a one-window horizon no flip happens
        pot, spec = sigmaless(zz_gaussian([1.0])), IntensitySpec("canonical")
        B = 1.0 + 1e-12
        e = B / 2
        assert 2 * e / (0.0 + math.sqrt(0.0 * 0.0 + 2 * B * e)) == 1.0
        times = [clock(spec, pot, 0, np.array([0.0]), np.array([1.0]),
                       ScriptedStream([e], itertools.repeat(0.0)), 1.0)
                 for clock in (thinned_flip_time, thinned_flip_time_reference)]
        assert times == [math.inf, math.inf]

    def test_envelope_violation_message(self):
        # a ray bound a third too small: each call, from a fresh stream, must
        # return the same time or raise with the same message as the scalar
        # loop, and leave the stream where it leaves it
        pot = zigzag.zz_double_well()
        lying = dataclasses.replace(pot, hessian_bound=lambda x, v: pot.hessian_bound(x, v) / 3)
        violations = 0
        for j, spec in enumerate(self.SPECS):
            for k, (i, x, v, horizon) in enumerate(self.starts(lying, 2.0, 60)):
                rngs = [replicate_rng(43 + j, k) for _ in range(2)]
                out, ref = (clock_outcome(clock, spec, lying, i, x, v, rng, horizon)
                            for clock, rng in zip((thinned_flip_time,
                                                   thinned_flip_time_reference), rngs))
                assert out == ref
                assert stream_state(rngs[0]) == stream_state(rngs[1]), (spec, k, ref)
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
        x, v = state_at(traj, mid + z * half)
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
        x, v = state_at(traj, ts)
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
            state_at(traj, [-0.1])
        with pytest.raises(ValueError):
            state_at(traj, [traj.horizon + 1.0])

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

    @pytest.mark.parametrize("degree", [1, None])
    def test_window_integrals_on_event_times_and_path_ends(self, degree):
        # interior edges on event times, a window from 0.0 (itself the first
        # event time) and one to the horizon, each the reference's bits; the
        # windows hold hundreds of segments, so a zero-length segment left at
        # an edge on an event time would move the dot products' last bits
        traj = simulate_zigzag(zz_gaussian([1.0]), IntensitySpec("canonical"), [0.3],
                               [1.0], horizon=500.0, rng=np.random.default_rng(5))
        f = lambda x, v: np.cos(x[:, 0]) + x[:, 0] * v[:, 0]
        on_events = traj.times[np.searchsorted(traj.times, [100.0, 250.0, 400.0])]
        for edges in ([50.0, *on_events, 450.0], [0.0, 7.5, 120.0],
                      [0.0, 250.0, traj.horizon], [312.5, traj.horizon]):
            expected = [reference_window_integral(traj, f, degree, a, b)
                        for a, b in zip(edges[:-1], edges[1:])]
            assert np.array_equal(zigzag._window_integrals(traj, f, degree, edges),
                                  expected), edges

    @pytest.mark.parametrize("t_start, t_end", [
        (30.0, 5.0), (5.0, 5.0), (math.nan, 40.0), (5.0, math.nan), (5.0, math.inf),
        (-math.inf, 40.0)])
    def test_batch_means_refuses_bad_bounds_by_name(self, t_start, t_end):
        # refused by name, not left to math.sqrt or int to fail on
        with pytest.raises(ValueError, match="batch means need finite t_start < t_end"):
            zigzag.batch_means_variance(self.short_traj(), lambda x, v: x[:, 0],
                                        t_start, t_end)

    def test_batch_means_needs_events(self):
        traj = simulate_zigzag(free_potential(), IntensitySpec(), [0.0], [1.0],
                               horizon=5.0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            zigzag.batch_means_variance(traj, lambda x, v: x[:, 0], 0.0, 5.0)


def skeleton(times, X, V, horizon):
    """A hand-built path: segment k starts at (times[k], X[k]) with velocity
    V[k].  X need not follow the velocities, so a state read from the wrong
    segment shows."""
    X = np.array(X, dtype=float).reshape(len(times), -1)
    return zigzag.ZigZagTrajectory(np.array(times, dtype=float), X,
                                   np.array(V, dtype=float).reshape(X.shape),
                                   np.zeros(len(times) - 1, dtype=np.int64), horizon)


def twelve_byte_stride(values):
    """values as the float field of a packed record array: a stride of 12
    bytes, every other element not 8-byte aligned."""
    rec = np.zeros(values.size, dtype=[("value", "f8"), ("pad", "i4")])
    rec["value"] = values
    return rec["value"]


def misaligned(values):
    """values in an array whose data starts one byte past an 8-byte boundary."""
    buf = np.zeros(values.size * 8 + 1, dtype=np.uint8)
    out = buf[1:].view(np.float64)
    out[:] = values
    return out


class TestWindowSums:
    """zigzag._window_integrals, its segment gather and its window sums in
    C, against window_integrals_reference, the per-node-set search and
    per-window np.dot loop it replaced, bit for bit."""

    # f's output in every layout window_sums reads: np.dot hands the BLAS a
    # strided vector as it is, and a contiguous copy of one whose stride is
    # zero, negative or not a multiple of 8 bytes, or whose data is
    # misaligned; the strided dot's last bits differ from the copy's
    LAYOUTS = {
        "contiguous": lambda x, v: np.cos(x[:, 0]) + x[:, -1] * v[:, 0],
        "strided": lambda x, v: x[:, 0],
        "broadcast": lambda x, v: np.broadcast_to(np.float64(1.7), x.shape[:1]),
        "negative-stride": lambda x, v: np.ascontiguousarray(x[::-1, 0])[::-1],
        "twelve-byte-stride": lambda x, v: twelve_byte_stride(x[:, 0] * v[:, -1]),
        "misaligned": lambda x, v: misaligned(np.sin(x[:, -1])),
    }

    @staticmethod
    def assert_bits(traj, f, degree, edges):
        got = zigzag._window_integrals(traj, f, degree, edges)
        want = window_integrals_reference(traj, f, degree, edges)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), edges

    @staticmethod
    def path_2d():
        return simulate_zigzag(zz_gaussian([1.0, 2.0]),
                               IntensitySpec("canonical", refresh_rate=1.0,
                                             refresh_mode="partial"),
                               [0.3, -0.1], [1.0, -1.0], 600.0, np.random.default_rng(11))

    @pytest.mark.parametrize("degree", [1, None])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_every_layout_of_f(self, layout, degree):
        traj = self.path_2d()
        f = self.LAYOUTS[layout]
        out = f(traj.X, traj.V)
        assert out.strides == {"contiguous": (8,), "strided": (16,), "broadcast": (0,),
                               "negative-stride": (-8,), "twelve-byte-stride": (12,),
                               "misaligned": (8,)}[layout]
        assert out.flags.aligned == (layout not in ("twelve-byte-stride", "misaligned"))
        # windows of hundreds of segments, and windows of one segment each
        # (between two events, more than 0.02 apart)
        gaps = np.diff(traj.times)
        k = int(np.argmax(gaps))
        inside = np.linspace(traj.times[k], traj.times[k + 1], 12)[1:-1]
        for edges in (np.linspace(20.0, 580.0, 8), inside, [0.0, traj.horizon]):
            self.assert_bits(traj, f, degree, edges)
        assert traj.times.size > 800 and gaps[k] > 0.02

    def test_strided_values_keep_their_stride(self):
        # the strided dot differs from the contiguous copy's, so a kernel
        # that copied every vector (or read it as contiguous) would not
        # match the reference
        traj = self.path_2d()
        edges = np.linspace(20.0, 580.0, 8)
        strided = zigzag._window_integrals(traj, self.LAYOUTS["strided"], 1, edges)
        copied = zigzag._window_integrals(
            traj, lambda x, v: np.ascontiguousarray(x[:, 0]), 1, edges)
        assert not np.array_equal(strided, copied)
        assert np.allclose(strided, copied, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("degree", [1, None])
    def test_segment_a_few_ulps_long(self, degree):
        # segment 1 spans two ulps, so a node mid + z * half rounds onto its
        # end, 1.0 + 2 ulp, which the full search puts in segment 2; the
        # segment's own start moved along its velocity gives another state
        short_end = np.nextafter(np.nextafter(1.0, 2.0), 2.0)
        traj = skeleton([0.0, 1.0, short_end, 3.0], [0.0, 1.0, 5.0, -2.0],
                        [1.0, 1.0, -1.0, 1.0], 4.0)
        f = lambda x, v: x[:, 0] + 0.25 * v[:, 0]
        nodes = zigzag._GL3[0] if degree == 1 else zigzag._GL8[0]
        mid, half = (1.0 + short_end) / 2.0, (short_end - 1.0) / 2.0
        assert short_end in mid + nodes * half
        # the first window holds the short segment alone, so a state read
        # from the wrong segment changes its integral by about half
        for edges in ([1.0, short_end, 2.0], [0.0, 2.0, 4.0], [0.5, short_end, 3.5]):
            self.assert_bits(traj, f, degree, edges)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(d=st.integers(1, 2), n=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
           n_edges=st.integers(0, 40), on_events=st.integers(0, 8), ulp_pairs=st.integers(0, 6),
           degree=st.sampled_from([1, 4, 5, None]), layout=st.sampled_from(sorted(LAYOUTS)))
    def test_random_skeletons_and_edges(self, d, n, seed, n_edges, on_events, ulp_pairs,
                                        degree, layout):
        rng = np.random.default_rng(seed)
        horizon = float(rng.uniform(1.0, 200.0))
        times = np.sort(rng.uniform(0.0, horizon, n))
        # event pairs a few ulps apart, so nodes round onto segment ends
        pairs = times[rng.integers(n, size=ulp_pairs)]
        pairs = np.nextafter(np.nextafter(pairs, np.inf), np.inf)
        times = np.unique(np.concatenate(([0.0], times, pairs)))
        times = times[times < horizon]
        traj = skeleton(times, rng.normal(size=(times.size, d)),
                        rng.choice([-1.0, 1.0], size=(times.size, d)), horizon)
        edges = np.concatenate((rng.uniform(0.0, horizon, n_edges),
                                rng.choice(times, size=on_events),
                                rng.choice([0.0, horizon], size=rng.integers(3))))
        edges = np.unique(edges)
        if edges.size < 2:
            edges = np.array([0.0, horizon])
        self.assert_bits(traj, self.LAYOUTS[layout], degree, edges)

    @pytest.mark.parametrize("f", [lambda x, v: x, lambda x, v: 1.0,
                                   lambda x, v: x[:-1, 0], lambda x, v: x[:, :1]],
                             ids=["two-d", "scalar", "short", "column"])
    def test_f_of_another_shape_refused(self, f):
        traj = self.path_2d()
        with pytest.raises(ValueError, match="f must give one float64 value per node"):
            zigzag._window_integrals(traj, f, 1, [10.0, 20.0, 30.0])


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

    @staticmethod
    def refuse_streams(monkeypatch):
        def no_stream(seed, replicate):
            raise AssertionError("a replicate stream was made")
        monkeypatch.setattr(zigzag.samplers, "replicate_rng", no_stream)

    def test_too_few_batches_raises(self, monkeypatch):
        # horizon 3 gives floor(sqrt(3)) = 1 batch, whose variance is NaN;
        # it is refused before any replicate is simulated
        self.refuse_streams(monkeypatch)
        with pytest.raises(ValueError, match="at least 2 batches"):
            zigzag.estimate_var_continuous(zz_gaussian([0.2]), IntensitySpec(),
                                           lambda x, v: x[:, 0], horizon=3.0,
                                           replicates=3, lam=0.0, seed=0)

    @pytest.mark.parametrize("horizon", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_horizon_named_by_its_own_value(self, horizon, monkeypatch):
        # not by the horizon plus its burn-in, and before any stream
        self.refuse_streams(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(
                f"horizon must be finite and positive, got {horizon!r}") + "$"):
            zigzag.estimate_var_continuous(zz_gaussian([0.2]), IntensitySpec(),
                                           lambda x, v: x[:, 0], horizon=horizon,
                                           replicates=3, lam=0.0, seed=0)

    @pytest.mark.parametrize("replicates, seed, match", [
        (4.0, 0, r"^replicates must be an integer >= 2, got 4\.0$"),
        ("4", 0, r"^replicates must be an integer >= 2, got '4'$"),
        (4, True, r"^seed must be an integer >= 0, got True$"),
        (4, 0.0, r"^seed must be an integer >= 0, got 0\.0$"),
        (4, -1, r"^seed must be an integer >= 0, got -1$"),
        (4, 2 ** 64, r"^seed must be an integer below 2\*\*64, got 18446744073709551616$"),
        (1, 0, r"^need at least 2 replicates for a standard error$"),
        (0, 0, r"^need at least 2 replicates for a standard error$"),
        (-3, 0, r"^need at least 2 replicates for a standard error$")],
        ids=["replicates-float", "replicates-str", "seed-bool", "seed-float", "seed-negative",
             "seed-2-to-the-64", "replicates-1", "replicates-0", "replicates-negative"])
    def test_bad_counts_refused_by_name_before_any_stream(self, replicates, seed, match,
                                                          monkeypatch):
        # replicates=4.0 or "4" raised an unnamed TypeError, seed=True
        # ran seed 1, and seeds -1 and 2**64 failed in numpy's Philox key check
        self.refuse_streams(monkeypatch)
        with pytest.raises(ValueError, match=match):
            zigzag.estimate_var_continuous(zz_gaussian([1.0]), IntensitySpec(),
                                           lambda x, v: x[:, 0], 100.0, replicates,
                                           0.0, seed)

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


class TestClosedFormVariance:
    """The catalog's Zig-Zag rows against the closed-form variances in
    tests/oracles.py: a fault that moves both rows of an entry alike, as an
    exact loop that ignores gamma or the refresh clock does, passes the
    catalog's one-sided check between them but not these."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_zigzag_1d_gamma_rows_within_3_se(self, seed):
        # at seeds 1-3 the rows read z = 0.72, -1.45, 0.49, 1.11, -0.12, -0.70
        _desc, defaults, runner = experiments.EXPERIMENTS["zigzag-1d-gamma"]
        (sigma,), *specs = experiments._gamma_pair(defaults)
        rows = {row.case_id: row for row in runner(dict(defaults), seed)[0]}
        for case, spec in zip(("canonical", "plus-gamma"), specs, strict=True):
            want = oracles.zigzag_1d_variance_of_x(sigma, spec.gamma)
            assert abs(rows[case].value - want) <= 3.0 * rows[case].se, (case, want)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_zigzag_2d_refresh_rows_within_3_se(self, seed):
        # both rows estimate 2 (2 sqrt(2 / pi) + 2 r), 7.19 at r = 1; at
        # seeds 1-3 they read z = 0.63, -0.54, -0.69, -1.44, -0.23, 0.96
        _desc, defaults, runner = experiments.EXPERIMENTS["zigzag-2d-refresh"]
        sigmas, *specs = experiments._refresh_pair(defaults)
        assert sigmas.tolist() == [1.0, 1.0]
        rows = {row.case_id: row for row in runner(dict(defaults), seed)[0]}
        for case, spec in zip(("partial", "full"), specs, strict=True):
            want = oracles.zigzag_2d_refresh_variance_of_sum(spec.refresh_rate)
            assert abs(rows[case].value - want) <= 3.0 * rows[case].se, (case, want)


class TestLockstepReplicates:
    """estimate_var_continuous advances its replicates in lockstep and pools
    their thinning intensities; it must return what one replicate after
    another returns, bit for bit.  Exact-path replicates run in the calling
    process; thinned ones in min(CPUs, replicates // 2) shares, each but the
    first in a forked child.  One 1-D exact call of 16 replicates breaks even
    with two shares at about 70k events (horizon 10,000): 3.9 against
    6.2 ms forked at horizon 2,500, 11.8 against 12.2 ms at 10,000."""

    DW = zigzag.zz_double_well()
    THIN = sigmaless(zz_gaussian([1.0]))  # a thinned 1-D target: the fork tests use it
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
        # each thinned share runs in its own process; the estimate keeps its
        # bits, and exact replicates all run here
        pot, spec, horizon = self.CASES[case]
        args = (pot, spec, self.f, horizon, replicates, 0.0, 61)
        forks = record_forks(monkeypatch)
        monkeypatch.setattr(zigzag, "_cpus", lambda: cpus)
        assert (zigzag.estimate_var_continuous(*args, degree=2)
                == estimate_var_continuous_reference(*args, degree=2))
        assert len(forks) == (0 if case.startswith("exact") else min(cpus, replicates // 2) - 1)
        assert_no_children()

    @pytest.mark.parametrize("cpus", [2, 4])
    @pytest.mark.parametrize("replicates", [2, 5, 16])
    @pytest.mark.parametrize("path", ["exact", "thinned"])
    def test_only_the_thinned_path_forks(self, path, replicates, cpus, monkeypatch):
        # the path kind alone picks the share rule
        pot = zz_gaussian([1.0]) if path == "exact" else self.THIN
        forks = record_forks(monkeypatch)
        monkeypatch.setattr(zigzag, "_cpus", lambda: cpus)
        zigzag.estimate_var_continuous(pot, IntensitySpec(), self.f, 20.0, replicates,
                                       0.0, 69)
        assert len(forks) == (0 if path == "exact" else min(cpus, replicates // 2) - 1)
        assert_no_children()

    @pytest.mark.parametrize("replicates, shares", [(2, 1), (3, 1), (4, 2), (7, 3),
                                                    (8, 4), (16, 4)])
    def test_two_replicates_per_share(self, replicates, shares, monkeypatch):
        # min(CPUs, replicates // 2) shares, contiguous and in order
        seen, real = [], zigzag._in_shares
        monkeypatch.setattr(zigzag, "_cpus", lambda: 4)
        monkeypatch.setattr(zigzag, "_in_shares", lambda run, items, n: seen.extend(
            real(lambda share: [list(share)], items, n)) or real(run, items, n))
        zigzag.estimate_var_continuous(self.THIN, IntensitySpec(), self.f,
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
            zigzag.estimate_var_continuous(self.THIN, IntensitySpec(), f,
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
            zigzag.estimate_var_continuous(self.THIN, IntensitySpec(), f,
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
            zigzag.estimate_var_continuous(self.THIN, IntensitySpec(), f,
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
