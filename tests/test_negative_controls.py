"""Negative controls for the finite catalog runners, which make one
var_lambda* call per kernel over the whole lambda grid and then pair the
results by grid index.  With the kernels or the oracle a runner builds
replaced so that its hypothesis is false, the named check must report
"pass": false; a runner that compared a value with itself, or with the wrong
kernel's row, would still pass.  Each case also runs unpatched, where the
same check passes."""

import pytest

from nonrev import experiments, finite, zoo


def swap_acceptance_rules(monkeypatch):
    # the kernel built for Metropolis is Barker's, and the other way round
    build = zoo.metropolized_flow_finite
    swapped = {"metropolis": zoo.AcceptanceRule.barker(),
               "barker": zoo.AcceptanceRule.metropolis()}
    monkeypatch.setattr(zoo, "metropolized_flow_finite",
                        lambda mu, psi, Q, rule: build(mu, psi, Q, swapped[rule.kind]))


def reverse_extra_chances(monkeypatch):
    # K = 1, 2, 3 build the kernels of K = 3, 2, 1
    build = zoo.extra_chance_finite
    monkeypatch.setattr(zoo, "extra_chance_finite",
                        lambda mu, psi, Q, K: build(mu, psi, Q, 4 - K))


def swap_switching_rates(monkeypatch):
    # the minimal rate (theta = 0) builds the maximal one, and vice versa
    build = zoo.lifted_kernel
    monkeypatch.setattr(zoo, "lifted_kernel", lambda pair, theta: build(pair, 1.0 - theta))


def shift_series_oracle(monkeypatch):
    oracle = finite.var_lambda_series
    monkeypatch.setattr(finite, "var_lambda_series",
                        lambda *args: oracle(*args) + 1e-6)


# (experiment, config overrides, check, patch); the GHMC part of
# ghmc-phi-compare runs at the shortest chains its mc_lambdas allow
CONTROLS = [
    ("ghmc-phi-compare", {"steps": 270, "replicates": 2},
     "finite-metropolis<=barker", swap_acceptance_rules),
    ("two-cycle-extra-chance", {}, "variance-nonincreasing-in-K", reverse_extra_chances),
    ("lifted-ordering", {}, "rate-ordering-minimal<=convex<=maximal", swap_switching_rates),
    ("gustafson-ring", {}, "series-oracle-agreement", shift_series_oracle),
]


def named_check(name, overrides, check):
    _desc, defaults, runner = experiments.EXPERIMENTS[name]
    _rows, checks = runner({**defaults, **overrides}, 1)
    (found,) = [c for c in checks if c["name"] == check]
    return found


@pytest.mark.parametrize("name, overrides, check, patch", CONTROLS,
                         ids=[c[0] for c in CONTROLS])
def test_false_hypothesis_fails_the_check(monkeypatch, name, overrides, check, patch):
    assert named_check(name, overrides, check)["pass"]
    patch(monkeypatch)
    found = named_check(name, overrides, check)
    assert not found["pass"]
    assert found["max_violation"] > 10 * found["tol"]
