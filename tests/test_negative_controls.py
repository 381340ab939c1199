"""Negative controls for the catalog's named checks.  The finite runners
make one var_lambda* call per kernel over the whole lambda grid and then
pair the results by grid index; the Dirichlet-form certificate compares
consecutive kernels; the Monte Carlo and quadrature checks compare two
processes or two rules in a fixed orientation; the phi_eps checks compare
each phi_eps with itself at 1/r, with phi_0 and with the previous eps.
With the kernels, processes, rules, oracle or phi_eps a runner uses
replaced so that its hypothesis is false, the named check must report
"pass": false; a runner that compared a value with itself, or with the
wrong kernel's row, would still pass.  Each case also runs unpatched,
where the same check passes.  With the engine a check reads patched to
return NaN, the check must fail with a NaN violation, or the runner must
raise.  The coverage guard at the end runs every catalog entry and fails on
an emitted check with neither a control nor an entry in NO_POWER, and on a
numeric check without a NaN control."""

import dataclasses
import json
import math
import types
from pathlib import Path

import numpy as np
import pytest

from nonrev import cli, experiments, finite, samplers, zigzag, zoo


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


def independence_collapsed_kernel(monkeypatch):
    # the collapsed chain is replaced by independent draws from pi, 1 pi^T,
    # whose variance no lift of the guided walk stays below
    monkeypatch.setattr(zoo, "collapsed_kernel", lambda pair: finite.KernelMatrix(
        np.tile(pair.pi.weights, (pair.pi.n, 1))))


def swap_neal_kernels(monkeypatch):
    # the never-stay kernel P1 is built as the independent refresh P2, and
    # the other way round
    build = zoo.neal_pair_kernels

    def swapped(T2, pi):
        P1, P2, mu, Q = build(T2, pi)
        return P2, P1, mu, Q

    monkeypatch.setattr(zoo, "neal_pair_kernels", swapped)


def swap_switching_rates(monkeypatch):
    # the minimal rate (theta = 0) builds the maximal one, and vice versa
    build = zoo.lifted_kernel
    monkeypatch.setattr(zoo, "lifted_kernel", lambda pair, theta: build(pair, 1.0 - theta))


def shift_series_oracle(monkeypatch):
    oracle = finite.var_lambda_series
    monkeypatch.setattr(finite, "var_lambda_series",
                        lambda *args: oracle(*args) + 1e-6)


def swap_mc_rules(monkeypatch):
    # the GHMC comparison runs its rules as [Barker, Metropolis], so the
    # first rule, which no other may beat, is the less accepting one
    compare = samplers.compare_acceptance_rules
    monkeypatch.setattr(samplers, "compare_acceptance_rules",
                        lambda *args, rules, **kw: compare(*args, rules=rules[::-1], **kw))


GAMMA = experiments.EXPERIMENTS["zigzag-1d-gamma"][1]["gamma"]


def swap_gamma_processes(monkeypatch):
    # the canonical process simulates canonical plus gamma, and the other
    # way round (gamma -> GAMMA - gamma at the default GAMMA)
    estimate = zigzag.estimate_var_continuous
    monkeypatch.setattr(zigzag, "estimate_var_continuous", lambda pot, spec, *args, **kw:
                        estimate(pot, dataclasses.replace(spec, gamma=GAMMA - spec.gamma),
                                 *args, **kw))


def swap_gap_specs(monkeypatch):
    # the Gram form is taken with the dominated process first (m= is passed
    # by keyword, so keywords are forwarded)
    gap = zigzag.dirichlet_gap_quadrature
    monkeypatch.setattr(zigzag, "dirichlet_gap_quadrature",
                        lambda pot, spec1, spec2, *args, **kw: gap(pot, spec2, spec1,
                                                                   *args, **kw))


def patch_gustafson_kernel(monkeypatch, change):
    # the ring walk's kernel P is replaced by change(P, Q); mu and Q stay
    build = zoo.gustafson_ring

    def changed(target):
        P, mu, Q = build(target)
        return finite.KernelMatrix(change(P.entries.copy(), Q)), mu, Q

    monkeypatch.setattr(zoo, "gustafson_ring", changed)


def move_gustafson_mass(monkeypatch):
    # 0.05 of the largest entry of row 0 moves to the next state: P stays
    # stochastic but no longer leaves mu invariant
    def move(p, Q):
        j = int(np.argmax(p[0]))
        p[0, j] -= 0.05
        p[0, (j + 1) % p.shape[0]] += 0.05
        return p

    patch_gustafson_kernel(monkeypatch, move)


def gustafson_times_flip(monkeypatch):
    # P replaced by PQ, which still leaves mu invariant (Q preserves mu) but
    # is neither (mu, Q)-reversible nor split into detailed-balance parts
    patch_gustafson_kernel(monkeypatch, lambda p, Q: p[:, Q.perm])


def identity_never_stay_kernel(monkeypatch):
    # the never-stay kernel P1 is the identity, whose variance breaks the
    # pair identity that holds for the never-stay kernel
    build = zoo.neal_pair_kernels

    def identity(T2, pi):
        P1, P2, mu, Q = build(T2, pi)
        return finite.KernelMatrix(np.eye(P1.n)), P2, mu, Q

    monkeypatch.setattr(zoo, "neal_pair_kernels", identity)


def patch_phi_eps(monkeypatch, phi):
    # phi_eps(eps) maps ratios by phi(eps, r); the runner reads only .phi, so
    # the stand-in need not pass AcceptanceRule's own balance and bound checks
    monkeypatch.setattr(zoo.AcceptanceRule, "phi_eps", staticmethod(
        lambda eps: types.SimpleNamespace(phi=lambda r: phi(eps, np.asarray(r)))))


def unbalance_phi_eps(monkeypatch):
    # phi_eps held at phi_eps(1) above r = 1: r phi(1/r) = phi_eps(r) there,
    # which exceeds phi_eps(1)
    build = zoo.AcceptanceRule.phi_eps
    patch_phi_eps(monkeypatch, lambda eps, r: build(eps).phi(np.minimum(r, 1.0)))


def halve_phi_eps(monkeypatch):
    # phi_eps halved at every eps > 0, so it falls below min{1, r} by more
    # than the appendix bound at small eps; phi_0 stays min{1, r}
    build = zoo.AcceptanceRule.phi_eps
    patch_phi_eps(monkeypatch, lambda eps, r: build(eps).phi(r) / (2.0 if eps > 0 else 1.0))


EPS_VALUES = experiments.EXPERIMENTS["phi-eps-bounds"][1]["eps_values"]


def reverse_eps_order(monkeypatch):
    # the default eps values build phi_eps of the same values in reverse
    # order, so the smoothing falls as eps grows; eps = 0 is unchanged
    build = zoo.AcceptanceRule.phi_eps
    reverse = dict(zip(EPS_VALUES, EPS_VALUES[::-1]))
    patch_phi_eps(monkeypatch, lambda eps, r: build(reverse.get(eps, eps)).phi(r))


# short Monte Carlo runs for the entries that have them: the shortest GHMC
# chains ghmc-phi-compare's mc_lambdas allow, two Zig-Zag replicates of
# four batches; no Monte Carlo check has power at these sizes
SMALL = {"ghmc-phi-compare": {"steps": 270, "replicates": 2},
         "zigzag-1d-gamma": {"horizon": 16.0, "replicates": 2},
         "zigzag-2d-refresh": {"horizon": 16.0, "replicates": 2}}

# (test id, experiment, config overrides, check, patch); the exact and
# quadrature checks of the Monte Carlo entries run beside SMALL's runs, the
# Monte Carlo checks at their defaults
CONTROLS = [
    ("ghmc-phi-compare", "ghmc-phi-compare", SMALL["ghmc-phi-compare"],
     "finite-metropolis<=barker", swap_acceptance_rules),
    ("ghmc-phi-compare-mc", "ghmc-phi-compare", {}, "mc-metropolis<=barker+2se",
     swap_mc_rules),
    ("zigzag-1d-gamma-estimates", "zigzag-1d-gamma", {}, "canonical<=plus-gamma+2se",
     swap_gamma_processes),
    ("zigzag-1d-gamma-gap", "zigzag-1d-gamma", {}, "dirichlet-gap-nonnegative",
     swap_gap_specs),
    ("two-cycle-extra-chance", "two-cycle-extra-chance", {},
     "variance-nonincreasing-in-K", reverse_extra_chances),
    ("two-cycle-extra-chance-dirichlet", "two-cycle-extra-chance", {},
     "dirichlet-form-nondecreasing-in-K", reverse_extra_chances),
    ("lifted-ordering", "lifted-ordering", {}, "rate-ordering-minimal<=convex<=maximal",
     swap_switching_rates),
    ("lifted-ordering-collapsed", "lifted-ordering", {}, "lifted<=collapsed",
     independence_collapsed_kernel),
    ("neal-ordering", "neal-ordering", {}, "never-stay-dominates", swap_neal_kernels),
    ("gustafson-ring", "gustafson-ring", {}, "series-oracle-agreement", shift_series_oracle),
    ("gustafson-ring-invariance", "gustafson-ring", {}, "invariance", move_gustafson_mass),
    ("gustafson-ring-muQ", "gustafson-ring", {}, "muQ-reversible", move_gustafson_mass),
    ("gustafson-ring-muQ-PQ", "gustafson-ring", {}, "muQ-reversible", gustafson_times_flip),
    ("gustafson-ring-parts", "gustafson-ring", {}, "reversible-parts-detailed-balance",
     move_gustafson_mass),
    ("gustafson-ring-parts-PQ", "gustafson-ring", {}, "reversible-parts-detailed-balance",
     gustafson_times_flip),
    ("neal-ordering-identity", "neal-ordering", {}, "pair-variance-identity",
     identity_never_stay_kernel),
    ("zigzag-2d-refresh-gap", "zigzag-2d-refresh", SMALL["zigzag-2d-refresh"],
     "gap-nonnegative-on-basis", swap_gap_specs),
    ("phi-eps-bounds-balance", "phi-eps-bounds", {}, "balance-symmetry", unbalance_phi_eps),
    ("phi-eps-bounds-appendix", "phi-eps-bounds", {}, "appendix-bound", halve_phi_eps),
    ("phi-eps-bounds-monotone", "phi-eps-bounds", {}, "monotone-in-eps", reverse_eps_order),
]


def named_check(name, overrides, check):
    _desc, defaults, runner = experiments.EXPERIMENTS[name]
    _rows, checks = runner({**defaults, **overrides}, 1)
    (found,) = [c for c in checks if c["name"] == check]
    return found


@pytest.mark.parametrize("name, overrides, check, patch", [c[1:] for c in CONTROLS],
                         ids=[c[0] for c in CONTROLS])
def test_false_hypothesis_fails_the_check(monkeypatch, name, overrides, check, patch):
    assert named_check(name, overrides, check)["pass"]
    patch(monkeypatch)
    found = named_check(name, overrides, check)
    assert not found["pass"]
    assert found["max_violation"] > 10 * found["tol"]


def test_pq_control_passes_invariance(monkeypatch):
    # PQ fails muQ-reversible through the QPQ comparison, not through the
    # invariance test in front of it
    gustafson_times_flip(monkeypatch)
    assert named_check("gustafson-ring", {}, "invariance")["pass"]


def test_swapped_specs_fail_the_span_certificate(monkeypatch):
    # the Gram form's minimum eigenvalue certifies the whole basis span, and
    # turns clearly negative with the dominated process first
    args = ("zigzag-2d-refresh", SMALL["zigzag-2d-refresh"], "gap-nonnegative-on-basis")
    assert named_check(*args)["span_min_eig"] >= -finite.PSD_TOL
    swap_gap_specs(monkeypatch)
    assert named_check(*args)["span_min_eig"] < -finite.PSD_TOL


def nan_array_from(monkeypatch, module, name):
    # the engine runs as before, and every value it returns reads NaN
    engine = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kw: np.full_like(engine(*args, **kw), np.nan))


def nan_var_lambda(monkeypatch):
    nan_array_from(monkeypatch, finite, "var_lambda")


def nan_var_lambda_cycle(monkeypatch):
    nan_array_from(monkeypatch, finite, "var_lambda_cycle")


def nan_var_lambda_series(monkeypatch):
    nan_array_from(monkeypatch, finite, "var_lambda_series")


def nan_gap_quadrature(monkeypatch):
    nan_array_from(monkeypatch, zigzag, "dirichlet_gap_quadrature")


def nan_certificate(monkeypatch):
    monkeypatch.setattr(finite, "dirichlet_dominance_certificate",
                        lambda *args, **kw: finite.OrderingCertificate(math.nan, False))


def nan_continuous_estimates(monkeypatch):
    monkeypatch.setattr(zigzag, "estimate_var_continuous",
                        lambda *args, **kw: (math.nan, math.nan))


def nan_mc_chains(monkeypatch):
    # every observable of the GHMC comparison reads NaN, so every estimate
    # and standard error the comparison forms is NaN
    compare = samplers.compare_acceptance_rules
    monkeypatch.setattr(samplers, "compare_acceptance_rules",
                        lambda *args, observables, **kw: compare(
                            *args, observables={name: lambda x: np.full(len(x), np.nan)
                                                for name in observables}, **kw))


def nan_phi_eps(monkeypatch):
    patch_phi_eps(monkeypatch, lambda eps, r: np.full(np.shape(r), np.nan))


# (experiment, check, patch): one case per numeric check, at SMALL's sizes
NAN_CONTROLS = [
    ("gustafson-ring", "series-oracle-agreement", nan_var_lambda_series),
    ("lifted-ordering", "rate-ordering-minimal<=convex<=maximal", nan_var_lambda),
    ("lifted-ordering", "lifted<=collapsed", nan_var_lambda),
    ("neal-ordering", "pair-variance-identity", nan_var_lambda),
    ("neal-ordering", "never-stay-dominates", nan_var_lambda),
    ("two-cycle-extra-chance", "variance-nonincreasing-in-K", nan_var_lambda_cycle),
    ("two-cycle-extra-chance", "dirichlet-form-nondecreasing-in-K", nan_certificate),
    ("ghmc-phi-compare", "finite-metropolis<=barker", nan_var_lambda_cycle),
    ("ghmc-phi-compare", "mc-metropolis<=barker+2se", nan_mc_chains),
    ("zigzag-1d-gamma", "canonical<=plus-gamma+2se", nan_continuous_estimates),
    ("zigzag-1d-gamma", "dirichlet-gap-nonnegative", nan_gap_quadrature),
    ("zigzag-2d-refresh", "gap-nonnegative-on-basis", nan_gap_quadrature),
    ("zigzag-2d-refresh", "partial<=full+2se", nan_continuous_estimates),
    ("phi-eps-bounds", "balance-symmetry", nan_phi_eps),
    ("phi-eps-bounds", "appendix-bound", nan_phi_eps),
    ("phi-eps-bounds", "monotone-in-eps", nan_phi_eps),
]


# psd_certificate refuses a NaN Gram form, so this runner raises, naming the
# check, and the run exits 3 before it reports any check
RAISES_ON_NAN = {("zigzag-2d-refresh", "gap-nonnegative-on-basis")}


@pytest.mark.parametrize("name, check, patch", NAN_CONTROLS,
                         ids=[f"{name}::{check}" for name, check, _p in NAN_CONTROLS])
def test_nan_evidence_fails_the_check(monkeypatch, name, check, patch):
    patch(monkeypatch)
    if (name, check) in RAISES_ON_NAN:
        with pytest.raises(ValueError, match=f"^check {check}: .* not finite$"):
            named_check(name, SMALL.get(name, {}), check)
        return
    found = named_check(name, SMALL.get(name, {}), check)
    assert not found["pass"]
    assert math.isnan(found["max_violation"])


# (criterion, engine): each of criteria 3-5 folds its excesses through
# finite.worst_excess, so an engine that returns NaN fails it
NAN_CRITERIA = [
    ("test_criterion_03_lifted_chain", "var_lambda"),
    ("test_criterion_04_pair_space_identity", "var_lambda"),
    ("test_criterion_05_two_cycle_identities", "var_lambda"),
    ("test_criterion_05_two_cycle_identities", "var_lambda_cycle"),
]


@pytest.mark.parametrize("criterion, engine", NAN_CRITERIA)
def test_nan_evidence_fails_the_criterion(monkeypatch, criterion, engine):
    import test_acceptance  # imported here, so pytest does not collect it twice

    nan_array_from(monkeypatch, finite, engine)
    with pytest.raises(AssertionError, match="nan < 1e-09"):
        getattr(test_acceptance, criterion)()


def test_check_without_evidence_exits_3(monkeypatch, tmp_path, capsys):
    # the finite engine returns no variance at all: the check cannot pass,
    # and the run writes no summary
    monkeypatch.setattr(finite, "var_lambda_cycle", lambda *args: np.empty(0))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "ghmc-phi-compare", "seed": 1,
                                "out": str(tmp_path / "out")}))
    assert cli.main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "finite-metropolis<=barker" in err  # the check without evidence
    assert not (tmp_path / "out" / "ghmc-phi-compare_summary.json").exists()


def test_nan_gram_form_exits_3_naming_the_check(monkeypatch, tmp_path, capsys):
    nan_gap_quadrature(monkeypatch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "zigzag-2d-refresh", "seed": 1,
                                "out": str(tmp_path / "out")}))
    assert cli.main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: check gap-nonnegative-on-basis" in err
    assert "not finite" in err and "did not converge" not in err


# "experiment :: check" of each check with no power at the catalog's
# defaults, which therefore has no control; the README lists each under "no
# power at their defaults"
NO_POWER = {"zigzag-2d-refresh :: partial<=full+2se"}

# the checks that report 0.0 or 1.0, not a computed excess; every other
# check is numeric and needs a NaN control
STRUCTURAL = {f"gustafson-ring :: {check}" for check in
              ("invariance", "muQ-reversible", "reversible-parts-detailed-balance")}


def test_every_check_has_a_control_or_no_power():
    emitted = set()
    for name, (_desc, defaults, runner) in experiments.EXPERIMENTS.items():
        _rows, checks = runner({**defaults, **SMALL.get(name, {})}, 1)
        emitted |= {f"{name} :: {c['name']}" for c in checks}
    controlled = {f"{name} :: {check}" for _id, name, _o, check, _p in CONTROLS}
    assert emitted - controlled - NO_POWER == set()
    assert controlled | NO_POWER <= emitted and not controlled & NO_POWER
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert all(f"`{check}`" in readme for check in NO_POWER)
    nan_controlled = {f"{name} :: {check}" for name, check, _p in NAN_CONTROLS}
    assert len(nan_controlled) == len(NAN_CONTROLS)
    assert nan_controlled == emitted - STRUCTURAL and STRUCTURAL <= emitted


# every catalog check's tolerance, pinned: a loosened tol fails here
TOLS = {
    "gustafson-ring": {"invariance": 1e-9, "muQ-reversible": 1e-9,
                       "reversible-parts-detailed-balance": 1e-9,
                       "series-oracle-agreement": 1e-8},
    "lifted-ordering": {"rate-ordering-minimal<=convex<=maximal": 1e-9,
                        "lifted<=collapsed": 1e-9},
    "neal-ordering": {"pair-variance-identity": 1e-9, "never-stay-dominates": 1e-9},
    "two-cycle-extra-chance": {"variance-nonincreasing-in-K": 1e-9,
                               "dirichlet-form-nondecreasing-in-K": 1e-10},
    "ghmc-phi-compare": {"finite-metropolis<=barker": 1e-9,
                         "mc-metropolis<=barker+2se": 0.0},
    "zigzag-1d-gamma": {"canonical<=plus-gamma+2se": 0.0, "dirichlet-gap-nonnegative": 1e-8},
    "zigzag-2d-refresh": {"gap-nonnegative-on-basis": 1e-8, "partial<=full+2se": 0.0},
    "phi-eps-bounds": {"balance-symmetry": 1e-10, "appendix-bound": 1e-12,
                       "monotone-in-eps": 1e-12},
}
# each tolerance, and the next float above it
BOUNDARIES = sorted({v for tols in TOLS.values() for t in tols.values()
                     for v in (t, math.nextafter(t, math.inf))})


def catalog_summaries(out: Path) -> dict:
    """The checks of every catalog entry's <name>_summary.json, run through
    the CLI at SMALL's sizes; the exit code must agree with the flags."""
    checks = {}
    for name in experiments.EXPERIMENTS:
        path = out / f"{name}.json"
        path.write_text(json.dumps({"experiment": name, "seed": 1, **SMALL.get(name, {})}))
        code = cli.main(["run", str(path), "--out", str(out)])
        summary = json.loads((out / f"{name}_summary.json").read_text(encoding="utf-8"))
        checks[name] = summary["checks"]
        assert code == (0 if all(c["pass"] for c in checks[name]) else 3)
    return checks


def test_pass_flag_is_its_violation_within_its_pinned_tol(tmp_path):
    summaries = catalog_summaries(tmp_path)
    assert list(summaries) == list(TOLS)
    for name, checks in summaries.items():
        assert {c["name"]: c["tol"] for c in checks} == TOLS[name]
        for c in checks:
            assert c["pass"] == (c["max_violation"] <= c["tol"]), (name, c)


@pytest.mark.parametrize("violation", BOUNDARIES)
def test_pass_flag_flips_at_its_tol(violation, tmp_path, monkeypatch):
    # every check reads the same violation: each passes at its tol, and
    # fails one float above it
    monkeypatch.setattr(finite, "worst_excess", lambda excess: violation)
    for name, checks in catalog_summaries(tmp_path).items():
        for c in checks:
            assert c["max_violation"] == violation
            assert c["pass"] == (violation <= TOLS[name][c["name"]]), (name, c)
