"""Spans recorded from outside the program, around calls into its public
module-level functions.

Every wrapped function is looked up through its module's globals by its
callers, so replacing the module attribute is enough to see each call; the
program's sources are not edited.  Wrappers exist only inside
``Tracer.installed()``, so untraced passes run the unmodified functions.

A span is (name, start, end, parent, size), kept in flat arrays in memory
and written out once, at the end of the run.  Calls are sequential on one
thread, so spans nest strictly and a span's children cover the sum of
their durations; self time is the duration minus that sum.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

import numpy as np

# Split between the ordering-suite kernels (at most 12 states) and the
# ring-phase kernels (hundreds of states) of the finite-exact workload.
SMALL_SOLVE_MAX_STATES = 64


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _ghmc_transitions(args, kwargs):
    n_steps = _arg(args, kwargs, 5, "n_steps")
    replicates = _arg(args, kwargs, 6, "replicates")
    burn_in = kwargs.get("burn_in", args[10] if len(args) > 10 else 0)
    return float(replicates * (n_steps + burn_in))


def _ghmc_accepts(tracer, out):
    """Steps whose first returned observable changed: a proxy for accepts."""
    chains = np.asarray(out[0])
    tracer.counts["samplers.ghmc.changed"] += int(np.count_nonzero(np.diff(chains, axis=1)))
    tracer.counts["samplers.ghmc.steps"] += chains.shape[0] * (chains.shape[1] - 1)


def _zz_events(tracer, traj):
    tracer.counts["zigzag.events"] += traj.n_events


# (module, function, size of the call, hook on the result).  The size is the
# state count for finite solves, transitions for the GHMC driver and
# samples for the estimator.
SPANS = [
    ("cli", "main", None, None),
    ("finite", "var_lambda", lambda a, k: _arg(a, k, 1, "P").n, None),
    ("finite", "var_lambda_cycle", lambda a, k: _arg(a, k, 1, "P1").n, None),
    ("finite", "var_lambda_series", None, None),
    ("finite", "verify_ordering_theorem", None, None),
    ("finite", "dirichlet_dominance_certificate", None, None),
    ("finite", "check_invariance", None, None),
    ("finite", "check_isometric_involution", None, None),
    ("finite", "check_muQ_reversible", None, None),
    ("finite", "check_mu_reversible", None, None),
    ("finite", "reversible_parts", None, None),
    ("zoo", "gustafson_ring", None, None),
    ("zoo", "mh_subkernels", None, None),
    ("zoo", "lifted_kernel", None, None),
    ("zoo", "collapsed_kernel", None, None),
    ("zoo", "guided_walk_ring", None, None),
    ("zoo", "neal_pair_kernels", None, None),
    ("zoo", "metropolized_flow_finite", None, None),
    ("zoo", "ring_shift_flow", None, None),
    ("zoo", "extra_chance_finite", None, None),
    ("zoo", "velocity_flip", None, None),
    ("zoo", "half_lift", None, None),
    ("zoo", "lift_observable", None, None),
    ("samplers", "compare_acceptance_rules", None, None),
    ("samplers", "run_ghmc_chains", _ghmc_transitions, _ghmc_accepts),
    ("samplers", "estimate_var_lambda",
     lambda a, k: float(np.size(_arg(a, k, 0, "chains"))), None),
    ("zigzag", "estimate_var_continuous", None, None),
    ("zigzag", "simulate_zigzag", None, _zz_events),
    ("zigzag", "trajectory_integral", None, None),
    ("zigzag", "dirichlet_gap_quadrature", None, None),
]
# Called about 13 times per thinned event: counted, not timed.
COUNTERS = [("zigzag", "intensity")]

CHECKS = ("finite.check_invariance", "finite.check_isometric_involution",
          "finite.check_muQ_reversible", "finite.check_mu_reversible",
          "finite.reversible_parts")


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.child = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn, size, on_result):
        nid = self._id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.size.append(size(args, kwargs) if size else 0.0)
            self.end.append(0.0)
            self.child.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t = clock()
                self.end[idx] = t
                self._stack.pop()
                if self._stack:
                    self.child[self._stack[-1]] += t - self.start[idx]
            if on_result:
                on_result(self, out)
            return out

        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Replace the traced module attributes for the duration of a pass."""
        saved = []
        try:
            for mod, fname, size, on_result in SPANS:
                m = self.modules[mod]
                saved.append((m, fname, getattr(m, fname)))
                setattr(m, fname, self._span(f"{mod}.{fname}", saved[-1][2],
                                             size, on_result))
            for mod, fname in COUNTERS:
                m = self.modules[mod]
                saved.append((m, fname, getattr(m, fname)))
                setattr(m, fname, self._counter(f"{mod}.{fname}", saved[-1][2]))
            yield self
        finally:
            for m, fname, fn in reversed(saved):
                setattr(m, fname, fn)

    def arrays(self) -> dict:
        ids = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        return {"name": ids, "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": start, "end": end, "size": np.frombuffer(self.size),
                "self": (end - start) - np.frombuffer(self.child)}

    def nesting_violations(self) -> int:
        """Spans left open, negative self times, and children whose self
        time exceeds their parent's duration."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_self = a["self"][has_parent]
        parent_dur = dur[a["parent"][has_parent]]
        return (len(self._stack) + int(np.count_nonzero(a["self"] < -1e-9))
                + int(np.count_nonzero(child_self > parent_dur + 1e-9)))

    def _outermost(self, a: dict, members: set) -> float:
        """Time covered by spans in ``members`` with no ancestor in it."""
        ids = {self._ids[n] for n in members if n in self._ids}
        inside = np.zeros(a["name"].size, dtype=bool)
        total = 0.0
        for i, (nid, p) in enumerate(zip(a["name"].tolist(), a["parent"].tolist())):
            covered = p >= 0 and inside[p]
            if nid in ids and not covered:
                total += a["end"][i] - a["start"][i]
            inside[i] = covered or nid in ids
        return total

    def layer_metrics(self) -> dict:
        """Per-layer numbers of this pass; ``trace.overhead_s`` is left to
        the caller, which has the untraced passes."""
        a = self.arrays()
        dur = a["end"] - a["start"]

        def mask(name):
            return a["name"] == self._ids.get(name, -1)

        def calls(name):
            return float(np.count_nonzero(mask(name)))

        def total(name):
            return float(dur[mask(name)].sum())

        def self_s(name):
            return float(a["self"][mask(name)].sum())

        def rate(num, den):
            return num / den if den > 0 else 0.0

        c = self.counts
        vl, cyc = mask("finite.var_lambda"), mask("finite.var_lambda_cycle")
        n_vl, n_cyc = a["size"][vl], a["size"][cyc]
        small = vl & (a["size"] <= SMALL_SOLVE_MAX_STATES)
        flop = (np.sum(2 / 3 * n_vl ** 3 + 2 * n_vl ** 2)
                + 2 * np.sum(2 / 3 * n_cyc ** 3 + 2 * n_cyc ** 2))
        solve_s = total("finite.var_lambda") + total("finite.var_lambda_cycle")
        ghmc_s = total("samplers.run_ghmc_chains")
        evl_s = total("samplers.estimate_var_lambda")
        zz_s = total("zigzag.simulate_zigzag")
        transitions = float(a["size"][mask("samplers.run_ghmc_chains")].sum())
        events = float(c["zigzag.events"])
        zoo_names = {n for n in self.names if n.startswith("zoo.")}
        return {
            "samplers.run_ghmc_chains.calls": calls("samplers.run_ghmc_chains"),
            "samplers.run_ghmc_chains.s": ghmc_s,
            "samplers.ghmc.transitions": transitions,
            "samplers.ghmc.transitions_per_s": rate(transitions, ghmc_s),
            "samplers.ghmc.accept_ratio": rate(c["samplers.ghmc.changed"],
                                               c["samplers.ghmc.steps"]),
            "samplers.estimate_var_lambda.calls": calls("samplers.estimate_var_lambda"),
            "samplers.estimate_var_lambda.s": evl_s,
            "samplers.estimate_var_lambda.samples_per_s": rate(
                float(a["size"][mask("samplers.estimate_var_lambda")].sum()), evl_s),
            "samplers.compare_acceptance_rules.self_s":
                self_s("samplers.compare_acceptance_rules"),
            "zigzag.simulate_zigzag.calls": calls("zigzag.simulate_zigzag"),
            "zigzag.simulate_zigzag.s": zz_s,
            "zigzag.events": events,
            "zigzag.events_per_s": rate(events, zz_s),
            "zigzag.intensity.calls": float(c["zigzag.intensity"]),
            "zigzag.intensity.calls_per_event": rate(c["zigzag.intensity"], events),
            "zigzag.trajectory_integral.calls": calls("zigzag.trajectory_integral"),
            "zigzag.trajectory_integral.s": total("zigzag.trajectory_integral"),
            "zigzag.dirichlet_gap_quadrature.calls":
                calls("zigzag.dirichlet_gap_quadrature"),
            "zigzag.dirichlet_gap_quadrature.s": total("zigzag.dirichlet_gap_quadrature"),
            "zigzag.estimate_var_continuous.self_s":
                self_s("zigzag.estimate_var_continuous"),
            "finite.verify_ordering_theorem.calls": calls("finite.verify_ordering_theorem"),
            "finite.verify_ordering_theorem.self_s":
                self_s("finite.verify_ordering_theorem"),
            "finite.var_lambda.calls": float(np.count_nonzero(vl)),
            "finite.var_lambda.s": total("finite.var_lambda"),
            "finite.var_lambda.mean_n": float(n_vl.mean()) if n_vl.size else 0.0,
            "finite.var_lambda.small.s": float(dur[small].sum()),
            "finite.var_lambda.large.s": float(dur[vl & ~small].sum()),
            "finite.var_lambda_cycle.calls": float(np.count_nonzero(cyc)),
            "finite.var_lambda_cycle.s": total("finite.var_lambda_cycle"),
            "finite.dirichlet_dominance_certificate.calls":
                calls("finite.dirichlet_dominance_certificate"),
            "finite.dirichlet_dominance_certificate.s":
                total("finite.dirichlet_dominance_certificate"),
            "finite.var_lambda_series.s": total("finite.var_lambda_series"),
            "finite.checks.s": self._outermost(a, set(CHECKS)),
            "finite.solve_gflop_computed": float(flop) / 1e9,
            "finite.solve_gflops": rate(float(flop) / 1e9, solve_s),
            "zoo.construct.s": self._outermost(a, zoo_names),
            "zoo.lifted_kernel.s": total("zoo.lifted_kernel"),
            "zoo.neal_pair_kernels.s": total("zoo.neal_pair_kernels"),
            "zoo.extra_chance_finite.s": total("zoo.extra_chance_finite"),
            "zoo.guided_walk_ring.s": total("zoo.guided_walk_ring"),
            "cli.main.calls": calls("cli.main"),
            "cli.main.s": total("cli.main"),
            "cli.self_s": self_s("cli.main"),
        }

    def span_arrays(self, iteration: int) -> dict:
        """Spans of this pass, tagged with the pass index; ``parent`` indexes
        spans of the same pass.  Every tracer numbers the names in ``SPANS``
        order, so passes share one name table."""
        a = self.arrays()
        a.pop("self")
        a["pass"] = np.full(a["name"].size, iteration, dtype=np.int32)
        return a
