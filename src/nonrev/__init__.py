"""Numerical laboratory for variance orderings of nonreversible samplers.

Five pieces: exact finite-state linear algebra (:mod:`nonrev.finite`),
kernel constructors (:mod:`nonrev.zoo`), continuous-state samplers and
estimators (:mod:`nonrev.samplers`), the Zig-Zag process
(:mod:`nonrev.zigzag`), and the CLI experiment harness
(:mod:`nonrev.cli` / :mod:`nonrev.experiments`).
"""

__version__ = "0.1.0"
