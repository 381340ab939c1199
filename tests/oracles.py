"""Test oracles and fixtures that the package itself never calls.

Each one recomputes a quantity of the package by a different route (a
truncated series, a half-square-sum form, an explicit symmetrization) or
builds a target the catalog does not use, so it lives beside the tests that
use it rather than inside the package under test.
"""

import numpy as np
from scipy.interpolate import CubicSpline

from nonrev.finite import (FiniteDistribution, KernelMatrix, Observable,
                           centered, inner)
from nonrev.samplers import Potential
from nonrev.zoo import SubKernelPair, SwitchingRate, collapsed_kernel, lifted_kernel


def dirichlet_form(f: Observable, P: KernelMatrix, mu: FiniteDistribution) -> float:
    """<f, (Id - P) f>_mu."""
    v = f.values
    return inner(v, v - P.entries @ v, mu)


def dirichlet_form_halfsum(f: Observable, P: KernelMatrix, mu: FiniteDistribution) -> float:
    """Half-square-sum form (1/2) sum mu(z) P(z,z') [f(z') - f(z)]^2.

    Agrees with dirichlet_form only when P is mu-reversible.
    """
    d = f.values[None, :] - f.values[:, None]
    return float(0.5 * np.sum(mu.weights[:, None] * P.entries * d * d))


def var_lambda_cycle_series(f: Observable, P1: KernelMatrix, P2: KernelMatrix,
                            mu: FiniteDistribution, lam: float,
                            truncation: int | None = None) -> float:
    """Truncated-series oracle for finite.var_lambda_cycle."""
    fbar = centered(f, mu)
    if lam == 0.0:
        return inner(fbar, fbar, mu)
    if truncation is None:
        truncation = int(np.ceil(np.log(1e-14) / np.log(lam ** 2))) + 1
    total = -inner(fbar, fbar, mu)
    a = fbar.copy()  # (P1 P2)^k fbar
    b = fbar.copy()  # (P2 P1)^k fbar
    for k in range(truncation + 1):
        w = lam ** (2 * k)
        total += w * inner(fbar, a + lam * P1.entries @ a, mu)
        total += w * inner(fbar, b + lam * P2.entries @ b, mu)
        a = P1.entries @ (P2.entries @ a)
        b = P2.entries @ (P1.entries @ b)
    return total


def symmetrized_lift_identity_residual(pair: SubKernelPair, rho: SwitchingRate,
                                       kmax: int = 30) -> float:
    """Max residual of S(P^lifted)^k f-lift = lift of P^k f over k <= kmax.

    S denotes the mu-symmetrization (P + P*)/2; the identity underlies the
    lifted-vs-collapsed variance bound.
    """
    lifted, mu, _ = lifted_kernel(pair, rho)
    coll = collapsed_kernel(pair)
    # mu-adjoint of the lifted kernel
    w = mu.weights
    adj = (w[None, :] * lifted.entries.T) / w[:, None]
    S = (lifted.entries + adj) / 2.0
    n = pair.pi.n
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        f = rng.standard_normal(n)
        fl = np.repeat(f, 2)
        pf = f.copy()
        sf = fl.copy()
        for _k in range(kmax):
            pf = coll.entries @ pf
            sf = S @ sf
            worst = max(worst, float(np.max(np.abs(sf - np.repeat(pf, 2)))))
    return worst


def zz_tabulated(xs, us) -> Potential:
    """1-D potential interpolated with a cubic spline through (xs, us)."""
    spline = CubicSpline(np.asarray(xs, dtype=float), np.asarray(us, dtype=float))
    dspline = spline.derivative()
    d2 = spline.derivative(2)
    grid = np.linspace(xs[0], xs[-1], 2049)
    bmax = float(np.max(np.abs(d2(grid)))) * 1.05 + 1e-9

    return Potential(
        U=lambda x: spline(x[..., 0]),
        grad=lambda x: dspline(x),
        d=1,
        hessian_bound=lambda x, v, tau: bmax,
    )

