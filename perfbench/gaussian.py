"""Closed-form Gaussian oracles for the field estimators.

Written from the definitions in ``randomfield``'s docstrings, independently
of its code: the synthesized field is exactly Gaussian with the covariance
given by the (DC-free) power table, so one-point, two-point and the sampling
variance of a spatial average all follow from the lattice correlation map.
"""

from __future__ import annotations

import math

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)


def normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def power_table(spectrum, index, center, width, cutoff, dim, side) -> np.ndarray:
    """Unnormalized power at every lattice mode, zero at DC (the CLI's spec)."""
    axes = [np.fft.fftfreq(side) * side for _ in range(dim)]
    k = np.sqrt(sum(g * g for g in np.meshgrid(*axes, indexing="ij", sparse=True)))
    if spectrum == "white":
        power = np.ones_like(k)
    elif spectrum == "power_law":
        power = np.where(k > 0.0, k, 1.0) ** index
    else:
        power = np.exp(-0.5 * ((k - center) / width) ** 2)
    power[k == 0.0] = 0.0
    if cutoff > 0.0:
        power[k > cutoff] = 0.0
    return power


def correlation_map(power: np.ndarray) -> np.ndarray:
    """rho(y) for every lattice offset y, with rho(0) = 1."""
    half = power[..., : power.shape[-1] // 2 + 1]
    cov = np.fft.irfftn(half, s=power.shape, axes=range(power.ndim))
    return cov / cov.flat[0]


def rectangle_prob(a: float, b: float, rho) -> np.ndarray:
    """P(a <= X < b, a <= Y < b) for standard normals with correlation rho.

    Plackett's identity d Phi2 / d rho = phi2, integrated in theta = asin(r)
    so the integrand stays smooth up to |rho| = 1.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    top = np.arcsin(np.clip(rho, -1.0, 1.0))
    theta = 0.5 * top[:, None] * (_NODES[None, :] + 1.0)
    s, c2 = np.sin(theta), np.cos(theta) ** 2
    # interior Gauss nodes keep |theta| < pi/2, so c2 > 0
    integrand = (
        np.exp(-b * b / (1.0 + s))
        - 2.0 * np.exp(-(a * a - 2.0 * a * b * s + b * b) / (2.0 * c2))
        + np.exp(-a * a / (1.0 + s))
    )
    integral = 0.5 * top * (integrand @ _WEIGHTS) / (2.0 * math.pi)
    band = normal_cdf(b) - normal_cdf(a)
    return band * band + integral


def one_point_sigma(a: float, b: float, rho_map: np.ndarray) -> float:
    """Exact standard deviation of the spatial mean of 1[a <= X < b].

    Var = (1/N^2) sum_{x,x'} Cov = (1/N) sum_y (P2(rho(y)) - p^2); P2 is
    tabulated on a fine rho grid and interpolated.
    """
    grid = np.linspace(-1.0, 1.0, 4001)
    p = normal_cdf(b) - normal_cdf(a)
    cov = rectangle_prob(a, b, grid) - p * p
    var = float(np.interp(rho_map.ravel(), grid, cov).sum()) / rho_map.size
    return math.sqrt(max(var, 0.0))
