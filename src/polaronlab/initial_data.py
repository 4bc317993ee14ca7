"""Parameterized initial-data families.

Gaussian wave packets for the electron field, Gaussian or single-shell
profiles for the phonon field, and a seeded random smooth generator with
frequency-decaying coefficients.  All families are deterministic functions
of their parameters and the seed.
"""

from __future__ import annotations

import numpy as np

from .spectral import PhasePoint, SpectralGrid


def gaussian_u(grid: SpectralGrid, amplitude: float = 0.5,
               center: tuple | None = None, width: float = 1.5,
               momentum: tuple | None = None) -> np.ndarray:
    """amp * exp(-|x-c|^2 / (2 w^2)) * exp(i p.x).

    The envelope is not periodized; keep the width small against the box so
    the wrap-around tail sits below test tolerances.
    """
    if center is None:
        center = (grid.length / 2.0,) * grid.d
    if momentum is None:
        momentum = (0.0,) * grid.d
    r2 = np.zeros(grid.shape)
    phase = np.zeros(grid.shape)
    for i in range(grid.d):
        xi = grid.x_axis.reshape((1,) * i + (grid.n,) + (1,) * (grid.d - 1 - i))
        r2 = r2 + (xi - center[i]) ** 2
        phase = phase + momentum[i] * xi
    return amplitude * np.exp(-r2 / (2.0 * width**2)) * np.exp(1j * phase)


def gaussian_alpha(grid: SpectralGrid, amplitude: float = 0.3,
                   k_width: float = 1.0) -> np.ndarray:
    """amp * exp(-|k|^2 / (2 kw^2)) on the frequency lattice."""
    return (amplitude * np.exp(-grid.k_sq / (2.0 * k_width**2))
            ).astype(np.complex128)


def shell_alpha(grid: SpectralGrid, amplitude: float = 0.3,
                radius: float = 1.0, width: float = 0.3) -> np.ndarray:
    """Smooth single-shell profile amp * exp(-(|k|-r)^2 / (2 w^2))."""
    return (amplitude * np.exp(-((grid.k_mag - radius) ** 2) / (2.0 * width**2))
            ).astype(np.complex128)


def random_smooth_u(grid: SpectralGrid, rng: np.random.Generator,
                    amplitude: float = 0.5, k_cut: float = 1.0) -> np.ndarray:
    """Random field with Gaussian coefficients decaying like exp(-|k|^2/2kc^2),
    normalized to the requested L2 amplitude."""
    coef = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    coef *= np.exp(-grid.k_sq / (2.0 * k_cut**2))
    u = grid.inverse(coef)
    nrm = grid.norm_x(u)
    return u * (amplitude / nrm) if nrm > 0 else u


def random_smooth_alpha(grid: SpectralGrid, rng: np.random.Generator,
                        amplitude: float = 0.3, k_cut: float = 1.0) -> np.ndarray:
    coef = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    coef *= np.exp(-grid.k_sq / (2.0 * k_cut**2))
    nrm = grid.norm_k(coef)
    return coef * (amplitude / nrm) if nrm > 0 else coef


def random_smooth_state(grid: SpectralGrid, seed: int, u_amp: float = 0.5,
                        alpha_amp: float = 0.3, k_cut: float = 1.0) -> PhasePoint:
    rng = np.random.default_rng(seed)
    return PhasePoint(grid,
                      random_smooth_u(grid, rng, u_amp, k_cut),
                      random_smooth_alpha(grid, rng, alpha_amp, k_cut))


def random_smooth_states(grid: SpectralGrid, n_states: int, seed: int,
                         **amplitudes):
    """random_smooth_state for the seeds seed, seed + 1, ..., in order."""
    return (random_smooth_state(grid, seed + i, **amplitudes)
            for i in range(n_states))


U_FAMILIES = ("zero", "gaussian", "random_smooth")
ALPHA_FAMILIES = ("zero", "gaussian", "shell", "random_smooth")


def build_state(grid: SpectralGrid, params: dict, seed: int) -> PhasePoint:
    """Assemble a phase point from flat config parameters."""
    rng = np.random.default_rng(seed)
    fam_u = params.get("u_family", "gaussian")
    if fam_u == "zero":
        u = np.zeros(grid.shape, dtype=np.complex128)
    elif fam_u == "gaussian":
        u = gaussian_u(grid,
                       amplitude=params.get("u_amp", 0.5),
                       center=params.get("u_center"),
                       width=params.get("u_width", 1.5),
                       momentum=params.get("u_momentum"))
    elif fam_u == "random_smooth":
        u = random_smooth_u(grid, rng, amplitude=params.get("u_amp", 0.5),
                            k_cut=params.get("k_cut", 1.0))
    else:
        raise ValueError(f"unknown u family {fam_u!r}; choose from {U_FAMILIES}")

    fam_a = params.get("alpha_family", "gaussian")
    if fam_a == "zero":
        alpha = np.zeros(grid.shape, dtype=np.complex128)
    elif fam_a == "gaussian":
        alpha = gaussian_alpha(grid, amplitude=params.get("alpha_amp", 0.3),
                               k_width=params.get("alpha_width", 1.0))
    elif fam_a == "shell":
        alpha = shell_alpha(grid, amplitude=params.get("alpha_amp", 0.3),
                            radius=params.get("shell_radius", 1.0),
                            width=params.get("shell_width", 0.3))
    elif fam_a == "random_smooth":
        alpha = random_smooth_alpha(grid, rng,
                                    amplitude=params.get("alpha_amp", 0.3),
                                    k_cut=params.get("k_cut", 1.0))
    else:
        raise ValueError(
            f"unknown alpha family {fam_a!r}; choose from {ALPHA_FAMILIES}")
    return PhasePoint(grid, u, alpha)
