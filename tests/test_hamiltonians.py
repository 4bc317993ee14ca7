import math

import numpy as np
import pytest

from polaronlab.hamiltonians import (
    GRADIENT_TOL,
    GradientPair,
    fd_gradient_errors,
    grad_dressed,
    grad_dressed_interaction,
    grad_undressed,
    grad_undressed_interaction,
    h_dressed,
    h_undressed,
    kinetic_energy,
)
from polaronlab.initial_data import random_smooth_state
from polaronlab.spectral import PhasePoint, build_grid


class TestUndressed:
    def test_zero_state(self, grid16):
        e = h_undressed(PhasePoint.zero(grid16))
        assert e.total == 0.0 and e.kinetic == 0.0 and e.phonon == 0.0

    def test_decoupling_u_zero(self, grid16, rng):
        alpha = rng.standard_normal(grid16.shape) + 0j
        z = PhasePoint(grid16, np.zeros(grid16.shape, dtype=complex), alpha)
        e = h_undressed(z)
        assert e.total == pytest.approx(grid16.norm_k(alpha) ** 2, rel=1e-14)
        assert e.kinetic == 0.0
        assert e.interaction["coupling"] == 0.0

    def test_matches_direct_sum_oracle(self):
        # naive per-axis DFT matrices, no FFT anywhere
        g = build_grid(3, 16, 12.0)
        z = random_smooth_state(g, seed=3, u_amp=0.6, alpha_amp=0.4, k_cut=0.9)
        w = np.exp(-1j * np.outer(g.k_axis, g.x_axis))

        def dft(u):
            out = u.astype(complex)
            for ax in range(3):
                out = np.moveaxis(
                    np.tensordot(w, np.moveaxis(out, ax, 0), axes=1), 0, ax)
            return out * g.dx

        uk = dft(z.u)  # dx-weighted sum, so divide Parseval by (2 pi)^d
        kin = float(np.sum(g.k_sq * np.abs(uk) ** 2)) * g.dk \
            / (2 * math.pi) ** 3
        phon = float(np.sum(np.abs(z.alpha) ** 2)) * g.dk
        winv = np.exp(1j * np.outer(g.k_axis, g.x_axis))

        def dft_back(vk):
            out = vk.astype(complex)
            for ax in range(3):
                out = np.moveaxis(
                    np.tensordot(winv, np.moveaxis(out, ax, 0), axes=1),
                    0, ax)
            return out * g.dk

        a_field = 2.0 * np.real(dft_back(z.alpha * g.f_inf))
        coup = float(np.sum(a_field * np.abs(z.u) ** 2)) * g.dx
        e = h_undressed(z)
        assert e.kinetic == pytest.approx(kin, rel=1e-10)
        assert e.phonon == pytest.approx(phon, rel=1e-14)
        assert e.interaction["coupling"] == pytest.approx(coup, rel=1e-10)

    def test_gauge_covariance(self, grid16, smooth_state):
        z = smooth_state
        rotated = PhasePoint(grid16, np.exp(1j * 0.7) * z.u, z.alpha)
        assert h_undressed(rotated).total == pytest.approx(
            h_undressed(z).total, rel=1e-13)

    def test_cubic_interaction_scaling(self, grid16, smooth_state):
        z = smooth_state
        base = h_undressed(z)
        for lam in (1.0, 2.0, 4.0):
            zs = z.scaled(lam)
            e = h_undressed(zs)
            quad = lam**2 * (base.kinetic + base.phonon)
            assert e.kinetic + e.phonon == pytest.approx(quad, rel=1e-12)
            assert e.interaction["coupling"] == pytest.approx(
                lam**3 * base.interaction["coupling"], rel=1e-12)


class TestDressed:
    def test_alpha_only_state(self, grid16, ff16, rng):
        alpha = rng.standard_normal(grid16.shape) + 0j
        z = PhasePoint(grid16, np.zeros(grid16.shape, dtype=complex), alpha)
        e = h_dressed(z, ff16)
        assert e.total == pytest.approx(grid16.norm_k(alpha) ** 2, rel=1e-14)
        assert all(v == 0.0 for v in e.interaction.values())

    def test_u_only_state(self, grid16, ff16, smooth_state):
        z = PhasePoint(grid16, smooth_state.u,
                       np.zeros(grid16.shape, dtype=complex))
        e = h_dressed(z, ff16)
        assert e.interaction["coupling_ir"] == 0.0
        assert e.interaction["quadratic"] == 0.0
        assert e.interaction["drift"] == 0.0
        assert e.interaction["pair"] != 0.0
        assert e.total == pytest.approx(e.kinetic + e.interaction["pair"],
                                        rel=1e-12)

    def test_breakdown_sums(self, ff16, smooth_state):
        e = h_dressed(smooth_state, ff16)
        assert e.total == e.kinetic + e.phonon + sum(e.interaction.values())


class TestGradients:
    def test_zero_state_gradient(self, grid16, ff16):
        z = PhasePoint.zero(grid16)
        for gp in (grad_undressed(z), grad_dressed(z, ff16)):
            assert not np.any(gp.du)
            assert not np.any(gp.dalpha)

    def test_free_limit_is_laplacian(self, grid16, smooth_state):
        z = PhasePoint(grid16, smooth_state.u,
                       np.zeros(grid16.shape, dtype=complex))
        gp = grad_undressed(z)
        lap = grid16.inverse(grid16.k_sq * grid16.fourier(z.u))
        assert np.max(np.abs(gp.du - lap)) < 1e-13

    @pytest.mark.parametrize("which", ["undressed", "dressed"])
    def test_total_gradient_fd(self, grid16, ff16, smooth_state, rng, which):
        z = smooth_state
        if which == "undressed":
            fun = lambda zz: h_undressed(zz).total
            gp = grad_undressed(z)
        else:
            fun = lambda zz: h_dressed(zz, ff16).total
            gp = grad_dressed(z, ff16)
        assert max(fd_gradient_errors(fun, gp, z, 25, rng)) < GRADIENT_TOL

    def test_interaction_is_full_minus_free(self, grid16, ff16,
                                            smooth_state):
        z = smooth_state
        gp_int = grad_dressed_interaction(z, ff16)
        full = grad_dressed(z, ff16)
        lap = grid16.inverse(grid16.k_sq * grid16.fourier(z.u))
        assert np.max(np.abs(full.du - lap - gp_int.du)) < 1e-11
        assert np.max(np.abs(full.dalpha - z.alpha - gp_int.dalpha)) < 1e-11

    def test_interaction_gradient_fd(self, grid16, ff16, smooth_state, rng):
        z = smooth_state
        fun = lambda zz: sum(h_dressed(zz, ff16).interaction.values())
        gp = grad_dressed_interaction(z, ff16)
        assert max(fd_gradient_errors(fun, gp, z, 15, rng)) < GRADIENT_TOL

    def test_undressed_interaction_gradient_fd(self, grid16, smooth_state,
                                               rng):
        z = smooth_state
        fun = lambda zz: h_undressed(zz).interaction["coupling"]
        gp = grad_undressed_interaction(z)
        assert max(fd_gradient_errors(fun, gp, z, 15, rng)) < GRADIENT_TOL

    def test_kinetic_phonon_fd(self, grid16, smooth_state, rng):
        z = smooth_state
        gp = GradientPair(du=grid16.inverse(grid16.k_sq * grid16.fourier(z.u)),
                          dalpha=np.zeros(grid16.shape, dtype=complex))
        errors = fd_gradient_errors(kinetic_energy, gp, z, 1, rng)
        assert errors[0] < GRADIENT_TOL
