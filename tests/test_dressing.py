import collections

import numpy as np
import pytest
from scipy import fft as sfft

from polaronlab import dressing
from polaronlab.dressing import (
    IDENTITY_TOL,
    cancellation_residual,
    conjugation_order,
    dressing_apply,
    identity_residuals,
    pairing_defects,
    verify_conjugation,
    verify_dressed_identity,
)
from polaronlab.dynamics import EvolutionConfig
from polaronlab.hamiltonians import h_dressed, h_undressed, kinetic_energy
from polaronlab.initial_data import random_smooth_state, random_smooth_states
from polaronlab.spectral import PhasePoint


class TestDressingFlow:
    def test_theta_zero_is_identity(self, ff16, smooth_state):
        z = dressing_apply(smooth_state, 0.0, ff16)
        assert z.distance(smooth_state) < 1e-15

    def test_inverse_flow(self, ff16, smooth_state):
        z = dressing_apply(dressing_apply(smooth_state, 1.0, ff16), -1.0, ff16)
        assert z.distance(smooth_state) < 1e-10

    def test_u_zero_unchanged(self, grid16, ff16, rng):
        alpha = rng.standard_normal(grid16.shape) + 0j
        z = PhasePoint(grid16, np.zeros(grid16.shape, dtype=complex), alpha)
        zd = dressing_apply(z, 1.0, ff16)
        assert zd.distance(z) == 0.0

    def test_pure_phase_preserves_modulus(self, ff16, smooth_state):
        zd = dressing_apply(smooth_state, 1.0, ff16)
        assert np.max(np.abs(np.abs(zd.u) - np.abs(smooth_state.u))) < 1e-14
        assert zd.mass() == pytest.approx(smooth_state.mass(), rel=1e-14)

    def test_group_property(self, ff16, smooth_state, rng):
        for t1, t2 in ((0.4, 0.6), (-0.3, 1.3), (0.25, -0.75)):
            za = dressing_apply(dressing_apply(smooth_state, t1, ff16),
                                t2, ff16)
            zb = dressing_apply(smooth_state, t1 + t2, ff16)
            assert za.distance(zb) < 1e-10

    def test_transform_calls(self, monkeypatch, ff16, smooth_state):
        """|u|^2 is transformed once: the alpha shift and the cancellation
        check share F(|u|^2), and each phase field is one c2r transform."""
        calls = collections.Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in ("fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(sfft, name, counting(name, getattr(sfft, name)))
        dressing_apply(smooth_state, 1.0, ff16)
        assert calls == {"fftn": 1, "irfftn": 2}

    def test_cancellation_residual(self, ff16, smooth_state):
        assert cancellation_residual(smooth_state, ff16) < 1e-10

    def test_h1_propagation(self, grid16, ff16, smooth_state):
        kin0 = kinetic_energy(smooth_state)
        zd = dressing_apply(smooth_state, 1.0, ff16)
        kin1 = kinetic_energy(zd)
        assert np.isfinite(kin1)
        # bounded growth: the phase multiplication shifts derivatives by
        # the bounded field grad(phase)
        assert kin1 < 10.0 * (kin0 + 1.0)

    def test_symplectic_pairing(self, ff16, smooth_state):
        defects = pairing_defects(smooth_state, ff16,
                                  np.random.default_rng(7))
        assert defects[1e-3] <= 1.0 * 1e-3
        assert defects[1e-4] <= 1.0 * 1e-4


class TestDressedIdentity:
    def test_alpha_only_exact(self, grid16, ff16, rng):
        alpha = rng.standard_normal(grid16.shape) + 0j
        z = PhasePoint(grid16, np.zeros(grid16.shape, dtype=complex), alpha)
        assert verify_dressed_identity(z, ff16) == 0.0

    def test_u_only(self, grid16, ff16):
        z0 = random_smooth_state(grid16, seed=21, u_amp=0.5, alpha_amp=0.0,
                                 k_cut=0.5)
        assert verify_dressed_identity(z0, ff16) < 1e-9

    def test_random_smooth_states(self, grid16, ff16):
        info, verdicts, rows = identity_residuals(ff16, random_smooth_states(
            grid16, 20, seed=0, u_amp=0.5, alpha_amp=0.3, k_cut=0.5))
        assert len(rows) == 20
        assert verdicts["identity"]
        assert info["worst_residual"] == max(r["residual"] for r in rows)

    def test_identity_verdict_can_fail(self, ff8, grid8):
        # on the 8^3 box the energy identity is not resolved to IDENTITY_TOL
        info, verdicts, _ = identity_residuals(ff8, random_smooth_states(
            grid8, 5, seed=0, u_amp=0.5, alpha_amp=0.3, k_cut=0.5))
        assert info["worst_residual"] >= IDENTITY_TOL
        assert not verdicts["identity"]

    def test_identity_statement(self, ff16, smooth_state):
        lhs = h_dressed(smooth_state, ff16).total
        rhs = h_undressed(dressing_apply(smooth_state, 1.0, ff16)).total
        assert abs(lhs - rhs) / (1 + abs(lhs)) < 1e-9


class TestConjugation:
    def test_zero_at_t0(self, grid16, ff16, smooth_state):
        cfg = EvolutionConfig(dt=1e-2, t_final=0.1, record_every=1)
        times, errors = verify_conjugation(smooth_state, cfg, ff16)
        assert times[0] == 0.0
        assert errors[0] < 1e-12

    def test_u_zero_invariant_for_all_t(self, grid16, ff16, rng):
        alpha = (rng.standard_normal(grid16.shape)
                 + 1j * rng.standard_normal(grid16.shape))
        z = PhasePoint(grid16, np.zeros(grid16.shape, dtype=complex), alpha)
        cfg = EvolutionConfig(dt=1e-2, t_final=0.2, record_every=5)
        times, errors = verify_conjugation(z, cfg, ff16)
        assert np.max(errors) < 1e-12

    def test_error_drops_fourfold(self, grid16, ff16):
        z = random_smooth_state(grid16, seed=11, u_amp=0.4, alpha_amp=0.25,
                                k_cut=0.35)
        info, _, rows = conjugation_order(z, ff16, (2e-2, 1e-2), 0.5)
        ends = info["errors"]
        assert ends == [r["error"] for r in rows if r["t"] == 0.5]
        assert 3.0 <= ends[0] / ends[1] <= 5.0

    @pytest.mark.parametrize("levels", [(), (1e-2,)])
    def test_order_needs_two_levels(self, monkeypatch, ff16, smooth_state,
                                    levels):
        """No order exists below two levels: refused before any flow."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return verify_conjugation(*args, **kwargs)

        monkeypatch.setattr(dressing, "verify_conjugation", counting)
        with pytest.raises(ValueError, match="two dt levels"):
            conjugation_order(smooth_state, ff16, levels, 0.1)
        assert calls == []
