import cmath
import math
import resource

import numpy as np
import pytest
from scipy import fft as sfft

from polaronlab import spectral
from polaronlab.diagnostics import diagnostics_row, max_relative_drift
from polaronlab.dynamics import (
    BlowUpError,
    EvolutionConfig,
    SubstepConvergenceError,
    dressed_evolve,
    dressed_step,
    energy_order,
    evolve_interaction_picture,
    free_flow,
    interaction_field_X,
    lp_evolve,
    lp_step,
    _alpha_substep,
    _evolve,
    _rk4_increment,
)
from polaronlab.hamiltonians import (
    grad_dressed,
    grad_dressed_interaction,
    grad_undressed,
    h_dressed,
)
from polaronlab.initial_data import random_smooth_state
from polaronlab.spectral import PhasePoint, build_form_factors, build_grid


class TestFreeFlow:
    def test_identity_at_t0(self, grid16, smooth_state):
        z = free_flow(smooth_state, 0.0)
        assert z.distance(smooth_state) < 1e-15

    def test_plane_wave_phase(self, grid16):
        g = grid16
        k0 = g.k_axis[3]
        x = g.x_axis.reshape(-1, 1, 1)
        u = np.exp(1j * k0 * x) * np.ones(g.shape)
        z = PhasePoint(g, u, np.zeros(g.shape, dtype=complex))
        t = 0.37
        zt = free_flow(z, t)
        expected = cmath.exp(-1j * t * k0**2) * u
        assert np.max(np.abs(zt.u - expected)) < 1e-12

    def test_group_law(self, smooth_state):
        z1 = free_flow(free_flow(smooth_state, 0.3), 0.45)
        z2 = free_flow(smooth_state, 0.75)
        assert z1.distance(z2) < 1e-12

    def test_norms_exactly_conserved(self, grid16, smooth_state):
        zt = free_flow(smooth_state, 1.7)
        g = grid16
        assert g.norm_x(zt.u) == pytest.approx(g.norm_x(smooth_state.u),
                                               rel=1e-14)
        assert g.norm_k(zt.alpha) == pytest.approx(
            g.norm_k(smooth_state.alpha), rel=1e-14)
        kin0 = g.norm_k(g.k_mag * g.fourier(smooth_state.u))
        kin1 = g.norm_k(g.k_mag * g.fourier(zt.u))
        assert kin1 == pytest.approx(kin0, rel=1e-13)


class TestLandauPekar:
    def test_origin_is_fixed_point(self, grid16):
        z = lp_step(PhasePoint.zero(grid16), 1e-2)
        assert z.norm() == 0.0

    def test_u_zero_invariant(self, grid16, rng):
        alpha0 = rng.standard_normal(grid16.shape) + 0j
        z = PhasePoint(grid16, np.zeros(grid16.shape, dtype=complex), alpha0)
        for _ in range(10):
            z = lp_step(z, 1e-2)
        assert np.max(np.abs(z.u)) == 0.0
        assert np.max(np.abs(z.alpha - cmath.exp(-1j * 0.1) * alpha0)) < 1e-12

    def test_richardson_self_convergence(self, grid16, ff16, smooth_state):
        ends = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            cfg = EvolutionConfig(dt=dt, t_final=0.5, record_every=10**6)
            ends.append(lp_evolve(smooth_state, cfg, ff16,
                                  collect=False).final())
        # errors against a dt/8 reference, so that the reference's own
        # error does not bias the ratio of two consecutive halvings
        cfg = EvolutionConfig(dt=1.25e-3, t_final=0.5, record_every=10**6)
        ref = lp_evolve(smooth_state, cfg, ff16, collect=False).final()
        errs = [z.distance(ref) for z in ends]
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.0

    def test_mass_conserved_to_roundoff(self, grid16, ff16, smooth_state):
        cfg = EvolutionConfig(dt=1e-3, t_final=0.2, record_every=50)
        traj = lp_evolve(smooth_state, cfg, ff16)
        assert max_relative_drift([r.mass for r in traj.rows]) < 1e-12

    def test_reversibility(self, smooth_state):
        back = lp_step(lp_step(smooth_state, 1e-3), -1e-3)
        assert back.distance(smooth_state) < 1e-10

    def test_energy_drift_halves_by_four(self, grid16, ff16, smooth_state):
        drifts = []
        for dt in (4e-3, 2e-3):
            cfg = EvolutionConfig(dt=dt, t_final=0.4, record_every=20)
            traj = lp_evolve(smooth_state, cfg, ff16)
            drifts.append(max_relative_drift([r.h.total for r in traj.rows]))
        assert 3.0 <= drifts[0] / drifts[1] <= 5.0

    def test_rk4_scheme_agrees(self, grid16, ff16, smooth_state):
        # RK4 on the full gradient dz/dt = -i grad_zbar h as a reference
        def rhs(_t, z):
            grad = grad_undressed(z)
            return PhasePoint(z.grid, -1j * grad.du, -1j * grad.dalpha,
                              check=False)

        cfg = EvolutionConfig(dt=1e-3, t_final=0.05, record_every=10**6)
        zs = lp_evolve(smooth_state, cfg, ff16, collect=False).final()
        zr = _evolve(smooth_state, cfg, ff16,
                     lambda z: _rk4_increment(z, cfg.dt, rhs),
                     collect=False).final()
        assert zs.distance(zr) < 1e-6

    def test_blow_up_detection(self, grid16, ff16, smooth_state):
        cfg = EvolutionConfig(dt=1e-3, t_final=0.01, record_every=1)
        amplifier = lambda z: z.scaled(1e7)
        with pytest.raises(BlowUpError) as err:
            _evolve(smooth_state, cfg, ff16, amplifier, collect=False)
        assert err.value.step == 1


class TestDressedFlow:
    def test_u_zero_invariant_subspace(self, grid16, ff16, rng):
        alpha0 = (rng.standard_normal(grid16.shape)
                  + 1j * rng.standard_normal(grid16.shape))
        z = PhasePoint(grid16, np.zeros(grid16.shape, dtype=complex), alpha0)
        cfg = EvolutionConfig(dt=1e-2, t_final=0.2, record_every=10**6)
        zt = dressed_evolve(z, cfg, ff16, collect=False).final()
        assert np.max(np.abs(zt.u)) == 0.0
        assert np.max(np.abs(zt.alpha - cmath.exp(-1j * 0.2) * alpha0)) < 1e-12

    def test_richardson_self_convergence(self, grid16, ff16, smooth_state):
        ends = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            cfg = EvolutionConfig(dt=dt, t_final=0.4, record_every=10**6)
            ends.append(dressed_evolve(smooth_state, cfg, ff16,
                                       collect=False).final())
        cfg = EvolutionConfig(dt=1.25e-3, t_final=0.4, record_every=10**6)
        ref = dressed_evolve(smooth_state, cfg, ff16, collect=False).final()
        errs = [z.distance(ref) for z in ends]
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_mass_conserved(self, grid16, ff16, smooth_state):
        cfg = EvolutionConfig(dt=1e-3, t_final=0.2, record_every=100)
        traj = dressed_evolve(smooth_state, cfg, ff16)
        assert max_relative_drift([r.mass for r in traj.rows]) < 1e-10

    def test_reversibility(self, ff16, smooth_state):
        back = dressed_step(dressed_step(smooth_state, 1e-3, ff16),
                            -1e-3, ff16)
        assert back.distance(smooth_state) < 1e-10

    def test_large_step_raises(self, grid16, ff16, smooth_state):
        # (h/2)||drift|| > 1: the midpoint fixed point runs away instead of
        # contracting, and the step must say so rather than return
        strong = PhasePoint(grid16, smooth_state.u, 20.0 * smooth_state.alpha)
        with pytest.raises(SubstepConvergenceError) as err:
            dressed_step(strong, 1.0, ff16)
        assert err.value.iterations == 12
        assert err.value.update > 1e-8


def test_classical_path_makes_no_blas_reduction(monkeypatch, ff16,
                                                smooth_state):
    """A BLAS dot product leaves its worker threads spinning for a fraction
    of a second after each call, which doubles the process CPU time of the
    dressed flow; the classical layer reduces with ufuncs only."""

    def refuse(*args, **kwargs):
        raise AssertionError("BLAS reduction on the classical path")

    for owner, name in ((np, "vdot"), (np, "dot"), (np.linalg, "norm")):
        monkeypatch.setattr(owner, name, refuse)
    z = dressed_step(smooth_state, 1e-2, ff16)
    h_dressed(z, ff16)
    grad_dressed(z, ff16)
    diagnostics_row(z, ff16, 0.0)


def test_step_temporaries_stay_in_the_heap():
    """After a warm-up on an N=32 grid, five dressed_step + lp_step pairs
    make few minor page faults: the field temporaries they free stay in the
    heap for reuse (spectral._keep_heap).  Under glibc's dynamic mmap and
    trim thresholds the same steps made 20 000 to 28 000."""
    g = build_grid(3, 32, 16.0)
    if not spectral._keep_heap():
        pytest.skip("the C library has no mallopt")
    ff = build_form_factors(g, sigma0=0.75)
    z = lp = random_smooth_state(g, seed=3, u_amp=0.4, alpha_amp=0.25,
                                 k_cut=0.35)
    z, lp = dressed_step(z, 1e-2, ff), lp_step(lp, 1e-2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        z, lp = dressed_step(z, 1e-2, ff), lp_step(lp, 1e-2)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 2000, f"{faults} minor page faults in 5 step pairs"


def test_phonon_substep_is_the_explicit_midpoint(ff16, smooth_state):
    """The phonon substep is the explicit midpoint step of the certified
    phonon gradient grad_dressed_interaction(...).dalpha at frozen u."""
    g, u, alpha = smooth_state.grid, smooth_state.u, smooth_state.alpha
    h = 0.05

    def rhs(a):
        z = PhasePoint(g, u, a, check=False)
        return -1j * grad_dressed_interaction(z, ff16).dalpha

    ref = alpha + h * rhs(alpha + 0.5 * h * rhs(alpha))
    out = _alpha_substep(g, ff16, u, g.fourier(u), alpha, h)
    assert g.norm_k(out - ref) <= 1e-14 * g.norm_k(ref)


def test_transform_calls_of_the_dressed_layer(monkeypatch, ff16,
                                              smooth_state):
    """Transform calls of one dressed step, one dressed gradient and one
    dressed energy on the fixture data.  The step's count holds three
    evaluations of the midpoint map, four calls each; on smoother data
    (k_cut 0.35) the step needs two and makes 29 calls."""
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(sfft, name, counting(getattr(sfft, name)))
    for fn, expected in ((lambda z: dressed_step(z, 1e-2, ff16), 33),
                         (lambda z: grad_dressed(z, ff16), 12),
                         (lambda z: h_dressed(z, ff16), 8)):
        calls.clear()
        fn(smooth_state)
        assert len(calls) == expected


class TestInteractionPicture:
    def test_zero_point(self, grid16, ff16):
        x = interaction_field_X(0.3, PhasePoint.zero(grid16), ff16)
        assert x.norm() == 0.0

    def test_t0_is_interaction_gradient(self, grid16, ff16, smooth_state):
        x = interaction_field_X(0.0, smooth_state, ff16)
        gp = grad_dressed_interaction(smooth_state, ff16)
        assert np.max(np.abs(x.u - (-1j) * gp.du)) < 1e-13
        assert np.max(np.abs(x.alpha - (-1j) * gp.dalpha)) < 1e-13

    def test_matches_dressed_endpoint(self, grid16, ff16, smooth_state):
        cfg = EvolutionConfig(dt=2e-3, t_final=0.2, record_every=10**6)
        z_x = evolve_interaction_picture(smooth_state, cfg, ff16)
        z_d = dressed_evolve(smooth_state, cfg, ff16, collect=False).final()
        assert z_x.distance(z_d) < 1e-7 * max(1.0, z_d.norm())


class TestTrajectoryInvariants:
    def test_strictly_increasing_times(self, grid16, ff16, smooth_state):
        cfg = EvolutionConfig(dt=1e-2, t_final=0.1, record_every=2)
        traj = lp_evolve(smooth_state, cfg, ff16)
        t = np.asarray(traj.times)
        assert t[0] == 0.0
        assert np.all(np.diff(t) > 0)

    def test_strichartz_accumulator_recorded(self, grid16, ff16,
                                             smooth_state):
        from polaronlab.picard import strichartz_report

        cfg = EvolutionConfig(dt=1e-2, t_final=0.2, record_every=2)
        traj = lp_evolve(smooth_state, cfg, ff16)
        rep = strichartz_report(traj)
        assert rep["applicable"]
        key = "L2t_L6x"
        assert math.isfinite(rep[key]) and rep[key] > 0
        # the report integrates the norms of the recorded states
        for p, q, key in ((2.0, 6.0, "L2t_L6x"), (4.0, 3.0, "L4t_L3x"),
                          (8.0, 2.4, "L8t_L2.4x")):
            vals = np.array([grid16.lq_norm_x(z.u, q) for z in traj.states])
            assert rep[key] == np.trapezoid(vals**p, traj.times) ** (1 / p)


class TestEvolutionConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="dt must be"):
            EvolutionConfig(dt=0.0, t_final=1.0)
        with pytest.raises(ValueError, match="t_final must be"):
            EvolutionConfig(dt=1e-3, t_final=-1.0)
        with pytest.raises(ValueError, match="record_every must be"):
            EvolutionConfig(dt=1e-3, t_final=1.0, record_every=0)
        with pytest.raises(ValueError, match="t_final must be"):
            EvolutionConfig(dt=3e-3, t_final=1.0)


@pytest.mark.parametrize("levels", [(), (1e-2,)])
def test_energy_order_needs_two_levels(ff16, smooth_state, levels):
    """No ratio of drifts exists below two levels, so there is no order to
    pass or fail."""
    with pytest.raises(ValueError, match="two dt levels"):
        energy_order(smooth_state, ff16, levels, 0.1)
