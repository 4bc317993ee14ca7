import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy import fft as sfft

from polaronlab.dynamics import EvolutionConfig, free_flow, lp_evolve
from polaronlab.initial_data import random_smooth_state, random_smooth_states
from polaronlab.picard import (
    MeshTrajectory,
    PicardConvergenceError,
    PicardDivergenceError,
    contraction_check,
    duhamel_map,
    find_contraction_time,
    interpolation_residual,
    interpolation_residuals,
    measure_contraction,
    node_chunk,
    picard_solve,
    picard_vs_strang,
    strichartz_report,
)
from polaronlab.spectral import PhasePoint, build_grid, field_A


@pytest.fixture(scope="module")
def small_state(grid16):
    return random_smooth_state(grid16, seed=11, u_amp=0.2, alpha_amp=0.12,
                               k_cut=0.5)


def _node_by_node_map(cand: MeshTrajectory, z0: PhasePoint) -> MeshTrajectory:
    """The Duhamel map one node at a time: the free flow recomputed at
    every node, the electron accumulator carried in x-space, the trapezoid
    increments added as they are written."""
    g = z0.grid
    times = cand.times
    dt = times[1] - times[0] if len(times) > 1 else 0.0
    kin = np.exp(-1j * dt * g.k_sq)
    gu = [field_A(g, a, g.f_inf) * u for u, a in zip(cand.u, cand.alpha)]
    ga = [g.f_inf * g.fourier_dx(np.abs(u) ** 2) for u in cand.u]
    acc_u = np.zeros(g.shape, dtype=complex)
    acc_a = np.zeros(g.shape, dtype=complex)
    ref_u, ref_a = [z0.u], [z0.alpha]
    for i in range(1, len(times)):
        acc_u = g.inverse(kin * g.fourier(acc_u + 0.5 * dt * gu[i - 1])) \
            + 0.5 * dt * gu[i]
        acc_a = cmath.exp(-1j * dt) * (acc_a + 0.5 * dt * ga[i - 1]) \
            + 0.5 * dt * ga[i]
        free = free_flow(z0, times[i])
        ref_u.append(free.u - 1j * acc_u)
        ref_a.append(free.alpha - 1j * acc_a)
    return MeshTrajectory(grid=g, times=times, u=np.array(ref_u),
                          alpha=np.array(ref_a))


def _copy(traj: MeshTrajectory) -> MeshTrajectory:
    return MeshTrajectory(grid=traj.grid, times=traj.times, u=traj.u.copy(),
                          alpha=traj.alpha.copy())


def _image(cand: MeshTrajectory, z0: PhasePoint) -> MeshTrajectory:
    """The image of cand under the map, which runs on a copy of it."""
    out = _copy(cand)
    duhamel_map(out, z0)
    return out


class TestDuhamelMap:
    def test_zero_fixed_point(self, grid16):
        z0 = PhasePoint.zero(grid16)
        cand = MeshTrajectory.from_free_flow(z0, 0.2, 17)
        out = _copy(cand)
        assert duhamel_map(out, z0) == 0.0
        assert out.sup_distance(cand) == 0.0

    def test_free_flow_exact_when_u0_zero(self, grid16, rng):
        alpha = (rng.standard_normal(grid16.shape)
                 + 1j * rng.standard_normal(grid16.shape))
        z0 = PhasePoint(grid16, np.zeros(grid16.shape, dtype=complex), alpha)
        cand = MeshTrajectory.from_free_flow(z0, 0.3, 33)
        assert _image(cand, z0).sup_distance(cand) < 1e-13

    def test_matches_node_by_node_free_flow(self, small_state):
        z0 = small_state
        cand = MeshTrajectory.from_free_flow(z0, 0.1, 65)
        cand = _image(cand, z0)   # a candidate that is not free
        ref = _node_by_node_map(cand, z0)
        assert _image(cand, z0).sup_distance(ref) < 1e-13 * z0.norm()

    @pytest.mark.parametrize("d,n", [(1, 64), (2, 16), (3, 16)])
    def test_chunk_edges_match_node_by_node(self, d, n):
        """Node counts on either side of the transform stack size, on
        d = 1, 2, 3 grids."""
        g = build_grid(d, n, 12.0)
        z0 = random_smooth_state(g, seed=5, u_amp=0.3, alpha_amp=0.2,
                                 k_cut=1.0)
        m = node_chunk(g)
        for n_nodes in sorted({1, 2, m - 1, m, m + 1, 3 * m - 1} - {0}):
            cand = MeshTrajectory.from_free_flow(z0, 0.1, n_nodes)
            cand = MeshTrajectory(grid=g, times=cand.times,
                                  u=cand.u * (1.0 + 0.1j), alpha=cand.alpha)
            ref = _node_by_node_map(cand, z0)
            assert _image(cand, z0).sup_distance(ref) \
                < 1e-13 * z0.norm(), n_nodes

    def test_returns_the_distance_it_moved(self, small_state):
        """The returned distance is sup_distance between the new samples
        and a copy of the old ones, bit for bit, over several stacks; node
        0 stays z0."""
        z0 = small_state
        traj = MeshTrajectory.from_free_flow(z0, 0.1, 2 * node_chunk(z0.grid)
                                             + 5)
        for _ in range(3):
            old = _copy(traj)
            d = duhamel_map(traj, z0)
            assert d == traj.sup_distance(old) > 0.0
            assert np.array_equal(traj.u[0], z0.u)
            assert np.array_equal(traj.alpha[0], z0.alpha)

    def test_transform_calls_per_map(self, small_state, monkeypatch):
        """At most four transform calls per stack of nodes, plus one."""
        calls = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(sfft, name, counting(getattr(sfft, name)))
        z0 = small_state
        m = node_chunk(z0.grid)
        for n_nodes in (1, m, 3 * m - 1, 401):
            cand = MeshTrajectory.from_free_flow(z0, 0.1, n_nodes)
            calls.clear()
            duhamel_map(cand, z0)
            assert 0 < len(calls) <= 4 * math.ceil(n_nodes / m) + 1, n_nodes

    def test_from_free_flow_matches_free_flow(self, small_state):
        z0 = small_state
        traj = MeshTrajectory.from_free_flow(z0, 0.3, 2 * node_chunk(z0.grid)
                                             + 3)
        for t, u, alpha in zip(traj.times, traj.u, traj.alpha):
            zt = free_flow(z0, t)
            assert np.max(np.abs(u - zt.u)) <= 1e-15 * z0.norm()
            assert np.max(np.abs(alpha - zt.alpha)) <= 1e-15 * z0.norm()

    def test_sup_distance_is_the_worst_node(self, small_state):
        z0 = small_state
        a = MeshTrajectory.from_free_flow(z0, 0.1, 2 * node_chunk(z0.grid)
                                          + 5)
        b = MeshTrajectory(grid=a.grid, times=a.times, u=a.u.copy(),
                           alpha=a.alpha.copy())
        b.u[-1] *= 1.5
        b.alpha[3] *= 1.25
        expected = max(PhasePoint(a.grid, ua, aa).distance(
            PhasePoint(b.grid, ub, ab)) for ua, aa, ub, ab in zip(
                a.u, a.alpha, b.u, b.alpha))
        assert a.sup_distance(b) == pytest.approx(expected, rel=1e-12)
        assert expected > 0.0

    def test_contraction_on_small_horizon(self, small_state):
        ratios = measure_contraction(small_state, 0.2, n_nodes=65)
        assert len(ratios) >= 5
        assert all(r <= 0.5 for r in ratios[:5])

    def test_iterates_stay_bounded(self, small_state):
        # ball-invariance monitor: iterates from the free flow never leave
        # a fixed multiple of the data norm
        z0 = small_state
        current = MeshTrajectory.from_free_flow(z0, 0.2, 65)
        zero = MeshTrajectory(grid=current.grid, times=current.times,
                              u=np.zeros_like(current.u),
                              alpha=np.zeros_like(current.alpha))
        bound = 4.0 * (z0.norm() + 1.0)
        for _ in range(8):
            duhamel_map(current, z0)
            assert current.sup_distance(zero) < bound


class TestPicardSolve:
    def test_zero_data_one_iteration(self, grid16):
        res = picard_solve(PhasePoint.zero(grid16), 0.2, n_nodes=17)
        assert res.converged
        assert res.iterations == 1

    def test_holds_one_trajectory(self, small_state):
        """The iteration maps its one trajectory in place: the traced peak
        of picard_solve at N=16 over 401 nodes, free flow included, stays
        below 1.3 trajectories (two trajectories would read above 2)."""
        z0 = small_state
        picard_solve(z0, 0.1, n_nodes=3, max_iter=1)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            res = picard_solve(z0, 0.1, n_nodes=401, max_iter=3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        one = res.trajectory.u.nbytes + res.trajectory.alpha.nbytes
        assert res.iterations == 3
        assert peak <= 1.3 * one, peak / one

    def test_endpoint_matches_strang(self, grid16, ff16, small_state):
        gap = picard_vs_strang(small_state, 0.1, ff16, n_nodes=401, dt=2.5e-4)
        assert gap < 1e-6

    def test_vs_strang_refuses_unconverged(self, ff16, small_state):
        with pytest.raises(PicardConvergenceError) as err:
            picard_vs_strang(small_state, 0.1, ff16, n_nodes=33, dt=1e-2,
                             max_iter=1)
        assert err.value.iterations == 1

    def test_contraction_check_off_grid_horizon(self, ff16, small_state):
        # every horizon from t_start contracts, so two bisection steps end
        # at 1.75 t_start: below the match cap and 210.7 Strang steps of dt
        info, verdicts, rows = contraction_check(
            small_state, ff16, t_start=0.0301, n_nodes=65, match_nodes=401,
            dt=2.5e-4, bisect_steps=2)
        assert info["match_horizon"] == info["contraction_time"] \
            == pytest.approx(1.75 * 0.0301, rel=1e-12)
        assert verdicts == {"contracting": True, "matches_strang": True}
        assert [r["ratio"] for r in rows] == info["ratios"]

    def test_contraction_verdict_can_fail(self, ff16, small_state):
        # one mesh step cannot resolve the Duhamel integral
        info, verdicts, _ = contraction_check(
            small_state, ff16, t_start=0.4, n_nodes=65, match_nodes=2,
            dt=1e-2, bisect_steps=1)
        assert not verdicts["matches_strang"] and info["endpoint_gap"] > 1e-6

    def test_divergence_abort(self, grid16):
        big = random_smooth_state(grid16, seed=2, u_amp=40.0, alpha_amp=25.0,
                                  k_cut=0.5)
        with pytest.raises(PicardDivergenceError):
            picard_solve(big, 2.0, n_nodes=33, max_iter=40)

    def test_contraction_time_shrinks_with_norm(self, grid16, small_state):
        t1 = find_contraction_time(small_state, t_start=0.4, n_nodes=65,
                                   bisect_steps=4)
        t2 = find_contraction_time(small_state.scaled(2.0), t_start=0.4,
                                   n_nodes=65, bisect_steps=4)
        assert t2 <= t1


class TestStrichartz:
    def test_zero_field_all_zero(self, grid16, ff16):
        cfg = EvolutionConfig(dt=1e-2, t_final=0.1, record_every=2)
        traj = lp_evolve(PhasePoint.zero(grid16), cfg, ff16)
        rep = strichartz_report(traj)
        assert rep["applicable"]
        assert all(v == 0.0 for k, v in rep.items() if isinstance(v, float))

    def test_free_gaussian_norms_finite(self, grid16, ff16):
        from polaronlab.initial_data import gaussian_u

        z0 = PhasePoint(grid16, gaussian_u(grid16, amplitude=0.5),
                        np.zeros(grid16.shape, dtype=complex))
        from polaronlab.dynamics import Trajectory
        from polaronlab.diagnostics import diagnostics_row

        traj = Trajectory()
        for i, t in enumerate(np.linspace(0.0, 0.5, 11)):
            zt = free_flow(z0, float(t))
            traj.append(float(t), zt, diagnostics_row(zt, ff16, float(t)))
        rep = strichartz_report(traj)
        for key, val in rep.items():
            if isinstance(val, float):
                assert np.isfinite(val) and val > 0

    def test_not_applicable_below_d3(self):
        from polaronlab.dynamics import Trajectory

        g = build_grid(1, 8, 10.0)
        traj = Trajectory()
        traj.append(0.0, PhasePoint.zero(g), None)
        rep = strichartz_report(traj)
        assert rep == {"applicable": False, "dimension": 1}

    def test_interpolation_residual_nonnegative(self, grid16):
        info, verdicts, rows = interpolation_residuals(random_smooth_states(
            grid16, 100, seed=500, u_amp=1.5, alpha_amp=0.0, k_cut=1.0))
        assert len(rows) == 100
        assert verdicts["interpolation_nonnegative"]
        assert info["worst_residual"] == min(r["residual"] for r in rows)

    def test_interpolation_rejects_low_dimension(self):
        g = build_grid(2, 8, 10.0)
        with pytest.raises(ValueError):
            interpolation_residual(g, np.ones(g.shape, dtype=complex))
