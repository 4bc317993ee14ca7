import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaronlab.spectral import (
    GridMismatchError,
    PhasePoint,
    build_form_factors,
    build_grid,
    field_A,
    field_A_half,
    form_factor_f,
)


def naive_dft(grid, u):
    """O(N^2)-per-axis transform without any FFT, as an independent oracle."""
    n = grid.n
    w = np.exp(-1j * np.outer(grid.k_axis, grid.x_axis))
    out = np.asarray(u, dtype=np.complex128)
    for ax in range(grid.d):
        out = np.moveaxis(np.tensordot(w, np.moveaxis(out, ax, 0), axes=1),
                          0, ax)
    return out * grid.dx * (2 * math.pi) ** (-grid.d / 2.0)


class TestBuildGrid:
    def test_smallest_admissible_k_lattice(self):
        g = build_grid(1, 4, 2 * math.pi)
        assert sorted(g.k_axis.tolist()) == [-2.0, -1.0, 0.0, 1.0]

    def test_dk_value(self):
        g = build_grid(3, 32, 16.0)
        assert g.dk == pytest.approx((2 * math.pi / 16.0) ** 3, rel=1e-15)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_grid(4, 8, 1.0)
        with pytest.raises(ValueError):
            build_grid(2, 7, 1.0)
        with pytest.raises(ValueError):
            build_grid(2, 2, 1.0)
        with pytest.raises(ValueError):
            build_grid(2, 8, -1.0)

    def test_parseval_against_naive_dft(self):
        g = build_grid(2, 8, 4.0)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        uk = g.fourier(u)
        assert np.max(np.abs(uk - naive_dft(g, u))) < 1e-12
        lhs = np.sum(np.abs(u) ** 2) * g.dx
        rhs = np.sum(np.abs(uk) ** 2) * g.dk
        assert abs(lhs - rhs) < 1e-12 * lhs


class TestTransforms:
    def test_constant_field_is_dc(self, grid8):
        uk = grid8.fourier(np.ones(grid8.shape))
        mask = np.zeros(grid8.shape, dtype=bool)
        mask[0, 0, 0] = True
        assert np.max(np.abs(uk[~mask])) < 1e-12 * abs(uk[0, 0, 0])

    def test_plane_wave_single_mode(self, grid8):
        g = grid8
        k0 = (g.k_axis[2], g.k_axis[1], 0.0)
        x = [g.x_axis.reshape((1,) * i + (g.n,) + (1,) * (2 - i))
             for i in range(3)]
        u = np.exp(1j * sum(k0[i] * x[i] for i in range(3)))
        uk = g.fourier(u)
        idx = np.unravel_index(np.argmax(np.abs(uk)), uk.shape)
        assert idx == (2, 1, 0)
        others = np.abs(uk).ravel()
        others[np.ravel_multi_index(idx, uk.shape)] = 0.0
        assert others.max() < 1e-12 * np.abs(uk[idx])

    def test_roundtrip_property(self, grid8, rng):
        worst = 0.0
        for _ in range(100):
            u = rng.standard_normal(grid8.shape) \
                + 1j * rng.standard_normal(grid8.shape)
            back = grid8.inverse(grid8.fourier(u))
            worst = max(worst, np.max(np.abs(back - u)) / np.max(np.abs(u)))
        assert worst < 1e-12

    def test_parseval_property(self, grid8, rng):
        for _ in range(100):
            u = rng.standard_normal(grid8.shape) \
                + 1j * rng.standard_normal(grid8.shape)
            lhs = grid8.norm_x(u) ** 2
            rhs = grid8.norm_k(grid8.fourier(u)) ** 2
            assert abs(lhs - rhs) < 1e-12 * lhs

    def test_grid_mismatch_rejected(self, grid8):
        with pytest.raises(GridMismatchError):
            grid8.fourier(np.zeros((4, 4, 4)))


class TestFormFactors:
    def test_cutoff_ordering_rejected(self, grid8):
        for sigma0 in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="sigma0"):
                build_form_factors(grid8, sigma0=sigma0)

    def test_supports_and_zero_mode(self, ff8, grid8):
        k = grid8.k_mag
        assert grid8.f_inf[k == 0] == 0.0
        assert ff8.B[k == 0] == 0.0
        assert np.all(ff8.B[k < ff8.sigma0] == 0.0)
        sel = k >= ff8.sigma0
        assert np.all(ff8.B[sel] < 0.0)

    def test_unit_shell_values_d3(self):
        # d=3 at |k| = 1: f = 1 and B = -1/2 whenever sigma0 <= 1
        g = build_grid(3, 8, 2 * math.pi)
        with pytest.warns(UserWarning):
            ff = build_form_factors(g, sigma0=0.5)
        shell = np.isclose(g.k_mag, 1.0)
        assert shell.any()
        assert np.allclose(g.f_inf[shell], 1.0)
        assert np.allclose(ff.B[shell], -0.5)

    def test_kb_componentwise(self, ff8, grid8):
        for ax in range(3):
            expected = grid8.k_comps[ax] * ff8.B
            assert np.array_equal(ff8.kB_stack[ax], expected)

    def test_pair_potential_dual_route(self):
        g = build_grid(3, 32, 16.0)
        ff = build_form_factors(g, sigma0=0.75)
        # quadrature at x = 0 versus the transform-based table; the symbol
        # (1 - 2(1+k^2)) / ((1+k^2)^2 k^2) is negative, so V(0) < 0
        # (phonon-mediated attraction)
        direct = float(np.sum(ff.pair_symbol) * g.dk)
        assert direct < 0.0
        assert abs(ff.V[0, 0, 0] - direct) < 1e-10 * abs(direct)

    def test_pair_potential_real_and_even(self, ff8, grid8):
        v = ff8.V
        for ax in range(3):
            flipped = np.flip(np.roll(v, -1, axis=ax), axis=ax)
            assert np.max(np.abs(v - flipped)) < 1e-12 * np.max(np.abs(v))

    def test_sigma0_below_first_shell_flagged(self, grid8):
        with pytest.warns(UserWarning, match="first lattice shell"):
            ff = build_form_factors(grid8, sigma0=1e-3)
        assert ff.sigma0_below_first_shell

    def test_empty_dressing_range(self, grid8):
        # sigma0 above the largest lattice |k| (3.63): B and V vanish
        # identically
        ff = build_form_factors(grid8, sigma0=3.7)
        assert not np.any(ff.B)
        assert np.max(np.abs(ff.V)) < 1e-15


class TestFieldA:
    def test_zero_alpha(self, grid8):
        a = field_A(grid8, np.zeros(grid8.shape, dtype=complex), grid8.f_inf)
        assert not np.any(a)

    def test_single_mode_closed_form(self, grid8):
        g = grid8
        alpha = np.zeros(g.shape, dtype=complex)
        alpha[1, 2, 0] = 1.0
        k0 = np.array([g.k_axis[1], g.k_axis[2], 0.0])
        a = field_A(g, alpha, g.f_inf)
        x = [g.x_axis.reshape((1,) * i + (g.n,) + (1,) * (2 - i))
             for i in range(3)]
        phase = sum(k0[i] * x[i] for i in range(3))
        expected = 2.0 * np.linalg.norm(k0) ** (-1.0) * np.cos(phase) * g.dk
        assert np.max(np.abs(a - expected)) < 1e-12

    def test_rotated_generator_direct_sum(self, grid8, rng):
        # alpha = i*beta with g = iB equals the B-pairing of beta; checked
        # against a direct summation over every lattice mode
        g = grid8
        ff = build_form_factors(g, sigma0=0.8)
        beta = rng.standard_normal(g.shape)
        alpha = 1j * beta
        a = field_A(g, alpha, 1j * ff.B)
        kx = np.exp(-1j * np.tensordot(
            np.stack(np.meshgrid(g.k_axis, g.k_axis, g.k_axis,
                                 indexing="ij"), -1).reshape(-1, 3),
            np.stack(np.meshgrid(g.x_axis, g.x_axis, g.x_axis,
                                 indexing="ij"), -1).reshape(-1, 3).T,
            axes=1))
        direct = 2.0 * np.real(
            (np.conj(alpha).ravel() * (1j * ff.B).ravel()) @ kx) * g.dk
        assert np.max(np.abs(a.ravel() - direct)) < 1e-11
        b_pairing = field_A(g, beta.astype(complex), ff.B)
        assert np.max(np.abs(a - b_pairing)) < 1e-12

    def test_half_pairing_consistency(self, grid8, rng):
        g = grid8
        alpha = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        gtab = g.f_inf
        assert np.max(np.abs(
            2.0 * field_A_half(g, alpha, gtab).real
            - field_A(g, alpha, gtab))) < 1e-13


# -- real-field transforms on the half lattice -----------------------------------

grids = st.builds(build_grid, d=st.sampled_from([1, 2, 3]),
                  n=st.sampled_from([4, 6, 8]),
                  length=st.floats(min_value=2.0, max_value=20.0))
seeds = st.integers(min_value=0, max_value=2**32 - 1)
real_field_settings = settings(max_examples=30, deadline=None)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _form_factors(g):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_form_factors(g, sigma0=0.6)


def _symbols(g, rng):
    """Real (f), imaginary (iB) and stacked (k B) couplings plus a generic
    complex table with no parity at all."""
    ff = _form_factors(g)
    return {"real": g.f_inf, "imaginary": 1j * ff.B, "stacked": ff.kB_stack,
            "generic": _complex(rng, g.shape)}


def _nyquist(g, axis):
    """Index of the Nyquist plane of one axis, for any stacking."""
    idx = [slice(None)] * g.d
    idx[axis] = g.n // 2
    return (Ellipsis,) + tuple(idx)


class TestRealFieldTransforms:
    @real_field_settings
    @given(g=grids, seed=seeds)
    def test_reflect_is_negation_mod_n(self, g, seed):
        a = _complex(np.random.default_rng(seed), g.shape)
        on_half = g.reflect(a)
        assert on_half.shape == g.half_shape
        for idx in np.ndindex(*g.half_shape):
            assert on_half[idx] == a[tuple((-i) % g.n for i in idx)]
        # only full-lattice fields have a reflection on the half lattice
        with pytest.raises(GridMismatchError):
            g.reflect(np.ascontiguousarray(a[..., :g.n_half]))
        # a field on the Nyquist plane of any axis stays on it
        for ax in range(g.d):
            on_plane = np.zeros(g.shape, dtype=complex)
            on_plane[_nyquist(g, ax)] = 1.0
            assert np.array_equal(g.reflect(on_plane),
                                  on_plane[..., :g.n_half])
        # stacks reflect componentwise
        stack = np.stack([a, 2.0 * a])
        assert np.array_equal(g.reflect(stack)[1], 2.0 * on_half)

    @real_field_settings
    @given(g=grids, seed=seeds)
    def test_round_trips(self, g, seed):
        # fourier_dx and inverse_dk compose to (2 pi)^d
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(g.shape)
        two_pi_d = (2.0 * math.pi) ** g.d
        one = g.half_symbol(np.ones(g.shape))
        spec = g.fourier_dx(r)
        tol = 1e-12 * two_pi_d * np.max(np.abs(r))
        assert np.max(np.abs(g.inverse_dk(spec) - two_pi_d * r)) < tol
        # and back through the c2r side, which doubles the real field
        assert np.max(np.abs(g.field_real(spec, one) - 2.0 * two_pi_d * r)) \
            < 2.0 * tol

    @real_field_settings
    @given(g=grids, seed=seeds,
           which=st.sampled_from(["real", "imaginary", "stacked", "generic"]))
    def test_agree_with_complex_path(self, g, seed, which):
        rng = np.random.default_rng(seed)
        gtab = _symbols(g, rng)[which]
        sym = g.half_symbol(gtab)
        alpha = _complex(rng, g.shape)
        ref = 2.0 * g.inverse_dk(alpha * np.conj(gtab)).real
        scale = 1.0 + np.max(np.abs(ref))
        assert np.max(np.abs(g.field_real(alpha, sym) - ref)) < 1e-12 * scale
        assert np.max(np.abs(field_A(g, alpha, gtab) - ref)) < 1e-12 * scale
        # the transform of a real field, which scipy runs as r2c and fills
        # by Hermitian symmetry, times the symbol, against the c2c route
        r = rng.standard_normal(gtab.shape)
        got = gtab * g.fourier_dx(r)
        ref = gtab * g.fourier_dx(r.astype(complex))
        scale = 1.0 + np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) < 1e-12 * scale

    @real_field_settings
    @given(g=grids, seed=seeds)
    def test_grad_and_div(self, g, seed):
        rng = np.random.default_rng(seed)
        u = _complex(rng, g.shape)
        uk = g.fourier(u)
        du = g.grad_d(uk)
        for j, kc in enumerate(g.k_comps):
            assert np.allclose(du[j], g.inverse(kc * uk), rtol=0,
                               atol=1e-12 * (1.0 + np.max(np.abs(du))))
        # D . D u = -Laplacian u
        lap = g.inverse(g.k_sq * uk)
        assert np.allclose(g.div_d(du), lap, rtol=0,
                           atol=1e-12 * (1.0 + np.max(np.abs(lap))))


class TestPhasePoint:
    def test_rejects_nonfinite(self, grid8):
        u = np.zeros(grid8.shape, dtype=complex)
        u[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            PhasePoint(grid8, u, np.zeros(grid8.shape, dtype=complex))

    def test_rejects_wrong_shape(self, grid8):
        with pytest.raises(GridMismatchError):
            PhasePoint(grid8, np.zeros((2, 2, 2), dtype=complex),
                       np.zeros(grid8.shape, dtype=complex))

    def test_distance_and_norm(self, grid8, rng):
        u = rng.standard_normal(grid8.shape) + 0j
        z = PhasePoint(grid8, u, 2.0 * u)
        assert z.norm() == pytest.approx(
            math.sqrt(grid8.norm_x(u) ** 2 + grid8.norm_k(2 * u) ** 2))
        assert z.distance(z) == 0.0


def test_f_inf_matches_table(grid8):
    """grid.f_inf is the one coupling table: the uncut form factor, and the
    f of the pair symbol."""
    ff = build_form_factors(grid8, sigma0=0.8)
    assert np.array_equal(ff.pair_symbol,
                          ff.B * ff.B + 2.0 * ff.B * grid8.f_inf)
    assert np.array_equal(
        form_factor_f(grid8.k_mag, 3, math.inf), grid8.f_inf)


@pytest.mark.parametrize("d, n, length", [(1, 16, 10.0), (2, 12, 7.0),
                                          (3, 16, 16.0)])
def test_free_phase_is_the_lattice_exp(d, n, length):
    """free_phase exponentiates the distinct |k|^2 only; its tables equal the
    exp over the full lattice bit for bit."""
    g = build_grid(d, n, length)
    for t in (0.0, 0.37, -1.3):
        assert np.array_equal(g.free_phase(t), np.exp(-1j * t * g.k_sq))
    times = np.linspace(-0.5, 2.0, 7)
    stack = g.free_phase(times)
    assert stack.shape == times.shape + g.shape
    for t, phase in zip(times, stack):
        assert np.array_equal(phase, np.exp(-1j * t * g.k_sq))
