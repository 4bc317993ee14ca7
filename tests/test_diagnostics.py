import math

import numpy as np
import pytest
from scipy import fft as sfft

from polaronlab.diagnostics import (
    convergence_order,
    diagnostics_row,
    max_relative_drift,
    relative_drift,
    strichartz_pairs,
)
from polaronlab.hamiltonians import h_dressed, h_undressed, kinetic_energy
from polaronlab.spectral import PhasePoint


class TestConvergenceOrder:
    def test_exact_quadratic(self):
        orders, monotone = convergence_order([1.0, 0.25, 0.0625])
        assert monotone
        assert np.allclose(orders, 2.0)

    def test_exact_linear(self):
        orders, monotone = convergence_order([1.0, 0.5, 0.25])
        assert monotone
        assert np.allclose(orders, 1.0)

    def test_non_monotone_flagged(self):
        orders, monotone = convergence_order([1.0, 2.0, 0.5])
        assert not monotone

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            convergence_order([1.0])


class TestDrift:
    def test_zero_reference_normalization(self):
        drift = relative_drift([0.0, 1e-9, -1e-9])
        assert np.max(np.abs(drift)) == pytest.approx(1e-9)

    def test_max_drift(self):
        assert max_relative_drift([2.0, 2.0 + 3e-8, 2.0 - 3e-8]) \
            == pytest.approx(1e-8)


class TestRow:
    def test_zero_state_all_zero(self, grid16, ff16):
        row = diagnostics_row(PhasePoint.zero(grid16), ff16, 0.0)
        assert row.mass == 0.0
        assert row.h.total == 0.0
        assert row.hhat.total == 0.0
        assert all(v == 0.0 for v in row.lq.values())

    def test_single_code_path(self, ff16, smooth_state):
        # row totals equal functional-module recomputation bit for bit
        row = diagnostics_row(smooth_state, ff16, 0.0)
        assert row.h.total == h_undressed(smooth_state).total
        assert row.hhat.total == h_dressed(smooth_state, ff16).total

    def test_one_kinetic_transform(self, monkeypatch, ff16, smooth_state):
        """The row's H1 norm reads the kinetic energy of its h breakdown:
        the row makes the transform calls of h and hhat and no more."""
        calls = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(sfft, name, counting(getattr(sfft, name)))
        h_undressed(smooth_state)
        h_dressed(smooth_state, ff16)
        expected = len(calls)
        calls.clear()
        row = diagnostics_row(smooth_state, ff16, 0.0)
        assert len(calls) == expected
        assert row.h1 == math.sqrt(row.mass + kinetic_energy(smooth_state))

    def test_pairs_table(self):
        assert strichartz_pairs(2) is None
        pairs = strichartz_pairs(3)
        assert (2.0, 6.0) in pairs
        assert (4.0, 3.0) in pairs
        assert (8.0, 2.4) in pairs
