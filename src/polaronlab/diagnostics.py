"""Conserved quantities, norm tables, drift statistics and order estimators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import EnergyBreakdown, h_dressed, h_undressed
from .spectral import FormFactorSet, PhasePoint


def strichartz_pairs(d: int):
    """Admissible (p, q) exponent pairs used by the space-time diagnostics.

    Only meaningful for d >= 3 (q = 2d/(d-2) degenerates below that).
    """
    if d < 3:
        return None
    return (
        (2.0, 2.0 * d / (d - 2.0)),
        (4.0, 2.0 * d / (d - 1.0)),
        (8.0, 4.0 * d / (2.0 * d - 1.0)),
    )


def pair_label(p: float, q: float) -> str:
    return f"L{p:g}t_L{q:.4g}x"


@dataclass
class DiagnosticsRow:
    """Per-snapshot diagnostics: mass, both energy breakdowns, the H1 norm
    and the instantaneous L^q norms feeding the space-time accumulators."""

    t: float
    mass: float
    h1: float
    h: EnergyBreakdown
    hhat: EnergyBreakdown
    lq: dict

    def as_dict(self) -> dict:
        out = {"t": self.t, "mass": self.mass, "h1": self.h1}
        out.update(self.h.as_dict(prefix="h_"))
        out.update(self.hhat.as_dict(prefix="hhat_"))
        out.update(self.lq)
        return out


def diagnostics_row(z: PhasePoint, ff: FormFactorSet, t: float) -> DiagnosticsRow:
    g = z.grid
    mass = z.mass()
    h = h_undressed(z)
    lq = {}
    pairs = strichartz_pairs(g.d)
    if pairs is not None:
        for p, q in pairs:
            lq[pair_label(p, q)] = g.lq_norm_x(z.u, q)
    return DiagnosticsRow(t=t, mass=mass, h1=math.sqrt(mass + h.kinetic),
                          h=h, hhat=h_dressed(z, ff), lq=lq)


def relative_drift(values) -> np.ndarray:
    """Drift relative to the first value, normalized by 1 + |first value|."""
    v = np.asarray(values, dtype=np.float64)
    return (v - v[0]) / (1.0 + abs(v[0]))


def max_relative_drift(values) -> float:
    return float(np.max(np.abs(relative_drift(values))))


def convergence_order(errors) -> tuple:
    """log2 of successive error ratios for a dt, dt/2, dt/4, ... family.

    Returns (orders, monotone): orders has one entry per consecutive pair
    and monotone is False when the errors fail to decrease.
    """
    e = np.asarray(errors, dtype=np.float64)
    if len(e) < 2:
        raise ValueError("need at least two error levels")
    monotone = bool(np.all(e[1:] < e[:-1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = np.log2(e[:-1] / e[1:])
    return orders, monotone
