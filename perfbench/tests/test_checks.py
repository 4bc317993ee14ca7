"""Each output check of the benchmark passes on the program's real output
and trips on a deliberately wrong one.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench/tests
The classical workloads run here on smaller grids than in the benchmark.
"""

import dataclasses

import numpy as np
import pytest

from perfbench import checks, workloads
from polaronlab import dressing, dynamics, fock
from polaronlab.hamiltonians import GradientPair


class SmallDressed(workloads.DressedN32):
    n = 16


class SmallDuhamel(workloads.DuhamelN16):
    n = 8


class SmallExpansion(workloads.FockExpansion):
    n_max = 4


@pytest.fixture(scope="module")
def dressed():
    wl = SmallDressed()
    wl.setup(seed=3)
    out = wl.solve()
    wl.check(out)
    return wl, out


@pytest.fixture(scope="module")
def duhamel():
    wl = SmallDuhamel()
    wl.setup(seed=3)
    out = wl.solve()
    wl.check(out)
    return wl, out


@pytest.fixture(scope="module")
def expansion():
    wl = SmallExpansion()
    wl.setup(seed=3)
    out = wl.solve()
    wl.check(out)
    return wl, out


@pytest.fixture(scope="module")
def bohr():
    wl = workloads.FockBohr()
    wl.setup(seed=3)
    out = wl.solve()
    wl.check(out)
    return wl, out


def _trips(wl, out, match):
    with pytest.raises(checks.CheckFailure, match=match):
        wl.check(out)


# -- dressed-n32 --


def test_flipped_dressing_signs_trip_conjugation(dressed):
    wl, out = dressed
    ff = wl.ff
    flipped = dynamics.dressed_evolve(dressing.dressing_apply(wl.z0, 1.0, ff),
                                      wl.cfg, ff, collect=False)
    back = dressing.dressing_apply(flipped.final(), -1.0, ff)
    _trips(wl, dict(out, back=back), "conjugation distance")


def test_scaled_gradient_trips_fd_gate(dressed):
    wl, out = dressed
    g = out["grad"]
    scaled = GradientPair(du=1.01 * g.du, dalpha=1.01 * g.dalpha)
    _trips(wl, dict(out, grad=scaled), "FD gradient")


def test_mass_defect_trips_mass_drift(dressed):
    wl, out = dressed
    lp = out["lp"]
    states = list(lp.states)
    states[-1] = states[-1].scaled(1.0 + 1e-7)
    _trips(wl, dict(out, lp=dataclasses.replace(lp, states=states)),
           "lp mass drift")


def test_energy_defect_trips_energy_drift(dressed):
    wl, out = dressed
    traj = out["dressed"]
    rows = list(traj.rows)
    last = rows[-1]
    hhat = dataclasses.replace(last.hhat,
                               total=last.hhat.total + 10 * wl.dt**2)
    rows[-1] = dataclasses.replace(last, hhat=hhat)
    _trips(wl, dict(out, dressed=dataclasses.replace(traj, rows=rows)),
           "hhat energy drift")


# -- duhamel-n16 --


def test_unconverged_picard_trips(duhamel):
    wl, (res, ref) = duhamel
    _trips(wl, (dataclasses.replace(res, converged=False), ref),
           "did not converge")


def test_slow_contraction_trips(duhamel):
    wl, (res, ref) = duhamel
    _trips(wl, (dataclasses.replace(res, ratios=list(res.ratios) + [0.6]),
                ref), "ratio")


def test_wrong_reference_trips_strang_gap(duhamel):
    wl, (res, _) = duhamel
    ref = dynamics.lp_evolve(wl.z0.scaled(1.0 + 1e-4), wl.cfg, wl.ff,
                             collect=False)
    _trips(wl, (res, ref), "gap to Strang")


# -- fock-expansion --


def test_dropped_drift_trips_restricted_difference(expansion):
    wl, out = expansion
    wrong = out["assembled"].matrix - out["parts"]["drift"]
    _trips(wl, dict(out, assembled=fock.OperatorMatrix(wrong)),
           "restricted difference")


def test_non_unitary_conjugation_trips_invariants(expansion):
    wl, out = expansion
    wrong = (1.0 + 1e-8) * out["conjugated"].matrix
    _trips(wl, dict(out, conjugated=fock.OperatorMatrix(wrong)),
           "trace moved")


def test_particle_number_leak_trips_commutator(expansion):
    wl, _ = expansion
    h = fock.build_hamiltonian(wl.model).matrix.copy()
    leak = wl.model.psi(0).conj().T * 1e-12
    with pytest.raises(checks.CheckFailure, match=r"\[H, N1\]"):
        checks.commutes_with_number(h + leak, wl.n1, "H")


# -- fock-bohr --


def test_non_monotone_errors_trip(bohr):
    wl, out = bohr
    errors = dict(out["errors"])
    errors[0.125] = list(errors[0.125])
    errors[0.125][-1] = 1.01 * errors[0.25][-1]
    _trips(wl, dict(out, errors=errors), "do not decrease")


def test_wrong_amplitudes_trip_initial_match(bohr):
    wl, out = bohr
    model = wl.models[0.5]
    psi0 = fock.coherent_state(model, np.conj(wl.phi), np.conj(wl.alp))
    modes = fock.mode_expectations(model, psi0)
    error = float(np.linalg.norm(modes - np.concatenate([wl.phi, wl.alp])))
    errors = dict(out["errors"])
    errors[0.5] = [error] + list(errors[0.5][1:])
    _trips(wl, dict(out, errors=errors), "t=0 mode expectations")


def test_non_unitary_propagation_trips_norms(bohr):
    wl, _ = bohr
    model = wl.models[0.25]
    prop = fock.Propagator(fock.build_hamiltonian(model), 0.25)
    psi0 = fock.coherent_state(model, wl.phi, wl.alp)
    norms = [np.linalg.norm((1.0 + 1e-9 * t) * prop.apply(psi0, t))
             for t in (0.0, 0.25, 0.5)]
    with pytest.raises(checks.CheckFailure, match="norm off unity"):
        checks.unit_norms(norms)
