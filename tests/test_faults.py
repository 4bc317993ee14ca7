"""Fault matrix: each row injects a named fault and asserts that a gate
sees it.

The rows of FAULTS inject a fault into one shared helper of the dressed
interaction.  A row patches the helper where hamiltonians defines it and
where dynamics imports it, so the dressed gradient and the dressed Strang
substeps run the same faulty code.  The finite-difference gate of
gradient_check must then fail (the fault breaks the gradient of h_dressed,
which does not call the helper), and the dressed flow's hhat drift must
grow at least tenfold over the clean drift on the same data.

The FD gate compares the gradient with the energy, so a fault in code that
the energy and the gradient share, such as a scaled pair_convolution,
changes both consistently and cannot be seen by it.

Acceptance 08's row builds every Gamma(M) of the ladder assembly from the
transpose of M (psi_j* psi_i for M_ij), in H, T and the dressed parts alike.
The expansion's drift term then no longer matches the conjugation: the
restricted difference reads 8.0e-04 against 3.4e-07 clean.  A fault in an
O(dk) term, or one that drops a conjugate of the real drift, cannot be seen
at dk = 1e-6.

Acceptance 10's row runs the quantum flow backwards in time.  Its final
errors then sit near 0.29 at every eps, a flat curve that the monotone
verdict's slack lets through; the sqrt_rate verdict must fail.
"""

import numpy as np
import pytest

from polaronlab import dynamics, fock, hamiltonians
from polaronlab.dynamics import EvolutionConfig, conservation, dressed_evolve
from polaronlab.hamiltonians import (
    gradient_check,
    pair_convolution,
    phonon_slope,
    static_potential,
)
from polaronlab.initial_data import random_smooth_state

# helper name -> faulty replacement, by fault
FAULTS = {
    "abs_W_squared_dropped": (
        "static_potential",
        lambda ff, alpha, big_w: static_potential(ff, alpha, 0.0 * big_w)),
    "W_negated_in_slope": (
        "phonon_slope",
        lambda ff, u, du_d, big_w, w: phonon_slope(ff, u, du_d, -big_w, w)),
    "pair_potential_halved": (
        "multiplication_potential",
        lambda ff, static, w: static + pair_convolution(ff, w)),
}


@pytest.fixture(scope="module")
def state(grid16):
    return random_smooth_state(grid16, seed=11, u_amp=0.4, alpha_amp=0.25,
                               k_cut=0.5)


def _hhat_drift(z, ff):
    traj = dressed_evolve(z, EvolutionConfig(dt=1e-2, t_final=0.5), ff)
    return conservation(traj, lambda r: r.hhat.total)[0]["energy_drift"]


@pytest.fixture(scope="module")
def clean_drift(state, ff16):
    return _hhat_drift(state, ff16)


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_is_seen(monkeypatch, state, ff16, clean_drift, fault):
    name, faulty = FAULTS[fault]
    for module in (hamiltonians, dynamics):
        monkeypatch.setattr(module, name, faulty)
    _, verdicts, _ = gradient_check(state, ff16, 20,
                                    np.random.default_rng(1234))
    assert verdicts["grad_hhat"] is False
    assert _hhat_drift(state, ff16) >= 10.0 * clean_drift


def test_transposed_gamma_fails_08(monkeypatch):
    """Acceptance 08's data with Gamma(M^T) in place of Gamma(M)."""
    gamma_terms = fock._gamma_terms
    monkeypatch.setattr(fock, "_gamma_terms",
                        lambda model, m, prefix=(): gamma_terms(model, m.T,
                                                                prefix))
    rep = fock.dressed_comparison(fock.FockModel(
        [0.0, 1.0, 2.0], [1.0, 2.0], dk=1e-6, eps=0.5, n_max_particles=6,
        n_max_phonons=6, sigma0=1.5))
    assert rep["restricted_diff_norm"] >= 10.0 * fock.EXPANSION_TOL
    assert rep["expansion_holds"] is False


def test_time_reversed_quantum_flow_fails_10(monkeypatch):
    """Acceptance 10's data with e^{+itH/eps} in place of e^{-itH/eps}."""
    apply = fock.Propagator.apply
    monkeypatch.setattr(fock.Propagator, "apply",
                        lambda self, state, t: apply(self, state, -t))
    res = fock.correspondence_experiment(
        lambda eps: fock.FockModel([0.0, 1.0, 2.0], [1.0, 2.0], dk=0.5,
                                   eps=eps, n_max_particles=6,
                                   n_max_phonons=6, sigma0=1.5),
        [0.5, 0.25, 0.125], [0.25, 0.15, 0.0], [0.2, 0.1], 0.5, n_times=6)
    assert min(res["final_errors"]) > 0.25
    assert res["sqrt_rate"] is False
