"""The four benchmark workloads.

Each workload builds its inputs from the seed in setup() (which ends with a
warm-up that fills the FFT plan caches and starts the BLAS threads), runs
the certified computation in solve() through the program's public entry
points only, and checks solve()'s outputs in check().  solve() is what the
benchmark times; setup() and check() are not part of it.  Every round of a
run repeats solve() on the same inputs.
"""

from __future__ import annotations

import math

import numpy as np

# Layer functions are called through their modules, so that the traced run
# sees the wrappers it puts in place of the module attributes.
from polaronlab import dressing, dynamics, fock, hamiltonians, picard
from polaronlab.dynamics import EvolutionConfig
from polaronlab.initial_data import random_smooth_state
from polaronlab.spectral import build_form_factors, build_grid

from . import checks


def _fd_gradient(z, ff, directions, h):
    """Central differences of hhat along each direction."""
    return [(hamiltonians.h_dressed(z.add(v, h), ff).total
             - hamiltonians.h_dressed(z.add(v, -h), ff).total) / (2.0 * h)
            for v in directions]


def _pairing(grad, v, dx, dk) -> float:
    """2 Re <grad, v> with the weighted inner products."""
    return 2.0 * float((np.vdot(grad.du, v.u) * dx
                        + np.vdot(grad.dalpha, v.alpha) * dk).real)


class DressedN32:
    """Dressed and Landau-Pekar flows linked by the Gross transform, d=3,
    N=32, L=16, on seeded smooth data (k_cut = 0.35 keeps it resolved)."""

    name = "dressed-n32"
    n = 32
    dt = 1e-2
    t_final = 0.2
    record_every = 5
    fd_step = 1e-5
    n_directions = 3

    def setup(self, seed: int) -> None:
        g = build_grid(3, self.n, 16.0)
        self.grid = g
        self.ff = build_form_factors(g, sigma0=0.75)
        self.z0 = random_smooth_state(g, seed=seed, u_amp=0.4,
                                      alpha_amp=0.25, k_cut=0.35)
        # smooth unit directions, so that each pairing is O(1) and a 1 %
        # error in the gradient stands far above the FD error
        self.directions = []
        for i in range(self.n_directions):
            v = random_smooth_state(g, seed=10_000 + 7 * seed + i,
                                    u_amp=1.0, alpha_amp=1.0, k_cut=0.5)
            self.directions.append(v.scaled(1.0 / v.norm()))
        self.cfg = EvolutionConfig(dt=self.dt, t_final=self.t_final,
                                   record_every=self.record_every)
        z = dressing.dressing_apply(self.z0, -1.0, self.ff)
        dynamics.dressed_step(z, self.dt, self.ff)
        dynamics.lp_step(self.z0, self.dt)
        hamiltonians.grad_dressed(z, self.ff)

    def solve(self):
        ff = self.ff
        z_hat = dressing.dressing_apply(self.z0, -1.0, ff)
        dressed = dynamics.dressed_evolve(z_hat, self.cfg, ff)
        lp = dynamics.lp_evolve(self.z0, self.cfg, ff)
        z_t = dressed.final()
        back = dressing.dressing_apply(z_t, 1.0, ff)
        grad = hamiltonians.grad_dressed(z_t, ff)
        fd = _fd_gradient(z_t, ff, self.directions, self.fd_step)
        return {"lp": lp, "dressed": dressed, "back": back, "grad": grad,
                "fd": fd}

    def check(self, out) -> None:
        g = self.grid
        lp_t = out["lp"].final()
        back = out["back"]
        checks.conjugation(
            checks.phase_distance(lp_t.u, lp_t.alpha, back.u, back.alpha,
                                  g.dx, g.dk), self.dt)
        for what in ("lp", "dressed"):
            checks.mass_drift([checks.mass(z.u, g.dx)
                               for z in out[what].states], what)
        checks.energy_drift([r.hhat.total for r in out["dressed"].rows],
                            self.dt)
        analytic = [_pairing(out["grad"], v, g.dx, g.dk)
                    for v in self.directions]
        checks.gradient_agreement(out["fd"], analytic)


class DuhamelN16:
    """Duhamel fixed point on a horizon inside the contraction window, and
    the Strang flow at a fine step as its reference; d=3, N=16."""

    name = "duhamel-n16"
    n = 16
    t_final = 0.1
    n_nodes = 401
    dt_ref = 2.5e-4

    def setup(self, seed: int) -> None:
        g = build_grid(3, self.n, 16.0)
        self.grid = g
        self.ff = build_form_factors(g, sigma0=0.75)
        self.z0 = random_smooth_state(g, seed=seed, u_amp=0.2,
                                      alpha_amp=0.12, k_cut=0.5)
        self.cfg = EvolutionConfig(dt=self.dt_ref, t_final=self.t_final,
                                   record_every=10**9)
        picard.picard_solve(self.z0, self.t_final, n_nodes=3, max_iter=1)
        dynamics.lp_step(self.z0, self.dt_ref)

    def solve(self):
        res = picard.picard_solve(self.z0, self.t_final,
                                  n_nodes=self.n_nodes)
        ref = dynamics.lp_evolve(self.z0, self.cfg, self.ff, collect=False)
        return res, ref

    def check(self, out) -> None:
        res, ref = out
        g = self.grid
        end = ref.final()
        gap = checks.phase_distance(res.trajectory.u[-1],
                                    res.trajectory.alpha[-1], end.u,
                                    end.alpha, g.dx, g.dk)
        checks.picard(res.converged, res.ratios, gap)


def _fock_model(eps: float, dk: float, n_max: int) -> fock.FockModel:
    return fock.FockModel(particle_momenta=[0.0, 1.0, 2.0],
                          phonon_momenta=[1.0, 2.0], dk=dk, eps=eps,
                          n_max_particles=n_max, n_max_phonons=n_max,
                          sigma0=1.5)


class FockExpansion:
    """Gross-conjugated Fock Hamiltonian against its term-by-term
    assembly: particle momenta 0,1,2, phonon momenta 1,2, dk = 1e-6."""

    name = "fock-expansion"
    n_max = 5
    dk = 1e-6
    # the comparison sub-basis: total occupancy <= n_max // 2
    n_cut = 2

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.eps = 0.45 + 0.1 * float(rng.random())
        self.model = _fock_model(self.eps, self.dk, self.n_max)
        occ = self.model.occupancy
        self.sel = np.where(occ.sum(axis=1) <= self.n_cut)[0]
        self.n1 = occ[:, : self.model.n_particle_modes].sum(axis=1)
        self._h = None
        fock.dressed_comparison(_fock_model(self.eps, self.dk, 1))

    def solve(self):
        return fock.dressed_comparison(self.model)

    def check(self, out) -> None:
        if self._h is None:
            # H and T do not depend on the round: build and check them once
            self._h = fock.build_hamiltonian(self.model).matrix
            checks.commutes_with_number(self._h, self.n1, "H")
            checks.commutes_with_number(fock.build_T(self.model).matrix,
                                        self.n1, "T")
        conj = out["conjugated"].matrix
        checks.restricted_difference(conj, out["assembled"].matrix, self.sel)
        checks.unitary_invariants(conj, self._h)


class FockBohr:
    """Quantum mode expectations against the classical finite-mode flow for
    eps = 0.5, 0.25, 0.125 (dk = 0.5), coherent data with seeded phases."""

    name = "fock-bohr"
    n_max = 4
    dk = 0.5
    eps_values = (0.5, 0.25, 0.125)
    t_final = 0.5
    n_times = 6

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        phases = np.exp(2j * math.pi * rng.random(5))
        self.phi = np.array([0.25, 0.15, 0.0]) * phases[:3]
        self.alp = np.array([0.2, 0.1]) * phases[3:]
        self.models = {eps: _fock_model(eps, self.dk, self.n_max)
                       for eps in self.eps_values}
        self._norms_checked = False
        warm = _fock_model(0.5, self.dk, 2)
        fock.correspondence_experiment(lambda eps: warm, [0.5], self.phi,
                                       self.alp, self.t_final, n_times=2)

    def solve(self):
        return fock.correspondence_experiment(
            self.models.__getitem__, list(self.eps_values), self.phi,
            self.alp, self.t_final, n_times=self.n_times)

    def check(self, out) -> None:
        errors = out["errors"]
        checks.errors_decrease([errors[eps][-1] for eps in self.eps_values])
        for eps in self.eps_values:
            tol = checks.truncation_tolerance(eps, self.phi, self.alp,
                                              self.n_max, self.n_max)
            checks.initial_match(errors[eps][0], tol, eps)
        if not self._norms_checked:
            # the propagated states do not depend on the round: check once
            for eps, model in self.models.items():
                prop = fock.Propagator(fock.build_hamiltonian(model), eps)
                psi0 = fock.coherent_state(model, self.phi, self.alp)
                checks.unit_norms([np.linalg.norm(prop.apply(psi0, t))
                                   for t in out["times"]])
            self._norms_checked = True


WORKLOADS = {w.name: w for w in (DressedN32, DuhamelN16, FockExpansion,
                                 FockBohr)}
