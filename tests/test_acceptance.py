"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure against its pinned tolerance.

Each figure comes from the library function that the matching
`polaronlab run` scenario also calls (07 has no scenario); the arguments
below are the criterion's pins."""

import time

import numpy as np
import pytest

from polaronlab import dressing, dynamics, fock, hamiltonians, picard
from polaronlab.initial_data import (
    build_state,
    random_smooth_state,
    random_smooth_states,
)
from polaronlab.spectral import build_form_factors, build_grid


def report(criterion: str, ok: bool, detail: str, t0: float,
           budget: float | None = None) -> None:
    """Print the criterion's line with its runtime since t0; a criterion
    with a wall-clock budget fails when the runtime reaches it."""
    elapsed = time.perf_counter() - t0
    detail += f", runtime {elapsed:.2f}s"
    if budget is not None:
        ok = ok and elapsed < budget
        detail += f" < {budget:g}s"
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def standard():
    g = build_grid(3, 32, 16.0)
    ff = build_form_factors(g, sigma0=0.75)
    z0 = build_state(g, {}, seed=0)
    return g, ff, z0


@pytest.fixture(scope="module")
def small():
    g = build_grid(3, 16, 16.0)
    ff = build_form_factors(g, sigma0=0.75)
    return g, ff


def test_01_mass_conservation_standard_scenario(standard):
    g, ff, z0 = standard
    t0 = time.perf_counter()
    cfg = dynamics.EvolutionConfig(dt=1e-3, t_final=1.0, record_every=100)
    lp, lp_verdicts, _ = dynamics.conservation(
        dynamics.lp_evolve(z0, cfg, ff), lambda r: r.h.total)
    hat, hat_verdicts, _ = dynamics.conservation(
        dynamics.dressed_evolve(z0, cfg, ff), lambda r: r.hhat.total)
    report("01 mass conservation",
           all(lp_verdicts.values()) and all(hat_verdicts.values()),
           f"lp {lp['mass_drift']:.2e}, dressed {hat['mass_drift']:.2e}, "
           f"tol {dynamics.MASS_DRIFT_TOL:g}", t0, budget=120.0)


def test_02_energy_conservation_order(small):
    t0 = time.perf_counter()
    g, ff = small
    z0 = random_smooth_state(g, seed=11, u_amp=0.4, alpha_amp=0.25, k_cut=0.5)
    info, verdicts, _ = dynamics.energy_order(z0, ff, (4e-3, 2e-3, 1e-3),
                                              t_final=0.4)
    lp, hat = info["lp_ratios"], info["dressed_ratios"]
    report("02 energy conservation order", all(verdicts.values()),
           f"halving ratios lp {lp[0]:.2f}/{lp[1]:.2f}, "
           f"dressed {hat[0]:.2f}/{hat[1]:.2f}, "
           "window [{:g}, {:g}]".format(*dynamics.ENERGY_ORDER_WINDOW), t0)


def test_03_dressed_identity(small):
    t0 = time.perf_counter()
    g, ff = small
    states = random_smooth_states(g, 100, seed=0, u_amp=0.5, alpha_amp=0.3,
                                  k_cut=0.5)
    info, verdicts, _ = dressing.identity_residuals(ff, states)
    report("03 dressed identity", all(verdicts.values()),
           f"worst residual {info['worst_residual']:.2e} over "
           f"{info['n_states']} states, tol {dressing.IDENTITY_TOL:g}", t0)


def test_04_flow_conjugation_order(small):
    t0 = time.perf_counter()
    g, ff = small
    z0 = random_smooth_state(g, seed=11, u_amp=0.4, alpha_amp=0.25,
                             k_cut=0.35)
    info, verdicts, _ = dressing.conjugation_order(
        z0, ff, (2e-2, 1e-2, 5e-3), t_sample=0.5)
    e, o = info["errors"], info["orders"]
    report("04 flow conjugation", all(verdicts.values()),
           f"errors at t=0.5: {e[0]:.2e}/{e[1]:.2e}/{e[2]:.2e}, "
           f"orders {o[0]:.2f},{o[1]:.2f} in "
           f"{list(dressing.CONJUGATION_ORDER_WINDOW)}, "
           f"t=0 error {info['t0_error']:.2e} < {dressing.T0_TOL:g}", t0)


def test_05_gradient_gate(small):
    t0 = time.perf_counter()
    g, ff = small
    z = random_smooth_state(g, seed=11, u_amp=0.4, alpha_amp=0.25, k_cut=0.5)
    info, verdicts, _ = hamiltonians.gradient_check(
        z, ff, n_directions=200, rng=np.random.default_rng(77))
    worst = info["worst"]
    report("05 gradient gate", all(verdicts.values()),
           f"worst rel err h {worst['h']:.2e}, hhat {worst['hhat']:.2e} "
           f"over {info['n_directions']} directions each, "
           f"tol {hamiltonians.GRADIENT_TOL:g}", t0)


def test_06_picard_contraction(small):
    t0 = time.perf_counter()
    g, ff = small
    z0 = random_smooth_state(g, seed=11, u_amp=0.2, alpha_amp=0.12, k_cut=0.5)
    info, verdicts, _ = picard.contraction_check(
        z0, ff, t_start=0.4, n_nodes=129, match_nodes=401, dt=2.5e-4,
        bisect_steps=5)
    ratios = info["ratios"][:picard.N_RATIOS]
    report("06 picard contraction", all(verdicts.values()),
           f"T={info['contraction_time']:.3f}, first ratios "
           f"{'/'.join(f'{r:.2f}' for r in ratios)} <= "
           f"{picard.RATIO_TARGET}, strang gap {info['endpoint_gap']:.2e} "
           f"< {picard.STRANG_GAP_TOL:g}", t0)


def test_07_dressing_exactness(small):
    t0 = time.perf_counter()
    g, ff = small
    z = random_smooth_state(g, seed=4, u_amp=0.4, alpha_amp=0.25, k_cut=0.5)
    inv = dressing.dressing_apply(
        dressing.dressing_apply(z, 1.0, ff), -1.0, ff).distance(z)
    cancel = dressing.cancellation_residual(z, ff)
    defects = dressing.pairing_defects(z, ff, np.random.default_rng(5),
                                       steps=(1e-3, 1e-4), n_pairs=5)
    tol = dressing.CANCELLATION_TOL
    ok = (inv < 1e-10 and cancel < tol
          and all(d <= h for h, d in defects.items()))
    report("07 dressing exactness", ok,
           f"inverse {inv:.2e} < 1e-10, cancellation {cancel:.2e} < {tol:g}, "
           f"pairing defects {defects[1e-3]:.2e}@1e-3 / "
           f"{defects[1e-4]:.2e}@1e-4 (O(h))", t0)


def fock_model(dk: float, eps: float) -> fock.FockModel:
    return fock.FockModel(particle_momenta=[0.0, 1.0, 2.0],
                          phonon_momenta=[1.0, 2.0], dk=dk, eps=eps,
                          n_max_particles=6, n_max_phonons=6, sigma0=1.5)


def test_08_dressed_hamiltonian_expansion():
    t0 = time.perf_counter()
    model = fock_model(dk=1e-6, eps=0.5)
    rep = fock.dressed_comparison(model)
    report("08 dressed-Hamiltonian expansion", rep["expansion_holds"],
           f"restricted diff {rep['restricted_diff_norm']:.2e} < "
           f"{fock.EXPANSION_TOL:g} on "
           f"occupancy <= {rep['n_cut']} of {model.dim}-dim model", t0,
           budget=60.0)


def test_09_klmn_sampling():
    t0 = time.perf_counter()
    rep = fock.klmn_check(fock_model(dk=0.5, eps=0.5), n_samples=1000, seed=5)
    report("09 KLMN form bound", rep["satisfied"],
           f"found a={rep['a']:.3f} <= {fock.KLMN_A_CAP} with "
           f"C={rep['C']:.3f} over {rep['samples']} states, "
           f"|kB|^2 = {rep['norm_kB_sq']:.3f}", t0)


def test_10_bohr_correspondence():
    t0 = time.perf_counter()
    res = fock.correspondence_experiment(
        lambda eps: fock_model(dk=0.5, eps=eps), [0.5, 0.25, 0.125],
        [0.25, 0.15, 0.0], [0.2, 0.1], 0.5, n_times=6)
    final = res["final_errors"]
    report("10 Bohr correspondence", res["monotone"] and res["sqrt_rate"],
           f"errors at t=0.5: {final[0]:.2e} > {final[1]:.2e} > "
           f"{final[2]:.2e} (monotone in eps, slack x{fock.BOHR_SLACK:g}: "
           f"{res['monotone']}; last/first {final[2] / final[0]:.2f} <= "
           f"{res['eps'][2] / res['eps'][0]:g}^{fock.BOHR_RATE:g}: "
           f"{res['sqrt_rate']})", t0, budget=600.0)


def test_11_strichartz_interpolation(small):
    t0 = time.perf_counter()
    g, ff = small
    states = random_smooth_states(g, 100, seed=900, u_amp=1.0,
                                  alpha_amp=0.0, k_cut=1.0)
    info, verdicts, rows = picard.interpolation_residuals(states)
    report("11 interpolation inequality", all(verdicts.values()),
           f"smallest residual {info['worst_residual']:.2e} >= "
           f"-{picard.INTERPOLATION_TOL:g} over {len(rows)} fields", t0)
