"""Scenario configuration, run orchestration, and bit-stable result emission.

Configs are flat key/value INI files with one section per module (see
configs/schema.ini for the documented schema).  Every run writes CSV series
plus a summary.json with a machine-readable pass/fail verdict per enabled
check.  Identical config + seed produces byte-identical outputs: floats are
emitted with 17 significant digits, JSON keys are sorted, and nothing
time- or host-dependent is written.

Exit codes: 0 all verdicts pass, 1 any check failed, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import diagnostics, dressing, dynamics, hamiltonians, picard
from .initial_data import (ALPHA_FAMILIES, U_FAMILIES, build_state,
                           random_smooth_states)
from .spectral import build_form_factors, build_grid

CSV_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _csv_floats(text: str):
    return tuple(float(x) for x in text.split(",") if x.strip())


def _checked(convert, ok, rule: str):
    """Converter of convert(text) whose value must pass ok; rule says why."""
    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise ValueError(rule)
        return value
    return check


def _count(minimum: int = 1):
    """Converter of a count that must be at least minimum."""
    return _checked(int, lambda n: n >= minimum,
                    f"a count must be at least {minimum}")


def _choice(options):
    """Converter of a name that must be one of options."""
    return _checked(str, options.__contains__,
                    f"choose from {', '.join(options)}")


_positive = _checked(float, lambda x: x > 0, "must be positive")
_csv_positives = _checked(_csv_floats, lambda xs: all(x > 0 for x in xs),
                          "every entry must be positive")


# schema: section -> key -> (converter, default)
SCHEMA = {
    "grid": {
        "d": (int, 3),
        "n": (int, 32),
        "length": (float, 16.0),
    },
    "form_factors": {
        "sigma0": (float, 0.75),
    },
    "initial": {
        "u_family": (_choice(U_FAMILIES), "gaussian"),
        "u_amp": (float, 0.5),
        "u_width": (float, 1.5),
        "u_center": (_csv_floats, None),
        "u_momentum": (_csv_floats, None),
        "alpha_family": (_choice(ALPHA_FAMILIES), "gaussian"),
        "alpha_amp": (float, 0.3),
        "alpha_width": (float, 1.0),
        "shell_radius": (float, 1.0),
        "shell_width": (float, 0.3),
        "k_cut": (float, 0.5),
        "seed": (int, 0),
    },
    "evolution": {
        "dt": (float, 1e-3),
        "t_final": (float, 1.0),
        "record_every": (_count(), 10),
    },
    "scenario": {
        "name": (str, "lp"),
        "n_states": (_count(), 100),
        "t_sample": (float, 0.5),
        "dt_levels": (_csv_floats, (4e-3, 2e-3, 1e-3)),
        "n_directions": (_count(), 200),
        "fd_step": (float, 1e-5),
        "picard_nodes": (_count(2), 257),
        "picard_dt": (float, 2.5e-4),
        "picard_t_start": (float, 0.4),
    },
    "fock": {
        "particle_momenta": (_csv_floats, (0.0, 1.0, 2.0)),
        "phonon_momenta": (_csv_floats, (1.0, 2.0)),
        "dk": (_positive, 0.5),
        "lemma_dk": (_positive, 1e-6),
        "eps": (_positive, 0.5),
        "eps_list": (_csv_positives, (0.5, 0.25, 0.125)),
        "n_max_particles": (_count(0), 6),
        "n_max_phonons": (_count(0), 6),
        "sigma0": (_positive, 1.5),
        "phi0": (_csv_floats, (0.25, 0.15, 0.0)),
        "alpha0": (_csv_floats, (0.2, 0.1)),
        "t_final": (_positive, 0.5),
        "n_times": (_count(2), 6),
        "klmn_samples": (_count(), 1000),
    },
}


def load_config(path: str | Path) -> dict:
    """Parse and validate an INI config against the schema.

    Unknown sections or keys are rejected by name; every value is converted
    by the schema type.  Missing entries take defaults.  A file that is not
    valid INI (a repeated section or key, a line outside any section) or
    a config that _check rejects is a config error too.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        entries = {sec: parser.items(sec) for sec in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    cfg = {sec: {k: d for k, (_, d) in keys.items()}
           for sec, keys in SCHEMA.items()}
    for sec, items in entries.items():
        if sec not in SCHEMA:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, raw in items:
            if key not in SCHEMA[sec]:
                raise ConfigError(f"unknown key '{key}' in section [{sec}]")
            cfg[sec][key] = _convert(sec, key, raw)
    _check(cfg)
    return cfg


def _convert(sec: str, key: str, raw: str):
    try:
        return SCHEMA[sec][key][0](raw)
    except ValueError as exc:
        raise ConfigError(
            f"bad value for [{sec}] {key} = {raw!r}: {exc}") from exc


# scenarios that run one evolution per [scenario] dt_levels entry, with the
# section and key of the horizon that each entry must divide
DT_LEVEL_HORIZONS = {"energy_order": ("evolution", "t_final"),
                     "conjugation": ("scenario", "t_sample")}


def _check(cfg: dict, name: str | None = None) -> None:
    """Reject what the runners would reject only later: an unknown scenario,
    [grid], [form_factors], [evolution] or [fock] values that the library
    refuses, fewer than two dt_levels, a dt_levels entry that
    EvolutionConfig refuses with the horizon of the scenario that reads it,
    or fewer than two distinct eps_list values for fock_correspondence.
    name overrides the config's scenario."""
    name = name or cfg["scenario"]["name"]
    if name not in RUNNERS:
        raise ConfigError(f"unknown scenario {name!r}; choose from "
                          f"{', '.join(RUNNERS)}")
    try:
        _grid_and_ff(cfg)
        dynamics.EvolutionConfig(**cfg["evolution"])
    except ValueError as exc:
        raise ConfigError(
            f"bad [grid], [form_factors] or [evolution] value: {exc}") from exc
    if name in DT_LEVEL_HORIZONS:
        section, key = DT_LEVEL_HORIZONS[name]
        levels = cfg["scenario"]["dt_levels"]
        for dt in levels:
            try:
                dynamics.EvolutionConfig(dt=dt, t_final=cfg[section][key])
            except ValueError as exc:
                raise ConfigError(
                    f"bad [scenario] dt_levels for {name} with [{section}] "
                    f"{key}: {exc}") from exc
        if len(levels) < 2:
            raise ConfigError(
                f"bad [scenario] dt_levels for {name}: an order needs at "
                f"least two levels, got {len(levels)}")
    if name.startswith("fock_"):
        from . import fock

        f = cfg["fock"]
        n_eps = len(set(f["eps_list"]))
        if name == "fock_correspondence" and n_eps < 2:
            raise ConfigError(
                f"bad [fock] eps_list for {name}: the errors can only fall "
                f"with eps over at least two distinct values, got {n_eps}")
        try:
            if name == "fock_correspondence":
                for eps in f["eps_list"]:
                    fock.mode_amplitudes(_fock_model(cfg, eps=eps),
                                         f["phi0"], f["alpha0"])
            else:
                _fock_model(cfg)
        except ValueError as exc:
            raise ConfigError(f"bad [fock] value for {name}: {exc}") from exc


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path: Path, columns, rows) -> None:
    lines = [f"# schema={CSV_SCHEMA_VERSION}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n")


TRAJECTORY_COLUMNS = (
    "t", "mass", "h1",
    "h_total", "h_kinetic", "h_phonon", "h_coupling",
    "hhat_total", "hhat_kinetic", "hhat_phonon", "hhat_coupling_ir",
    "hhat_pair", "hhat_quadratic", "hhat_drift",
    "L2t_L6x", "L4t_L3x", "L8t_L2.4x",
)


# -- scenario figures ---------------------------------------------------------------


def _grid_and_ff(cfg):
    g = build_grid(cfg["grid"]["d"], cfg["grid"]["n"], cfg["grid"]["length"])
    return g, build_form_factors(g, cfg["form_factors"]["sigma0"])


def _grid_and_state(cfg, seed):
    g, ff = _grid_and_ff(cfg)
    return g, ff, build_state(g, cfg["initial"], seed)


def _random_states(cfg, g, seed):
    ini = cfg["initial"]
    return random_smooth_states(g, cfg["scenario"]["n_states"], seed,
                                u_amp=ini["u_amp"],
                                alpha_amp=ini["alpha_amp"],
                                k_cut=ini["k_cut"])


def _trajectory(traj, energy) -> tuple:
    """dynamics.conservation of traj, its rows given 0.0 for the Strichartz
    columns, which have no norms below d = 3."""
    info, verdicts, rows = dynamics.conservation(traj, energy)
    return info, verdicts, [{c: r.get(c, 0.0) for c in TRAJECTORY_COLUMNS}
                            for r in rows]


def run_free(cfg, seed):
    g, ff, z0 = _grid_and_state(cfg, seed)
    ecfg = dynamics.EvolutionConfig(**cfg["evolution"])
    traj = dynamics.Trajectory()
    for step in filter(ecfg.records, range(ecfg.n_steps + 1)):
        t = step * ecfg.dt
        zt = dynamics.free_flow(z0, t)
        traj.append(t, zt, diagnostics.diagnostics_row(zt, ff, t))
    info, _, rows = _trajectory(traj, lambda r: r.h.kinetic)
    kinetic_drift = info.pop("energy_drift")
    return info, {"mass_exact": info["mass_drift"] < 1e-12,
                  "kinetic_exact": kinetic_drift < 1e-12}, rows


def _flow_runner(evolve, energy):
    def run(cfg, seed):
        g, ff, z0 = _grid_and_state(cfg, seed)
        ecfg = dynamics.EvolutionConfig(**cfg["evolution"])
        return _trajectory(evolve(z0, ecfg, ff), energy)

    return run


run_lp = _flow_runner(dynamics.lp_evolve, lambda r: r.h.total)
run_dressed = _flow_runner(dynamics.dressed_evolve, lambda r: r.hhat.total)


def run_energy_order(cfg, seed):
    g, ff, z0 = _grid_and_state(cfg, seed)
    return dynamics.energy_order(z0, ff, cfg["scenario"]["dt_levels"],
                                 cfg["evolution"]["t_final"])


def run_conjugation(cfg, seed):
    g, ff, z0 = _grid_and_state(cfg, seed)
    return dressing.conjugation_order(z0, ff, cfg["scenario"]["dt_levels"],
                                      cfg["scenario"]["t_sample"])


def run_dressed_identity(cfg, seed):
    g, ff = _grid_and_ff(cfg)
    return dressing.identity_residuals(ff, _random_states(cfg, g, seed))


def run_gradient_check(cfg, seed):
    g, ff, z0 = _grid_and_state(cfg, seed)
    return hamiltonians.gradient_check(z0, ff, cfg["scenario"]["n_directions"],
                                       np.random.default_rng(seed + 1),
                                       h=cfg["scenario"]["fd_step"])


def run_picard(cfg, seed):
    g, ff, z0 = _grid_and_state(cfg, seed)
    sc = cfg["scenario"]
    return picard.contraction_check(
        z0, ff, t_start=sc["picard_t_start"], n_nodes=sc["picard_nodes"],
        match_nodes=sc["picard_nodes"], dt=sc["picard_dt"])


def run_strichartz(cfg, seed):
    """Below d = 3 there are no interpolation residuals and no rows."""
    g, ff, z0 = _grid_and_state(cfg, seed)
    ecfg = dynamics.EvolutionConfig(**cfg["evolution"])
    report = picard.strichartz_report(dynamics.lp_evolve(z0, ecfg, ff))
    finite = all(math.isfinite(v) for v in report.values()
                 if isinstance(v, float))
    info = {"report": report, "worst_interpolation_residual": None}
    verdicts = {"norms_finite": bool(finite)}
    if g.d < 3:
        return info, verdicts, None
    interp, interp_verdicts, rows = picard.interpolation_residuals(
        _random_states(cfg, g, seed + 1000))
    if not math.isinf(interp["worst_residual"]):
        info["worst_interpolation_residual"] = interp["worst_residual"]
    verdicts.update(interp_verdicts)
    return info, verdicts, rows


# The fock_* figures and their config check import the Fock layer (and with it
# scipy.sparse) when they run, so that a classical run never loads it.


def _fock_model(cfg, eps=None, dk=None):
    from . import fock

    f = cfg["fock"]
    return fock.FockModel(
        particle_momenta=list(f["particle_momenta"]),
        phonon_momenta=list(f["phonon_momenta"]),
        dk=f["dk"] if dk is None else dk,
        eps=f["eps"] if eps is None else eps,
        n_max_particles=f["n_max_particles"],
        n_max_phonons=f["n_max_phonons"],
        sigma0=f["sigma0"])


def _quantity_rows(rep: dict, keys) -> list:
    return [{"quantity": k, "value": rep[k]} for k in keys]


def run_fock_lemma(cfg, seed):
    from . import fock

    rep = fock.dressed_comparison(_fock_model(cfg, dk=cfg["fock"]["lemma_dk"]))
    info = {k: rep[k] for k in ("restricted_diff_norm", "restricted_scale",
                                "n_cut", "subspace_dim")}
    return (info, {"dressed_expansion": rep["expansion_holds"]},
            _quantity_rows(rep, ("restricted_diff_norm", "restricted_scale",
                                 "subspace_dim")))


def run_fock_correspondence(cfg, seed):
    from . import fock

    f = cfg["fock"]
    res = fock.correspondence_experiment(
        lambda eps: _fock_model(cfg, eps=eps),
        list(f["eps_list"]), list(f["phi0"]), list(f["alpha0"]),
        f["t_final"], n_times=f["n_times"])
    return ({"eps": res["eps"], "final_errors": res["final_errors"]},
            {"monotone_in_eps": res["monotone"],
             "sqrt_rate_in_eps": res["sqrt_rate"]},
            [{"eps": eps, "t": t, "error": e}
             for eps, errs in res["errors"].items()
             for t, e in zip(res["times"], errs)])


def run_fock_klmn(cfg, seed):
    from . import fock

    rep = fock.klmn_check(_fock_model(cfg),
                          n_samples=cfg["fock"]["klmn_samples"], seed=seed)
    return (rep, {"form_bound": bool(rep["satisfied"])},
            _quantity_rows(rep, ("a", "C", "norm_kB_sq")))


# scenario -> (figure, CSV name, CSV columns); figure(cfg, seed) returns
# (info, verdicts, rows), and run_scenario writes the rows as that CSV
RUNNERS = {
    "free": (run_free, "trajectory.csv", TRAJECTORY_COLUMNS),
    "lp": (run_lp, "trajectory.csv", TRAJECTORY_COLUMNS),
    "dressed": (run_dressed, "trajectory.csv", TRAJECTORY_COLUMNS),
    "energy_order": (run_energy_order, "energy_order.csv",
                     ("flow", "dt", "energy_drift")),
    "conjugation": (run_conjugation, "conjugation.csv", ("dt", "t", "error")),
    "dressed_identity": (run_dressed_identity, "dressed_identity.csv",
                         ("state", "residual")),
    "gradient_check": (run_gradient_check, "gradient_check.csv",
                       ("functional", "direction", "rel_error")),
    "picard": (run_picard, "picard.csv", ("n", "ratio")),
    "strichartz": (run_strichartz, "interpolation.csv", ("state", "residual")),
    "fock_lemma": (run_fock_lemma, "fock_lemma.csv", ("quantity", "value")),
    "fock_correspondence": (run_fock_correspondence, "correspondence.csv",
                            ("eps", "t", "error")),
    "fock_klmn": (run_fock_klmn, "fock_klmn.csv", ("quantity", "value")),
}


def run_scenario(cfg: dict, outdir: str | Path, seed: int | None = None,
                 scenario: str | None = None) -> dict:
    """Execute one scenario and write its CSV and summary.json; returns the
    summary."""
    name = scenario or cfg["scenario"]["name"]
    _check(cfg, name)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    used_seed = cfg["initial"]["seed"] if seed is None else seed
    summary = {"scenario": name, "seed": used_seed,
               "csv_schema": CSV_SCHEMA_VERSION}
    figure, csv_name, columns = RUNNERS[name]
    try:
        info, verdicts, rows = figure(cfg, used_seed)
    except dynamics.BlowUpError as exc:
        summary["blow_up"] = {"step": exc.step, "t": exc.t, "peak": exc.peak}
        summary["verdicts"] = {"no_blow_up": False}
        summary["passed"] = False
    else:
        if rows is not None:
            write_csv(outdir / csv_name, columns, rows)
        summary.update(info=info, verdicts=verdicts,
                       passed=all(verdicts.values()))
    (outdir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary


def _sweep_one(args):
    path, outdir, seed, scenario, section, key, value = args
    cfg = load_config(path)
    cfg[section][key] = _convert(section, key, value)
    return value, run_scenario(cfg, outdir, seed=seed, scenario=scenario)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polaronlab",
        description="Landau-Pekar numerical laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--outdir", default="out")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--scenario", default=None,
                       help="override the config scenario")
    p_run.add_argument("-v", "--verbose", action="store_true")

    p_sweep = sub.add_parser("sweep",
                             help="run one scenario over a list of values")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True,
                         help="section.key to vary, e.g. evolution.dt")
    p_sweep.add_argument(
        "--values", required=True,
        help="comma-separated values; for a key that holds a list, such as "
             "scenario.dt_levels, values are separated by ';' and the "
             "entries of one value by ','")
    p_sweep.add_argument("--outdir", default="out")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--scenario", default=None)
    p_sweep.add_argument("--jobs", type=int, default=2)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")

    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            load_config(args.config)
            print("config ok")
            return 0
        if args.command == "run":
            cfg = load_config(args.config)
            summary = run_scenario(cfg, args.outdir, seed=args.seed,
                                   scenario=args.scenario)
            if args.verbose:
                print(json.dumps(summary, sort_keys=True, indent=2))
            for check, ok in summary.get("verdicts", {}).items():
                print(f"{'PASS' if ok else 'FAIL'} {check}")
            return 0 if summary["passed"] else 1
        if args.command == "sweep":
            section, _, key = args.param.partition(".")
            if key not in SCHEMA.get(section, {}):
                raise ConfigError(f"--param must be a section.key of the "
                                  f"schema, got {args.param!r}")
            # a value of a list-valued key is itself comma-separated
            list_valued = (_csv_floats, _csv_positives)
            sep = ";" if SCHEMA[section][key][0] in list_valued else ","
            values = [v.strip() for v in args.values.split(sep) if v.strip()]
            cfg = load_config(args.config)
            jobs, errors = [], []
            for v in values:
                cfg[section][key] = _convert(section, key, v)
                try:
                    _check(cfg, args.scenario)
                except ConfigError as exc:
                    errors.append(f"{args.param}={v}: {exc}")
                outdir = Path(args.outdir) / f"{key}={v}"
                jobs.append((args.config, outdir, args.seed, args.scenario,
                             section, key, v))
            if errors:
                raise ConfigError("; ".join(errors))
            ok = True
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                for value, summary in pool.map(_sweep_one, jobs):
                    ok &= summary["passed"]
                    print(f"{'PASS' if summary['passed'] else 'FAIL'} "
                          f"{args.param}={value}")
            return 0 if ok else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
