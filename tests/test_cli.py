import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polaronlab
from polaronlab.cli import (SCHEMA, ConfigError, _convert, load_config, main,
                            run_scenario)
from polaronlab.initial_data import build_state
from polaronlab.spectral import build_grid


def write_config(tmp_path, body, name="case.ini"):
    p = tmp_path / name
    p.write_text(body)
    return p


MINI = """
[grid]
n = 8
length = 12.0

[evolution]
dt = 1e-2
t_final = 0.1
record_every = 5

[scenario]
name = {name}
"""


class TestConfig:
    def test_defaults_loaded(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "[scenario]\nname = lp\n"))
        assert cfg["grid"]["n"] == 32
        assert cfg["scenario"]["name"] == "lp"

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, "[grid]\nresolution = 9\n")
        with pytest.raises(ConfigError, match="resolution"):
            load_config(path)

    def test_unknown_section_named(self, tmp_path):
        path = write_config(tmp_path, "[turbo]\nx = 1\n")
        with pytest.raises(ConfigError, match="turbo"):
            load_config(path)

    def test_unknown_scenario(self, tmp_path):
        path = write_config(tmp_path, "[scenario]\nname = warpdrive\n")
        with pytest.raises(ConfigError, match="warpdrive.*free, lp, "):
            load_config(path)

    def test_unknown_scenario_override(self, tmp_path):
        with pytest.raises(ConfigError, match="warpdrive.*fock_klmn"):
            run_body(tmp_path, MINI.format(name="lp"), name="warpdrive")

    def test_bad_value(self, tmp_path):
        path = write_config(tmp_path, "[grid]\nn = often\n")
        with pytest.raises(ConfigError, match="often"):
            load_config(path)

    @pytest.mark.parametrize("section, key", [("scenario", "n_states"),
                                              ("scenario", "n_directions"),
                                              ("fock", "klmn_samples")])
    def test_zero_count_rejected(self, tmp_path, capsys, section, key):
        path = write_config(tmp_path, f"[{section}]\n{key} = 0\n")
        assert main(["validate", str(path)]) == 2
        assert key in capsys.readouterr().err
        # a sweep converts its values before it starts any run
        path = write_config(tmp_path, MINI.format(name="free"))
        assert main(["sweep", str(path), "--param", f"{section}.{key}",
                     "--values", "1,0", "--outdir", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, minimum",
                             [("evolution", "record_every", 1),
                              ("scenario", "picard_nodes", 2),
                              ("fock", "n_times", 2)])
    def test_count_below_its_minimum_rejected(self, tmp_path, capsys,
                                              section, key, minimum):
        path = write_config(tmp_path, f"[{section}]\n{key} = {minimum - 1}\n")
        assert main(["validate", str(path)]) == 2
        assert key in capsys.readouterr().err
        path = write_config(tmp_path, f"[{section}]\n{key} = {minimum}\n")
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("key, value, good",
                             [("dt", "0", "1e-2"), ("dt", "-1e-2", "1e-2"),
                              ("t_final", "-1", "0.1"),
                              ("t_final", "0.0105", "0.1")])
    def test_evolution_values_rejected_before_any_run(self, tmp_path, capsys,
                                                      key, value, good):
        path = write_config(tmp_path, f"[evolution]\n{key} = {value}\n")
        assert main(["validate", str(path)]) == 2
        assert f"{key} must be" in capsys.readouterr().err
        # a sweep checks every value before it starts any worker
        path = write_config(tmp_path, MINI.format(name="free"))
        outdir = tmp_path / "sweep"
        assert main(["sweep", str(path), "--param", f"evolution.{key}",
                     "--values", f"{good},{value}",
                     "--outdir", str(outdir)]) == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("section, key, value",
                             [("fock", "t_final", "0"),
                              ("fock", "t_final", "-0.5"),
                              ("fock", "eps", "0"),
                              ("fock", "eps_list", "0.5,0"),
                              ("fock", "dk", "-1"),
                              ("fock", "lemma_dk", "0"),
                              ("fock", "n_max_phonons", "-1"),
                              ("grid", "n", "5"),
                              ("grid", "length", "-1"),
                              ("form_factors", "sigma0", "0")])
    def test_values_the_runners_refuse_are_config_errors(
            self, tmp_path, capsys, section, key, value):
        path = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
        outdir = tmp_path / "out"
        for argv in (["validate", str(path)],
                     ["run", str(path), "--outdir", str(outdir)]):
            assert main(argv) == 2
            assert f"[{section}]" in capsys.readouterr().err
        path = write_config(tmp_path, MINI.format(name="free"))
        assert main(["sweep", str(path), "--param", f"{section}.{key}",
                     "--values", value, "--outdir", str(outdir)]) == 2
        assert f"[{section}]" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("name", ["fock_lemma", "fock_correspondence",
                                      "fock_klmn"])
    def test_fock_basis_above_the_guard_is_a_config_error(self, tmp_path,
                                                          capsys, name):
        """A [fock] basis above FockModel's size guard (dim 41 405 at
        n_max 12) is refused by validate, run and sweep."""
        body = FOCK.format(name, n=12)
        path = write_config(tmp_path, body)
        outdir = tmp_path / "out"
        for argv in (["validate", str(path)],
                     ["run", str(path), "--outdir", str(outdir)]):
            assert main(argv) == 2
            assert "basis-size guard" in capsys.readouterr().err
        path = write_config(tmp_path, FOCK.format(name, n=4))
        assert main(["sweep", str(path), "--param", "fock.n_max_phonons",
                     "--values", "4,40", "--outdir", str(outdir)]) == 2
        assert "basis-size guard" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("key, value", [("n_max_phonons", "0"),
                                            ("eps_list", "0.5,0.01"),
                                            ("alpha0", "0.2")])
    def test_coherent_data_refused_by_the_margin_rule(self, tmp_path, capsys,
                                                      key, value):
        """fock_correspondence data that fock.mode_amplitudes refuses for
        some eps_list entry (amplitudes past the truncation margin, or of
        the wrong length) is a config error in validate, run and sweep."""
        body = "[scenario]\nname = fock_correspondence\n[fock]\n"
        path = write_config(tmp_path, body + f"{key} = {value}\n")
        outdir = tmp_path / "out"
        for argv in (["validate", str(path)],
                     ["run", str(path), "--outdir", str(outdir)]):
            assert main(argv) == 2
            assert "[fock]" in capsys.readouterr().err
        path = write_config(tmp_path, body)
        assert main(["sweep", str(path), "--param", f"fock.{key}",
                     "--values", value, "--outdir", str(outdir)]) == 2
        assert "[fock]" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("eps_list", ["", "0.5", "0.5,0.5"])
    def test_fewer_than_two_eps_rejected(self, tmp_path, capsys, eps_list):
        """fock_correspondence's monotone_in_eps verdict compares eps_list
        values: validate, run and sweep refuse fewer than two distinct ones
        before any run starts."""
        body = "[scenario]\nname = fock_correspondence\n[fock]\n"
        path = write_config(tmp_path, body + f"eps_list = {eps_list}\n")
        outdir = tmp_path / "out"
        for argv in (["validate", str(path)],
                     ["run", str(path), "--outdir", str(outdir)]):
            assert main(argv) == 2
            assert "two distinct values" in capsys.readouterr().err
        # a sweep drops empty values, so its bad value is a one-entry list
        # where the row's own is empty
        path = write_config(tmp_path, body)
        assert main(["validate", str(path)]) == 0
        assert main(["sweep", str(path), "--param", "fock.eps_list",
                     "--values", f"0.5,0.25;{eps_list or '0.25'}",
                     "--outdir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert "two distinct values" in err and "eps_list=0.5,0.25" not in err
        assert not outdir.exists()

    def test_scheme_is_an_unknown_key(self, tmp_path, capsys):
        path = write_config(tmp_path, "[evolution]\nscheme = strang-split\n")
        assert main(["validate", str(path)]) == 2
        assert "unknown key 'scheme'" in capsys.readouterr().err

    def test_sigma_is_an_unknown_key(self, tmp_path, capsys):
        """The lattice is the only ultraviolet cutoff; a config that sets
        another one fails before any run."""
        path = write_config(tmp_path, "[form_factors]\nsigma = 2.0\n")
        outdir = tmp_path / "out"
        for argv in (["validate", str(path)],
                     ["run", str(path), "--outdir", str(outdir)]):
            assert main(argv) == 2
            assert "unknown key 'sigma'" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("name", ["energy_order", "conjugation"])
    def test_dt_levels_checked_against_the_horizon(self, tmp_path, capsys,
                                                   name):
        """Each dt_levels entry must divide the horizon of the scenario
        that reads it (t_final for energy_order, t_sample for conjugation),
        also when the scenario comes from --scenario or a sweep; lp does
        not read dt_levels."""
        body = ("[grid]\nn = 8\n[evolution]\ndt = 1e-2\nt_final = 0.1\n"
                "[scenario]\nname = {}\nt_sample = 0.1\ndt_levels = {}\n")
        outdir = tmp_path / "out"
        path = write_config(tmp_path, body.format(name, "3e-3,1.5e-3"))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "dt_levels" in err and name in err and "dt = 0.003" in err
        path = write_config(tmp_path, body.format(name, "2e-2,1e-2"))
        assert main(["validate", str(path)]) == 0
        path = write_config(tmp_path, body.format("lp", "3e-3,1.5e-3"))
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--outdir", str(outdir),
                     "--scenario", name]) == 2
        assert "dt_levels" in capsys.readouterr().err
        assert main(["sweep", str(path), "--scenario", name,
                     "--param", "scenario.dt_levels", "--values", "1e-2,3e-3",
                     "--outdir", str(outdir)]) == 2
        assert "dt = 0.003" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("name", ["energy_order", "conjugation"])
    @pytest.mark.parametrize("levels", ["", "1e-2"])
    def test_fewer_than_two_dt_levels_rejected(self, tmp_path, capsys, name,
                                               levels):
        """An order needs at least two dt_levels: validate and run refuse
        zero or one before any run starts."""
        body = ("[grid]\nn = 8\n[evolution]\ndt = 1e-2\nt_final = 0.1\n"
                f"[scenario]\nname = {name}\nt_sample = 0.1\n"
                f"dt_levels = {levels}\n")
        path = write_config(tmp_path, body)
        outdir = tmp_path / "out"
        assert main(["validate", str(path)]) == 2
        assert "at least two levels" in capsys.readouterr().err
        assert main(["run", str(path), "--outdir", str(outdir)]) == 2
        assert "at least two levels" in capsys.readouterr().err
        # a sweep of one level per value (values split on ';') is refused,
        # and the sweep names every bad value
        path = write_config(tmp_path, body.replace(
            f"dt_levels = {levels}", "dt_levels = 2e-2,1e-2"))
        assert main(["validate", str(path)]) == 0
        assert main(["sweep", str(path), "--param", "scenario.dt_levels",
                     "--values", "1e-2;3e-3", "--outdir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert "dt_levels=1e-2: " in err and "at least two levels" in err
        assert "dt_levels=3e-3: " in err and "dt = 0.003" in err
        assert not outdir.exists()

    def test_malformed_file_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "[grid]\nn = 8\n[grid]\nn = 16\n")
        assert main(["validate", str(path)]) == 2
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["u_family", "alpha_family"])
    def test_unknown_family_named(self, tmp_path, capsys, key):
        path = write_config(tmp_path, f"[initial]\n{key} = smooth\n")
        assert main(["run", str(path), "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert key in err and "smooth" in err and "random_smooth" in err

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")),
                             ids=lambda p: p.name)
    def test_loads(self, path):
        load_config(path)

    def test_schema_lists_every_key_with_its_default(self):
        """Every SCHEMA key is a line of schema.ini holding its default; a
        key without one (default None) is a commented-out example."""
        live, commented, section = {}, set(), None
        for line in (CONFIGS / "schema.ini").read_text().splitlines():
            if m := re.fullmatch(r"\[(\w+)\]", line):
                section = m[1]
            elif m := re.fullmatch(r"(; )?(\w+) = (.*)", line):
                if m[1]:
                    commented.add((section, m[2]))
                else:
                    live[section, m[2]] = m[3]
        defaults = {(sec, key): d for sec, keys in SCHEMA.items()
                    for key, (_, d) in keys.items()}
        assert commented == {k for k, d in defaults.items() if d is None}
        assert set(live) == {k for k, d in defaults.items() if d is not None}
        for (sec, key), raw in live.items():
            assert _convert(sec, key, raw) == defaults[sec, key], (sec, key)


class TestRun:
    def test_minimal_free_zero_config(self, tmp_path):
        body = MINI.format(name="free") + \
            "\n[initial]\nu_family = zero\nalpha_family = zero\n"
        assert run_body(tmp_path, body)["passed"]
        csv = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert csv[0] == "# schema=1"
        for line in csv[2:]:
            values = [float(x) for x in line.split(",")[1:]]
            assert all(v == 0.0 for v in values)

    def test_lp_run_exit_code_and_verdict(self, tmp_path):
        path = write_config(tmp_path, MINI.format(name="lp"))
        code = main(["run", str(path), "--outdir", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["verdicts"]["mass_conserved"]

    def test_determinism_byte_identical(self, tmp_path):
        path = write_config(tmp_path, MINI.format(name="lp"))
        main(["run", str(path), "--outdir", str(tmp_path / "a")])
        main(["run", str(path), "--outdir", str(tmp_path / "b")])
        for name in ("trajectory.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_seed_changes_random_data(self, tmp_path):
        body = MINI.format(name="lp") + \
            "\n[initial]\nu_family = random_smooth\nk_cut = 0.8\n"
        path = write_config(tmp_path, body)
        main(["run", str(path), "--outdir", str(tmp_path / "a"),
              "--seed", "1"])
        main(["run", str(path), "--outdir", str(tmp_path / "b"),
              "--seed", "2"])
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() \
            != (tmp_path / "b" / "trajectory.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "[grid]\nbogus = 1\n")
        code = main(["run", str(path)])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_validate_command(self, tmp_path):
        path = write_config(tmp_path, MINI.format(name="free"))
        assert main(["validate", str(path)]) == 0

    def test_free_records_on_the_flow_schedule(self, tmp_path):
        """free records every record_every steps and the last step, as the
        lp flow does, also when the last stride is short."""
        body = MINI.replace("t_final = 0.1\nrecord_every = 5",
                            "t_final = 0.15\nrecord_every = 10")
        times = {}
        for name in ("free", "lp"):
            (tmp_path / name).mkdir()
            run_body(tmp_path / name, body.format(name=name))
            csv = (tmp_path / name / "out" / "trajectory.csv").read_text()
            times[name] = [line.split(",")[0]
                           for line in csv.splitlines()[2:]]
        assert times["free"] == times["lp"]
        assert float(times["free"][-1]) == pytest.approx(0.15)

    def test_sweep_takes_whole_lists_of_a_list_valued_key(self, tmp_path,
                                                          capsys):
        """A sweep value of a list-valued key is a whole list: values are
        split on ';', so each run of a dt_levels sweep of energy_order gets
        two levels, passes its check and writes its own directory."""
        path = write_config(tmp_path, MINI.format(name="energy_order")
                            + "dt_levels = 2e-2,1e-2\n")
        outdir = tmp_path / "sweep"
        assert main(["sweep", str(path), "--param", "scenario.dt_levels",
                     "--values", "2e-2,1e-2; 1e-2,5e-3", "--jobs", "1",
                     "--outdir", str(outdir)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS scenario.dt_levels=2e-2,1e-2",
            "PASS scenario.dt_levels=1e-2,5e-3"]
        assert sorted(p.name for p in outdir.iterdir()) == [
            "dt_levels=1e-2,5e-3", "dt_levels=2e-2,1e-2"]
        for value, levels in (("2e-2,1e-2", {0.02, 0.01}),
                              ("1e-2,5e-3", {0.01, 0.005})):
            out = outdir / f"dt_levels={value}"
            summary = json.loads((out / "summary.json").read_text())
            assert summary["passed"]
            assert set(summary["verdicts"]) == {"lp_second_order",
                                                "dressed_second_order"}
            rows = (out / "energy_order.csv").read_text().splitlines()[2:]
            assert {float(r.split(",")[1]) for r in rows} == levels

    def test_scenario_override(self, tmp_path):
        path = write_config(tmp_path, MINI.format(name="lp"))
        code = main(["run", str(path), "--outdir", str(tmp_path / "out"),
                     "--scenario", "free"])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["scenario"] == "free"


SMOOTH = ("[initial]\nu_family = random_smooth\n"
          "alpha_family = random_smooth\nu_amp = {}\nalpha_amp = {}\n"
          "k_cut = {}\n")
FOCK = "[scenario]\nname = {}\n[fock]\nn_max_particles = {n}\n" \
    "n_max_phonons = {n}\nklmn_samples = 100\n"

# a tiny config of every scenario, with the CSV it writes
TINY = {
    "free": (MINI.format(name="free"), "trajectory.csv"),
    "lp": (MINI.format(name="lp"), "trajectory.csv"),
    "dressed": (MINI.format(name="dressed"), "trajectory.csv"),
    "energy_order": (MINI.format(name="energy_order")
                     + SMOOTH.format(0.5, 0.3, 0.5), "energy_order.csv"),
    "conjugation": ("[grid]\nn = 16\nlength = 16.0\n[scenario]\n"
                    "name = conjugation\nt_sample = 0.2\n"
                    "dt_levels = 2e-2,1e-2,5e-3\n"
                    + SMOOTH.format(0.4, 0.25, 0.35), "conjugation.csv"),
    "dressed_identity": ("[grid]\nn = 16\nlength = 16.0\n[scenario]\n"
                         "name = dressed_identity\nn_states = 5\n",
                         "dressed_identity.csv"),
    "gradient_check": (MINI.format(name="gradient_check")
                       + "n_directions = 10\n" + SMOOTH.format(0.5, 0.3, 0.6),
                       "gradient_check.csv"),
    "picard": (MINI.format(name="picard") + "picard_nodes = 129\n"
               + SMOOTH.format(0.2, 0.12, 0.5), "picard.csv"),
    "strichartz": (MINI.format(name="strichartz") + "n_states = 10\n",
                   "interpolation.csv"),
    "fock_lemma": (FOCK.format("fock_lemma", n=2), "fock_lemma.csv"),
    "fock_correspondence": (FOCK.format("fock_correspondence", n=4),
                            "correspondence.csv"),
    "fock_klmn": (FOCK.format("fock_klmn", n=2), "fock_klmn.csv"),
}


def run_body(tmp_path, body, **scenario):
    cfg = load_config(write_config(tmp_path, body))
    cfg["scenario"].update(scenario)
    return run_scenario(cfg, tmp_path / "out")


class TestScenarios:
    def test_dressed_identity_scenario(self, tmp_path):
        assert run_body(tmp_path, TINY["dressed_identity"][0])["passed"]
        csv = (tmp_path / "out" / "dressed_identity.csv").read_text()
        assert csv.count("\n") == 5 + 2

    @pytest.mark.parametrize("name", list(TINY))
    def test_tiny_scenario(self, tmp_path, name):
        """Each scenario passes, writes exactly summary.json and its CSV,
        and writes the same bytes when run again."""
        body, csv = TINY[name]
        outputs = []
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            summary = run_body(tmp_path / run, body)
            assert summary["scenario"] == name and summary["passed"]
            out = tmp_path / run / "out"
            assert sorted(p.name for p in out.iterdir()) \
                == sorted(["summary.json", csv])
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]
        lines = outputs[0][csv].decode().splitlines()
        assert lines[0] == "# schema=1" and len(lines) > 2


class TestInitialData:
    def test_families(self):
        g = build_grid(3, 8, 12.0)
        for fam_u in ("zero", "gaussian", "random_smooth"):
            for fam_a in ("zero", "gaussian", "shell", "random_smooth"):
                z = build_state(g, {"u_family": fam_u, "alpha_family": fam_a},
                                seed=0)
                assert np.all(np.isfinite(z.u))
                assert np.all(np.isfinite(z.alpha))

    def test_unknown_family_rejected(self):
        g = build_grid(3, 8, 12.0)
        with pytest.raises(ValueError, match="solitons"):
            build_state(g, {"u_family": "solitons"}, seed=0)

    def test_gaussian_parameters(self):
        g = build_grid(3, 8, 12.0)
        z = build_state(g, {"u_family": "gaussian", "u_amp": 0.7,
                            "u_center": (6.0, 6.0, 6.0),
                            "u_momentum": (0.5236, 0.0, 0.0)}, seed=0)
        peak = np.unravel_index(np.argmax(np.abs(z.u)), g.shape)
        assert peak == (4, 4, 4)
        assert np.max(np.abs(z.u)) == pytest.approx(0.7, rel=1e-12)

    def test_seeded_determinism(self):
        g = build_grid(3, 8, 12.0)
        p = {"u_family": "random_smooth", "alpha_family": "random_smooth"}
        z1 = build_state(g, p, seed=5)
        z2 = build_state(g, p, seed=5)
        assert z1.distance(z2) == 0.0


# SciPy modules that only the Fock layer uses, each imported at its call site
FOCK_ONLY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.linalg",
                   "scipy.sparse.linalg", "scipy.sparse.csgraph")


def run_fresh(code: str, *names) -> list:
    """Run code in a fresh interpreter importing the package under test;
    return those of names (modules, with their submodules) it loaded."""
    src = os.path.dirname(os.path.dirname(polaronlab.__file__))
    code += ("\nimport json, sys\nprint(json.dumps(sorted({n for n in %r "
             "for m in sys.modules if m == n or m.startswith(n + '.')})))"
             % (names,))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    return json.loads(out.stdout.splitlines()[-1])


class TestFootprint:
    """A process loads the Fock layer's SciPy stack only when it runs a
    Fock figure."""

    def test_import_loads_no_fock_only_scipy_module(self):
        assert run_fresh("import polaronlab, polaronlab.cli, polaronlab.fock",
                         *FOCK_ONLY_SCIPY) == []

    def test_classical_runs_load_no_fock_layer(self, tmp_path):
        """Every classical scenario, run through the command line in one
        process, leaves the Fock layer and scipy.sparse unloaded."""
        runs = []
        for name, (body, _) in TINY.items():
            if not name.startswith("fock_"):
                path = write_config(tmp_path, body, name=f"{name}.ini")
                runs.append(f"assert main(['run', {str(path)!r}, '--outdir',"
                            f" {str(tmp_path / name)!r}]) == 0")
        assert len(runs) == 9
        code = "from polaronlab.cli import main\n" + "\n".join(runs)
        assert run_fresh(code, "polaronlab.fock", "scipy.sparse",
                         *FOCK_ONLY_SCIPY) == []

    @pytest.mark.parametrize("name", ["fock_lemma", "fock_klmn"])
    def test_conjugation_loads_no_linalg(self, tmp_path, name):
        """A fock_lemma or fock_klmn run in a fresh process conjugates by
        the sparse Chebyshev series: it loads neither scipy.linalg nor
        scipy.sparse.csgraph."""
        path = write_config(tmp_path, TINY[name][0])
        code = ("from polaronlab.cli import main\n"
                f"assert main(['run', {str(path)!r}, '--outdir', "
                f"{str(tmp_path / 'out')!r}]) == 0")
        assert run_fresh(code, "polaronlab.fock", "scipy.linalg",
                         "scipy.sparse.csgraph") == ["polaronlab.fock"]

    def test_fock_imports_no_ctypes(self):
        """The Fock layer sets no thread count and opens no library."""
        tree = ast.parse(
            Path(polaronlab.__file__).with_name("fock.py").read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert "ctypes" not in imported

    def test_fock_run_loads_the_fock_layer_on_demand(self, tmp_path):
        """A fock_correspondence run in a fresh process imports the layer
        it needs, and not scipy.sparse.csgraph, and writes the figures the
        layer wrote when it was imported with the command line."""
        path = write_config(tmp_path, TINY["fock_correspondence"][0])
        out = tmp_path / "out"
        code = ("from polaronlab.cli import main\n"
                f"assert main(['run', {str(path)!r}, '--outdir', "
                f"{str(out)!r}]) == 0")
        assert run_fresh(code, "polaronlab.fock", "scipy.integrate",
                         "scipy.sparse.linalg", "scipy.sparse.csgraph") == [
            "polaronlab.fock", "scipy.integrate", "scipy.sparse.linalg"]
        assert json.loads((out / "summary.json").read_text()) == {
            "csv_schema": 1,
            "info": {"eps": [0.5, 0.25, 0.125],
                     "final_errors": [0.004683976743880012,
                                      0.0023836969557869334,
                                      0.0018830549027400393]},
            "passed": True,
            "scenario": "fock_correspondence",
            "seed": 0,
            "verdicts": {"monotone_in_eps": True,
                         "sqrt_rate_in_eps": True}}
