"""Command-line exit codes for malformed input, and a descriptor pipeline."""
import inspect
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cohere import cli, hydrogen
from cohere.identity import MAX_LEVELS, standard_verification
from cohere.position import GridSpec, field_on_grid, read_field_binary
from cohere.state import (
    autocorrelation,
    mean_level,
    read_descriptor,
    solve_scale_ln,
)
from cohere.weights import WeightSpec, log_moment

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("COHERE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def descriptor(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "state.desc"
    assert cli.main(["solve", "--alpha", "0.25", "--mean", "3", "-o", str(path)]) == cli.EXIT_OK
    return path


def grid_argv(descriptor, tmp_path, *extra):
    return ["grid", "--descriptor", str(descriptor), "--width", "20", "--samples", "5",
            "--times", "0", "-o", str(tmp_path / "frame"), *extra]


class TestGridBudget:
    @pytest.mark.parametrize("text, status", [
        ("1e9", cli.EXIT_OK),
        ("1000000000", cli.EXIT_OK),
        ("1e1", cli.EXIT_BUDGET),  # parsed as 10, below the grid's cost
        ("2.5", cli.EXIT_USAGE),
        ("lots", cli.EXIT_USAGE),
    ])
    def test_config_file(self, descriptor, tmp_path, text, status):
        config = tmp_path / "grid.cfg"
        config.write_text(f"budget={text}\n")
        assert cli.main(grid_argv(descriptor, tmp_path, "--config", str(config))) == status

    @pytest.mark.parametrize("text, status", [
        ("1e9", cli.EXIT_OK),
        ("1e1", cli.EXIT_BUDGET),
        ("0", cli.EXIT_USAGE),
        ("1e9.5", cli.EXIT_USAGE),
        ("inf", cli.EXIT_USAGE),
    ])
    def test_environment(self, descriptor, tmp_path, monkeypatch, text, status):
        monkeypatch.setenv("COHERE_GRID_BUDGET", text)
        assert cli.main(grid_argv(descriptor, tmp_path)) == status
        assert (tmp_path / "frame_t0.csv").exists() == (status == cli.EXIT_OK)

    def test_malformed_environment_names_the_variable(self, descriptor, tmp_path, monkeypatch,
                                                      capsys):
        monkeypatch.setenv("COHERE_GRID_BUDGET", "abc")
        assert cli.main(grid_argv(descriptor, tmp_path)) == cli.EXIT_USAGE
        assert "COHERE_GRID_BUDGET must be an integer, got 'abc'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_budget_below_one_from_the_environment_names_the_variable(
            self, descriptor, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COHERE_GRID_BUDGET", "-5")
        assert cli.main(grid_argv(descriptor, tmp_path)) == cli.EXIT_USAGE
        assert "COHERE_GRID_BUDGET must be at least 1, got '-5'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


def autocorr_argv(descriptor, tmp_path, *extra):
    return ["autocorr", "--descriptor", str(descriptor), "-o", str(tmp_path / "trace.csv"),
            *extra]


def trace_rows(tmp_path):
    return (tmp_path / "trace.csv").read_text().strip().split("\n")[1:]


class TestConfigValues:
    def test_malformed_float_is_a_usage_error(self, tmp_path):
        config = tmp_path / "solve.cfg"
        config.write_text("tol=tight\n")
        argv = ["solve", "--alpha", "0.25", "--mean", "3", "--config", str(config),
                "-o", str(tmp_path / "s.desc")]
        assert cli.main(argv) == cli.EXIT_USAGE

    def test_grid_key_typo_is_a_usage_error(self, descriptor, tmp_path, capsys):
        config = tmp_path / "grid.cfg"
        config.write_text("budgt=10\n")
        assert cli.main(grid_argv(descriptor, tmp_path, "--config", str(config))) == cli.EXIT_USAGE
        assert "budgt" in capsys.readouterr().err
        assert not (tmp_path / "frame_t0.csv").exists()

    def test_unknown_grid_format_is_a_usage_error(self, descriptor, tmp_path):
        config = tmp_path / "grid.cfg"
        config.write_text("format=txt\n")
        assert cli.main(grid_argv(descriptor, tmp_path, "--config", str(config))) == cli.EXIT_USAGE
        assert not list(tmp_path.glob("frame*"))

    def test_autocorr_key_typo_is_a_usage_error(self, descriptor, tmp_path):
        config = tmp_path / "autocorr.cfg"
        config.write_text("samples=7\nrefine-near-revival=3\n")
        assert cli.main(autocorr_argv(descriptor, tmp_path, "--config", str(config))) == cli.EXIT_USAGE
        assert not (tmp_path / "trace.csv").exists()

    def test_valid_keys_still_apply(self, descriptor, tmp_path):
        config = tmp_path / "autocorr.cfg"
        config.write_text("samples=7\nt-end=100\n")
        assert cli.main(autocorr_argv(descriptor, tmp_path, "--config", str(config))) == cli.EXIT_OK
        rows = trace_rows(tmp_path)
        assert len(rows) == 7
        assert float(rows[-1].split(",")[0]) == 100.0


# One config value for every option that a flag need not give, with the
# value the command must act on and its exit status; solve and verify
# write to the working directory unless an output is given.  --alpha
# without --family stretched is refused, from a config as from a flag.
CONFIG_CASES = [
    ("solve", "gamma=2.5", {"gamma": 2.5}, cli.EXIT_OK),
    ("solve", "eccentricity=0.2", {"eccentricity": 0.2}, cli.EXIT_OK),
    ("solve", "tail-eps=1e-10", {"tail_eps": 1e-10}, cli.EXIT_OK),
    ("solve", "tol=1e-7", {"tol": 1e-7}, cli.EXIT_OK),
    ("solve", "output=from_config.desc", {"output": "from_config.desc"}, cli.EXIT_OK),
    ("autocorr", "t-start=10", {"t_start": 10.0}, cli.EXIT_OK),
    ("autocorr", "t_end=100", {"t_end": 100.0}, cli.EXIT_OK),
    ("autocorr", "samples=7", {"samples": 7}, cli.EXIT_OK),
    ("autocorr", "refine-near-revivals=3", {"refine_near_revivals": 3}, cli.EXIT_OK),
    ("grid", "times=0,5", {"times": "0,5"}, cli.EXIT_OK),
    ("grid", "format=bin", {"format": "bin"}, cli.EXIT_OK),
    ("grid", "budget=1e8", {"budget": 10**8}, cli.EXIT_OK),
    ("verify", "family=stretched\nalpha=0.25", {"family": "stretched", "alpha": 0.25}, cli.EXIT_OK),
    ("verify", "alpha=0.5", {"alpha": 0.5}, cli.EXIT_USAGE),
    ("verify", "n-max=2", {"n_max": 2}, cli.EXIT_OK),
    ("verify", "su2-max-two-j=4", {"su2_max_two_j": 4}, cli.EXIT_OK),
    ("verify", "polar-order=32", {"polar_order": 32}, cli.EXIT_OK),
    ("verify", "azimuthal-count=64", {"azimuthal_count": 64}, cli.EXIT_OK),
    ("verify", "full-tol=1e-7", {"full_tol": 1e-7}, cli.EXIT_OK),
    ("verify", "output=from_config.json", {"output": "from_config.json"}, cli.EXIT_OK),
]


def optional_options(command):
    """Dests of the options of a subcommand that no flag has to give."""
    actions = cli.build_parser().commands[command]._actions
    return {a.dest for a in actions
            if a.option_strings and not a.required and a.dest not in ("help", "config")}


class TestConfigDefaults:
    @staticmethod
    def required_argv(command, descriptor, tmp_path):
        return {
            "solve": ["solve", "--alpha", "0.25", "--mean", "3"],
            "autocorr": autocorr_argv(descriptor, tmp_path),
            "grid": ["grid", "--descriptor", str(descriptor), "--width", "20", "--samples", "5",
                     "-o", str(tmp_path / "frame")],
            "verify": ["verify"],
        }[command]

    def test_cases_cover_every_optional_option(self):
        for command in ("solve", "autocorr", "grid", "verify"):
            covered = {key for name, _, want, status in CONFIG_CASES
                       if name == command and status == cli.EXIT_OK for key in want}
            assert covered == optional_options(command)

    @pytest.mark.parametrize("command, lines, want, status", CONFIG_CASES,
                             ids=[f"{c}-{'-'.join(w)}" for c, _, w, _ in CONFIG_CASES])
    def test_config_value_reaches_the_command(self, descriptor, tmp_path, monkeypatch,
                                              command, lines, want, status):
        monkeypatch.chdir(tmp_path)
        run = getattr(cli, f"cmd_{command}")
        seen = {}

        def recorded(args):
            seen.update(vars(args))
            return run(args)

        monkeypatch.setattr(cli, f"cmd_{command}", recorded)
        config = tmp_path / "options.cfg"
        config.write_text(lines + "\n")
        argv = [*self.required_argv(command, descriptor, tmp_path), "--config", str(config)]
        assert cli.main(argv) == status
        assert {key: seen[key] for key in want} == want

    def test_verify_config_runs_the_stretched_family(self, tmp_path):
        config = tmp_path / "verify.cfg"
        config.write_text(f"family=stretched\nalpha=0.03125\noutput={tmp_path / 'config.json'}\n")
        assert cli.main(["verify", "--config", str(config)]) == cli.EXIT_OK
        flags = ["--family", "stretched", "--alpha", "0.03125"]
        assert cli.main(["verify", *flags, "-o", str(tmp_path / "flags.json")]) == cli.EXIT_OK
        assert cli.main(["verify", "-o", str(tmp_path / "exponential.json")]) == cli.EXIT_OK
        report = (tmp_path / "config.json").read_text()
        assert report == (tmp_path / "flags.json").read_text()

        def radial(text):
            checks = json.loads(text)["checks"]
            return next(c for c in checks if c["name"] == "radial moment identity")

        exponential = (tmp_path / "exponential.json").read_text()
        assert radial(report)["max_deviation"] != radial(exponential)["max_deviation"]

    @pytest.mark.parametrize("flag, config, environment, status", [
        (None, None, None, cli.EXIT_OK),  # the built-in 1e9
        (None, None, "10", cli.EXIT_BUDGET),
        (None, "1e9", "10", cli.EXIT_OK),
        (None, "10", "1e9", cli.EXIT_BUDGET),
        ("1e9", "10", "10", cli.EXIT_OK),
        ("10", "1e9", "1e9", cli.EXIT_BUDGET),
    ])
    def test_flag_then_config_then_environment_then_default(
            self, descriptor, tmp_path, monkeypatch, flag, config, environment, status):
        extra = [] if flag is None else ["--budget", flag]
        if config is not None:
            (tmp_path / "grid.cfg").write_text(f"budget={config}\n")
            extra += ["--config", str(tmp_path / "grid.cfg")]
        if environment is None:
            monkeypatch.delenv("COHERE_GRID_BUDGET", raising=False)
        else:
            monkeypatch.setenv("COHERE_GRID_BUDGET", environment)
        assert cli.main(grid_argv(descriptor, tmp_path, *extra)) == status

    def test_defaults_are_the_library_defaults(self):
        # verify and solve repeat no library default: each is read from its one home
        commands = cli.build_parser().commands
        checks = inspect.signature(standard_verification).parameters
        for dest in ("n_max", "su2_max_two_j", "polar_order", "azimuthal_count", "full_tol"):
            assert commands["verify"].get_default(dest) == checks[dest].default, dest
        solve = inspect.signature(solve_scale_ln).parameters
        for dest in ("tol", "tail_eps"):
            assert commands["solve"].get_default(dest) == solve[dest].default, dest

    @pytest.mark.parametrize("command", ["solve", "autocorr", "grid", "verify"])
    def test_help_prints_each_default(self, capsys, command):
        with pytest.raises(SystemExit) as done:
            cli.main([command, "--help"])
        assert done.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        parser = cli.build_parser().commands[command]
        for dest in optional_options(command):
            default = parser.get_default(dest)
            if default is not None:
                assert f"(default: {default})" in text, dest


class TestConfigSources:
    def test_config_may_give_required_options(self, descriptor, tmp_path):
        # its lines are read as flags, so a required option may come from it
        config = tmp_path / "autocorr.cfg"
        config.write_text(f"descriptor={descriptor}\nsamples=5\noutput={tmp_path / 'trace.csv'}\n")
        assert cli.main(["autocorr", "--config", str(config)]) == cli.EXIT_OK
        assert len(trace_rows(tmp_path)) == 5

    @pytest.mark.parametrize("line", ["config=other.cfg", "help=1"])
    def test_config_and_help_are_unknown_keys(self, descriptor, tmp_path, capsys, line):
        config = tmp_path / "autocorr.cfg"
        config.write_text(line + "\n")
        assert cli.main(autocorr_argv(descriptor, tmp_path, "--config", str(config))) == cli.EXIT_USAGE
        key = line.split("=")[0]
        assert f"unknown config key {key} in {config}" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_help_reads_no_source(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COHERE_GRID_BUDGET", "abc")
        with pytest.raises(SystemExit) as done:
            cli.main(["grid", "--config", str(tmp_path / "missing.cfg"), "--help"])
        assert done.value.code == 0
        assert "--budget" in capsys.readouterr().out


# One out-of-range value for each option whose type checks a range.  The
# value comes from its flag or from a config line (weights moments takes
# no --config); the subcommand's other options come from flags.
RANGE_CASES = [
    ("solve", "alpha", "0"),
    ("solve", "mean", "1"),
    ("solve", "eccentricity", "1"),
    ("solve", "tail-eps", "0"),
    ("solve", "tol", "0"),
    ("solve", "tol", "-1"),
    ("autocorr", "samples", "1"),
    ("autocorr", "refine-near-revivals", "-5"),
    ("grid", "samples", "1"),
    ("grid", "width", "0"),
    ("grid", "times", ""),
    ("grid", "budget", "-1"),
    ("verify", "alpha", "-1"),
    ("verify", "n-max", "0"),
    ("verify", "su2-max-two-j", "-1"),
    ("verify", "full-tol", "-1"),
    ("weights", "alpha", "0"),
    ("weights", "n-max", "-1"),
]
RANGE_RUNS = [(*case, source) for case in RANGE_CASES for source in ("flag", "config")
              if not (case[0] == "weights" and source == "config")]


class TestOptionRanges:
    @staticmethod
    def other_options(command, descriptor):
        return {
            "solve": {"alpha": "0.25", "mean": "3", "output": "s.desc"},
            "autocorr": {"descriptor": str(descriptor), "samples": "5", "output": "trace.csv"},
            "grid": {"descriptor": str(descriptor), "width": "20", "samples": "5", "times": "0",
                     "output-prefix": "frame"},
            "verify": {"output": "report.json"},
            "weights": {"n-max": "3", "output": "moments.csv"},
        }[command]

    @pytest.mark.parametrize("command, key, value, source", RANGE_RUNS,
                             ids=[f"{c}-{k}={v}-{s}" for c, k, v, s in RANGE_RUNS])
    def test_out_of_range_is_a_usage_error_naming_its_source(
            self, descriptor, tmp_path, monkeypatch, capsys, command, key, value, source):
        monkeypatch.chdir(tmp_path)
        options = self.other_options(command, descriptor)
        options.pop(key, None)
        argv = ["weights", "moments"] if command == "weights" else [command]
        argv += [word for item in options.items() for word in (f"--{item[0]}", item[1])]
        config = tmp_path / "options.cfg"
        if source == "flag":
            argv += [f"--{key}", value]
        else:
            config.write_text(f"{key}={value}\n")
            argv += ["--config", str(config)]
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error")
        assert (f"argument --{key}:" if source == "flag" else f"config key {key} in {config}") in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if source == "flag" else [config.name])


class TestIntegerFlags:
    def test_grid_budget_literal(self, descriptor, tmp_path):
        assert cli.main(grid_argv(descriptor, tmp_path, "--budget", "1e9")) == cli.EXIT_OK
        assert (tmp_path / "frame_t0.csv").exists()

    @pytest.mark.parametrize("text, status, rows", [
        ("1e3", cli.EXIT_OK, 1000),
        ("2.5", cli.EXIT_USAGE, None),
    ])
    def test_autocorr_samples_literal(self, descriptor, tmp_path, text, status, rows):
        assert cli.main(autocorr_argv(descriptor, tmp_path, "--samples", text)) == status
        if rows is None:
            assert not (tmp_path / "trace.csv").exists()
        else:
            assert len(trace_rows(tmp_path)) == rows


class TestSolveMean:
    @pytest.mark.parametrize("mean", ["0.5", "1", "-3"])
    def test_mean_at_or_below_one_is_a_usage_error(self, tmp_path, capsys, mean):
        argv = ["solve", "--alpha", "0.25", "--mean", mean, "-o", str(tmp_path / "s.desc")]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "s.desc").exists()


class TestSolveBeyondDoubleRange:
    def test_scale_past_double_range_prints_inf(self, tmp_path, capsys):
        # ln s = 796.99 is solved and kept; only the display value s overflows
        desc, levels = tmp_path / "big.desc", tmp_path / "levels.csv"
        argv = ["solve", "--alpha", "0.0078125", "--mean", "2000", "-o", str(desc)]
        assert cli.main(argv) == cli.EXIT_OK
        out = capsys.readouterr().out.split("\n")
        assert "s=inf" in out
        assert float(next(line for line in out if line.startswith("ln_s="))[5:]) > 709.8
        assert "s_display=inf" in desc.read_text().split("\n")
        assert cli.main(["levels", "--descriptor", str(desc), "-o", str(levels)]) == cli.EXIT_OK
        n = [int(row.split(",")[0]) for row in levels.read_text().split()[1:]]
        assert n == list(range(1972, 2029))


class TestAllocationRefusal:
    @pytest.mark.parametrize("command", ["autocorr", "weights"])
    def test_unallocatable_request_is_a_budget_refusal(self, descriptor, tmp_path, capsys,
                                                      command):
        # 1e17 float64 values (711 PiB) fit in no address space
        if command == "autocorr":
            argv = autocorr_argv(descriptor, tmp_path, "--samples", "1e17")
        else:
            argv = ["weights", "moments", "--n-max", "1e17", "-o", str(tmp_path / "moments.csv")]
        assert cli.main(argv) == cli.EXIT_BUDGET
        err = capsys.readouterr().err
        assert err.startswith("budget refusal: ") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())


class TestSolveTailEps:
    @pytest.mark.parametrize("tail_eps", ["0", "1", "1.5", "-0.1"])
    def test_outside_the_unit_interval_is_a_usage_error(self, tmp_path, capsys, tail_eps):
        # a window leaving out all the weight, or more, is no state
        argv = ["solve", "--alpha", "0.03125", "--mean", "20", "--tail-eps", tail_eps,
                "-o", str(tmp_path / "s.desc")]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "--tail-eps" in capsys.readouterr().err
        assert not (tmp_path / "s.desc").exists()

    def test_config_value_outside_the_unit_interval_is_a_usage_error(self, tmp_path):
        config = tmp_path / "solve.cfg"
        config.write_text("tail-eps=1.5\n")
        argv = ["solve", "--alpha", "0.03125", "--mean", "20", "--config", str(config),
                "-o", str(tmp_path / "s.desc")]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert not (tmp_path / "s.desc").exists()


class TestSharedParser:
    def test_one_parser_per_process(self, descriptor, tmp_path, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._shared_parser.cache_clear()
        for _ in range(3):
            assert cli.main(["levels", "--descriptor", str(descriptor),
                             "-o", str(tmp_path / "levels.csv")]) == cli.EXIT_OK
        assert cli.main(["solve", "--alpha", "0.25", "--mean", "3",
                         "-o", str(tmp_path / "s.desc")]) == cli.EXIT_OK
        assert built == [1]

    def test_config_values_apply_to_their_own_call_only(self, descriptor, tmp_path,
                                                        monkeypatch, capsys):
        def help_text():
            capsys.readouterr()
            with pytest.raises(SystemExit):
                cli.main(["autocorr", "--help"])
            return capsys.readouterr().out

        before = help_text()
        seen = []
        run = cli.cmd_autocorr
        monkeypatch.setattr(cli, "cmd_autocorr", lambda args: seen.append(vars(args).copy()) or run(args))
        config = tmp_path / "autocorr.cfg"
        config.write_text("samples=7\nt-end=100\n")
        assert cli.main(autocorr_argv(descriptor, tmp_path, "--config", str(config))) == cli.EXIT_OK
        assert cli.main(autocorr_argv(descriptor, tmp_path)) == cli.EXIT_OK
        assert [(args["samples"], args["t_end"]) for args in seen] == [(7, 100.0), (10001, None)]
        config.write_text("samples=7\nt-end=oops\n")  # a failed config call restores them too
        assert cli.main(autocorr_argv(descriptor, tmp_path, "--config", str(config))) == cli.EXIT_USAGE
        assert cli.main(autocorr_argv(descriptor, tmp_path)) == cli.EXIT_OK
        assert seen[-1]["samples"] == 10001
        assert help_text() == before


class TestPipeline:
    def test_solve_autocorr_levels_grid_through_one_descriptor(self, tmp_path):
        desc = tmp_path / "state.desc"
        trace = tmp_path / "trace.csv"
        levels = tmp_path / "levels.csv"
        assert cli.main(["solve", "--alpha", "0.25", "--mean", "20", "--eccentricity", "0.385",
                         "-o", str(desc)]) == cli.EXIT_OK
        assert [line.split("=", 1)[0] for line in desc.read_text().splitlines()] == [
            "family", "alpha", "ln_s", "s_display", "gamma",
            "zeta1_re", "zeta1_im", "zeta2_re", "zeta2_im", "tail_eps"]
        assert cli.main(["autocorr", "--descriptor", str(desc), "--samples", "97",
                         "--refine-near-revivals", "11", "-o", str(trace)]) == cli.EXIT_OK
        assert cli.main(["levels", "--descriptor", str(desc), "-o", str(levels)]) == cli.EXIT_OK
        assert cli.main(["grid", "--descriptor", str(desc), "--width", "1300", "--samples", "21",
                         "--times", "0", "-o", str(tmp_path / "frame")]) == cli.EXIT_OK

        header, *rows = trace.read_text().strip().split("\n")
        assert header == "t,re_A,im_A,abs_A,abs_sq_A"
        # five fractional revival times, T_r/5 ... T_r, lie inside [0, 1.1 T_r],
        # and none of their 11-point windows meets the 97 uniform samples
        assert len(rows) == 97 + 5 * 11
        fields = [row.split(",") for row in rows]
        times = np.array([float(f[0]) for f in fields])
        assert np.all(np.diff(times) > 0)
        values = autocorrelation(read_descriptor(desc), times)
        assert [f[1] for f in fields] == ["%.17g" % v.real for v in values]
        assert [f[2] for f in fields] == ["%.17g" % v.imag for v in values]

        header, *rows = levels.read_text().strip().split("\n")
        assert header == "n,p_n"
        coeffs = read_descriptor(desc).coeffs
        assert rows == [f"{n},{'%.17g' % p}" for n, p in zip(coeffs.levels, coeffs.probabilities)]

        header, *rows = (tmp_path / "frame_t0.csv").read_text().strip().split("\n")
        assert header == "x,y,abs_psi,re_psi,im_psi"
        grid = GridSpec(width=1300.0, samples=21)
        values = field_on_grid(read_descriptor(desc), grid, 0.0).values.ravel()
        xx, yy = np.meshgrid(grid.axis(), grid.axis())
        assert rows == [",".join("%.17g" % q for q in (x, y, abs(v), v.real, v.imag))
                        for x, y, v in zip(xx.ravel(), yy.ravel(), values)]
        # the t = 0 lump sits at the perihelion, on the +x half-axis
        peak = int(np.argmax(np.abs(values)))
        assert yy.ravel()[peak] == 0.0 and xx.ravel()[peak] > 0.0


class TestDescriptorFaults:
    @staticmethod
    def reader_argv(command, path, tmp_path):
        return {
            "autocorr": autocorr_argv(path, tmp_path, "--samples", "5"),
            "grid": grid_argv(path, tmp_path),
            "levels": ["levels", "--descriptor", str(path), "-o", str(tmp_path / "levels.csv")],
        }[command]

    @pytest.mark.parametrize("command", ["autocorr", "grid", "levels"])
    @pytest.mark.parametrize("edit, status, message", [
        (lambda text: text.replace("ln_s=", "# ln_s="), cli.EXIT_USAGE, "ln_s"),
        (lambda text: text.replace("gamma=", "gamma "), cli.EXIT_USAGE, "gamma 0"),
        (lambda text: text.replace("stretched_exponential", "tabulated"), cli.EXIT_USAGE,
         "exponential, stretched_exponential"),
        (lambda text: text.replace("stretched_exponential", "foo"), cli.EXIT_USAGE, "'foo'"),
        (lambda text: text.replace("alpha=", "alpha=x"), cli.EXIT_USAGE, "x0.25"),
        (lambda text: text.replace("alpha=0.25", "alpha=0"), cli.EXIT_USAGE, "alpha"),
        (lambda text: text.replace("zeta1_re=0", "zeta1_re=inf"), cli.EXIT_USAGE, "finite"),
        (lambda text: re.sub(r"gamma=.*", "gamma=nan", text), cli.EXIT_USAGE, "gamma=nan"),
        (lambda text: re.sub(r"ln_s=.*", "ln_s=inf", text), cli.EXIT_USAGE, "ln_s=inf"),
        (lambda text: re.sub(r"alpha=.*", "alpha=inf", text), cli.EXIT_USAGE, "finite alpha"),
        (lambda text: re.sub(r"tail_eps=.*", "tail_eps=nan", text), cli.EXIT_USAGE,
         "tail_eps=nan"),
        (lambda text: re.sub(r"tail_eps=.*", "tail_eps=2", text), cli.EXIT_USAGE, "tail_eps=2"),
        (lambda text: re.sub(r"tail_eps=.*", "tail_eps=0", text), cli.EXIT_USAGE, "tail_eps=0"),
        # parameters that read cleanly but cannot build a state stay numerical failures
        (lambda text: re.sub(r"ln_s=.*", "ln_s=1e3", text), cli.EXIT_NUMERICAL, "truncation"),
    ], ids=["missing-key", "malformed-line", "tabulated", "unknown-family", "non-numeric",
            "rejected-alpha", "rejected-zeta", "nan-gamma", "inf-ln-s", "inf-alpha",
            "nan-tail-eps", "tail-eps-above-1", "zero-tail-eps", "build-failure"])
    def test_exit_status_names_the_file(self, descriptor, tmp_path, capsys, command, edit,
                                        status, message):
        broken = tmp_path / "broken.desc"
        broken.write_text(edit(descriptor.read_text()))
        assert cli.main(self.reader_argv(command, broken, tmp_path)) == status
        err = capsys.readouterr().err
        assert message in err
        if status == cli.EXIT_USAGE:
            assert err.startswith("usage error") and str(broken) in err
        assert list(tmp_path.iterdir()) == [broken]

    @pytest.mark.parametrize("command", ["autocorr", "grid", "levels"])
    def test_zero_scale_stays_valid(self, descriptor, tmp_path, command):
        # ln_s = -inf is s = 0: the ground state alone
        ground = tmp_path / "ground.desc"
        ground.write_text(re.sub(r"ln_s=.*", "ln_s=-inf", descriptor.read_text()))
        assert cli.main(self.reader_argv(command, ground, tmp_path)) == cli.EXIT_OK


class TestUnopenablePaths:
    @pytest.mark.parametrize("argv", [
        lambda d, path: ["solve", "--alpha", "0.25", "--mean", "3", "-o", path],
        lambda d, path: ["levels", "--descriptor", path, "-o", str(d / "levels.csv")],
        lambda d, path: ["solve", "--alpha", "0.25", "--mean", "3", "-o", str(d / "s.desc"),
                         "--config", path],
        lambda d, path: ["verify", "-o", path],
    ], ids=["solve-output", "descriptor", "config", "verify-output"])
    def test_directory_is_a_usage_error(self, tmp_path, capsys, argv):
        folder = tmp_path / "folder"
        folder.mkdir()
        assert cli.main(argv(tmp_path, str(folder))) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error") and str(folder) in err

    def test_missing_descriptor_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.desc"
        argv = ["levels", "--descriptor", str(missing), "-o", str(tmp_path / "levels.csv")]
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error") and str(missing) in err


class TestConfigReader:
    def test_malformed_line_is_a_usage_error(self, descriptor, tmp_path, capsys):
        config = tmp_path / "autocorr.cfg"
        config.write_text("samples 7\n")
        assert cli.main(autocorr_argv(descriptor, tmp_path, "--config", str(config))) == cli.EXIT_USAGE
        assert "samples 7" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_comments_blank_lines_and_dashed_keys(self, descriptor, tmp_path):
        config = tmp_path / "autocorr.cfg"
        config.write_text("# a short trace\n\nsamples = 5\n   \n# t-end=1\nt-end=50\nt_start=10\n")
        assert cli.main(autocorr_argv(descriptor, tmp_path, "--config", str(config))) == cli.EXIT_OK
        times = [float(row.split(",")[0]) for row in trace_rows(tmp_path)]
        assert times == [10.0, 20.0, 30.0, 40.0, 50.0]

    def test_flag_wins_over_config(self, descriptor, tmp_path):
        config = tmp_path / "autocorr.cfg"
        config.write_text("samples=5\n")
        argv = autocorr_argv(descriptor, tmp_path, "--config", str(config), "--samples", "3")
        assert cli.main(argv) == cli.EXIT_OK
        assert len(trace_rows(tmp_path)) == 3


class TestAutocorrRefinement:
    def test_windows_stop_at_t_end(self, descriptor, tmp_path):
        t_revival = hydrogen.revival_time(mean_level(read_descriptor(descriptor), principal=True))
        argv = autocorr_argv(descriptor, tmp_path, "--t-end", "%.17g" % t_revival,
                             "--samples", "11", "--refine-near-revivals", "5")
        assert cli.main(argv) == cli.EXIT_OK
        times = np.array([float(row.split(",")[0]) for row in trace_rows(tmp_path)])
        assert np.all(np.diff(times) > 0)
        assert times[0] == 0.0
        assert times[-1] == t_revival
        # the window around T_r keeps the part at or below T_r
        window = np.linspace(0.99 * t_revival, 1.01 * t_revival, 5)
        assert set(window[window <= t_revival]) <= set(times)

    def test_windows_stop_at_t_start(self, descriptor, tmp_path):
        t_revival = hydrogen.revival_time(mean_level(read_descriptor(descriptor), principal=True))
        t_start = 0.2 * t_revival  # the first fractional revival, T_r / 5
        argv = autocorr_argv(descriptor, tmp_path, "--t-start", "%.17g" % t_start,
                             "--t-end", "%.17g" % (0.22 * t_revival),
                             "--samples", "3", "--refine-near-revivals", "5")
        assert cli.main(argv) == cli.EXIT_OK
        times = np.array([float(row.split(",")[0]) for row in trace_rows(tmp_path)])
        assert times.min() == t_start
        assert times.max() == 0.22 * t_revival

    @pytest.mark.parametrize("t_start, t_end", [("100", "0"), ("50", "50")])
    def test_empty_or_reversed_range_is_a_usage_error(self, descriptor, tmp_path, capsys,
                                                       t_start, t_end):
        argv = autocorr_argv(descriptor, tmp_path, "--t-start", t_start, "--t-end", t_end,
                             "--samples", "4")
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "--t-start" in err and "--t-end" in err
        assert not (tmp_path / "trace.csv").exists()


class TestVerify:
    @pytest.mark.parametrize("flags", [
        ["--n-max", "0"],
        ["--n-max", "2.5"],
        ["--polar-order", "3"],
        ["--azimuthal-count", "5"],
        ["--su2-max-two-j", "-1"],
        ["--su2-max-two-j", "-7"],
        ["--family", "stretched"],
        ["--family", "stretched", "--alpha", "0"],
        ["--family", "stretched", "--alpha", "-1"],
    ])
    def test_bad_orders_are_usage_errors(self, tmp_path, capsys, flags):
        report = tmp_path / "report.json"
        assert cli.main(["verify", *flags, "-o", str(report)]) == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not report.exists()

    def test_levels_past_the_dense_cap_are_accepted(self, tmp_path):
        # the combined identity is checked one level block at a time, so the
        # only cap on --n-max is the sphere rule's orders
        report = tmp_path / "report.json"
        argv = ["verify", "--n-max", str(MAX_LEVELS + 1), "-o", str(report)]
        assert cli.main(argv) == cli.EXIT_OK
        checks = json.loads(report.read_text())["checks"]
        assert f"levels <= {MAX_LEVELS + 1}" in {c["truncation"] for c in checks}

    @pytest.mark.parametrize("orders, message", [
        (["--polar-order", "24", "--azimuthal-count", "48"], "polar order 24"),
        (["--polar-order", "30", "--azimuthal-count", "24"], "azimuthal count 24"),
    ])
    def test_a_level_above_the_orders_is_a_usage_error(self, tmp_path, capsys, orders, message):
        report = tmp_path / "report.json"
        assert cli.main(["verify", "--n-max", "25", *orders, "-o", str(report)]) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not report.exists()

    def test_defaults_pass(self, tmp_path):
        report = tmp_path / "report.json"
        assert cli.main(["verify", "-o", str(report)]) == cli.EXIT_OK
        assert json.loads(report.read_text())["passed"] is True

    def test_missed_tolerance_is_a_numerical_failure(self, tmp_path):
        report = tmp_path / "report.json"
        assert cli.main(["verify", "--full-tol", "1e-300", "-o", str(report)]) == cli.EXIT_NUMERICAL
        assert json.loads(report.read_text())["passed"] is False


class TestAlphaNeedsTheStretchedFamily:
    @pytest.mark.parametrize("argv", [
        ["verify", "--alpha", "0.03125"],
        ["verify", "--family", "exponential", "--alpha", "0.25"],
        ["weights", "moments", "--alpha", "0.25", "--n-max", "3"],
    ])
    def test_flag_is_a_usage_error_naming_both_options(self, tmp_path, capsys, argv):
        path = tmp_path / "out"
        assert cli.main([*argv, "-o", str(path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "--alpha" in err and "--family" in err
        assert not path.exists()

    @pytest.mark.parametrize("lines", ["alpha=0.03125", "family=exponential\nalpha=0.25"])
    def test_config_value_is_a_usage_error_naming_both_options(self, tmp_path, capsys, lines):
        report = tmp_path / "report.json"
        config = tmp_path / "verify.cfg"
        config.write_text(f"{lines}\noutput={report}\n")
        assert cli.main(["verify", "--config", str(config)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "--alpha" in err and "--family" in err
        assert not report.exists()


class TestWeightsMoments:
    @pytest.mark.parametrize("family, spec", [
        ([], WeightSpec.exponential()),
        (["--family", "stretched", "--alpha", "0.25"], WeightSpec.stretched(0.25)),
    ])
    def test_stdout_and_file_hold_the_log_moments(self, tmp_path, capsys, family, spec):
        argv = ["weights", "moments", *family, "--n-max", "4"]
        assert cli.main(argv) == cli.EXIT_OK
        printed = capsys.readouterr().out
        expected = "n,log_moment\n" + "".join(
            f"{n},{'%.17g' % log_moment(spec, n)}\n" for n in range(5))
        assert printed == expected
        path = tmp_path / "moments.csv"
        assert cli.main([*argv, "-o", str(path)]) == cli.EXIT_OK
        assert path.read_text() == expected
        assert str(path) in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--n-max", "-1"],
        ["--family", "stretched", "--n-max", "3"],
        ["--family", "stretched", "--alpha", "0", "--n-max", "2"],
    ])
    def test_bad_arguments_are_usage_errors(self, tmp_path, capsys, flags):
        path = tmp_path / "moments.csv"
        assert cli.main(["weights", "moments", *flags, "-o", str(path)]) == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not path.exists()


class TestGridBinary:
    def test_binary_frame_round_trips_to_the_csv_frame(self, descriptor, tmp_path):
        prefix = tmp_path / "frame"
        argv = ["grid", "--descriptor", str(descriptor), "--width", "20", "--samples", "7",
                "--times", "0,150"]
        assert cli.main([*argv, "-o", str(prefix)]) == cli.EXIT_OK
        assert cli.main([*argv, "--format", "bin", "-o", str(prefix)]) == cli.EXIT_OK
        for label, t in (("t0", 0.0), ("t1", 150.0)):
            field = read_field_binary(f"{prefix}_{label}.bin")
            assert (field.spec.width, field.spec.samples, field.t) == (20.0, 7, t)
            x, y, _, re_psi, im_psi = np.loadtxt(
                f"{prefix}_{label}.csv", delimiter=",", skiprows=1).T
            assert np.array_equal(x.reshape(7, 7)[0], field.spec.axis())
            assert np.array_equal(y.reshape(7, 7)[:, 0], field.spec.axis())
            assert np.array_equal(field.values.real.ravel(), re_psi)
            assert np.array_equal(field.values.imag.ravel(), im_psi)

    def test_default_schedule_writes_the_fractional_revival_frames(self, descriptor, tmp_path):
        argv = ["grid", "--descriptor", str(descriptor), "--width", "20", "--samples", "7",
                "--format", "bin", "-o", str(tmp_path / "frame")]
        assert cli.main(argv) == cli.EXIT_OK
        state = read_descriptor(descriptor)
        schedule = hydrogen.fractional_revival_times(
            hydrogen.revival_time(mean_level(state, principal=True)))
        names = ["0", "Tr_over_5", "Tr_over_4", "Tr_over_3", "Tr_over_2", "Tr"]
        assert [label for label, _ in schedule] == ["0", "Tr/5", "Tr/4", "Tr/3", "Tr/2", "Tr"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"frame_{n}.bin" for n in names)
        for name, (_, t) in zip(names, schedule):
            field = read_field_binary(tmp_path / f"frame_{name}.bin")
            assert field.t == t
            want = field_on_grid(state, GridSpec(width=20.0, samples=7), t).values
            assert field.values.tobytes() == want.tobytes()

    def test_paper_scale_is_refused_before_any_frame(self, tmp_path, capsys):
        desc = tmp_path / "paper.desc"
        assert cli.main(["solve", "--alpha", "0.03125", "--mean", "160", "--eccentricity",
                         "0.385", "-o", str(desc)]) == cli.EXIT_OK
        # levels up to 176 on 301^2 samples: 176^2 * 301^2 ~ 2.8e9 > the default 1e9
        argv = ["grid", "--descriptor", str(desc), "--width", "40000", "--samples", "301",
                "--times", "0", "-o", str(tmp_path / "frame")]
        start = time.perf_counter()
        assert cli.main(argv) == cli.EXIT_BUDGET
        assert time.perf_counter() - start < 10.0
        assert "budget refusal" in capsys.readouterr().err
        assert not list(tmp_path.glob("frame*"))


class TestFloatInput:
    @pytest.mark.parametrize("command, flags", [
        ("autocorr", ["--t-end", "nan"]),
        ("autocorr", ["--t-start", "inf"]),
        ("grid", ["--times", "0,abc"]),
        ("grid", ["--times", "0,,1"]),
        ("grid", ["--width", "nan"]),
        ("grid", ["--times", "nan"]),
        ("solve", ["--alpha", "nan"]),
        ("solve", ["--mean", "nan"]),
    ])
    def test_non_finite_or_malformed_is_a_usage_error(self, descriptor, tmp_path, capsys,
                                                      command, flags):
        argv = {
            "autocorr": autocorr_argv(descriptor, tmp_path, "--samples", "5"),
            "grid": grid_argv(descriptor, tmp_path),
            "solve": ["solve", "--alpha", "0.25", "--mean", "3", "-o", str(tmp_path / "s.desc")],
        }[command]
        assert cli.main([*argv, *flags]) == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_config_value_is_a_usage_error(self, descriptor, tmp_path, capsys):
        config = tmp_path / "autocorr.cfg"
        config.write_text("samples=5\nt_end=nan\n")
        assert cli.main(autocorr_argv(descriptor, tmp_path, "--config", str(config))) == cli.EXIT_USAGE
        assert "t_end" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()


class TestNegativeValues:
    """A negative value in exponent form, or a --times list that starts
    with a negative entry, is a value, not a flag."""

    def test_solve_gamma(self, tmp_path):
        path = tmp_path / "s.desc"
        argv = ["solve", "--alpha", "0.25", "--mean", "3", "--gamma", "-1e3", "-o", str(path)]
        assert cli.main(argv) == cli.EXIT_OK
        assert read_descriptor(path).gamma == -1000.0

    def test_autocorr_t_start(self, descriptor, tmp_path):
        argv = autocorr_argv(descriptor, tmp_path, "--samples", "5", "--t-start", "-2.5e3")
        assert cli.main(argv) == cli.EXIT_OK
        assert float(trace_rows(tmp_path)[0].split(",")[0]) == -2500.0

    @pytest.mark.parametrize("times, first", [("-1e2,5", "-100"), ("-1,5", "-1")])
    def test_grid_times(self, descriptor, tmp_path, capsys, times, first):
        assert cli.main([*grid_argv(descriptor, tmp_path), "--times", times]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert f"frame_t0.csv (t={first})" in out and "frame_t1.csv (t=5)" in out

    def test_minus_inf_is_still_a_usage_error(self, tmp_path, capsys):
        argv = ["solve", "--alpha", "0.25", "--mean", "3", "--gamma", "-inf",
                "-o", str(tmp_path / "s.desc")]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def run_fresh(code, tmp_path, **env):
    """Run code in a new interpreter that imports cohere from this checkout."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**base, "PYTHONPATH": path, **env},
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestFreshProcess:
    def test_cohere_threads_is_set_before_numpy_loads(self, tmp_path):
        # the BLAS pools are sized when numpy is first imported, so record
        # OPENBLAS_NUM_THREADS at that moment
        code = (
            "import os, sys\n"
            "seen = []\n"
            "class Probe:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "        return None\n"
            "sys.meta_path.insert(0, Probe())\n"
            "assert 'numpy' not in sys.modules\n"
            "import cohere.cli\n"
            "print(seen)\n"
        )
        assert run_fresh(code, tmp_path, COHERE_THREADS="1").strip() == "['1']"

    def test_package_import_loads_only_the_spectral_modules(self, tmp_path):
        # the import timed as the benchmark's set-up; position and identity
        # load only when a subcommand needs them
        code = (
            "import sys\n"
            "import cohere, cohere.cli\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'cohere'))\n"
        )
        loaded = run_fresh(code, tmp_path).split()
        assert loaded == ["cohere", *(f"cohere.{name}" for name in
                                      ("cli", "hydrogen", "state", "su2", "weights"))]

    def test_no_subcommand_imports_scipy(self, tmp_path):
        code = (
            "import sys\n"
            "import cohere, cohere.cli\n"
            "from cohere.cli import main\n"
            "calls = [\n"
            "    ['solve', '--alpha', '0.25', '--mean', '3', '-o', 'state.desc'],\n"
            "    ['autocorr', '--descriptor', 'state.desc', '--samples', '5', '-o', 'trace.csv'],\n"
            "    ['levels', '--descriptor', 'state.desc', '-o', 'levels.csv'],\n"
            "    ['grid', '--descriptor', 'state.desc', '--width', '20', '--samples', '5',\n"
            "     '--times', '0', '-o', 'frame'],\n"
            "    ['verify', '--n-max', '2', '--su2-max-two-j', '2', '--polar-order', '4',\n"
            "     '--azimuthal-count', '8', '-o', 'report.json'],\n"
            "    ['weights', 'moments', '--n-max', '3', '-o', 'moments.csv'],\n"
            "]\n"
            "for argv in calls:\n"
            "    assert main(argv) == 0, argv\n"
            "    loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "    assert not loaded, (argv[0], loaded[:5])\n"
        )
        run_fresh(code, tmp_path)
