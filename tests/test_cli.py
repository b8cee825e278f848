"""Command-line exit codes for malformed input, and a descriptor pipeline."""
import numpy as np
import pytest

from cohere import cli
from cohere.state import autocorrelation, level_distribution, read_descriptor


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
        ("0", cli.EXIT_BUDGET),
        ("1e9.5", cli.EXIT_USAGE),
        ("inf", cli.EXIT_USAGE),
    ])
    def test_environment(self, descriptor, tmp_path, monkeypatch, text, status):
        monkeypatch.setenv("COHERE_GRID_BUDGET", text)
        assert cli.main(grid_argv(descriptor, tmp_path)) == status
        assert (tmp_path / "frame_t0.csv").exists() == (status == cli.EXIT_OK)


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


class TestPipeline:
    def test_solve_autocorr_levels_through_one_descriptor(self, tmp_path):
        desc = tmp_path / "state.desc"
        trace = tmp_path / "trace.csv"
        levels = tmp_path / "levels.csv"
        assert cli.main(["solve", "--alpha", "0.25", "--mean", "20", "--eccentricity", "0.385",
                         "-o", str(desc)]) == cli.EXIT_OK
        assert cli.main(["autocorr", "--descriptor", str(desc), "--samples", "97",
                         "--refine-near-revivals", "11", "-o", str(trace)]) == cli.EXIT_OK
        assert cli.main(["levels", "--descriptor", str(desc), "-o", str(levels)]) == cli.EXIT_OK

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
        expected = level_distribution(read_descriptor(desc))
        assert rows == [f"{n},{'%.17g' % p}" for n, p in expected]
