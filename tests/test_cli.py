"""Command-line exit codes for malformed numeric input."""
import pytest

from cohere import cli


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


class TestConfigValues:
    def test_malformed_float_is_a_usage_error(self, tmp_path):
        config = tmp_path / "solve.cfg"
        config.write_text("tol=tight\n")
        argv = ["solve", "--alpha", "0.25", "--mean", "3", "--config", str(config),
                "-o", str(tmp_path / "s.desc")]
        assert cli.main(argv) == cli.EXIT_USAGE


class TestSolveMean:
    @pytest.mark.parametrize("mean", ["0.5", "1", "-3"])
    def test_mean_at_or_below_one_is_a_usage_error(self, tmp_path, capsys, mean):
        argv = ["solve", "--alpha", "0.25", "--mean", mean, "-o", str(tmp_path / "s.desc")]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "s.desc").exists()
