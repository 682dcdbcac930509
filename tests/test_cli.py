import argparse
import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ifmsim import cli
from ifmsim.evolution import CycleConfig, Probabilities
from ifmsim.sweep import run_single, sweep_absorption, sweep_cycles, sweep_grid, to_csv


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


class TestRun:
    def test_single_record(self, capsys):
        code, out = _run(capsys, ["run", "--cycles", "24"])
        assert code == 0
        expected = to_csv([run_single(CycleConfig(model="coherent", a=1.0, n=24))])
        assert out == expected

    def test_explicit_flags(self, capsys):
        argv = [
            "run",
            "--model",
            "collapse",
            "--absorption",
            "0.25",
            "--cycles",
            "7",
            "--theta",
            "0.3",
        ]
        code, out = _run(capsys, argv)
        assert code == 0
        expected = to_csv(
            [run_single(CycleConfig(model="collapse", a=0.25, n=7, theta=0.3))]
        )
        assert out == expected

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "row.csv"
        code, out = _run(capsys, ["run", "--cycles", "5"])
        assert code == 0
        assert cli.main(["run", "--cycles", "5", "--out", str(path)]) == 0
        capsys.readouterr()
        assert path.read_bytes() == out.encode()


    @pytest.mark.parametrize(
        "argv",
        [
            ["--cycles", "1000000", "--absorption", "0"],
            ["--cycles", "100000000", "--absorption", "0"],
            ["--cycles", "100000000", "--absorption", "0.5", "--model", "collapse"],
        ],
    )
    def test_large_cycle_counts(self, capsys, argv):
        # each once printed a negative p_h or failed the sum check with exit 2
        code, out = _run(capsys, ["run", *argv])
        assert code == 0
        p_h, p_v, p_b = map(float, out.splitlines()[1].split(",")[4:])
        assert min(p_h, p_v, p_b) >= 0.0
        assert max(p_h, p_v, p_b) <= 1.0 + 2**-52
        assert abs(p_h + p_v + p_b - 1.0) <= 1e-14


# stdout SHA-256 prefixes of sweep and run commands; each engine change must keep
# these bytes or say which rows moved and why
PINNED_STDOUT = {
    "grid --cycles 250 --steps 21": "0c3712ad2047",
    "grid --cycles 250 --steps 21 --model collapse": "65a07a4dc00b",
    "grid --cycles 64 --steps 7 --theta 2.5 --model absent": "361a2ac12787",
    "sweep-cycles --cycles 300 --absorption 1 --model collapse": "f5695386547e",
    "sweep-absorption --cycles 3 --steps 11 --model collapse": "363da086c75e",
    "run --cycles 3 --absorption 1 --model collapse": "9b625a019a01",
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_pinned_stdout(capsys, command):
    code, out = _run(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == PINNED_STDOUT[command]


class TestSweepCommands:
    def test_sweep_cycles(self, capsys):
        code, out = _run(
            capsys, ["sweep-cycles", "--absorption", "0", "--cycles", "12"]
        )
        assert code == 0
        assert out == to_csv(sweep_cycles(0.0, 12, "coherent"))

    def test_sweep_absorption(self, capsys):
        code, out = _run(
            capsys, ["sweep-absorption", "--cycles", "10", "--steps", "11"]
        )
        assert code == 0
        assert out == to_csv(sweep_absorption(10, 11, "coherent"))

    def test_grid(self, capsys):
        code, out = _run(
            capsys, ["grid", "--cycles", "6", "--steps", "3", "--model", "collapse"]
        )
        assert code == 0
        assert out == to_csv(sweep_grid(6, 3, "collapse"))


class TestOracle:
    def test_healthy_comparison_passes(self, capsys):
        argv = [
            "oracle",
            "--cycles",
            "10",
            "--absorption",
            "0.5",
            "--trajectories",
            "20000",
        ]
        code, out = _run(capsys, argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "outcome,count,p_hat,p_exact,stderr,z"
        assert len(lines) == 5
        assert lines[-1].startswith("PASS max |z| = ")

    def test_discordant_comparison_exits_one(self, capsys, monkeypatch):
        # force a wrong reference so the z-threshold trips
        monkeypatch.setattr(
            cli, "evolve", lambda cfg: (Probabilities(1.0, 0.0, 0.0), None)
        )
        argv = [
            "oracle",
            "--cycles",
            "10",
            "--absorption",
            "0.5",
            "--trajectories",
            "5000",
        ]
        code, out = _run(capsys, argv)
        assert code == 1
        assert out.splitlines()[-1].startswith("FAIL max |z| = ")


class TestVerify:
    def test_fresh_build_passes(self, capsys):
        code, out = _run(capsys, ["verify"])
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["run"],
            ["run", "--cycles", "0"],
            ["run", "--cycles", "ten"],
            ["run", "--cycles", "5", "--model", "classical"],
            ["run", "--cycles", "5", "--absorption", "1.5"],
            ["run", "--cycles", "5", "--theta", "fast"],
            ["sweep-absorption", "--steps", "1"],
            ["oracle", "--cycles", "5", "--seed", "-1"],
            ["oracle", "--cycles", "5", "--trajectories", "0"],
            ["run", "--cycles", "3", "--out", "/nonexistent/x.csv"],
            ["run", "--cycles", str(10**400)],
        ],
    )
    def test_exit_code_two(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", "--cycles", "0"], "must be >= 1, got 0"),
            (["run", "--cycles", "-1"], "must be >= 1, got -1"),
            (["run", "--cycles", "x"], "not an integer: 'x'"),
            (["oracle", "--cycles", "5", "--trajectories", "0"], "must be >= 1, got 0"),
            (["sweep-absorption", "--steps", "0"], "must be >= 2, got 0"),
            (["grid", "--steps", "1"], "must be >= 2, got 1"),
            (["grid", "--steps", "x"], "not an integer: 'x'"),
            (["oracle", "--cycles", "5", "--seed", "-1"], "seed must be in [0, 2^64)"),
            (["oracle", "--cycles", "5", "--seed", str(2**64)], "seed must be in [0, 2^64)"),
            (["oracle", "--cycles", "5", "--seed", "x"], "not an integer: 'x'"),
        ],
    )
    def test_bad_integer_option(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.rstrip().endswith(f"{argv[-2]}: {message}")

    def test_evaluation_value_error_is_one_line_exit_two(self, capsys, monkeypatch):
        def rejects(cycle):
            raise ValueError("probabilities must sum to 1, got 1.5")

        monkeypatch.setattr(cli, "run_single", rejects)
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--cycles", "3"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ifmsim: error: probabilities must sum to 1, got 1.5\n"


class TestSharedParser:
    """build_parser() copies one tree per process; main behaves as if it built its own."""

    def test_each_call_returns_a_distinct_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_patched_parse_args_does_not_leak(self, capsys):
        parser = cli.build_parser()
        parser.parse_args = lambda argv=None: pytest.fail("leaked into main")
        code, out = _run(capsys, ["run", "--cycles", "5"])
        assert code == 0
        assert out == to_csv([run_single(CycleConfig(model="coherent", a=1.0, n=5))])

    @staticmethod
    def _outputs(capsys, argv):
        try:
            code = cli.main(argv)
        except SystemExit as err:
            code = err.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_usage_error_then_grid_match_each_run_alone(self, capsys):
        bad = ["grid", "--steps", "1"]
        good = ["grid", "--cycles", "6", "--steps", "3"]
        alone = [self._outputs(capsys, bad)]
        cli._parser.cache_clear()
        alone.append(self._outputs(capsys, good))
        cli._parser.cache_clear()
        in_turn = [self._outputs(capsys, bad), self._outputs(capsys, good)]
        assert in_turn == alone
        assert alone[0][0] == 2 and alone[0][2].endswith("--steps: must be >= 2, got 1\n")
        assert alone[1][0] == 0 and alone[1][1] == to_csv(sweep_grid(6, 3, "coherent"))

    def test_main_builds_no_parser_after_the_first_call(self, capsys, monkeypatch):
        cli.main(["run", "--cycles", "3"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (["run", "--cycles", "3"], ["grid", "--cycles", "4", "--steps", "2"]):
            assert cli.main(argv) == 0
        capsys.readouterr()
        assert built == []


class TestEntryPoints:
    def test_python_dash_m(self, capsys):
        result = subprocess.run(
            [sys.executable, "-m", "ifmsim", "run", "--cycles", "24"],
            capture_output=True,
        )
        assert result.returncode == 0
        _, expected = _run(capsys, ["run", "--cycles", "24"])
        assert result.stdout == expected.encode()

    @pytest.mark.skipif(
        shutil.which("ifmsim") is None, reason="no installed ifmsim script on PATH"
    )
    def test_console_script(self, capsys):
        result = subprocess.run(
            ["ifmsim", "run", "--cycles", "3", "--absorption", "0.5"],
            capture_output=True,
        )
        assert result.returncode == 0
        _, expected = _run(capsys, ["run", "--cycles", "3", "--absorption", "0.5"])
        assert result.stdout == expected.encode()

    def test_declared_script_runs_cli_main(self, capsys):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"ifmsim": "ifmsim.cli:main"}
        module, attr = scripts["ifmsim"].split(":")
        # the wrapper an installer writes for a console_scripts entry point
        wrapper = (
            "import sys\n"
            f"from {module} import {attr}\n"
            "sys.argv[0] = 'ifmsim'\n"
            f"sys.exit({attr}())\n"
        )
        argv = ["run", "--cycles", "3", "--absorption", "0.5"]
        result = subprocess.run(
            [sys.executable, "-c", wrapper, *argv], capture_output=True
        )
        assert result.returncode == 0
        _, expected = _run(capsys, argv)
        assert result.stdout == expected.encode()
