import argparse
import errno
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ifmsim import cli, sweep
from ifmsim.evolution import CycleConfig, Probabilities
from ifmsim.sweep import (
    SweepRecord,
    run_single,
    sweep_absorption,
    sweep_cycles,
    sweep_grid,
    to_csv,
)


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


# stdout SHA-256 prefixes of sweep, run and oracle commands; each engine change must keep
# these bytes or say which rows moved and why
PINNED_STDOUT = {
    "grid --cycles 250 --steps 21": "0c3712ad2047",
    "grid --cycles 250 --steps 21 --model collapse": "65a07a4dc00b",
    "grid --cycles 64 --steps 7 --theta 2.5 --model absent": "361a2ac12787",
    "sweep-cycles --cycles 300 --absorption 1 --model collapse": "f5695386547e",
    "sweep-absorption --cycles 3 --steps 11 --model collapse": "363da086c75e",
    # angles, absorptions and probabilities that fill [1e-6, 1e-4) and [1e-4, 1)
    "sweep-cycles --cycles 20000": "ae1e72b92344",
    "sweep-absorption --cycles 24 --steps 20001": "40ac4791e30b",
    # an explicit theta of 10 and above, in a block the digit kernel takes
    "grid --cycles 64 --steps 7 --theta 12.5": "be634f5b7590",
    "sweep-cycles --cycles 300 --theta 1234.5 --model collapse": "70c4cfee7d6f",
    "run --cycles 3 --absorption 1 --model collapse": "9b625a019a01",
    # integer counts and IEEE arithmetic; p_hat holds 0.86490000000000000 (17
    # digits, rounded down) and 0.0023000000000000 (a carry, padded)
    "oracle --cycles 50 --absorption 0.5 --trajectories 10000 --model collapse": "830b2efc426a",
    "oracle --cycles 50 --absorption 0.5 --trajectories 10000 --model coherent": "60e75e474967",
    "verify": "74e1f84e219f",
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


def _sweep_argv(command, cycles, steps, model="collapse", theta="auto"):
    argv = [command, "--cycles", str(cycles), "--model", model, f"--theta={theta}"]
    return argv + (["--absorption", "0.37"] if command == "sweep-cycles" else ["--steps", str(steps)])


def _sweep_records(command, cycles, steps, model="collapse", theta="auto"):
    """The public records path of what `_sweep_argv` asks for."""
    t = None if theta == "auto" else float(theta)
    if command == "sweep-cycles":
        return sweep_cycles(0.37, cycles, model, t)
    if command == "sweep-absorption":
        return sweep_absorption(cycles, steps, model, t)
    return sweep_grid(cycles, steps, model, t)


class TestStreamedCsv:
    """The sweep commands write CSV blocks straight from the engine's columns.

    Their bytes are those of ``to_csv`` over the public records, at any block
    size, and a row that fails SweepRecord's checks stops the command before
    it writes a byte.
    """

    COMMANDS = ("sweep-cycles", "sweep-absorption", "grid")

    @pytest.mark.parametrize("theta", ["auto", "0.3", "-2.5", "-0.0"])
    @pytest.mark.parametrize("model", ["coherent", "collapse", "absent"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_bytes_equal_the_records_path(self, capsys, command, model, theta):
        for cycles, steps in ((1, 2), (3, 2), (1, 5), (250, 21)):
            code, out = _run(capsys, _sweep_argv(command, cycles, steps, model, theta))
            assert code == 0
            assert out == to_csv(_sweep_records(command, cycles, steps, model, theta))

    @pytest.mark.parametrize("block", [1, 7, sweep._BLOCK_ROWS])
    def test_bytes_do_not_depend_on_the_block_size(self, capsys, monkeypatch, block):
        # sweeps one row shorter than, as long as and one row longer than a
        # block, along each axis: each count's slices, and whole count axes
        cases = [
            case
            for rows in (block - 1, block, block + 1)
            for case in (("sweep-cycles", rows, 2), ("sweep-absorption", 24, rows), ("grid", rows, 3))
            if rows >= 1 and case[2] >= 2
        ]
        expected = [to_csv(_sweep_records(*case)) for case in cases]
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", block)
        engine, calls = sweep._evolve_stack, []

        def counted(model, thetas, a_values, ns):
            calls.append(len(thetas) * len(a_values))
            return engine(model, thetas, a_values, ns)

        monkeypatch.setattr(sweep, "_evolve_stack", counted)
        for case, text in zip(cases, expected):
            calls.clear()
            code, out = _run(capsys, _sweep_argv(*case))
            assert code == 0 and out == text
            assert max(calls) <= block and sum(calls) == text.count("\n") - 1

    def test_out_file_holds_the_stdout_bytes(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", 7)
        path = tmp_path / "grid.csv"
        argv = _sweep_argv("grid", 12, 4)
        code, out = _run(capsys, argv)
        assert code == 0
        assert cli.main([*argv, "--out", str(path)]) == 0
        assert path.read_bytes() == out.encode()

    @staticmethod
    def _corrupted(bad):
        """The stacked engine, with the (a, n) rows in `bad` made to fail."""
        engine = sweep._evolve_stack

        def corrupted(model, thetas, a_values, ns):
            out = engine(model, thetas, a_values, ns)
            for g, n in enumerate(ns):
                for k, a in enumerate(a_values):
                    kind = bad.get((a, n))
                    if kind == "sum":
                        out[0, g, k] += 0.1  # h, so that the row sums to 1.1
                    elif kind == "nan":
                        out[2, g, k] = math.nan  # v
            return out

        return corrupted

    @pytest.mark.parametrize(
        "case,bad,first",
        [
            # blocks of 7 rows: N = 1..7, 8..14 and 15..20
            (("sweep-cycles", 20, 2), {(0.37, 18): "sum"}, (0.37, 18)),
            (("sweep-cycles", 20, 2), {(0.37, 18): "nan"}, (0.37, 18)),
            (("sweep-cycles", 20, 2), {(0.37, 16): "nan", (0.37, 19): "sum"}, (0.37, 16)),
            (("sweep-cycles", 20, 2), {(0.37, 9): "sum", (0.37, 17): "nan"}, (0.37, 9)),
            # one absorption a block; the later absorption's row is the earlier row
            (("grid", 5, 3), {(1.0, 1): "sum", (0.5, 4): "nan"}, (0.5, 4)),
            (("sweep-absorption", 24, 15), {(1.0, 24): "nan"}, (1.0, 24)),
        ],
    )
    @pytest.mark.parametrize("block", [7, sweep._BLOCK_ROWS])
    def test_first_bad_row_exits_two_before_any_byte(
        self, capsys, monkeypatch, tmp_path, case, bad, first, block
    ):
        rec = next(r for r in _sweep_records(*case) if (r.a, r.n) == first)
        p = [rec.p_h + 0.1, rec.p_v, rec.p_b] if bad[first] == "sum" else [rec.p_h, math.nan, rec.p_b]
        with pytest.raises(ValueError) as expected:
            SweepRecord(rec.model, rec.a, rec.n, rec.theta, *p)
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", block)
        monkeypatch.setattr(sweep, "_evolve_stack", self._corrupted(bad))
        path = tmp_path / "sweep.csv"
        for out in ([], ["--out", str(path)]):
            with pytest.raises(SystemExit) as err:
                cli.main(_sweep_argv(*case) + out)
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"ifmsim: error: {expected.value}\n"
        assert not path.exists()

    def test_no_numpy_float_formatter(self, capsys, monkeypatch):
        # Every real is written by _format_reals: one %#.17g pass and an exact
        # test for numpy's padding rule.  With numpy's Dragon4 made to raise,
        # CSV sweeps, run, the oracle report and to_csv keep their bytes.
        commands = [
            "grid --cycles 100 --steps 5 --model collapse",
            "run --cycles 24 --absorption 1e-9",
            "oracle --cycles 50 --absorption 0.5 --trajectories 10000 --model collapse",
        ]

        def outputs():
            texts = [_run(capsys, command.split()) for command in commands]
            return texts + [to_csv(sweep_grid(6, 3, "collapse"))]

        expected = outputs()

        def refuses(*args, **kwargs):
            raise AssertionError("numpy's float formatter was called")

        monkeypatch.setattr(np, "format_float_positional", refuses)
        monkeypatch.setattr(np, "format_float_scientific", refuses)
        assert outputs() == expected

    def test_one_angle_call_a_block_and_one_angle_format_a_walk(self, capsys, monkeypatch):
        # At 8 rows a block, 10 absorptions of 3 counts are 5 blocks over one
        # count slice, walked once to evaluate the rows and once to write or
        # return them.  Each block takes its angles from one switching_angle
        # call on its counts as an array, and csv() formats the slice's angles
        # once a walk, at the head of its first block's _slots call, not once a
        # block: formatting them per block cost 34% on grid --cycles 3000
        # --steps 100.  An explicit theta calls no angle.
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", 8)
        angle, slots = sweep.operators.switching_angle, sweep._slots
        counts, formatted = [], []

        def counted_angle(n):
            counts.append(n)
            return angle(n)

        def counted_slots(values, head):
            formatted.append(list(values[:head]))  # the head's texts: angles, then absorptions
            return slots(values, head)

        monkeypatch.setattr(sweep.operators, "switching_angle", counted_angle)
        monkeypatch.setattr(sweep, "_slots", counted_slots)
        thetas = [angle(n) for n in (1, 2, 3)]
        code, out = _run(capsys, ["grid", "--cycles", "3", "--steps", "10"])
        assert code == 0 and out.count("\n") == 31
        assert len(counts) == 2 * 5
        assert all(type(n) is np.ndarray and n.tolist() == [1, 2, 3] for n in counts)
        assert [head[:3] for head in formatted].count(thetas) == 1
        counts.clear()
        assert [r.theta for r in sweep_grid(3, 10, "coherent")] == thetas * 10
        assert len(counts) == 2 * 5
        assert all(type(n) is np.ndarray and n.tolist() == [1, 2, 3] for n in counts)
        counts.clear()
        formatted.clear()
        code, out = _run(capsys, ["grid", "--cycles", "3", "--steps", "10", "--theta", "0.3"])
        assert code == 0 and out.count("\n") == 31
        assert [head[:1] for head in formatted].count([0.3]) == 1
        assert len(sweep_grid(3, 10, "coherent", 0.3)) == 30
        assert counts == []

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        # The rows' (p_h, p_v, p_b) columns, 24 bytes a row, are the one part
        # of a sweep's traced peak that grows with its length; the engine
        # stack and the CSV text live one block at a time.
        path = tmp_path / "sweep.csv"

        def peak(rows):
            tracemalloc.start()
            try:
                assert cli.main(["sweep-cycles", "--cycles", str(rows), "--out", str(path)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # build the parser first
        small, large = peak(2 * 4096 + 1), peak(6 * 4096 + 1)
        assert large - small <= 24 * 4 * 4096 + 2**16
        assert large < 8 * 2**20


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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["run", "--cycles", "3", "--absorption", "x"],
                "argument --absorption: not a number: 'x'",
            ),
            (["run", "--cycles", "3", "--theta", "inf"], "argument --theta: theta must be finite"),
            (["grid", "--theta", "nan"], "argument --theta: theta must be finite"),
        ],
    )
    def test_bad_real_option(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert err_text.startswith(f"usage: ifmsim {argv[0]} ")
        assert err_text.endswith(f"\nifmsim {argv[0]}: error: {message}\n")
        assert err_text.count("error:") == 1 and "Traceback" not in err_text

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


class TestHugeSweepCounts:
    """A sweep count beyond sys.maxsize, the longest a sequence gets, is a usage error."""

    HUGE = "1010101010101010101010101010"

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["sweep-cycles", "--cycles", HUGE], "n_max"),
            (["grid", "--cycles", HUGE], "n_max"),
            (["grid", "--steps", HUGE], "steps"),
            (["sweep-absorption", "--steps", HUGE], "steps"),
        ],
    )
    def test_exits_two_with_one_line_and_no_file(self, capsys, tmp_path, argv, name):
        path = tmp_path / "sweep.csv"
        for out in ([], ["--out", str(path)]):
            with pytest.raises(SystemExit) as err:
                cli.main(argv + out)
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"ifmsim: error: {name} must be no larger than {sys.maxsize}\n"
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--cycles", str(10**400)],
            ["sweep-absorption", "--cycles", str(10**400), "--steps", "3"],
            # the largest int that still rounds down to the largest float
            ["run", "--cycles", str(2**1024 - 2**970 - 1)],
            ["sweep-absorption", "--cycles", str(2**1024 - 2**970 - 1), "--steps", "3"],
        ],
        ids=["run", "sweep-absorption", "run-rounds-to-max", "sweep-absorption-rounds-to-max"],
    )
    def test_count_beyond_the_float_range(self, capsys, tmp_path, argv):
        # the auto angle pi/(2N) needs N as a float; a 401-digit N has none
        path = tmp_path / "out.csv"
        limit = "cycle count must be a positive integer no larger than 1.7976931348623157e+308"
        for out in ([], ["--out", str(path)]):
            with pytest.raises(SystemExit) as err:
                cli.main(argv + out)
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"ifmsim: error: {limit}\n"
        assert not path.exists()

    def test_process_prints_no_traceback(self, tmp_path):
        path = tmp_path / "sweep.csv"
        argv = ["sweep-cycles", "--cycles", self.HUGE, "--out", str(path)]
        result = subprocess.run([sys.executable, "-m", "ifmsim", *argv], capture_output=True)
        assert result.returncode == 2
        assert b"Traceback" not in result.stderr
        assert result.stderr.count(b"\n") == 1 and result.stderr.startswith(b"ifmsim: error: ")
        assert not path.exists()

    def test_columns_that_cannot_be_allocated_exit_two_with_one_line_and_no_file(
        self, capsys, tmp_path
    ):
        # 2^40 counts x 1,024 absorptions: 24 PiB of columns, more than any
        # 64-bit user address space, so numpy refuses them without touching memory
        path = tmp_path / "grid.csv"
        argv = ["grid", "--cycles", str(2**40), "--steps", "1024"]
        for out in ([], ["--out", str(path)]):
            with pytest.raises(SystemExit) as err:
                cli.main(argv + out)
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"ifmsim: error: a sweep of {2**50} rows needs {24 * 2**50} bytes of "
                "columns, more than can be allocated\n"
            )
        assert not path.exists()

    @pytest.mark.parametrize("steps", [2**55, 2**62, sys.maxsize - 1, sys.maxsize])
    @pytest.mark.parametrize("command", ["sweep-absorption", "grid"])
    def test_grids_too_large_to_build_exit_two_with_one_line_and_no_file(
        self, capsys, tmp_path, command, steps
    ):
        # numpy refuses each grid without touching memory: 2^55 steps (256 PiB
        # of int64) as a MemoryError, 2^62 as an array too big to size, and
        # the two largest counts with an empty arange that the grid rejects
        path = tmp_path / "sweep.csv"
        for out in ([], ["--out", str(path)]):
            with pytest.raises(SystemExit) as err:
                cli.main([command, "--steps", str(steps), *out])
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("ifmsim: error: ") and captured.err.count("\n") == 1
        assert not path.exists()

    def test_the_largest_count_passes_the_check(self):
        # the range is built, not walked: nothing of its length is allocated
        assert len(sweep._cycle_counts(sys.maxsize)) == sys.maxsize
        with pytest.raises(ValueError, match=f"^n_max must be no larger than {sys.maxsize}$"):
            sweep._cycle_counts(sys.maxsize + 1)


def _argv_strategy(st):
    """Argv for the five data subcommands, each input within the stated limits.

    Counts and steps reach past every limit the CLI names, but only where
    the check comes before any allocation or loop of that size: the oracle,
    whose table grows by one entry a cycle, stays at 24 cycles at most.
    """
    reals = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 1 - 2**-53, 1e300, -1e300])
    small = st.integers(1, 40)
    float_counts = small | st.sampled_from(
        [2**53 + 1, 2**63 - 1, 2**63 + 1, 2**64, 10**30, int(sys.float_info.max), 10**309, 10**400]
    )
    cycles = {
        "run": float_counts,
        "sweep-absorption": float_counts,
        "sweep-cycles": small | st.sampled_from([sys.maxsize + 1, 10**30]),
        "grid": small | st.sampled_from([sys.maxsize + 1, 10**30]),
        "oracle": st.integers(1, 24),
    }
    steps = st.integers(2, 12) | st.sampled_from([2**55, 2**62, sys.maxsize + 1])

    @st.composite
    def argv(draw):
        command = draw(st.sampled_from(sorted(cycles)))
        args = [command, f"--model={draw(st.sampled_from(['coherent', 'collapse', 'absent']))}"]
        args.append(f"--cycles={draw(cycles[command])}")
        options = {"theta": reals}
        if command in ("sweep-absorption", "grid"):
            args.append(f"--steps={draw(steps)}")
        else:
            options["absorption"] = reals
        if command == "oracle":
            args.append(f"--trajectories={draw(st.integers(1, 200))}")
            args.append(f"--seed={draw(st.integers(0, 2**64 - 1))}")
        for name, values in options.items():
            value = draw(st.none() | values)  # None keeps the default
            if value is not None:
                args.append(f"--{name}={value!r}")
        return args

    return argv()


def test_every_argv_exits_0_1_or_2_with_valid_rows(capsys):
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_argv_strategy(hypothesis.strategies))
    # the auto angle of a 401-digit count once escaped as an OverflowError
    @hypothesis.example(["sweep-absorption", f"--cycles={10**400}", "--steps=3"])
    def check(argv):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.err
        if code == 0 and argv[0] != "oracle":
            header, *rows = captured.out.splitlines()
            assert header == sweep.CSV_HEADER and rows
            for row in rows:
                p = [float(x) for x in row.split(",")[4:]]
                assert all(0.0 <= x <= 1.0 + 1e-10 for x in p)
                assert abs(sum(p) - 1.0) <= 1e-10

    check()


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

    def test_closed_stdout_exits_two_without_traceback(self):
        # 20,000 rows are ~2 MB, more than a pipe holds: the writes after the
        # reader closes fail with EPIPE, as under `ifmsim sweep-cycles | head -2`
        proc = subprocess.Popen(
            [sys.executable, "-m", "ifmsim", "sweep-cycles", "--cycles", "20000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"model,a,n,theta,p_h,p_v,p_b\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert b"Traceback" not in err
        assert err == f"ifmsim: error: cannot write stdout: {os.strerror(errno.EPIPE)}\n".encode()

    def test_failed_write_to_a_stdout_without_fd_exits_two(self, capsys, monkeypatch):
        # a stdout object with no file descriptor (fileno() raises) has none to
        # point at devnull: the failed write still ends in the one error line
        class Closed(io.StringIO):
            def write(self, text):
                raise OSError(errno.EPIPE, os.strerror(errno.EPIPE))

        monkeypatch.setattr(sys, "stdout", Closed())
        with pytest.raises(SystemExit) as exc:
            cli.main(["grid", "--cycles", "3", "--steps", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"ifmsim: error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"
        )
