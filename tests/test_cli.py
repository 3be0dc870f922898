import csv
import dataclasses
import json
import math
import os
import stat
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graf import cli, montecarlo, serialize
from graf.cli import _subcommands, build_parser, main, parse_args
from graf.combinatorics import ball_size
from graf.enumerator import enumerate_field
from graf.field import read_matrix_csv, sample_cost_matrix, write_matrix_csv
from graf.montecarlo import estimate
from graf.serialize import atomic_write_text, fmt, fmt_codes, to_csv_text, to_json_text
from graf.solvers import solve_max_exact

from conftest import assume_cores, fmt_column_oracle, run_fresh


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """The header and the rows of a CSV file, as string cells."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.csv"
    write_matrix_csv(sample_cost_matrix(4, 42), path)
    return path


class TestParsing:
    def test_valid_estimate(self):
        config = parse_args(["estimate", "--n", "10", "--reps", "1000", "--seed", "1"])
        assert config.subcommand == "estimate"
        assert config.n == 10 and config.reps == 1000 and config.seed == 1

    def test_eps_out_of_range_is_usage_error(self, capsys):
        assert main(["nearmax", "--n", "4", "--eps", "1.5", "--reps", "10", "--seed", "1"]) == 2
        assert "--eps" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_seed_is_usage_error(self, capsys):
        assert main(["estimate", "--n", "4", "--reps", "10"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["bounds", "--n-list", "3", "--frobnicate"]) == 2

    def test_bad_seed_rejected(self, capsys):
        assert main(["estimate", "--n", "4", "--reps", "10", "--seed", str(2**64)]) == 2


# Each replication-count flag with the other flags its command requires.
_REPLICATION_FLAGS = [
    (["estimate", "--n", "4", "--seed", "1"], "reps"),
    (["ratio-table", "--n-list", "3", "--seed", "1"], "reps"),
    (["nearmax", "--n", "3", "--eps", "0.2", "--m-reps", "10", "--seed", "1"], "reps"),
    (["nearmax", "--n", "3", "--eps", "0.2", "--reps", "10", "--seed", "1"], "m-reps"),
]


class TestReplicationCounts:
    """A moment estimate needs at least two replications; fewer is a usage
    error that names the flag, whether given on the command line or in a
    config file."""

    @pytest.mark.parametrize("base, key", _REPLICATION_FLAGS)
    @pytest.mark.parametrize("count", ["1", "0"])
    def test_flag_below_two_is_usage_error(self, capsys, base, key, count):
        assert main(base + [f"--{key}", count]) == 2
        assert f"argument --{key}: must be at least 2, got {count}" in capsys.readouterr().err

    @pytest.mark.parametrize("base, key", _REPLICATION_FLAGS)
    def test_config_key_below_two_is_usage_error(self, tmp_path, capsys, base, key):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}=1\n")
        assert main(base + ["--config", str(config)]) == 2
        assert f"argument --{key}: must be at least 2, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("base, key", _REPLICATION_FLAGS)
    def test_two_is_accepted(self, base, key):
        assert getattr(parse_args(base + [f"--{key}", "2"]), key.replace("-", "_")) == 2


class TestSampleSizeLimit:
    """Sizes the sampler cannot draw within memory are usage errors, and an
    allocation that fails anyway is a one-line runtime error."""

    def test_estimate_n_above_limit(self, capsys):
        assert main(["estimate", "--n", "4097", "--reps", "2", "--seed", "0"]) == 2
        assert "argument --n: must lie in 1..4096, got 4097" in capsys.readouterr().err

    def test_ratio_table_n_list_above_limit(self, capsys):
        assert main(["ratio-table", "--n-list", "10,5000", "--reps", "2", "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert "argument --n-list: each value must be in 2..4096, got 5000" in err

    @pytest.mark.parametrize("n_list", ["4097", "1,5000"])
    def test_bounds_n_list_above_limit(self, tmp_path, capsys, n_list):
        # The greedy bound runs one quadrature per k <= n and caches each.
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--n-list", n_list, "--out", str(out)]) == 2
        assert "argument --n-list: each value must be in 1..4096" in capsys.readouterr().err
        assert not out.exists()

    def test_limit_is_accepted(self):
        assert parse_args(["estimate", "--n", "4096", "--reps", "2", "--seed", "0"]).n == 4096
        config = parse_args(["ratio-table", "--n-list", "2,4096", "--reps", "2", "--seed", "0"])
        assert config.n_list == [2, 4096]
        assert parse_args(["bounds", "--n-list", "1,4096"]).n_list == [1, 4096]

    def test_memory_error_is_one_line_failure(self, monkeypatch, capsys):
        def exhausted(config):
            raise MemoryError("Unable to allocate 6.71 GiB for an array")

        _, setup = cli._COMMANDS["estimate"]
        monkeypatch.setitem(cli._COMMANDS, "estimate", (exhausted, setup))
        assert main(["estimate", "--n", "10", "--reps", "2", "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert err == "graf: error: out of memory: Unable to allocate 6.71 GiB for an array\n"


# Each comma-list flag, the other flags its command needs, and a list that
# repeats a value.  Pools and the m-pass are kept small in case the list is
# accepted.
_LIST_FLAGS = [
    (["bounds"], "n-list", "3,4,3"),
    (["bounds", "--n-list", "3"], "eps", "0.1,0.1"),
    (["bounds", "--n-list", "3"], "delta", "0.3,0.30"),
    (["ratio-table", "--reps", "2", "--seed", "1", "--workers", "1"], "n-list", "3,3"),
    (
        ["nearmax", "--eps", "0.2", "--reps", "2", "--m-reps", "2", "--seed", "1",
         "--workers", "1"],
        "n",
        "3,3",
    ),
    (
        ["nearmax", "--n", "3", "--reps", "2", "--m-reps", "2", "--seed", "1",
         "--workers", "1"],
        "eps",
        "0.2,0.1,0.2",
    ),
    (["verify", "--delta", "0.3"], "n", "3,3"),
    (["verify", "--n", "3"], "delta", "0.5,0.5"),
]


class TestRepeatedListValues:
    """A repeated value in a comma-list flag is a usage error that names the
    flag, on the command line and in a config file; a repeat would give
    `bounds` two columns of one name, for instance."""

    @pytest.mark.parametrize("base, key, values", _LIST_FLAGS)
    def test_flag(self, tmp_path, capsys, base, key, values):
        out = tmp_path / "out.txt"
        assert main(base + [f"--{key}", values, "--out", str(out)]) == 2
        assert f"argument --{key}: repeated value in {values!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("base, key, values", _LIST_FLAGS)
    def test_config_key(self, tmp_path, capsys, base, key, values):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}={values}\n")
        out = tmp_path / "out.txt"
        assert main(base + ["--config", str(config), "--out", str(out)]) == 2
        assert f"argument --{key}: repeated value in {values!r}" in capsys.readouterr().err
        assert not out.exists()


class TestBoundsColumnNames:
    """Distinct `bounds` values whose column names coincide (names keep 6
    significant digits) are a usage error that names the flag."""

    @pytest.mark.parametrize(
        "key, values, name", [("eps", "0.1,0.1000001", "0.1"), ("delta", "0.3,0.3000001", "0.3")]
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_colliding_names_rejected(self, tmp_path, capsys, key, values, name, source):
        out = tmp_path / "bounds.csv"
        args = ["bounds", "--n-list", "3", "--out", str(out)]
        if source == "flag":
            args += [f"--{key}", values]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{key}={values}\n")
            args += ["--config", str(config)]
        assert main(args) == 2
        first, second = values.split(",")
        expected = f"argument --{key}: {first!r} and {second!r} give one column name ({name})"
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_distinct_names_accepted(self, tmp_path):
        out = tmp_path / "bounds.csv"
        args = ["--eps", "0.1,0.100001", "--delta", "0.3,0.31", "--out", str(out)]
        assert main(["bounds", "--n-list", "3", *args]) == 0
        header, _ = read_csv(out)
        assert header[5:] == [
            "nearmax_eps_0.1", "nearmax_eps_0.100001",
            "V_delta_0.3", "Vbound_delta_0.3", "V_delta_0.31", "Vbound_delta_0.31",
        ]


class TestConfigFile:
    def test_config_supplies_required_flags(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n=4\nreps=50\nseed=3\nformat=csv\n")
        out = tmp_path / "report.csv"
        assert main(["estimate", "--config", str(config), "--out", str(out)]) == 0
        assert out.exists()

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("n=4\nreps=50\nseed=3\n")
        parsed = parse_args(
            ["estimate", "--config", str(config), "--reps", "75"]
        )
        assert parsed.reps == 75
        assert parsed.n == 4

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("bogus=1\n")
        assert main(["estimate", "--config", str(config)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("just-a-word\n")
        assert main(["estimate", "--config", str(config)]) == 2

    def test_non_ascii_byte_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n=4\n# caf\u00e9\nreps=20\nseed=1\n", encoding="utf-8")
        assert main(["estimate", "--config", str(config)]) == 2
        assert f"{config}:2: non-ASCII byte at column 6" in capsys.readouterr().err

    def test_comments_and_blanks_ignored(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# comment\n\nn=4\nreps=20\nseed=1\n")
        parsed = parse_args(["estimate", "--config", str(config)])
        assert parsed.n == 4

    def test_flag_keys(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("sensitivity=true\n")
        parsed = parse_args(
            ["nearmax", "--config", str(config), "--n", "3", "--eps", "0.2",
             "--reps", "10", "--seed", "1"]
        )
        assert parsed.sensitivity is True

    def test_abbreviated_config_flag_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("format=csv\nworkers=1\n")
        base = ["estimate", "--n", "3", "--reps", "50", "--seed", "1"]
        assert main(base + ["--conf", str(config)]) == 2
        for spelled in (["--config", str(config)], [f"--config={config}"]):
            parsed = parse_args(base + spelled)
            assert parsed.format == "csv" and parsed.workers == 1


# A value for every long option, each different from the option's default.
_SAMPLE_VALUES = {
    "--input": "m.csv",
    "--method": "greedy",
    "--n-list": "3,4",
    "--eps": "0.1,0.2",
    "--delta": "0.3",
    "--c-small": "2.5",
    "--c-large": "0.5",
    "--n": "3",
    "--reps": "7",
    "--seed": "9",
    "--format": "csv",
    "--m-reps": "11",
    "--out": "x.csv",
    "--workers": "3",
}

_SUBCOMMANDS = _subcommands(build_parser())


def _required_flags(command: str, but=None) -> list[str]:
    """``command`` with a sample value for each of its required options
    other than the action ``but``."""
    argv = [command]
    for action in _SUBCOMMANDS[command]._actions:
        if action.required and action is not but:
            argv += [action.option_strings[0], _SAMPLE_VALUES[action.option_strings[0]]]
    return argv


_CONFIG_OPTIONS = [
    (command, option)
    for command, sub in _SUBCOMMANDS.items()
    for option in sub._option_string_actions
    if option.startswith("--") and option not in ("--config", "--help", "--version")
]


class TestConfigKeysMatchFlags:
    @pytest.mark.parametrize(
        "command, option", _CONFIG_OPTIONS, ids=[f"{c}:{o}" for c, o in _CONFIG_OPTIONS]
    )
    def test_key_parses_like_flag(self, tmp_path, command, option):
        sub = _SUBCOMMANDS[command]
        action = sub._option_string_actions[option]
        base = _required_flags(command, but=action)
        if action.nargs == 0:
            flag, line = [option], f"{option[2:]}=true"
        else:
            flag, line = [option, _SAMPLE_VALUES[option]], f"{option[2:]}={_SAMPLE_VALUES[option]}"
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        from_file = vars(parse_args(base + ["--config", str(config)]))
        from_flags = vars(parse_args(base + flag))
        assert from_file.pop("config") == str(config)
        assert from_flags.pop("config") is None
        assert from_file == from_flags
        assert from_flags[action.dest] != action.default

    @pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
    @pytest.mark.parametrize("line", ["help=true", "config=x"])
    def test_help_and_config_keys_rejected(self, tmp_path, capsys, command, line):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        assert main([command, "--config", str(config)]) == 2
        assert "unknown config key" in capsys.readouterr().err


# The commands that may start a worker pool, which alone take --workers.
_POOL_COMMANDS = ["estimate", "nearmax", "ratio-table"]


class TestWorkersFlag:
    def test_pool_commands_take_workers(self):
        takes = sorted(
            command for command, sub in _SUBCOMMANDS.items()
            if "--workers" in sub._option_string_actions
        )
        assert takes == _POOL_COMMANDS

    @pytest.mark.parametrize("command", ["bounds", "enumerate", "solve", "verify"])
    def test_other_commands_reject_workers(self, tmp_path, capsys, command):
        out = tmp_path / "out.txt"
        base = _required_flags(command) + ["--out", str(out)]
        assert main(base + ["--workers", "1"]) == 2
        assert "unrecognized arguments: --workers 1" in capsys.readouterr().err
        config = tmp_path / "run.cfg"
        config.write_text("workers=1\n")
        assert main(base + ["--config", str(config)]) == 2
        assert "unknown config key 'workers'" in capsys.readouterr().err
        assert not out.exists()


class TestSolveCommand:
    def test_json_output_matches_solver(self, matrix_file, capsys):
        assert main(["solve", "--input", str(matrix_file), "--method", "exact"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = solve_max_exact(sample_cost_matrix(4, 42))
        assert payload["n"] == 4
        assert payload["method"] == "exact"
        assert payload["assignment"] == (expected.columns + 1).tolist()
        assert payload["raw_sum"] == pytest.approx(expected.raw_sum, rel=1e-15)
        assert payload["field_value"] == pytest.approx(expected.field_value, rel=1e-15)

    @pytest.mark.parametrize("method", ["brute", "exact", "greedy", "min"])
    def test_all_methods_run(self, matrix_file, method, capsys):
        assert main(["solve", "--input", str(matrix_file), "--method", method]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["assignment"]) == [1, 2, 3, 4]

    def test_missing_input_fails(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["solve", "--input", str(missing)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"# n=1\nx\n", ":2: could not convert string to float: 'x'"),
            ("# n=1\n\u00e9\n".encode("utf-8"), ":2: non-ASCII byte at column 1"),
            (b"# n=0\n", ":1: malformed size header: '# n=0'"),
            (b"# n=-1\n", ":1: malformed size header: '# n=-1'"),
            (b"# n=+1\n0.5\n", ":1: malformed size header: '# n=+1'"),
            (
                b"# n=2\n1e308,-1e308\n-1e308,1e308\n",
                ":2: n=2 times the entry of magnitude 1e+308 overflows a float",
            ),
        ],
        ids=[
            "not-a-number", "non-ascii", "zero-size", "negative-size", "plus-size",
            "overflowing-sums",
        ],
    )
    def test_malformed_input_names_file_and_line(self, tmp_path, capsys, data, message):
        matrix = tmp_path / "bad.csv"
        matrix.write_bytes(data)
        assert main(["solve", "--input", str(matrix)]) == 1
        assert capsys.readouterr().err == f"graf: error: {matrix}{message}\n"

    @pytest.mark.parametrize("command", ["solve", "enumerate"])
    def test_overflowing_sums_write_nothing(self, tmp_path, capsys, command):
        matrix = tmp_path / "big.csv"
        matrix.write_text("# n=2\n1e308,-1e308\n-1e308,1e308\n")
        out = tmp_path / "out"
        assert main([command, "--input", str(matrix), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"graf: error: {matrix}:2: ")
        assert not out.exists()


class TestBoundsCommand:
    def test_table_contents(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(
            ["bounds", "--n-list", "2,5,25", "--eps", "0.1", "--delta", "0.3",
             "--out", str(out)]
        ) == 0
        header, rows = read_csv(out)
        assert header[:5] == ["n", "upper_E", "trivial_upper_E", "greedy_lower_E", "var_lower"]
        assert "nearmax_eps_0.1" in header and "V_delta_0.3" in header
        by_n = {row[0]: dict(zip(header, row)) for row in rows}
        assert by_n["5"]["V_delta_0.3"] == str(ball_size(5, 0.3))
        # Exact counting is capped; larger sizes leave the cell empty.
        assert by_n["25"]["V_delta_0.3"] == ""
        assert float(by_n["25"]["Vbound_delta_0.3"]) > 0

    def test_bound_beyond_float_range_reads_inf(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--n-list", "5,200", "--delta", "0.9", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        column = header.index("Vbound_delta_0.9")
        assert [row[column] for row in rows] == ["1397.5424859373675", "inf"]

    def test_stdout_when_no_out(self, capsys):
        assert main(["bounds", "--n-list", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n,upper_E")


# Required flags of the command that takes the bound constants.
_BOUND_CONSTANT_COMMANDS = {
    "bounds": ["bounds", "--n-list", "5", "--eps", "0.5"],
}


class TestBoundConstants:
    @pytest.mark.parametrize("command", sorted(_BOUND_CONSTANT_COMMANDS))
    @pytest.mark.parametrize("option", ["c-small", "c-large"])
    @pytest.mark.parametrize("value", ["inf", "nan", "1e309"])
    def test_non_finite_is_usage_error(self, tmp_path, capsys, command, option, value):
        out = tmp_path / "out.csv"
        config = tmp_path / "run.cfg"
        config.write_text(f"{option}={value}\n")
        base = _BOUND_CONSTANT_COMMANDS[command] + ["--out", str(out)]
        for given in ([f"--{option}", value], ["--config", str(config)]):
            assert main(base + given) == 2
            err = capsys.readouterr().err
            assert f"--{option}: must be positive and finite, got {value}" in err
            assert not out.exists()

    @pytest.mark.parametrize("option", ["c-small", "c-large"])
    def test_nearmax_takes_no_constants(self, tmp_path, capsys, option):
        # nearmax prints each bound shape with unit constants; only bounds,
        # whose one column picks a regime per size, scales them.
        out = tmp_path / "out.csv"
        config = tmp_path / "run.cfg"
        config.write_text(f"{option}=2\n")
        base = ["nearmax", "--n", "4", "--eps", "0.2", "--reps", "10", "--seed", "0",
                "--m-reps", "100", "--out", str(out)]
        for given in ([f"--{option}", "2"], ["--config", str(config)]):
            assert main(base + given) == 2
            capsys.readouterr()
            assert not out.exists()
        bounds = _BOUND_CONSTANT_COMMANDS["bounds"] + [f"--{option}", "2", "--out", str(out)]
        assert main(bounds) == 0


class TestOutputFile:
    @pytest.mark.parametrize(
        "out",
        ["missing/x.json", ".", "", "fifo", "link"],
        ids=["missing-directory", "directory", "empty", "fifo", "link-to-fifo"],
    )
    def test_unwritable_out_fails_before_the_study(self, tmp_path, monkeypatch, capsys, out):
        def not_called(config):
            pytest.fail("the study ran although --out cannot be written")

        _, setup = cli._COMMANDS["estimate"]
        monkeypatch.setitem(cli._COMMANDS, "estimate", (not_called, setup))
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        (tmp_path / "link").symlink_to(fifo)
        out = str(tmp_path / out) if out else out
        flags = ["estimate", "--n", "30", "--reps", "20000", "--seed", "1", "--out", out]
        assert main(flags) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"graf: error: cannot write --out {out!r}: ")
        assert not (tmp_path / "missing").exists()
        # Writing would rename a regular file over the FIFO or the link.
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.path.islink(tmp_path / "link")
        if out.endswith(("fifo", "link")):
            assert err.endswith(": it is not a regular file\n")

    @pytest.mark.parametrize("exists", [True, False], ids=["link-to-file", "link-to-missing-file"])
    def test_link_writes_its_target(self, tmp_path, capsys, exists):
        # The target lies in another directory, which must take the new file.
        target = tmp_path / "elsewhere" / "target.csv"
        target.parent.mkdir()
        if exists:
            target.write_text("old\n")
        link = tmp_path / "ln.csv"
        link.symlink_to(target)
        assert main(["bounds", "--n-list", "3", "--out", str(link)]) == 0
        capsys.readouterr()
        assert main(["bounds", "--n-list", "3"]) == 0
        assert os.path.islink(link) and os.readlink(link) == str(target)
        assert target.read_text() == capsys.readouterr().out
        assert sorted(os.listdir(tmp_path)) == ["elsewhere", "ln.csv"]
        assert os.listdir(target.parent) == ["target.csv"]

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
    )
    def test_mode_follows_umask(self, tmp_path, capsys, umask, mode):
        out = tmp_path / "bounds.csv"
        previous = os.umask(umask)
        try:
            assert main(["bounds", "--n-list", "3", "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == mode


class TestEstimateCommand:
    def test_json_document(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(
            ["estimate", "--n", "3", "--reps", "200", "--seed", "5",
             "--workers", "1", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        report = estimate(3, 200, 5)
        assert payload["replications"] == 200
        assert payload["statistics"]["max_value"]["mean"] == pytest.approx(
            report.max_value.mean, rel=1e-15
        )
        assert payload["greedy_violations"] == 0

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(
            ["estimate", "--n", "3", "--reps", "200", "--seed", "5",
             "--workers", "1", "--format", "csv", "--out", str(out)]
        ) == 0
        header, rows = read_csv(out)
        assert header == [
            "n", "reps", "mean_M", "se_M", "var_M", "se_var_M", "mean_W",
            "mean_greedy", "mean_gbar", "var_gbar", "cov_gbar_L", "ratio",
            "upper_E", "greedy_lower_E", "var_lower",
        ]
        assert len(rows) == 1 and rows[0][0] == "3"

    def test_manifest_echoed_for_file_output(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["estimate", "--n", "3", "--reps", "120", "--seed", "5", "--out", str(out)])
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["tool"] == "graf"
        assert manifest["subcommand"] == "estimate"
        assert manifest["config"]["reps"] == 120
        assert "elapsed_seconds" in manifest


class TestEnumerateCommand:
    def test_row_count_and_values(self, matrix_file, tmp_path):
        out = tmp_path / "fields.csv"
        assert main(["enumerate", "--input", str(matrix_file), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["permutation", "field_value"]
        assert len(rows) == math.factorial(4)
        assert rows[0][0] == "1,2,3,4"


# Prints, as the last stdout line, the JSON list of the scipy modules that
# a fresh interpreter holds after the lines before.
_LOADED_SCIPY = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"

# Records, in a fresh interpreter, the compiled scipy routines that
# graf._scipy loads from here on: its accessors cache what they return, so
# it loads each routine at most once.
_RECORD_ROUTINES = "\n".join([
    "from graf import _scipy",
    "routines, load = [], _scipy._load",
    "_scipy._load = lambda module, attr: routines.append(attr) or load(module, attr)",
])

# Prints, as the last stdout line, the JSON list of the set-up modules
# that a fresh interpreter holds after the lines before, with the
# routines recorded by _RECORD_ROUTINES.
_LOADED_SETUP = "\n".join([
    "names = ('scipy.integrate', 'scipy.linalg', 'scipy.optimize', 'scipy.special',",
    "         'multiprocessing')",
    "loaded = [m for m in names if m in sys.modules] + routines",
    "print(json.dumps(sorted(loaded)))",
])

# What parse_args loads for each command: graf.bounds brings QUADPACK's
# _qagpe and log_ndtr, each from its compiled module alone, and the
# compiled linear_sum_assignment and ndtri come alone too; the commands
# that may start a worker pool bring multiprocessing.
_SETUP_LOADS = {
    "enumerate": [],
    "solve": ["linear_sum_assignment"],
    "estimate": ["linear_sum_assignment", "multiprocessing", "ndtri"],
    "nearmax": ["linear_sum_assignment", "multiprocessing", "ndtri"],
    "verify": ["linear_sum_assignment", "ndtri"],
    "ratio-table": ["_qagpe", "linear_sum_assignment", "log_ndtr", "multiprocessing", "ndtri"],
    "bounds": ["_qagpe", "log_ndtr"],
}


def _setup_loads(*args: str) -> list[str]:
    """What a fresh interpreter's parse_args(args) loads (see _LOADED_SETUP)."""
    script = "\n".join([
        "import json, sys",
        _RECORD_ROUTINES,
        "from graf.cli import parse_args",
        "parse_args(sys.argv[1:])",
        _LOADED_SETUP,
    ])
    result = run_fresh(script, *args)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


class TestScipyLoading:
    """Each command loads the parts of scipy it calls, and only those,
    while parsing its arguments, so that they count as set-up."""

    def test_enumerate_loads_no_scipy(self, tmp_path):
        path = tmp_path / "matrix.csv"
        write_matrix_csv(sample_cost_matrix(3, 5), path)
        script = "\n".join([
            "import json, sys",
            "import graf",
            "import graf.cli",
            "status = graf.cli.main(sys.argv[1:])",
            _LOADED_SCIPY,
            "sys.exit(status)",
        ])
        out = tmp_path / "fields.csv"
        result = run_fresh(script, "enumerate", "--input", str(path), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == []
        assert len(read_csv(out)[1]) == 6

    def test_parsing_estimate_loads_scipy(self):
        # The compiled LSA and ndtri load without scipy.optimize,
        # scipy.special and their dependencies, and their files' modules
        # leave sys.modules again (tests/test_scipy.py).
        script = "\n".join([
            "import json, sys",
            "from graf.cli import parse_args",
            "parse_args(sys.argv[1:])",
            _LOADED_SCIPY,
        ])
        result = run_fresh(script, *_required_flags("estimate"))
        assert result.returncode == 0, result.stderr
        loaded = set(json.loads(result.stdout))
        assert not {"scipy.optimize._lsap", "scipy.special._ufuncs"} & loaded
        packages = {"scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse",
                    "scipy.special"}
        assert not packages & loaded

    @pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
    def test_every_command_but_enumerate_loads_scipy(self, command):
        assert _setup_loads(*_required_flags(command)) == _SETUP_LOADS[command]

    def test_estimate_csv_loads_the_bounds(self):
        # The CSV row holds the bound columns, which graf.bounds computes.
        loaded = _setup_loads(*_required_flags("estimate"), "--format", "csv")
        assert loaded == sorted(_SETUP_LOADS["estimate"] + _SETUP_LOADS["bounds"])

    @pytest.mark.parametrize(
        "flags",
        [["bounds", "--n-list", "1,3", "--eps", "0.1"],
         ["estimate", "--n", "4", "--reps", "8", "--seed", "0", "--format", "csv",
          "--workers", "1"]],
        ids=["bounds", "estimate-csv"],
    )
    def test_commands_run_without_setup(self, tmp_path, flags):
        # build_parser().parse_args runs no set-up step, so the command
        # must import graf.bounds itself.
        script = "\n".join([
            "import sys",
            "from graf import cli",
            "config = cli.build_parser().parse_args(sys.argv[1:])",
            "assert 'graf.bounds' not in sys.modules",
            "sys.exit(cli.run(config))",
        ])
        result = run_fresh(script, *flags, "--out", str(tmp_path / "run.csv"))
        assert result.returncode == 0, result.stderr
        assert main(flags + ["--out", str(tmp_path / "main.csv")]) == 0
        assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()

    def test_nearmax_computes_with_no_further_scipy(self, tmp_path):
        script = "\n".join([
            "import json, sys",
            "from graf import cli",
            "config = cli.parse_args(sys.argv[1:])",
            "before = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
            "status = cli.run(config)",
            "after = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
            "print(json.dumps(after == before))",
        ])
        flags = ["nearmax", "--n", "3", "--eps", "0.5", "--reps", "4", "--m-reps", "8",
                 "--seed", "0", "--workers", "1", "--out", str(tmp_path / "t.csv")]
        result = run_fresh(script, *flags)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) is True


    @pytest.mark.parametrize(
        "flags",
        [["estimate", "--n", "4", "--reps", "8", "--seed", "0", "--workers", "1"],
         ["estimate", "--n", "4", "--reps", "8", "--seed", "0", "--workers", "1",
          "--format", "csv"],
         ["ratio-table", "--n-list", "3,4", "--reps", "4", "--seed", "0", "--workers", "1"],
         ["nearmax", "--n", "3", "--eps", "0.5", "--reps", "4", "--m-reps", "8", "--seed",
          "0", "--workers", "1"],
         ["verify", "--n", "3", "--delta", "0.3", "--seed", "0"],
         ["bounds", "--n-list", "1,3", "--eps", "0.1"]],
        ids=["estimate", "estimate-csv", "ratio-table", "nearmax", "verify", "bounds"],
    )
    def test_sampling_commands_load_nothing_while_computing(self, flags):
        # numpy imports numpy.random at the first np.random and numpy.ma at
        # the first np.unique; set-up loads both, so that they count as
        # set-up and a worker pool forked later inherits them.  A scipy
        # file loaded while computing leaves no module behind, so the
        # loads of graf._scipy are recorded too.
        script = "\n".join([
            "import json, sys",
            "from graf import cli",
            "config = cli.parse_args(sys.argv[1:])",
            "before = set(sys.modules)",
            _RECORD_ROUTINES,
            "status = cli.run(config)",
            "print(json.dumps([sorted(set(sys.modules) - before), routines]))",
            "sys.exit(status)",
        ])
        result = run_fresh(script, *flags)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [[], []]


def _is_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


#: A fresh interpreter's first lines: this test process imported graf,
#: so its children inherit graf's OpenBLAS default unless they drop it.
_UNSET_BLAS_TIMEOUT = "import os\nos.environ.pop('OPENBLAS_THREAD_TIMEOUT', None)\n"


class TestProcessSetup:
    """Once its arguments parse, main fixes glibc's malloc thresholds and
    freezes the objects built so far, in a fresh interpreter each time.
    Importing graf sends OpenBLAS's idle pool threads to sleep."""

    def test_import_sets_the_openblas_thread_timeout(self):
        script = _UNSET_BLAS_TIMEOUT + "\n".join([
            "import graf",
            "assert os.environ['OPENBLAS_THREAD_TIMEOUT'] == '4', os.environ",
        ])
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr

    def test_a_preset_thread_timeout_wins(self):
        script = "\n".join([
            "import os",
            "os.environ['OPENBLAS_THREAD_TIMEOUT'] = '10'",
            "import graf",
            "assert os.environ['OPENBLAS_THREAD_TIMEOUT'] == '10', os.environ",
        ])
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="thread CPU times are read from /proc"
    )
    def test_idle_blas_threads_sleep(self):
        # Parsing estimate loads ndtri, whose scipy file links a second
        # OpenBLAS next to numpy's.  Neither pool is ever called; spinning
        # for OpenBLAS's default timeout, they took about 0.25 s of CPU.
        script = _UNSET_BLAS_TIMEOUT + "\n".join([
            "import time",
            "from graf.cli import parse_args",
            "parse_args(['estimate', '--n', '10', '--reps', '64', '--seed', '0'])",
            "time.sleep(0.3)",
            "ticks = 0",
            "for tid in os.listdir('/proc/self/task'):",
            "    if int(tid) != os.getpid():",
            "        with open(f'/proc/self/task/{tid}/stat') as fh:",
            "            fields = fh.read().rsplit(')', 1)[1].split()",
            "        ticks += int(fields[11]) + int(fields[12])  # utime, stime",
            "print(ticks / os.sysconf('SC_CLK_TCK'))",
        ])
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr
        seconds = float(result.stdout.splitlines()[-1])
        assert seconds < 0.03, f"other threads took {seconds} s of CPU"

    def test_freezes_the_setup_objects(self):
        script = "\n".join([
            "import gc",
            "from graf.cli import main",
            "assert gc.get_freeze_count() == 0",
            "assert main(['bounds', '--n-list', '3']) == 0",
            "assert gc.get_freeze_count() > 0, gc.get_freeze_count()",
        ])
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr

    @pytest.mark.skipif(not _is_glibc(), reason="malloc thresholds are set on glibc only")
    def test_freed_arrays_are_reused_without_faults(self):
        # Two 4 MiB arrays a round: above glibc's default mmap threshold,
        # so without the step each round maps and faults them in anew.
        # PR_SET_THP_DISABLE (41) keeps khugepaged out of this process: a
        # collapse of the heap into a huge page while a round writes it
        # faults once, whether or not the memory was reused.
        script = "\n".join([
            "import ctypes, json, resource",
            "assert ctypes.CDLL(None).prctl(41, 1, 0, 0, 0) == 0",
            "import numpy as np",
            "from graf.cli import main",
            "assert main(['bounds', '--n-list', '3']) == 0",
            "faults = []",
            "for _ in range(6):",
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            "    a, b = np.ones(1 << 19), np.ones(1 << 19)",
            "    del a, b",
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
            "print(json.dumps(faults))",
        ])
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr
        faults = json.loads(result.stdout.splitlines()[-1])
        assert faults[1:] == [0] * 5, faults

    @pytest.mark.parametrize("error", [OSError, ValueError])
    def test_runs_when_the_libc_is_unknown(self, error):
        script = "\n".join([
            "import ctypes, os, sys",
            "from graf.cli import main",
            "def confstr(name):",
            f"    raise {error.__name__}(name)",
            "def not_called(*args, **kwargs):",
            "    raise AssertionError('called ctypes.CDLL')",
            "os.confstr = confstr",
            "ctypes.CDLL = not_called",
            "sys.exit(main(['bounds', '--n-list', '1,3,100']))",
        ])
        patched = run_fresh(script)
        assert patched.returncode == 0, patched.stderr
        plain = run_fresh(
            "import sys\nfrom graf.cli import main\nsys.exit(main(['bounds', '--n-list', '1,3,100']))"
        )
        assert plain.returncode == 0, plain.stderr
        assert patched.stdout == plain.stdout


def _enumerate_oracle(matrix, field=enumerate_field) -> bytes:
    """The enumerate document built one cell at a time by to_csv_text,
    from the assignments and values ``field(matrix)`` returns."""
    perms, values = field(matrix)
    texts = [",".join(str(j + 1) for j in row) for row in perms.tolist()]
    rows = [[text, value] for text, value in zip(texts, values.tolist())]
    return to_csv_text(["permutation", "field_value"], rows).encode("ascii")


def _enumerate_both_ways(path, out, capsys) -> bytes:
    """The document written to ``out``, after checking stdout gets the same."""
    assert main(["enumerate", "--input", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["enumerate", "--input", str(path)]) == 0
    assert capsys.readouterr().out.encode("ascii") == out.read_bytes()
    return out.read_bytes()


class TestEnumerateStream:
    """`enumerate` formats its rows a chunk at a time; the document must
    equal the one built cell by cell, on --out and on stdout alike."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_sampled_matrix_matches_oracle(self, tmp_path, capsys, n):
        if n == 9:
            # The last chunk is a partial one.
            assert math.factorial(9) % cli.ENUMERATE_CHUNK_ROWS != 0
        path = tmp_path / "matrix.csv"
        write_matrix_csv(sample_cost_matrix(n, 100 + n), path)
        document = _enumerate_both_ways(path, tmp_path / "fields.csv", capsys)
        assert document == _enumerate_oracle(read_matrix_csv(path))

    @pytest.mark.parametrize(
        "rows",
        [
            # Integral sums: 0, small integers, +-1e16 and 1e17 (the field
            # value is the sum / 2).
            ["0,2e16,-2e16,2e17", "-0,0,0,0", "2,0,4,6", "0,0,0,0"],
            ["-0"],
            ["0"],
            ["3"],
            ["1e17"],
            ["-1e16"],
        ],
    )
    def test_integral_values_match_oracle(self, tmp_path, capsys, rows):
        path = tmp_path / "matrix.csv"
        path.write_text("\n".join([f"# n={len(rows)}", *rows]) + "\n")
        document = _enumerate_both_ways(path, tmp_path / "fields.csv", capsys)
        assert document == _enumerate_oracle(read_matrix_csv(path))
        if len(rows) == 4:
            for cell in (b",0.0\n", b",3.0\n", b",-10000000000000000.0\n", b",1e+17\n"):
                assert cell in document

    #: Values the array formatter leaves to fmt: integral, signed zeros,
    #: below 1e-4, from 1e15 up, and not finite.
    _FALLBACKS = [0.0, -0.0, 3.0, -1e16, 1e17, 5e-324, -9.999999999999999e-05, 1e15,
                  -2.5e300, math.nan, math.inf, -math.inf]

    def _with_values(self, monkeypatch, placed):
        """Make `enumerate` write ``placed`` (row -> value) over the field
        values, and return the field function it then uses."""

        def field(matrix):
            perms, values = enumerate_field(matrix)
            values = values.copy()
            values[list(placed)] = list(placed.values())
            return perms, values

        monkeypatch.setattr(cli, "enumerate_field", field)
        return field

    def test_fallback_rows_at_chunk_edges(self, tmp_path, capsys, monkeypatch):
        # At n = 9: the first and last rows of the first two chunks, and the
        # start and end of the partial last chunk.
        chunk, count, run = cli.ENUMERATE_CHUNK_ROWS, math.factorial(9), len(self._FALLBACKS)
        assert count % chunk != 0
        starts = [0, chunk - run, chunk, 2 * chunk - run, count - count % chunk, count - run]
        placed = {s + k: v for s in starts for k, v in enumerate(self._FALLBACKS)}
        field = self._with_values(monkeypatch, placed)
        path = tmp_path / "matrix.csv"
        write_matrix_csv(sample_cost_matrix(9, 109), path)
        document = _enumerate_both_ways(path, tmp_path / "fields.csv", capsys)
        assert document == _enumerate_oracle(read_matrix_csv(path), field)
        assert b'"1,2,3,4,5,6,7,8,9",0.0\n' in document
        assert document.endswith(b'"9,8,7,6,5,4,3,2,1",-inf\n')

    @pytest.mark.parametrize("value", _FALLBACKS + [0.25, -123456.78901234567])
    def test_one_column_cell(self, tmp_path, capsys, monkeypatch, value):
        # n = 1: one row, whose one-digit cell is not quoted.
        field = self._with_values(monkeypatch, {0: value})
        path = tmp_path / "matrix.csv"
        path.write_text("# n=1\n0.5\n")
        document = _enumerate_both_ways(path, tmp_path / "fields.csv", capsys)
        assert document == _enumerate_oracle(read_matrix_csv(path), field)
        assert document == f"permutation,field_value\n1,{fmt(value)}\n".encode("ascii")

    def test_peak_memory_n9(self, tmp_path):
        # VmHWM is the high-water mark of this process's own address space;
        # ru_maxrss would also carry the mark of the process that forked it.
        if not os.path.exists("/proc/self/status"):
            pytest.skip("needs /proc/self/status")
        path = tmp_path / "matrix.csv"
        write_matrix_csv(sample_cost_matrix(9, 0), path)
        script = "\n".join([
            "import sys",
            "from graf.cli import main",
            "status = main(sys.argv[1:])",
            "with open('/proc/self/status') as fh:",
            "    kb = next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))",
            "sys.exit(status or (f'peak RSS {kb} kB, limit 140 MB' if kb >= 140 * 1024 else 0))",
        ])
        out = tmp_path / "fields.csv"
        result = run_fresh(script, "enumerate", "--input", str(path), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert out.stat().st_size > 0


def _texts(codes: np.ndarray) -> list[str]:
    """The text in each column of ``fmt_codes``' codes."""
    return [bytes(column).replace(b"\0", b"").decode("ascii") for column in codes.T]


def _bits_to_float(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


def _neighbours(x: float) -> list[float]:
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


_SIGNS = st.sampled_from([1.0, -1.0])

#: Families of float64 values at the edges of fmt_codes' array path.
_FLOAT_FAMILIES = {
    "bit_patterns": st.integers(0, 2**64 - 1).map(_bits_to_float),
    # 10**k and its neighbours, where the decimal exponent changes.
    "powers_of_ten": st.tuples(st.integers(-6, 17), st.integers(0, 2), _SIGNS).map(
        lambda t: t[2] * float(_neighbours(10.0**t[0])[t[1]])
    ),
    # Exact ties at the 17th digit: k/8 + 1e14 and k/1024 + 1e12.
    "ties": st.tuples(st.integers(0, 2**13), st.sampled_from([(8, 1e14), (1024, 1e12)]), _SIGNS)
    .map(lambda t: t[2] * (t[0] / t[1][0] + t[1][1])),
    # The ends of the array path: fl(1e-4) and 1e15.
    "range_ends": st.tuples(st.sampled_from([1e-4, 1e15]), st.integers(0, 2), _SIGNS).map(
        lambda t: t[2] * float(_neighbours(t[0])[t[1]])
    ),
    "fallbacks": st.one_of(
        st.integers(0, 2**52 - 1).map(_bits_to_float),  # subnormals and +0
        st.integers(-(2**10), 2**10).map(lambda k: 2.0**53 + k),  # integral around 2**53
        st.integers(-(2**62), 2**62).map(float),
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    ),
}


class TestFloatColumn:
    """``fmt_codes`` against ``fmt`` and the ``%``-pass oracle."""

    _EDGES = [0.0, -0.0, 1.0, -3.0, 1e16, -1e16, 1e17, 2.0**53, 0.1, 5e-324, 1.5e300,
              math.nan, math.inf, -math.inf]

    def test_edges_match_fmt(self):
        assert _texts(fmt_codes(np.array(self._EDGES))) == [fmt(v) for v in self._EDGES]
        assert _texts(fmt_codes(np.array([]))) == []

    @given(st.lists(st.floats(width=64)))
    def test_matches_fmt(self, values):
        assert _texts(fmt_codes(np.array(values, dtype=np.float64))) == [fmt(v) for v in values]

    @pytest.mark.parametrize("family", sorted(_FLOAT_FAMILIES))
    @given(data=st.data())
    def test_family_matches_oracle(self, family, data):
        values = np.array(data.draw(st.lists(_FLOAT_FAMILIES[family], min_size=1)))
        assert _texts(fmt_codes(values)) == fmt_column_oracle(values)

    def test_seeded_sweep_matches_oracle(self):
        # 2**20 bit patterns in chunks of 2**16: 4 chunks of uniform bits,
        # then 12 with exponents from 2**-15 to 2**51, where most values
        # take the array path.
        rng = np.random.default_rng(18)
        fast = 0
        for chunk in range(16):
            bits = rng.integers(0, 2**64, size=2**16, dtype=np.uint64, endpoint=False)
            if chunk >= 4:
                exponent = rng.integers(1023 - 15, 1023 + 52, size=2**16, dtype=np.uint64)
                bits = bits & np.uint64(0x800F_FFFF_FFFF_FFFF) | exponent << np.uint64(52)
            values = bits.view(np.float64)
            codes = np.vstack([fmt_codes(values), np.full((1, 2**16), ord("\n"), np.uint8)])
            expected = fmt_column_oracle(values)
            if codes.T.tobytes().translate(None, b"\0") != "\n".join(expected + [""]).encode():
                assert _texts(codes[:-1]) == expected
            with np.errstate(invalid="ignore"):
                fast += int(((abs(values) >= 1e-4) & (abs(values) < 1e15)).sum())
        assert fast > 0.85 * 12 * 2**16

    def test_array_path_makes_no_text(self, monkeypatch):
        calls = []

        def counting_fmt(x):
            calls.append(x)
            return fmt(x)

        monkeypatch.setattr(serialize, "fmt", counting_fmt)
        values = enumerate_field(sample_cost_matrix(7, 3))[1]
        values[[0, 5, 9]] = [2.0, -0.0, 1e-7]
        # Just below 10**k, where floor(log10) guesses one exponent too many.
        values[10:27] = [np.nextafter(10.0**k, 0) for k in range(-3, 16) if k not in (0, 1)]
        assert _texts(fmt_codes(values)) == fmt_column_oracle(values)
        assert sorted(calls, key=str) == [-0.0, 1e-07, 2.0]


class TestAtomicWrite:
    @staticmethod
    def _failing_chunks():
        yield "first chunk\n"
        raise RuntimeError("second chunk failed")

    def test_failed_chunk_leaves_no_file(self, tmp_path):
        target = tmp_path / "doc.csv"
        with pytest.raises(RuntimeError, match="second chunk failed"):
            atomic_write_text(target, self._failing_chunks())
        assert list(tmp_path.iterdir()) == []

    def test_failed_chunk_keeps_old_target(self, tmp_path):
        target = tmp_path / "doc.csv"
        target.write_bytes(b"old bytes\n")
        with pytest.raises(RuntimeError, match="second chunk failed"):
            atomic_write_text(target, self._failing_chunks())
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == b"old bytes\n"

    def test_chunks_written_in_order(self, tmp_path):
        target = tmp_path / "doc.csv"
        atomic_write_text(target, iter(["a,b\n", "", "1,2\n"]))
        assert target.read_bytes() == b"a,b\n1,2\n"


class TestVerifyCommand:
    def test_passes_and_prints(self, capsys):
        assert main(["verify", "--n", "4", "--delta", "0.3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "ok: ball size n=4" in out
        assert "FAIL" not in out

    def test_writes_report_file(self, tmp_path):
        out = tmp_path / "verify.txt"
        assert main(
            ["verify", "--n", "3", "--delta", "0.5", "--seed", "2", "--out", str(out)]
        ) == 0
        assert "ok:" in out.read_text()

    def test_wrong_histogram_fails_with_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "correlation_histogram_exact", lambda n: (1,) * (n + 1))
        out = tmp_path / "verify.txt"
        assert main(["verify", "--n", "3", "--delta", "0.5", "--out", str(out)]) == 1
        report = out.read_text()
        assert "FAIL: agreement histogram n=3 (counts=(1, 1, 1, 1))" in report
        assert capsys.readouterr().out == report

    def test_wrong_ball_count_fails_with_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "ball_counts_exact", lambda n, delta, seed: (1, 1, 2))
        out = tmp_path / "verify.txt"
        assert main(["verify", "--n", "3", "--delta", "0.5", "--out", str(out)]) == 1
        report = out.read_text()
        assert (
            "FAIL: ball size n=3 delta=0.5 "
            "(counts=(1, 1, 2) closed_form=1 bound=5.196152422706632)\n"
        ) in report
        assert report.count("FAIL") == 1
        assert capsys.readouterr().out == report

    def test_solver_disagreement_fails(self, monkeypatch, capsys):
        exact = cli.solve_max_bruteforce

        def off(matrix):
            result = exact(matrix)
            return dataclasses.replace(result, raw_sum=result.raw_sum + 1e-6)

        monkeypatch.setattr(cli, "solve_max_bruteforce", off)
        assert main(["verify", "--n", "3", "--delta", "0.5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL: solver agreement n=3" in out
        assert out.count("FAIL") == 1


class TestReproducibility:
    def test_byte_identical_reruns_and_worker_invariance(self, tmp_path):
        flags = ["estimate", "--n", "4", "--reps", "6000", "--seed", "9"]
        paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
        assert main(flags + ["--workers", "1", "--out", str(paths[0])]) == 0
        assert main(flags + ["--workers", "1", "--out", str(paths[1])]) == 0
        assert main(flags + ["--workers", "2", "--out", str(paths[2])]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_ratio_table_reruns(self, tmp_path):
        flags = ["ratio-table", "--n-list", "3,4", "--reps", "300", "--seed", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(flags + ["--out", str(a), "--workers", "1"]) == 0
        assert main(flags + ["--out", str(b), "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_nearmax_reruns(self, tmp_path):
        flags = [
            "nearmax", "--n", "3", "--eps", "0.2", "--reps", "40", "--seed", "3",
            "--m-reps", "300", "--workers", "1",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_partial_output_on_failure(self, tmp_path):
        out = tmp_path / "missing-dir" / "report.json"
        assert main(
            ["estimate", "--n", "3", "--reps", "100", "--seed", "1", "--out", str(out)]
        ) == 1
        assert not out.exists()
        assert not list(tmp_path.glob("**/*.tmp"))


def _dying_task(task):
    """A row task whose worker process dies without reporting back."""
    os._exit(1)


class TestWorkerFailure:
    # ratio-table at n = 100 with 20 replications is 4 row tasks of 6 or fewer.
    FLAGS = ["ratio-table", "--n-list", "100", "--reps", "20", "--seed", "1", "--workers", "2"]

    def test_broken_pool_is_one_line_error(self, monkeypatch, capsys):
        class BrokenPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                raise BrokenProcessPool("A process in the process pool was terminated")

        monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", BrokenPool)
        assume_cores(monkeypatch, 2)
        assert main(self.FLAGS) == 1
        err = capsys.readouterr().err
        assert err.startswith("graf: error: worker pool failed: A process")
        assert err.count("\n") == 1

    def test_dead_worker_process(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(montecarlo, "_replicate_rows", _dying_task)
        assume_cores(monkeypatch, 2)
        out = tmp_path / "ratio.csv"
        assert main(self.FLAGS + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("graf: error: worker pool failed: ")
        assert not out.exists()


class TestLogging:
    def test_invalid_level_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("GRAF_LOG", "loud")
        assert main(["bounds", "--n-list", "3"]) == 2
        assert "GRAF_LOG" in capsys.readouterr().err

    def test_levels_accepted(self, monkeypatch, capsys):
        monkeypatch.setenv("GRAF_LOG", "debug")
        assert main(["bounds", "--n-list", "3"]) == 0


class TestJsonEmitter:
    def test_seventeen_digit_floats_round_trip(self):
        value = 0.1 + 0.2
        text = to_json_text({"x": value, "flag": True, "items": [1, 2.5]})
        parsed = json.loads(text)
        assert parsed["x"] == value
        assert parsed["flag"] is True

    def test_non_finite_becomes_null(self):
        assert json.loads(to_json_text({"x": math.nan}))["x"] is None
