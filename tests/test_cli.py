import csv
import json
import math
import os
import stat
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import graf
from graf import cli, montecarlo
from graf.cli import _subcommands, build_parser, main, parse_args
from graf.combinatorics import ball_size
from graf.enumerator import enumerate_field
from graf.field import read_matrix_csv, sample_cost_matrix, write_matrix_csv
from graf.montecarlo import estimate
from graf.serialize import (
    atomic_write_text,
    fmt,
    fmt_column,
    to_csv_text,
    to_json_text,
)
from graf.solvers import solve_max_exact


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

        monkeypatch.setitem(cli._COMMANDS, "estimate", exhausted)
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
        base = [command]
        for other in sub._actions:
            if other.required and other is not action:
                base += [other.option_strings[0], _SAMPLE_VALUES[other.option_strings[0]]]
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
        ],
        ids=["not-a-number", "non-ascii", "zero-size", "negative-size", "plus-size"],
    )
    def test_malformed_input_names_file_and_line(self, tmp_path, capsys, data, message):
        matrix = tmp_path / "bad.csv"
        matrix.write_bytes(data)
        assert main(["solve", "--input", str(matrix)]) == 1
        assert capsys.readouterr().err == f"graf: error: {matrix}{message}\n"


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


class TestOutputFile:
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


def _enumerate_oracle(matrix) -> bytes:
    """The enumerate document built one cell at a time by to_csv_text."""
    perms, values = enumerate_field(matrix)
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
        src = str(Path(graf.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / "fields.csv"
        result = subprocess.run(
            [sys.executable, "-c", script, "enumerate", "--input", str(path), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert out.stat().st_size > 0


class TestFloatColumn:
    _EDGES = [0.0, -0.0, 1.0, -3.0, 1e16, -1e16, 1e17, 2.0**53, 0.1, 5e-324, 1.5e300,
              math.nan, math.inf, -math.inf]

    def test_edges_match_fmt(self):
        assert fmt_column(np.array(self._EDGES)) == [fmt(v) for v in self._EDGES]
        assert fmt_column(np.array([])) == []

    @given(st.lists(st.floats(width=64)))
    def test_matches_fmt(self, values):
        assert fmt_column(np.array(values, dtype=np.float64)) == [fmt(v) for v in values]


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

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", BrokenPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        assert main(self.FLAGS) == 1
        err = capsys.readouterr().err
        assert err.startswith("graf: error: worker pool failed: A process")
        assert err.count("\n") == 1

    def test_dead_worker_process(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(montecarlo, "_replicate_rows", _dying_task)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
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
