"""Tests for the benchmark itself: run with ``python3 -m pytest perfbench``.

They check that a tampered output fails its check, that the metric and
workload names are well formed and match ``BENCHMARK.json``, and that
the span arithmetic of the traced pass is right on hand-built trees.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from graf.cli import main as graf_main  # noqa: E402
from graf.field import sample_cost_matrix, write_matrix_csv  # noqa: E402
from spans import Spans, layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    path.write_text("\n".join(",".join(_quote(c) for c in r) for r in rows) + "\n")


def _quote(cell: str) -> str:
    return f'"{cell}"' if "," in cell else cell


class TestNames:
    def test_every_name_is_well_formed(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.fullmatch(name), name

    def test_spec_matches_the_code(self):
        assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
            w.name: w.why for w in workloads.WORKLOADS.values()
        }
        assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
        assert SPEC["command"] == ["python3", "perfbench/run.py"]
        assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


class TestTamperedOutputFails:
    def test_estimate_greedy_violation(self, tmp_path):
        path = tmp_path / "estimate.json"
        doc = {"n": 10, "replications": 32768, "master_seed": 5, "greedy_violations": 0}
        path.write_text(json.dumps(doc))
        assert workloads.check_estimate(path, 5, None) == []
        path.write_text(json.dumps(dict(doc, greedy_violations=1)))
        assert workloads.check_estimate(path, 5, None)

    def test_changed_byte_fails_the_pinned_digest(self, tmp_path):
        path = tmp_path / "estimate.json"
        doc = {"n": 10, "replications": 32768, "master_seed": 0, "greedy_violations": 0}
        path.write_text(json.dumps(doc))
        problems = workloads.check_output(
            workloads.WORKLOADS["estimate-small"], path, workloads.DEFAULT_SEED, None
        )
        assert any("SHA-256" in p for p in problems)

    def test_ratio_order(self, tmp_path):
        path = tmp_path / "ratio.csv"
        argv = ["ratio-table", "--n-list", "100,200", "--reps", "2", "--seed", "3"]
        assert graf_main(argv + ["--workers", "1", "--out", str(path)]) == 0
        assert workloads.check_ratio(path, 3, None) == []

        def swap(rows):
            i, j = rows[0].index("mean_W"), rows[0].index("mean_M")
            rows[1][i], rows[1][j] = rows[1][j], rows[1][i]

        _rewrite_csv(path, swap)
        assert workloads.check_ratio(path, 3, None)

    @pytest.mark.parametrize("bad", ["1.5", "decreasing"])
    def test_nearmax_dimension(self, tmp_path, bad):
        path = tmp_path / "nearmax.csv"
        argv = ["nearmax", "--n", "8,9", "--eps", "0.05,0.1,0.2", "--reps", "2"]
        argv += ["--m-reps", "50", "--seed", "3", "--workers", "1", "--out", str(path)]
        assert graf_main(argv) == 0
        assert workloads.check_nearmax(path, 3, None) == []

        def edit(rows):
            col = rows[0].index("dimension")
            if bad == "decreasing":
                rows[1][col], rows[3][col] = "0.9", "0.1"
            else:
                rows[2][col] = bad

        _rewrite_csv(path, edit)
        assert workloads.check_nearmax(path, 3, None)

    @pytest.mark.parametrize("tamper", ["swap", "value", "drop"])
    def test_enumerate_rows(self, tmp_path, tamper):
        matrix = tmp_path / "m.csv"
        write_matrix_csv(sample_cost_matrix(5, 11), matrix)
        path = tmp_path / "enum.csv"
        assert graf_main(["enumerate", "--input", str(matrix), "--out", str(path)]) == 0
        assert workloads.check_enumerate(path, 11, matrix) == []

        def edit(rows):
            if tamper == "swap":
                rows[5], rows[6] = rows[6], rows[5]
            elif tamper == "value":
                rows[7][1] = repr(float(rows[7][1]) + 1e-6)
            else:
                del rows[-1]

        _rewrite_csv(path, edit)
        assert workloads.check_enumerate(path, 11, matrix)


def _tree(spans, meta=None):
    """Spans from (name, parent, start, end) tuples."""
    table = sorted(set(n for n, *_ in spans))
    return Spans(
        names=table,
        name_id=np.array([table.index(n) for n, *_ in spans], dtype=np.int32),
        parent=np.array([p for _, p, _, _ in spans], dtype=np.int32),
        start=np.array([s for *_, s, _ in spans], dtype=np.int64),
        end=np.array([e for *_, e in spans], dtype=np.int64),
        meta=meta or {},
    )


class TestSpanArithmetic:
    SPANS = [
        ("cli.main", -1, 0, 1000),
        ("montecarlo.estimate", 0, 100, 700),
        ("field.sample_cost_matrix", 1, 150, 250),
        ("solvers.solve_max_exact", 1, 300, 450),
        ("field.Permutation.from_zero_based", 3, 400, 440),
        ("field.Permutation", 4, 410, 430),
        ("serialize.to_json_text", 0, 800, 900),
    ]

    def test_self_time_subtracts_direct_children(self):
        spans = _tree(self.SPANS)
        assert spans.self_time().tolist() == [300, 350, 100, 110, 20, 20, 100]
        assert spans.self_time().sum() == 1000

    def test_layer_self_times_sum_to_the_root(self):
        layers = _tree(self.SPANS).layer_self_s()
        assert layers["cli"] == pytest.approx(300e-9)
        assert layers["field"] == pytest.approx(140e-9)
        assert layers["montecarlo"] == pytest.approx(350e-9)
        assert sum(layers.values()) == pytest.approx(1000e-9)

    def test_nesting_queries(self):
        spans = _tree(self.SPANS)
        assert spans.inside("montecarlo.estimate").tolist() == [
            False, False, True, True, True, True, False,
        ]
        assert spans.parent_named("field.Permutation.from_zero_based").tolist() == [
            False, False, False, False, False, True, False,
        ]

    def test_layer_metrics(self):
        meta = {"import_s": 0.5, "main_ns": 1000, "counters": {}}
        metrics = layer_metrics(_tree(self.SPANS, meta))
        assert metrics["field.perm_s"] == pytest.approx(40e-9)
        assert metrics["field.perm_count"] == 1
        assert metrics["solvers.max_us"] == pytest.approx(0.15)
        assert metrics["serialize.format_s"] == pytest.approx(100e-9)
        assert metrics["trace.self_sum_frac"] == pytest.approx(1.0)

    def test_tracer_records_nesting_and_generator_steps(self):
        tracer = Tracer()

        def leaf():
            return 1

        traced_leaf = tracer.wrap("solvers.leaf", leaf)

        def produce():
            for _ in range(2):
                yield traced_leaf()

        outer = tracer.wrap("enumerator.outer", lambda: sum(tracer.wrap("enumerator.gen", produce)()))
        assert outer() == 2
        names = [tracer.names[i] for i in tracer.name_id]
        assert names == [
            "enumerator.outer", "enumerator.gen", "enumerator.gen.next", "solvers.leaf",
            "enumerator.gen.next", "solvers.leaf", "enumerator.gen.next",
        ]
        assert list(tracer.parent) == [-1, 0, 0, 2, 0, 4, 0]
        assert all(e >= s for s, e in zip(tracer.start, tracer.end))
