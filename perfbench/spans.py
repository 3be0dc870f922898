"""Span arithmetic and the per-layer metrics computed from one traced run.

Spans come from ``tracing.py``.  They nest (one thread, one request), so
a span's self time is its duration minus the summed durations of its
direct children, and the self times of all spans add up to the root's
duration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from tracing import LAYERS

LAYER_NAMES = tuple(dict.fromkeys(LAYERS.values()))

SOLVERS = (
    "solvers.solve_max_exact",
    "solvers.solve_min_exact",
    "solvers.greedy_assignment",
    "solvers.solve_max_bruteforce",
)
PERMUTATION = ("field.Permutation", "field.Permutation.from_zero_based")


@dataclass
class Spans:
    names: list[str]
    name_id: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    meta: dict

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            return cls(
                names=meta["names"],
                name_id=data["name_id"],
                parent=data["parent"],
                start=data["start"],
                end=data["end"],
                meta=meta,
            )

    @property
    def duration(self) -> np.ndarray:
        return (self.end - self.start).astype(np.float64)

    def self_time(self) -> np.ndarray:
        """Per span: duration minus the time its direct children cover (ns)."""
        duration = self.duration
        child = self.parent >= 0
        covered = np.bincount(
            self.parent[child], weights=duration[child], minlength=len(duration)
        )
        return duration - covered

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def total_s(self, *names: str, self_only: bool = False) -> float:
        values = self.self_time() if self_only else self.duration
        return float(values[self.mask(*names)].sum()) / 1e9

    def mean_us(self, name: str, self_only: bool = False) -> float:
        calls = self.count(name)
        return self.total_s(name, self_only=self_only) * 1e6 / calls if calls else 0.0

    def parent_named(self, *names: str) -> np.ndarray:
        """Per span: whether its direct parent has one of ``names``."""
        has_parent = self.parent >= 0
        result = np.zeros(len(self.parent), dtype=bool)
        result[has_parent] = self.mask(*names)[self.parent[has_parent]]
        return result

    def inside(self, *names: str) -> np.ndarray:
        """Per span: whether it starts inside a span with one of ``names``."""
        outer = self.mask(*names)
        starts, ends = self.start[outer], self.end[outer]
        order = np.argsort(starts)
        starts, ends = starts[order], ends[order]
        k = np.searchsorted(starts, self.start, side="right") - 1
        ok = k >= 0
        result = np.zeros(len(self.start), dtype=bool)
        result[ok] = self.start[ok] <= ends[k[ok]]
        return result & ~outer

    def layer_self_s(self) -> dict[str, float]:
        own = self.self_time()
        layer_of = np.array([n.split(".", 1)[0] for n in self.names] or [""])
        span_layer = layer_of[self.name_id] if len(self.name_id) else np.array([])
        return {
            layer: float(own[span_layer == layer].sum()) / 1e9 for layer in LAYER_NAMES
        }


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Per-layer metrics that come from the spans alone."""
    s = spans
    counters = s.meta.get("counters", {})
    metrics: dict[str, float] = {
        "cli.import_s": s.meta["import_s"],
        "cli.parse_ms": s.total_s("cli.parse_args") * 1e3,
        "cli.read_s": s.total_s("field.read_matrix_csv"),
        "field.sample_us": s.mean_us("field.sample_cost_matrix"),
        "field.perm_count": s.count("field.Permutation"),
        "solvers.max_us": s.mean_us("solvers.solve_max_exact"),
        "solvers.min_us": s.mean_us("solvers.solve_min_exact"),
        "solvers.greedy_us": s.mean_us("solvers.greedy_assignment"),
        "solvers.calls": s.count(*SOLVERS),
        "montecarlo.seed_us": s.mean_us("montecarlo.derive_seed"),
        "montecarlo.rep_self_us": s.mean_us("montecarlo.run_replication", self_only=True),
        "montecarlo.accum_us": s.mean_us("montecarlo._BlockAccum.push"),
        "montecarlo.merge_ms": s.total_s("montecarlo._BlockAccum.merge") * 1e3,
        "montecarlo.blocks": s.count("montecarlo._accumulate_block"),
        "montecarlo.reps": s.count("montecarlo.run_replication"),
        "enumerator.perm_table_ms": s.total_s("enumerator.perm_table") * 1e3,
        "enumerator.assignments": counters.get("enumerator.assignments", 0),
        "enumerator.enumerate_field_s": s.total_s(
            "enumerator.enumerate_field", "enumerator.enumerate_field.next"
        ),
        "bounds.mu_ms": s.total_s("bounds.expected_max_iid_gaussian") * 1e3,
        "bounds.quad_calls": s.count("bounds.quad"),
        "serialize.format_s": s.total_s("serialize.to_json_text", "serialize.to_csv_text"),
        "serialize.write_s": s.total_s("serialize.atomic_write_text"),
    }

    # Permutation construction: outermost constructor spans only.
    perm = s.mask(*PERMUTATION) & ~s.parent_named(*PERMUTATION)
    metrics["field.perm_s"] = float(s.duration[perm].sum()) / 1e9

    # Only the max of the nearmax m-pass reaches the output; its min and
    # greedy solves are discarded.
    solves = s.mask(*SOLVERS)
    wasted = solves & s.inside("enumerator.nearmax_table") & ~s.mask("solvers.solve_max_exact")
    calls = int(solves.sum())
    metrics["montecarlo.useful_solve_frac"] = (calls - int(wasted.sum())) / calls if calls else 0.0

    # One raw_sum_blocks generator walks one matrix; perm_table builds
    # nested in its first step are excluded (they have their own metric).
    matrices = s.count("enumerator.raw_sum_blocks")
    raw_sum_s = s.total_s(
        "enumerator.raw_sum_blocks", "enumerator.raw_sum_blocks.next", self_only=True
    )
    count_s = s.total_s("enumerator.nearmax_table", self_only=True)
    metrics["enumerator.raw_sum_ms_per_matrix"] = raw_sum_s * 1e3 / matrices if matrices else 0.0
    metrics["enumerator.count_self_ms_per_matrix"] = count_s * 1e3 / matrices if matrices else 0.0
    mpass = s.mask("montecarlo.estimate") & s.parent_named("enumerator.nearmax_table")
    metrics["enumerator.mpass_s"] = float(s.duration[mpass].sum()) / 1e9

    layer_s = s.layer_self_s()
    for layer, value in layer_s.items():
        metrics[f"{layer}.self_s"] = value
    # Traced compute time comes from a clock read around main() outside
    # the spans, so this share shows any time the layer spans miss.
    metrics["trace.compute_s"] = s.meta["main_ns"] / 1e9
    metrics["trace.self_sum_frac"] = sum(layer_s.values()) / metrics["trace.compute_s"]
    return metrics
