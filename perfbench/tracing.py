"""Outside-in tracing of one ``graf`` CLI run, from the benchmark's own files.

Usage: ``python3 tracing.py SPANS_FILE GRAF_ARGS...``

The script times ``import graf.cli``, wraps the public functions of the
seven layers (and the few methods the per-layer metrics need) by
rebinding every reference to them in the ``graf`` modules, runs
``graf.cli.main(argv)`` in this process and saves the spans to
SPANS_FILE (``.npz``).  Nothing in ``graf`` itself changes.

A span is one call: its name, start and end (``perf_counter_ns``) and
the index of the enclosing span.  A function that returns a generator
gets one more span per ``next()`` step, named ``<name>.next``, so the
time spent producing items is attributed to the generator's layer and
the time spent consuming them to the caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from array import array
from collections import Counter

#: Module -> layer whose name its spans carry.
LAYERS = {
    "graf.cli": "cli",
    "graf.field": "field",
    "graf.solvers": "solvers",
    "graf.montecarlo": "montecarlo",
    "graf.enumerator": "enumerator",
    "graf._permutations": "enumerator",
    "graf.bounds": "bounds",
    "graf.serialize": "serialize",
}

#: Public functions left unwrapped: per-cell formatting runs once per CSV
#: value, and its time is serialize self time either way.
SKIP = {"graf.serialize.fmt"}

#: Non-public callables the per-layer metrics need, as (module, attribute path).
EXTRA = [
    ("graf._permutations", "perm_table"),
    ("graf._permutations", "raw_sum_blocks"),
    ("graf.montecarlo", "_accumulate_block"),
    ("graf.montecarlo", "_BlockAccum.push"),
    ("graf.montecarlo", "_BlockAccum.merge"),
    ("graf.field", "Permutation.__init__"),
    ("graf.field", "Permutation.from_zero_based"),
    ("graf.field", "Permutation.to_text"),
]

#: Items counted as they leave a traced generator: span name -> (counter, size).
ITEM_COUNTERS = {
    "enumerator.raw_sum_blocks": ("enumerator.assignments", lambda item: len(item[2])),
}


class Tracer:
    """In-memory span recorder: four flat arrays, 24 bytes a span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter[str] = Counter()
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one span per call."""
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack,
        )
        clock = time.perf_counter_ns
        steps = self._steps

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if isinstance(result, types.GeneratorType):
                return steps(name, result)
            return result

        return traced

    def _steps(self, name: str, gen):
        nid = self._id(name + ".next")
        counter, size = ITEM_COUNTERS.get(name, (None, None))
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack,
        )
        clock = time.perf_counter_ns
        while True:
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                self.counters[counter] += size(item)
            yield item

    def save(self, path: str, meta: dict) -> None:
        import numpy as np

        meta = dict(meta, names=self.names, counters=dict(self.counters))
        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            meta=np.array(json.dumps(meta)),
        )


def _rebind(original, replacement) -> None:
    """Point every reference to ``original`` in the graf modules at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "graf" or mod_name.startswith("graf."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _targets():
    """Yield (module name, owner, attribute, callable) for everything traced."""
    for mod_name in LAYERS:
        module = sys.modules[mod_name]
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == mod_name
                and f"{mod_name}.{attr}" not in SKIP
            ):
                yield mod_name, module, attr, value
    for mod_name, path in EXTRA:
        owner = sys.modules[mod_name]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is not None and attr in vars(owner):
            yield mod_name, owner, attr, vars(owner)[attr]


def instrument(tracer: Tracer) -> None:
    """Wrap every traced callable of the loaded graf modules."""
    import graf.bounds

    for mod_name, owner, attr, value in list(_targets()):
        qualname = attr if isinstance(owner, types.ModuleType) else f"{owner.__name__}.{attr}"
        if qualname == "Permutation.__init__":
            qualname = "Permutation"
        name = f"{LAYERS[mod_name]}.{qualname}"
        if isinstance(value, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, value.__func__)))
        elif isinstance(owner, types.ModuleType):
            _rebind(value, tracer.wrap(name, value))
        else:
            setattr(owner, attr, tracer.wrap(name, value))
    # Count quadratures where bounds calls into scipy.
    graf.bounds.quad = tracer.wrap("bounds.quad", graf.bounds.quad)


def main(argv: list[str]) -> int:
    spans_path, graf_argv = argv[0], argv[1:]
    began = time.perf_counter_ns()
    import graf.cli  # loads every layer

    import_s = (time.perf_counter_ns() - began) / 1e9
    tracer = Tracer()
    instrument(tracer)
    before = time.perf_counter_ns()
    status = graf.cli.main(graf_argv)
    after = time.perf_counter_ns()
    tracer.save(
        spans_path,
        {"status": status, "import_s": import_s, "main_ns": after - before},
    )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
