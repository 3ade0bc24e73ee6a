"""Run one ``repro`` CLI command with span recorders around each layer.

Usage::

    python perfbench/trace_boot.py SPANS.json -- scenario sweep spec.json ...

An import hook wraps the entry points listed in :mod:`layers` as each
``repro`` module finishes executing, and rebinds the name in every
``repro`` module that imported it, so nothing is imported earlier than
the command itself would import it.  The bootstrap then imports
``repro.cli`` and calls ``repro.cli.main(argv)``.  Spans stay in memory
and are written to ``SPANS.json`` when the command ends; the process
exits with the command's exit code.
"""

import time

_STARTED_NS = time.perf_counter_ns()

import functools  # noqa: E402
import importlib.machinery  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import layers  # noqa: E402


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []

    @contextmanager
    def span(self, metric: str):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([metric, time.perf_counter_ns(), 0, parent])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def wrap(self, function, metric: str, counter):
        span = self.span
        counters = self.counters

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with span(metric):
                result = function(*args, **kwargs)
            if counter is not None:
                for name, value in counter(args, kwargs, result).items():
                    counters[name] = counters.get(name, 0) + value
            return result

        return traced

    def to_dict(self, ended_ns: int) -> dict:
        return {
            "started_ns": _STARTED_NS,
            "ended_ns": ended_ns,
            "spans": self.spans,
            "counters": self.counters,
            "missing": self.missing,
        }


class PatchingFinder:
    """Meta-path finder that patches ``repro`` modules after they execute."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.targets: dict[str, list[tuple[str, str, object]]] = {}
        for module, path, metric, counter in layers.ENTRY_POINTS:
            self.targets.setdefault(module, []).append((path, metric, counter))
        #: id(original function) -> (original, wrapper), for rebinding.
        self.replaced: dict[int, tuple[object, object]] = {}

    def find_spec(self, fullname, path, target=None):
        if fullname.partition(".")[0] != "repro":
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or not hasattr(spec.loader, "exec_module"):
            return spec
        execute = spec.loader.exec_module

        def exec_module(module):
            execute(module)
            self.patch(module)

        spec.loader.exec_module = exec_module
        return spec

    def patch(self, module) -> None:
        for path, metric, counter in self.targets.get(module.__name__, ()):
            owner = module
            *parents, attribute = path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
            raw = vars(owner).get(attribute) if owner is not None else None
            if raw is None:
                self.recorder.missing.append(f"{module.__name__}.{path}")
                continue
            function = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = self.recorder.wrap(function, metric, counter)
            self.replaced[id(function)] = (function, wrapper)
            setattr(
                owner,
                attribute,
                classmethod(wrapper) if isinstance(raw, classmethod) else wrapper,
            )
        self.rebind(module)

    def rebind(self, module) -> None:
        """Point names this module imported from patched modules at wrappers."""
        namespace = vars(module)
        for name, value in list(namespace.items()):
            hit = self.replaced.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[name] = hit[1]

    def rebind_all(self) -> None:
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "repro" and module is not None:
                self.rebind(module)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, argv = sys.argv[1], sys.argv[3:]
    recorder = Recorder()
    finder = PatchingFinder(recorder)
    sys.meta_path.insert(0, finder)
    code = 1
    try:
        with recorder.span(layers.IMPORT_METRIC):
            with recorder.span(layers.NUMPY_IMPORT_METRIC):
                import numpy  # noqa: F401
            import repro.cli
        finder.rebind_all()
        code = repro.cli.main(argv)
    finally:
        ended = time.perf_counter_ns()
        with open(spans_path, "w") as stream:
            json.dump(recorder.to_dict(ended), stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
