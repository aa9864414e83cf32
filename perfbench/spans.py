"""Per-layer tracing for the genocchi package, installed from outside.

Every public function of every genocchi module is replaced by a wrapper
that times the call as a span nested in its caller's span. Modules bind
their dependencies with `from ... import ...`, so the wrapper is installed
under every name that refers to the function, in every module: the
package namespace, the defining module and each module that imported it.
Spans are aggregated in memory per function (calls, total and self time);
a span's self time is its duration minus the time of the spans it called.

Hooks add counts computed from the sizes of arguments and results at the
same boundaries. They repeat exactly for the same inputs.
"""

from __future__ import annotations

import importlib
import inspect
import os
from time import perf_counter

MODULES = ("exact", "series", "special", "verify", "cache", "cli")


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {
            "series.terms": 0,
            "special.gen_genocchi_table.coeffs": 0,
            "special.bernoulli_table.entries": 0,
            "special.max_coeff_bits": 0,
            "verify.points": 0,
            "verify.columns_built": 0,
            "verify.columns_distinct": 0,
            "cache.bytes_read": 0,
            "cache.bytes_written": 0,
            "cache.get_or_build_hits": 0,
            "cli.render.bytes": 0,
        }
        self._stack: list[list] = []  # [name, child seconds, notes]
        self._op_columns: set[tuple[int, int]] = set()
        self._patches: list[tuple[object, str, object]] = []

    # installation -------------------------------------------------------

    def install(self, package) -> None:
        modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES}
        namespaces = [package, *modules.values()]
        hooks = self._hooks()
        for short, module in modules.items():
            for fname, fn in inspect.getmembers(module, inspect.isfunction):
                if fname.startswith("_") or fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{fname}"
                wrapper = self._wrap(name, fn, hooks.get(name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patches):
            setattr(ns, attr, fn)
        self._patches.clear()

    def _wrap(self, name, fn, hook):
        stack = self._stack
        self.calls[name] = 0
        self.total_s[name] = 0.0
        self.self_s[name] = 0.0
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, None]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(args, kwargs, result, frame)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # counters -----------------------------------------------------------

    def _hooks(self):
        counts = self.counts

        def note_parent(key):
            if self._stack:
                notes = self._stack[-1][2] or set()
                notes.add(key)
                self._stack[-1][2] = notes

        def in_run_grid() -> bool:
            return any(f[0] == "verify.run_grid" for f in self._stack)

        def column_built(a, n_max, values):
            counts["special.max_coeff_bits"] = max(
                counts["special.max_coeff_bits"], max(abs(v).bit_length() for v in values)
            )
            if in_run_grid():
                counts["verify.columns_built"] += 1
                self._op_columns.add((a, n_max))

        def series_mul(args, kwargs, result, frame):
            n = _arg(args, kwargs, 0, "f").order
            counts["series.terms"] += (n + 1) * (n + 2) // 2

        def series_reciprocal(args, kwargs, result, frame):
            n = _arg(args, kwargs, 0, "f").order
            counts["series.terms"] += n * (n + 1) // 2

        def gen_genocchi_table(args, kwargs, result, frame):
            counts["special.gen_genocchi_table.coeffs"] += len(result)
            column_built(_arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "n_max"), result)

        def genocchi_table(args, kwargs, result, frame):
            column_built(2, _arg(args, kwargs, 0, "n_max"), result)

        def bernoulli_table(args, kwargs, result, frame):
            counts["special.bernoulli_table.entries"] += len(result.values)
            note_parent("built")

        def run_grid(args, kwargs, result, frame):
            counts["verify.points"] += result.checked

        def load(args, kwargs, result, frame):
            counts["cache.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
            note_parent("loaded")

        def save(args, kwargs, result, frame):
            counts["cache.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

        def get_or_build(args, kwargs, result, frame):
            notes = frame[2] or set()
            if "loaded" in notes and "built" not in notes:
                counts["cache.get_or_build_hits"] += 1

        def render(args, kwargs, result, frame):
            counts["cli.render.bytes"] += len(result)

        def main(args, kwargs, result, frame):
            counts["verify.columns_distinct"] += len(self._op_columns)
            self._op_columns.clear()

        hooks = {
            "series.series_mul": series_mul,
            "series.series_reciprocal": series_reciprocal,
            "special.gen_genocchi_table": gen_genocchi_table,
            "special.genocchi_table": genocchi_table,
            "special.bernoulli_table": bernoulli_table,
            "verify.run_grid": run_grid,
            "cache.load_bernoulli_cache": load,
            "cache.save_bernoulli_cache": save,
            "cache.get_or_build": get_or_build,
            "cli.main": main,
        }
        for fmt in ("bernoulli_csv", "bernoulli_json", "genocchi_csv", "genocchi_json",
                    "reports_csv", "reports_json"):
            hooks[f"cli.render_{fmt}"] = render
        return hooks

    # read-out -----------------------------------------------------------

    def module_self_s(self, module: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(module + "."))
