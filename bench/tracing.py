"""Spans around the package's public functions, for the traced run.

``Tracer.patch()`` replaces each traced function in every lltgraphs module
that binds its name (``llt_poly``, for one, is imported by name into cli,
wgraph and chromatic), so calls made through any of those names are seen.
Spans are aggregated as they close: per name, the number of calls, the
inclusive time and the self time, which is the span's time minus the time of
its child spans.  Nothing in the package is edited; the patch is undone on
exit.
"""

import sys
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter

# (module, function, extra counter, how to count it from the return value)
TRACED = [
    ("cli", "run_verify", None, None),
    ("llt", "llt_poly", "terms", len),
    ("qsymfunc", "to_basis", None, None),
    ("qsymfunc", "eval_basis", None, None),
    ("wgraph", "pi_graph", None, None),
    ("wgraph", "canonical_form", None, None),
    ("structure", "similarity_witness", "found", lambda moves: int(moves is not None)),
    ("structure", "local_rotate", None, None),
    ("chromatic", "chrom_quasisym", None, None),
    ("chromatic", "path_llt_h_expansion", None, None),
]


class Stat:
    __slots__ = ("calls", "s", "self_s", "extra")

    def __init__(self):
        self.calls, self.s, self.self_s, self.extra = 0, 0.0, 0.0, 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._children: list[list[float]] = []

    def reset(self):
        self.stats = {}

    def _close(self, name: str, started: float, child: list[float]) -> Stat:
        elapsed = perf_counter() - started
        self._children.pop()
        if self._children:
            self._children[-1][0] += elapsed
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.s += elapsed
        stat.self_s += elapsed - child[0]
        return stat

    @contextmanager
    def span(self, name: str):
        child = [0.0]
        self._children.append(child)
        started = perf_counter()
        try:
            yield
        finally:
            self._close(name, started, child)

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            child = [0.0]
            self._children.append(child)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat = self._close(name, started, child)
            if count is not None:
                stat.extra += count(result)
            return result

        return traced

    @contextmanager
    def patch(self):
        """Route every binding of the traced functions through spans."""
        undo = []
        modules = [m for key, m in list(sys.modules.items())
                   if key == "lltgraphs" or key.startswith("lltgraphs.")]
        try:
            for module_name, func_name, _, count in TRACED:
                original = getattr(import_module(f"lltgraphs.{module_name}"), func_name)
                wrapper = self.wrap(f"{module_name}.{func_name}", original, count)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            undo.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def layer_metrics(self, out_bytes: int) -> dict[str, float]:
        """Per-layer metrics of one traced round, named module.function.what."""

        def get(name):
            return self.stats.get(name) or Stat()

        out = {"cli.self_s": get("cli").self_s, "cli.out_bytes": out_bytes,
               "cli.run_verify.self_s": get("cli.run_verify").self_s}
        for module_name, func_name, extra, _ in TRACED:
            name = f"{module_name}.{func_name}"
            stat = get(name)
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.s"] = stat.s
            out[f"{name}.self_s"] = stat.self_s
            if extra:
                out[f"{name}.{extra}"] = stat.extra
        return out
