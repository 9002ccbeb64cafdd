"""Per-layer spans recorded from outside the program.

A layer is a module of the ``levyfourier`` package, plus ``model.mu`` for the
jump densities the benchmark builds. The tracer finds, by reading each
module's bytecode, every global name its functions load that is bound to a
function defined in another package module, and replaces that binding with a
wrapper that records a span. Nothing is listed by hand, so functions may be
renamed, merged or deleted without touching this file. Classes are never
wrapped: replacing one breaks ``isinstance`` checks and alternate
constructors such as ``EulerParams.from_theorem``.
"""
from __future__ import annotations

import dis
import functools
import inspect
import pkgutil
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("solver", "de_ft", "nufft", "sinc_gauss", "euler_ft", "numkit", "cli",
          "model.mu")


def _code_objects(code):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from _code_objects(const)


def loaded_globals(module) -> set:
    """Global names loaded inside the functions (not the top level) of a module."""
    top = compile(inspect.getsource(module), module.__file__, "exec")
    return {ins.argval for code in _code_objects(top)
            for ins in dis.get_instructions(code) if ins.opname == "LOAD_GLOBAL"}


def package_modules(package) -> list:
    """Every submodule of the package, imported."""
    return [__import__(info.name, fromlist=["_"])
            for info in pkgutil.iter_modules(package.__path__, package.__name__ + ".")]


def cross_module_calls(module, package_name: str) -> list:
    """(name, function, layer) for each function of another package module
    that the functions of ``module`` load by a global name."""
    prefix = package_name + "."
    found = []
    for name in sorted(loaded_globals(module)):
        obj = vars(module).get(name)
        home = getattr(obj, "__module__", None) or ""
        if (callable(obj) and not isinstance(obj, type) and home.startswith(prefix)
                and home != module.__name__):
            found.append((name, obj, home[len(prefix):]))
    return found


class Tracer:
    """Self time and call count per layer, accumulated while installed and
    ``recording``. ``extra_modules`` are the benchmark's own callers.

    A span's self time is its duration minus the time its child spans cover;
    ``covered_s`` is the time covered by spans that have no parent, so the
    recorded request time minus ``covered_s`` is the part no layer claims.
    """

    def __init__(self, package, extra_modules=()):
        self.recording = False
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.covered_s = 0.0
        self.exponent_cached = []
        self._open = []
        self.targets = [(module, name, fn, self.wrap(layer, fn))
                        for module in [*package_modules(package), *extra_modules]
                        for name, fn, layer in cross_module_calls(module, package.__name__)]

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = self._open.pop()
                self.self_s[layer] += duration - children
                self.calls[layer] += 1
                if self._open:
                    self._open[-1] += duration
                else:
                    self.covered_s += duration
            timings = getattr(result, "timings", None)
            if isinstance(timings, dict) and "exponent_cached" in timings:
                self.exponent_cached.append(bool(timings["exponent_cached"]))
            return result
        return span

    def install(self):
        """Bind every wrapper in place of the function it wraps."""
        for module, name, _, span in self.targets:
            setattr(module, name, span)

    def uninstall(self):
        for module, name, fn, _ in self.targets:
            setattr(module, name, fn)
