"""Spans and probes installed from outside the program.

``Patches`` replaces a callable at every site that holds it: the module
that defines it and every ``stylecat`` module that imported it by name
(``train.py`` imports ``embed_image``, ``backward``, ``ddpm_train_step`` and
the losses that way). ``restore`` puts every original object back.

``Tracer`` wraps the public functions and methods of the layer modules
and accumulates, per callable, the call count, inclusive time and self
time (inclusive time minus the part covered by traced callees). The
program is single-threaded, so one stack of open spans is enough.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time

LAYER_MODULES = ("tensor", "backbone", "encoders", "losses", "captions",
                 "diffusion", "train", "datagen", "checkpoint")

# Public functions of ``tensor`` that are not differentiable ops.
TENSOR_NON_OPS = frozenset({"backward", "no_grad", "finite_diff_grad", "relative_error"})


def program_modules():
    """Every imported module of the ``stylecat`` package, the package too."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "stylecat" or name.startswith("stylecat."))]


class Patches:
    """Attribute replacements that can all be undone, last first."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def replace_everywhere(self, original, replacement) -> int:
        """Replace ``original`` in every program module that holds it."""
        sites = 0
        for module in program_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, name, replacement)
                    sites += 1
        return sites

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def layer_callables():
    """``{key: (owner, name, function)}`` for every public layer callable.

    Keys are ``module.function`` or ``module.Class.method``. Class methods
    live on one owner; module functions may also be imported elsewhere.
    """
    found = {}
    for mod_name in LAYER_MODULES:
        module = importlib.import_module(f"stylecat.{mod_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{mod_name}.{name}"] = (module, name, obj)
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        found[f"{mod_name}.{name}.{meth}"] = (obj, meth, fn)
    return found


class Stats:
    """Per-callable ``[calls, inclusive_s, self_s]`` plus distinct-input sets."""

    def __init__(self):
        self.table: dict[str, list] = {}
        self.distinct: dict[str, set] = {}

    def calls(self, *keys) -> int:
        return sum(self.table[k][0] for k in keys if k in self.table)

    def incl_ms(self, *keys) -> float:
        return 1000.0 * sum(self.table[k][1] for k in keys if k in self.table)

    def self_ms(self, *keys) -> float:
        return 1000.0 * sum(self.table[k][2] for k in keys if k in self.table)

    def distinct_ratio(self, key) -> float:
        calls = self.calls(key)
        return len(self.distinct.get(key, ())) / calls if calls else 0.0


class Tracer:
    """Install with ``with Tracer(stats, distinct_keys):``.

    ``distinct_keys`` maps a callable key to a function of its call
    arguments returning a hashable input identity.
    """

    def __init__(self, stats: Stats, distinct_keys=None):
        self.stats = stats
        self.distinct_keys = distinct_keys or {}
        self._open: list[float] = []  # child time of each open span
        self._patches = Patches()

    def _wrap(self, key, fn):
        row = self.stats.table.setdefault(key, [0, 0.0, 0.0])
        open_spans = self._open
        clock = time.perf_counter
        key_of = self.distinct_keys.get(key)
        seen = self.stats.distinct.setdefault(key, set()) if key_of else None

        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(key_of(args, kwargs))
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_spans.pop()
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - child
                if open_spans:
                    open_spans[-1] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def __enter__(self):
        for key, (owner, name, fn) in layer_callables().items():
            wrapped = self._wrap(key, fn)
            if inspect.ismodule(owner):
                self._patches.replace_everywhere(fn, wrapped)
            else:
                self._patches.replace(owner, name, wrapped)
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        self._open.clear()


class StepClock:
    """Step periods per phase, from the times at which the per-step call is entered.

    A period belongs to the phase of the tick that ends it. ``cut`` starts
    a new segment, so the gap between two stage calls is never counted as
    a step. A ``gauge`` (``reference.HostGauge``) gets the chance to time
    its kernel at each tick; the time it takes is left out of the periods.
    """

    def __init__(self, gauge=None):
        self.periods: dict[str, list[float]] = {}
        self.gauge = gauge
        self._last = None

    def tick(self, phase: str) -> None:
        now = time.perf_counter()
        if self._last is not None:
            self.periods.setdefault(phase, []).append(now - self._last)
        self._last = now
        if self.gauge is not None and self.gauge.maybe_sample():
            self._last = time.perf_counter()

    def cut(self) -> None:
        self._last = None


def _current(mod_name: str, name: str):
    return getattr(importlib.import_module(f"stylecat.{mod_name}"), name)


def step_probes(clock: StepClock, targets) -> Patches:
    """Patch each ``(phase, module, name)`` target at every site to tick ``clock``.

    Installed after a ``Tracer``, the probe wraps the tracing wrapper, and
    its ``restore`` puts that wrapper back.
    """
    patches = Patches()
    for phase, mod_name, name in targets:
        current = _current(mod_name, name)

        def probe(*args, _fn=current, _phase=phase, **kwargs):
            clock.tick(_phase)
            return _fn(*args, **kwargs)

        if patches.replace_everywhere(current, probe) == 0:
            raise RuntimeError(f"step probe found no site for stylecat.{mod_name}.{name}")
    return patches


@contextlib.contextmanager
def captured(mod_name: str, name: str):
    """Collect, in call order, what ``stylecat.<mod_name>.<name>`` returns while open.

    Patched at every site, like a step probe, so calls the program makes
    through names it imported are collected too.
    """
    results = []
    current = _current(mod_name, name)

    def capture(*args, **kwargs):
        out = current(*args, **kwargs)
        results.append(out)
        return out

    with Patches() as patches:
        if patches.replace_everywhere(current, capture) == 0:
            raise RuntimeError(f"capture found no site for stylecat.{mod_name}.{name}")
        yield results
