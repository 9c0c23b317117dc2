"""Spans around calls into chancap, installed from outside the package.

A hook replaces one function or method the package already has with a
wrapper that times each call and charges the duration to the enclosing
span, so every span also has a self time (its duration minus its child
spans).  A counter hook only counts calls.  Plain functions are replaced
under every name a loaded ``chancap`` module binds them to, so a call is
seen whichever module it goes through.  A hook whose target does not exist
is reported as absent and the run goes on without it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

_MISSING = object()


@dataclass(frozen=True)
class Hook:
    """``targets`` lists (module, attribute path) candidates; the first that
    exists is hooked.  ``kind`` is "span" or "count".  ``on_return`` sees
    (tracer, args, kwargs, result, seconds) after each span call; ``inside``
    restricts a counter to calls made directly inside that span."""

    name: str
    targets: tuple[tuple[str, str], ...]
    kind: str = "span"
    on_return: Callable | None = None
    inside: str | None = None


def _resolve(module: str, path: str):
    obj = sys.modules.get(module)
    if obj is None:
        return None, None, None
    *owners, attr = path.split(".")
    for part in owners:
        obj = getattr(obj, part, None)
        if obj is None:
            return None, None, None
    fn = getattr(obj, attr, None)
    return (obj, attr, fn) if callable(fn) else (None, None, None)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.events = defaultdict(list)
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def self_s(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def _span(self, hook: Hook, fn):
        name, on_return = hook.name, hook.on_return
        stack, clock = self._stack, self.clock
        calls, total, child = self.calls, self.total, self.child

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                total[name] += dt
                child[name] += frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_return is not None:
                on_return(self, args, kwargs, result, dt)
            return result

        return wrapper

    def _counter(self, hook: Hook, fn):
        name, inside, stack, calls = hook.name, hook.inside, self._stack, self.calls

        def wrapper(*args, **kwargs):
            if inside is None or (stack and stack[-1][0] == inside):
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def install(self, hooks):
        for hook in hooks:
            for module, path in hook.targets:
                owner, attr, fn = _resolve(module, path)
                if fn is not None:
                    break
            else:
                self.absent.append(".".join(hook.targets[0]))
                continue
            wrapped = (self._span if hook.kind == "span" else self._counter)(hook, fn)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "chancap" and not mod_name.startswith("chancap."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
