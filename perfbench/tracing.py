"""Per-function call counts and self time, measured from outside the program.

The tracer replaces module-level functions of qsdecert with timing wrappers,
in every module that bound the function by name, and restores them on
`uninstall`. Calls and time are aggregated per layer name instead of kept
as one span per call (one elimination pipeline makes hundreds of thousands
of 2x2 exponential calls). A layer's self time is its time minus
the time of the wrapped calls made inside it, all in process CPU time like
the end-to-end figures. The wrappers keep one call stack, so the traced
process must run the program on one thread.
"""

from __future__ import annotations

import sys
import time

# (layer name, module, attribute). Several attributes may share one layer.
TARGETS = [
    ("cli.main", "cli", "main"),
    ("models.build", "models", "kerr_cavity"),
    ("models.build", "models", "atom_cavity"),
    ("models.build", "models", "truncate"),
    ("models.build", "models", "model_from_json"),
    ("operators.matexp", "operators", "matexp"),
    ("operators.opnorm", "operators", "opnorm"),
    ("semigroup.generator", "semigroup", "generator"),
    ("semigroup.propagate", "semigroup", "propagate"),
    ("semigroup.refine_common", "semigroup", "refine_common"),
    ("states.cost", "states", "cost"),
    ("states.solve", "states", "_solve_coefficients"),
    ("states.expm2", "states", "_expm2"),
    ("states.expm_dense", "states", "_expm"),
    ("truncation.z_bound", "truncation", "z_bound"),
    ("truncation.interval_sum", "truncation", "interval_sum"),
    ("truncation.theorem_bound", "truncation", "theorem_bound"),
    ("adiabatic.m_constants", "adiabatic", "m_constants"),
    ("adiabatic.ae_theorem_bound", "adiabatic", "ae_theorem_bound"),
]

LAYERS = sorted({name for name, _, _ in TARGETS} | {"states.minimize"})


class Stat:
    __slots__ = ("calls", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.work = 0


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name in LAYERS}
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, record=None):
        stat = self.stats[name]
        stack = self._stack
        clock = time.process_time

        def wrapper(*args, **kwargs):
            if record is not None and not record(args):
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stat.calls += 1
                stat.self_s += dt - inner
                if stack:
                    stack[-1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and n.startswith("qsdecert")]
        for name, mod_name, attr in TARGETS:
            orig = getattr(sys.modules[f"qsdecert.{mod_name}"], attr)
            record = None
            if name == "operators.matexp":
                matexp_stat = self.stats[name]

                def record(args, stat=matexp_stat):
                    stat.work += args[0].shape[0] ** 3
                    return True
            elif name == "states.expm_dense":
                def record(args):
                    return args[0].shape != (2, 2)
            wrapped = self._wrap(name, orig, record)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        # The searches reach Nelder-Mead through the scipy.optimize module.
        states = sys.modules["qsdecert.states"]
        orig = states.scipy.optimize.minimize
        self._patched.append((states.scipy.optimize, "minimize", orig))
        states.scipy.optimize.minimize = self._wrap("states.minimize", orig)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()


def call_cost(n=20000):
    """CPU seconds one traced call adds over a plain call of the same function."""
    def noop():
        return None

    wrapped = Tracer()._wrap("cli.main", noop)
    t0 = time.process_time()
    for _ in range(n):
        noop()
    t1 = time.process_time()
    for _ in range(n):
        wrapped()
    t2 = time.process_time()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)
