"""Per-layer tracing: a span around every call into a module's public functions.

The layers are the modules of `wedderburn`.  Every public function of a
layer (a module-level function whose name has no leading underscore and
that the module defines itself) is replaced by a wrapper that times the
call.  The modules import one another's functions by name, so the wrapper
is installed under every name, in every module, that holds the function.
Methods are not wrapped; their time counts toward the function that
called them.

A span's self time is its duration minus the time its child spans cover,
so the self times of all spans plus the time outside any span add up to
the traced wall time.  Spans are not stored one by one: each function
keeps running sums (calls, total seconds, self seconds), which is all the
metrics need.

`FieldElt` constructions are counted apart, by `counting_elements`, in a
pass of their own: a counter on every construction would slow the traced
passes by up to 40 % and land in the self time of the layers that build
elements.
"""

import contextlib
import importlib
import inspect
import threading
import time
import types

LAYERS = ("fields", "polys", "cyclotomic", "groups", "decompose",
          "idempotents", "oracle", "battery", "cli")

# named groups of functions whose self times are reported together
GROUPS = {
    "decompose.decompose": ("decompose.decompose", "decompose.decompose_split",
                            "decompose.decompose_nonsplit"),
    "oracle.center": ("oracle.center_basis", "oracle.center_dimension",
                      "oracle.component_count"),
    "oracle.element_checks": ("oracle.is_idempotent", "oracle.is_central",
                              "oracle.are_orthogonal", "oracle.sums_to_one"),
}


def _modules():
    pkg = importlib.import_module("wedderburn")
    return [pkg] + [importlib.import_module(f"wedderburn.{name}") for name in LAYERS]


def _public_functions(module):
    """name -> function for the functions this module defines and exports."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj):
            continue
        target = getattr(obj, "__wrapped__", obj)  # lru_cache keeps the function here
        if inspect.isfunction(target) and target.__module__ == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Installs the wrappers on construction; `stats` holds the running sums."""

    def __init__(self):
        self.stats = {}            # "layer.function" -> [calls, total_s, self_s]
        self._local = threading.local()
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"wedderburn.{layer}")
            for name, fn in _public_functions(module).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for module in _modules():
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, name, wrappers[id(obj)])

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, qualname, fn):
        rec = self.stats.setdefault(qualname, [0, 0.0, 0.0])
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def self_s(self, *qualnames):
        return sum(self.stats.get(q, (0, 0.0, 0.0))[2] for q in qualnames)

    def layer_self_s(self, layer):
        return sum(rec[2] for q, rec in self.stats.items()
                   if q.split(".")[0] == layer)

    def calls(self, qualname):
        return self.stats.get(qualname, (0, 0.0, 0.0))[0]

    def total_s(self, qualname):
        return self.stats.get(qualname, (0, 0.0, 0.0))[1]

    def all_self_s(self):
        return sum(rec[2] for rec in self.stats.values())


@contextlib.contextmanager
def counting_elements():
    """Count `FieldElt` constructions while the block runs."""
    from wedderburn.fields import FieldElt

    init = FieldElt.__init__
    count = types.SimpleNamespace(built=0)

    def counting_init(self, field, rep):
        count.built += 1
        init(self, field, rep)

    FieldElt.__init__ = counting_init
    try:
        yield count
    finally:
        FieldElt.__init__ = init
