"""Outside-in tracer: wraps invarcdf's public functions from the benchmark.

Every name in a layer module's ``__all__`` (public functions for ``cli``,
which has no ``__all__``) that is a function is wrapped, plus a few hot
methods.  Modules import names with ``from .x import y``, so each wrapper is
bound wherever any invarcdf module binds the original.  Spans live in memory
as ``[name, start, end, parent, task]`` and are written out at the end.
"""

import gzip
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "sampling", "risk", "estimator", "model", "special")
METHODS = {
    "model": (("Transform", "eval"), ("Transform", "inverse"), ("WeightFunction", "eval"), ("LossSpec", "rho_eval")),
    "risk": (("Sampler", "ppf"), ("Sampler", "cdf")),
}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n, obj in vars(module).items() if not n.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__]
    return [n for n in names if inspect.isfunction(getattr(module, n))]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = defaultdict(int)
        self.task = None
        self._stack = []
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        pkg = self.package
        modules = [pkg] + [getattr(pkg, m) for m in ("errors",) + LAYERS]
        self._divergent_integral = pkg.errors.DivergentIntegral
        for layer in LAYERS:
            module = getattr(pkg, layer)
            for name in _public_functions(module):
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.task]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except self._divergent_integral:
                if name == "special.quad_beta_weighted":
                    counts[name + ".divergent"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            self._observe(name, fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _observe(self, name, fn, args, kwargs, result):
        if name == "special.quad_beta_weighted" and not result.converged:
            self.counts[name + ".nonconverged"] += 1
        elif name == "risk.invariant_risk" and result.divergent:
            self.counts[name + ".divergent"] += 1
        elif name == "special.inv_reg_inc_beta":
            p = inspect.signature(fn).bind(*args, **kwargs).arguments["p"]
            self.counts[name + ".points"] += int(getattr(p, "size", 1))  # an array or a scalar
        elif name == "risk.mc_risk":
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts[name + ".reps"] += int(bound.arguments["reps"])

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Span duration minus the part of it covered by child spans."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[span[3]].append((span[1], span[2]))
        out = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def summary(self):
        """Per function and per layer: calls, self_s, inclusive_s; plus counters."""
        stats = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            name = span[0]
            layer = name.split(".")[0]
            for key in (name, layer):
                stats[key + ".calls"] += 1
                stats[key + ".self_s"] += self_s
            stats[name + ".inclusive_s"] += span[2] - span[1]
        for key, value in self.counts.items():
            stats[key] += value
        return stats

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "task"], "spans": self.spans}, fh)
