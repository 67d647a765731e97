"""In-memory tracing of the taut3 package from outside it.

`Tracer.install()` wraps every public function of every `taut3` module, and
every public method of the classes those modules define, at each name a
caller looks it up by: the module attribute, every `from x import f` binding
in other taut3 modules, and the values of `taut3.cli.PIPELINES`.
`uninstall()` restores the originals; `tracing(op_id)` does both around one op.

Two kinds of wrapper:
- span: one record (name, start, end, parent span, op id) per call, kept in
  memory; self time is derived after the run as duration minus the time
  covered by child spans and kernels.
- kernel (the `taut3.su2` functions, called ~10^5 times per enumeration):
  per op, a call count, the elements processed and the total time. Only the
  outermost kernel call adds to the enclosing span's covered time, so time
  spent in `su2` is never counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
from collections import defaultdict
from time import perf_counter

import numpy as np

KERNEL_MODULES = ("taut3.su2",)


def _short(qualname: str) -> str:
    """'taut3.twisted_torsion.TwistedComplex.betti_numbers' -> 'twisted_torsion.betti_numbers'."""
    parts = qualname.split(".")
    return f"{parts[1]}.{parts[-1]}"


class OpStats:
    """What the tracer saw during one operation."""

    def __init__(self):
        self.kernels = defaultdict(lambda: [0, 0, 0.0])  # short name -> calls, elements, seconds
        self.presentations = set()
        self.enumerations = 0
        self.classes_found = 0
        self.complex_classes = set()
        self.complexes = 0
        self.action_evals = 0


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op id)
        self.kernel_cover = defaultdict(float)  # span index -> outermost kernel seconds
        self.ops = {}            # op id -> OpStats
        self.op = None
        self._stack = []
        self._kernel_depth = 0
        self._patches = []       # (owner, attribute or key, original, is a dict item)

    @contextlib.contextmanager
    def tracing(self, op_id):
        """Wrap the package and attribute what runs inside to op `op_id`."""
        self.ops[op_id] = OpStats()
        self.install()
        self.op = op_id
        try:
            yield self
        finally:
            self.op = None
            self.uninstall()

    # -- wrappers --------------------------------------------------------
    def _span(self, name, fn):
        tracer = self
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent, tracer.op)
            if probe is not None and tracer.op is not None:
                probe(tracer.ops[tracer.op], args, result)
            return result

        return wrapper

    def _kernel(self, name, fn):
        tracer = self
        short = _short(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._kernel_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._kernel_depth -= 1
            if tracer.op is not None:
                stats = tracer.ops[tracer.op].kernels[short]
                stats[0] += 1
                stats[1] += result.size // result.shape[-1] if result.ndim else 1
                stats[2] += dt
                if tracer._kernel_depth == 0:
                    tracer.kernel_cover[tracer._stack[-1] if tracer._stack else -1] += dt
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self):
        import taut3

        modules = [
            importlib.import_module(f"taut3.{m.name}")
            for m in pkgutil.iter_modules(taut3.__path__)
        ]
        wrapped = {}  # original function -> wrapper
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{mod.__name__}.{attr}"
                    make = self._kernel if mod.__name__ in KERNEL_MODULES else self._span
                    wrapped[obj] = make(name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._span(f"{mod.__name__}.{attr}.{meth}", fn))
        for mod in modules + [taut3]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        cli = importlib.import_module("taut3.cli")
        for key, fn in list(cli.PIPELINES.items()):
            if fn in wrapped:
                self._patch_item(cli.PIPELINES, key, wrapped[fn])

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, new)

    def _patch_item(self, mapping, key, new):
        self._patches.append((mapping, key, mapping[key], True))
        mapping[key] = new

    def uninstall(self):
        for owner, key, original, is_item in reversed(self._patches):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------
    def per_op(self):
        """op id -> {short name: [calls, inclusive s]} and {module: self s}."""
        covered = defaultdict(float, self.kernel_cover)
        for name, t0, t1, parent, op in self.spans:
            covered[parent] += t1 - t0
        funcs = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        selfs = defaultdict(lambda: defaultdict(float))
        for idx, (name, t0, t1, parent, op) in enumerate(self.spans):
            short = _short(name)
            row = funcs[op][short]
            row[0] += 1
            # a recursive call is covered by its outermost span
            if parent < 0 or self.spans[parent][0] != name:
                row[1] += t1 - t0
            selfs[op][short.split(".")[0]] += (t1 - t0) - covered[idx]
        for op, stats in self.ops.items():
            for short, (calls, _elems, secs) in stats.kernels.items():
                funcs[op][short] = [calls, secs]
            # only outermost kernel calls are busy time of the kernel module
            selfs[op]["su2"] = sum(
                dt for idx, dt in self.kernel_cover.items() if idx >= 0 and self.spans[idx][4] == op
            )
        return funcs, selfs

    def span_records(self):
        return [
            {"name": n, "start": t0, "end": t1, "parent": p, "op": op}
            for n, t0, t1, p, op in self.spans
        ]


# Probes record per-call facts that a count alone does not give.
def _probe_enumerate(stats, args, result):
    stats.enumerations += 1
    stats.presentations.add(args[0])
    stats.classes_found += len(result.classes)


def _probe_complex(stats, args, result):
    stats.complexes += 1
    stats.complex_classes.add(tuple(np.round(np.asarray(args[1].trace_coords), 6).tolist()))


def _probe_fd_gradient(stats, args, result):
    # one action evaluation per coefficient and sign: 2 * 9 n^3
    stats.action_evals += 2 * 9 * args[0].grid_size ** 3


_PROBES = {
    "taut3.su2reps.enumerate_reps": _probe_enumerate,
    "taut3.twisted_torsion.build_twisted_complex": _probe_complex,
    "taut3.chern_simons.finite_difference_gradient": _probe_fd_gradient,
}
