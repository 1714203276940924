"""Per-layer tracing for the benchmark, installed from outside the library.

The tracer wraps the public entry of each layer of `cherednik_kit` in place
(module functions under every name they are imported as, and class methods)
and restores the originals on `uninstall`.  Timed layers record spans of
(name, start, end, parent); a layer's self time is its span's duration minus
the time its child spans cover.  Cheap scalar operations are counted only:
a timing wrapper around a ~5 microsecond `CycNumber` product would cost more
than the product.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

PACKAGE = "cherednik_kit"


class Tracer:
    """Spans and counters for one traced pass; `take()` folds and resets them."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list = []       # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name, fn, probe=None, errors=()):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except errors:
                counts[name + ".errors"] += 1
                raise
            finally:
                stack.pop()
                spans[idx] = (name, start, clock(), parent)

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------------

    def _replace_function(self, module, attr, make):
        """Wrap module.attr under every name a loaded library module holds it."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")) \
                    and vars(mod).get(attr) is original:
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, original))

    def _replace_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def install(self):
        lib = self.lib
        oracle, norms, scalars = lib.oracle, lib.norms, lib.scalars
        timed, counted = self._timed, self._counted
        counts, maxima = self.counts, self.maxima

        def kernel_probe(rows, width, _field):
            counts["oracle.kernel.cells"] += len(rows) * width
            if width > maxima.get("oracle.kernel.width_max", 0):
                maxima["oracle.kernel.width_max"] = width

        def normalize_probe(scalar):
            counts["scalars.normalize.factors_in"] += len(scalar.num) + len(scalar.den)

        self._replace_function(oracle, "_kernel",
                               lambda f: timed("oracle.kernel", f, kernel_probe))
        for name in ("build_irrep", "verify_report"):
            self._replace_function(oracle, name,
                                   lambda f, n=name: timed("oracle." + n, f))
        module = oracle.StandardModule
        self._replace_method(module, "eigenvector",
                             lambda f: timed("oracle.eigenvector", f,
                                             errors=oracle.EigenvalueCollision))
        for name in ("y_act", "z_act", "pairing", "apply_perm", "symmetrize"):
            self._replace_method(module, name, lambda f, n=name: timed("oracle." + n, f))

        for name in ("spectrum", "nonsymmetric_norm", "symmetric_norm", "minimal_norm"):
            self._replace_function(norms, name, lambda f, n=name: timed("norms." + n, f))

        scalar = scalars.FactoredScalar
        self._replace_method(scalar, "evaluate", lambda f: timed("scalars.evaluate", f))
        self._replace_method(scalar, "normalize",
                             lambda f: timed("scalars.normalize", f, normalize_probe))
        for attr in ("__mul__", "__rmul__"):
            self._replace_method(scalar, attr, lambda f: counted("scalars.factored_mul.calls", f))

        cyc = lib.cyclotomic.CycNumber
        for attr, name in (("__mul__", "mul"), ("__rmul__", "mul"), ("__add__", "add"),
                           ("__radd__", "add"), ("inverse", "inverse"),
                           ("conjugate", "conjugate")):
            self._replace_method(cyc, attr,
                                 lambda f, n=name: counted(f"cyclotomic.{n}.calls", f))

        for name in ("hyperplanes_rectangle", "hyperplanes_sqrt"):
            self._replace_function(lib.aspherical, name, lambda f: timed("aspherical", f))
        for name in ("assemble", "disassemble", "geq_c", "equiv_c", "geq_c_quotient",
                     "linkage_matching"):
            self._replace_function(lib.orders, name, lambda f: timed("orders", f))
        self._replace_function(lib.cli, "main", lambda f: timed("cli.main", f))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- folding -------------------------------------------------------------------

    def take(self) -> dict:
        """Per-layer totals of the spans and counts recorded since the last
        call: `<layer>.calls`, `<layer>.self_s`, and the raw counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for k, (name, start, end, _parent) in enumerate(spans):
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + (end - start - child[k])
        out.update(self.counts)
        out.update(self.maxima)
        spans.clear()
        self.counts.clear()
        self.maxima.clear()
        return out
