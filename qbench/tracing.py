"""Layer spans recorded from outside the program.

`Tracer.install` replaces the public functions of each qglue layer by timing
wrappers.  Modules that import a function by name hold their own binding of
it (``qglue.corrector`` and ``qglue.cli`` import ``generators``,
``monodromy_data``, ``defect`` and others that way), so every binding in
every loaded qglue module that is the original function object is replaced.

Spans are kept in memory as (name, start, end, parent) and written out once,
after the run.  A layer's self time is its spans' duration minus the part
covered by nested wrapped spans; calls run on one thread, so nested spans
never overlap and that part is the sum of the children's durations.
"""

import functools
import json
import sys
import time

# span name -> functions wrapped, as (module, attribute) of the definition;
# a dotted attribute names a method, wrapped on its class.
LAYERS = {
    "delaunay.solve_orbit": [("qglue.delaunay", "solve_orbit")],
    "delaunay.sample": [("qglue.delaunay", "DelaunayOrbit.sample_exact"),
                        ("qglue.delaunay", "DelaunayOrbit.sample_states")],
    "jacobi.monodromy": [("qglue.jacobi", "monodromy_data")],
    "jacobi.generators": [("qglue.jacobi", "generators")],
    "jacobi.indicial": [("qglue.jacobi", "indicial_roots")],
    "gluing.build": [("qglue.gluing", "build_approximate")],
    "gluing.defect": [("qglue.gluing", "defect")],
    "gauges.q_residual": [("qglue.gauges", "q_residual")],
    "corrector.assemble": [("qglue.corrector", "bordered_system")],
    "corrector.factor": [("qglue.corrector", "BorderedSystem.factor")],
    "corrector.solve": [("qglue.corrector", "solve_right_inverse")],
    "corrector.iterate": [("qglue.corrector", "iterate")],
    "corrector.verify": [("qglue.corrector", "verify_correction")],
    "corrector.diag": [("qglue.corrector", "nondegeneracy_diag")],
    "cli.self": [("qglue.cli", "execute")],
}

# spans whose call count is reported next to their self time
COUNTED = ("delaunay.solve_orbit", "jacobi.monodromy", "jacobi.generators",
           "corrector.assemble", "corrector.factor", "corrector.solve")


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1]
        self._stack = []
        self.dim_max = 0
        self.iterations = 0

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.perf_counter(), None, parent]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
        return wrapper

    def install(self):
        """Wrap every binding of the LAYERS functions in loaded qglue
        modules; the modules must be imported already."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qglue" or name.startswith("qglue.")]
        for name, targets in LAYERS.items():
            for module, attr in targets:
                owner = sys.modules[module]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = getattr(cls, meth)
                    setattr(cls, meth, self._wrapped(name, original))
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrapped(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def _wrapped(self, name, original):
        traced = self.span(name, original)
        if name == "corrector.factor":
            # factor() caches its LU; only real factorizations are spans
            def factor(system):
                if system._lu is None:
                    return traced(system)
                return original(system)
            return factor
        if name == "corrector.assemble":
            def assemble(*args, **kwargs):
                system = traced(*args, **kwargs)
                self.dim_max = max(self.dim_max, system.matrix.shape[0])
                return system
            return assemble
        if name == "corrector.iterate":
            def iterate(*args, **kwargs):
                result = traced(*args, **kwargs)
                self.iterations += len(result.trace.rows) - 1
                return result
            return iterate
        return traced

    def self_times(self):
        """Per span name: (calls, total self time)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0] for name in LAYERS}
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name][0] += 1
            out[name][1] += end - start - covered
        return out

    def metrics(self):
        """Per-layer metrics, as name -> (value, unit)."""
        out = {}
        for name, (calls, self_s) in self.self_times().items():
            if name in COUNTED:
                out[f"{name}_calls"] = (calls, "count")
            out[f"{name}_s"] = (self_s, "s")
        out["corrector.dim_max"] = (self.dim_max, "count")
        out["corrector.iterations"] = (self.iterations, "count")
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
