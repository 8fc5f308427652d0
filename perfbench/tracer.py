"""Outside-in tracer: span recorders around the engine's public functions.

Nothing inside the engine changes.  ``Tracer.install`` replaces each traced
function with a wrapper in every ``lyreynolds.*`` namespace that holds the
same object (modules import each other with ``from .linalg import rank``,
so one rebinding is not enough), and ``Matrix.__matmul__`` on the class.
``uninstall`` puts the originals back.

Each span records its name, start, end, parent span and operation id.
Spans stay in memory until ``write``.  A layer's self time is the sum of
its spans' durations minus the time their child spans cover.  Counters are
exact: matrix shapes and nonzeros, call counts, cache hits.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute, metric prefix).  Every function a layer exposes that
# the workloads reach; their self times partition the traced op time.
TARGETS = (
    ("linalg", "rank", "linalg.elim"),
    ("linalg", "kernel_basis", "linalg.elim"),
    ("linalg", "solve", "linalg.elim"),
    ("linalg", "inverse", "linalg.elim"),
    ("linalg", "quotient_dim", "linalg.elim"),
    ("cohomology", "differential_matrix", "cohomology.assemble"),
    ("cohomology", "phi_matrix", "cohomology.assemble"),
    ("cohomology", "cohomology_dims", "cohomology.apply"),
    ("cohomology", "delta", "cohomology.apply"),
    ("cohomology", "partial", "cohomology.apply"),
    ("cohomology", "phi", "cohomology.apply"),
    ("cohomology", "d_rly", "cohomology.apply"),
    ("cohomology", "is_cocycle", "cohomology.apply"),
    ("cohomology", "coboundary_preimage", "cohomology.apply"),
    ("cohomology", "is_coboundary", "cohomology.apply"),
    ("cohomology", "cohomologous", "cohomology.apply"),
    ("algebra", "verify_ly_axioms", "algebra.verify"),
    ("reynolds", "verify_reynolds", "reynolds.verify"),
    ("reynolds", "descendant_algebra", "reynolds.descendant"),
    ("representation", "verify_rep", "representation.verify"),
    ("representation", "verify_reynolds_rep", "representation.verify"),
    ("representation", "adjoint_rep", "representation.build"),
    ("representation", "induced_rep", "representation.build"),
    ("representation", "d_table", "representation.build"),
    ("extension", "build_extension", "extension.build"),
    ("extension", "extensions_equivalent", "extension.equivalent"),
    ("deformation", "verify_deformation", "deformation.verify"),
    ("deformation", "apply_equivalence", "deformation.transport"),
    ("deformation", "trivialize_first_order", "deformation.trivialize"),
    ("fileformat", "load_workspace", "fileformat.parse"),
    ("cli", "main", "cli.command"),
)

# The public functools-cached functions whose hit ratio is reported.
CACHED = (("cohomology", "phi_matrix"), ("representation", "d_table"),
          ("representation", "induced_rep"), ("reynolds", "descendant_algebra"))

def engine_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lyreynolds" or name.startswith("lyreynolds."))]


def cached_functions() -> list:
    """The engine's functools caches, public and private, found by shape."""
    found = {}
    for mod in engine_modules():
        for value in vars(mod).values():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


def nnz(m) -> int:
    return sum(1 for x in m.entries if x)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = None
        self.counters: dict[str, float] = defaultdict(float)
        self.bookkeeping_s = 0.0
        self._saved: list[tuple] = []
        self._cache_last: dict[str, tuple[int, int]] = {}
        lyreynolds = sys.modules["lyreynolds"]
        self._cached = {name: getattr(sys.modules[f"lyreynolds.{mod}"], name)
                        for mod, name in CACHED}
        self._matrix = lyreynolds.Matrix

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, prefix: str, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            span = [name, 0.0, 0.0, parent, tracer.op]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            failed = True
            t1 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t2 = time.perf_counter()
                tracer.stack.pop()
                span[1], span[2] = t1, t2
                tracer.counters[prefix + "_calls"] += 1
                if count is not None:
                    count(tracer.counters, args, None if failed else result, failed)
                tracer.bookkeeping_s += (t1 - t0) + (time.perf_counter() - t2)
            return result

        return wrapper

    def install(self) -> None:
        counts = _counters(self._matrix)
        for mod_name, attr, prefix in TARGETS:
            original = getattr(sys.modules[f"lyreynolds.{mod_name}"], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", prefix, original,
                                 counts.get(attr))
            for mod in engine_modules():
                if vars(mod).get(attr) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        original = self._matrix.__matmul__
        self._saved.append((self._matrix, "__matmul__", original))
        self._matrix.__matmul__ = self._wrap("linalg.Matrix.__matmul__", "linalg.matmul",
                                             original, counts["__matmul__"])
        self._cache_last = {name: (fn.cache_info().hits, fn.cache_info().misses)
                            for name, fn in self._cached.items()}

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take_cache_stats(self) -> None:
        """Add the cache hits and misses since the last call to the counters.

        Call before every cache_clear, which resets functools' statistics."""
        for name, fn in self._cached.items():
            info = fn.cache_info()
            hits0, misses0 = self._cache_last.get(name, (0, 0))
            self.counters["cache_hits"] += info.hits - hits0
            self.counters["cache_misses"] += info.misses - misses0
            self._cache_last[name] = (info.hits, info.misses)

    def reset_cache_marks(self) -> None:
        self._cache_last.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per metric prefix, over spans that belong to an op.

        Coboundaries applied while a differential or phi matrix is being
        assembled (``delta`` on unit cochains) count as assembly."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        prefix_of = {f"{m}.{a}": p for m, a, p in TARGETS}
        prefix_of["linalg.Matrix.__matmul__"] = "linalg.matmul"
        assembling = [False] * len(self.spans)  # parents precede children
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            prefix = prefix_of[name]
            inside = parent is not None and assembling[parent]
            assembling[idx] = inside or prefix == "cohomology.assemble"
            if inside and prefix == "cohomology.apply":
                prefix = "cohomology.assemble"
            if op is not None:
                out[prefix] += (end - start) - child[idx]
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counters": self.counters}, fh)


def _counters(matrix_cls) -> dict:
    """Per-function counter hooks: (counters, args, result, failed) -> None."""

    def elim(c, args, result, failed):
        for a in args:
            if isinstance(a, matrix_cls):
                c["linalg.elim_cells"] += a.rows * a.cols
                c["linalg.elim_nnz"] += nnz(a)

    def matmul(c, args, result, failed):
        a, b = args
        c["linalg.matmul_madds"] += a.rows * a.cols * b.cols
        c["linalg.matmul_nnz"] += nnz(a) + nnz(b)

    def assembled(c, args, result, failed):
        if result is not None:
            c["cohomology.matrices_built"] += 1
            c["cohomology.matrix_cells"] += result.rows * result.cols
            c["cohomology.matrix_nnz"] += nnz(result)

    def delta(c, args, result, failed):
        c["cohomology.delta_calls"] += 1

    def verify_algebra(c, args, result, failed):
        c["algebra.verify_max_dim"] = max(c["algebra.verify_max_dim"], args[0].dim)

    def build_extension(c, args, result, failed):
        c["extension.build_failed"] += failed

    def verify_deformation(c, args, result, failed):
        if result is not None:
            c["deformation.orders_checked"] += len(result.orders)

    def load_workspace(c, args, result, failed):
        c["fileformat.bytes"] += sum(os.path.getsize(p) for p in args[0])

    def cli_main(c, args, result, failed):
        c["cli.exit_nonzero"] += failed or result != 0

    return {"rank": elim, "kernel_basis": elim, "solve": elim, "inverse": elim,
            "quotient_dim": elim, "__matmul__": matmul,
            "differential_matrix": assembled, "phi_matrix": assembled, "delta": delta,
            "verify_ly_axioms": verify_algebra, "build_extension": build_extension,
            "verify_deformation": verify_deformation,
            "load_workspace": load_workspace, "main": cli_main}
