"""Benchmark of the lyreynolds engine, driven from outside like a user.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up writes seeded ``.lyr`` workspaces
(``gen.py``, timed in fresh interpreters); then one client in this one
process runs the workload's fixed operation list -- CLI commands through
``lyreynolds.cli.main`` and public API calls -- one after another, and
checks every output.  The list is repeated while the next pass still fits
in S seconds.  After each operation a fixed reference computation runs for
half the operation's time, and the gated times are given in its
units (see REF_SHARE).  With ``--trace 1`` exactly one pass runs under the
outside-in tracer (``tracer.py``) and the per-layer metrics are printed
instead of the end-to-end ones; spans go to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation that
hits the known LY3 defect (ROADMAP item 5) counts as failed but matches
its pinned expectation; any other wrong exit code, wrong output or
exception is a mismatch, sets ``correct`` to false and the exit code to 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracer as tracing  # noqa: E402

# One process, no extra threads, reproducible hashing.
FIXED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-ups per untraced run: the first before the passes, the others spread
# over the run between operations, so that their median samples the same
# spells of host load as the operations do.
SETUP_REPEATS = 7
# Other tenants of a shared host slow this process by up to 2x, in spells
# that last from milliseconds to minutes, while its CPU time keeps pace
# with wall time.  A sum, median or minimum of raw times over a run moves
# with the share of the run those spells take.  So after every operation
# the client runs reference_unit() for REF_SHARE of the operation's time:
# both sample the same mix of slow and fast spells, and run_ref and cpu_ref
# give the mean pass's operation time in units of the mean reference unit.
# A slower engine raises them in proportion; a busier host slows both sides
# and cancels out.  The raw times are printed beside them.
REF_SHARE = 0.5
# Queries run on the first QUERY_REPS representatives of a triple only: the
# number of representatives depends on the seed on three triples, and every
# triple that has two or more representatives has at least this many on
# every seed, so each seed runs the same number of queries.
QUERY_REPS = 2

OK, DEFECT, MISMATCH = "ok", "defect", "mismatch"


def reference_unit() -> Fraction:
    """A fixed computation outside the engine: exact rational arithmetic,
    the kind of work the engine does, about 2 ms on an idle core."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
    return total


def fix_environment(argv: list[str]) -> None:
    """Re-exec this interpreter once with FIXED_ENV in place."""
    if all(os.environ.get(k) == v for k, v in FIXED_ENV.items()):
        return
    env = dict(os.environ, **FIXED_ENV)
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv], env)


def time_setup(workload: str, seed: int, out_dir: str) -> float:
    """Wall time of one fresh set-up: interpreter start, engine import and
    the generation of the run's workspaces into ``out_dir``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    # A blocking wait returns as soon as the child exits; a wait with a
    # timeout polls with sleeps of up to 50 ms and would quantise the time.
    code = subprocess.Popen([sys.executable, os.path.join(HERE, "gen.py"),
                             "--workload", workload, "--seed", str(seed),
                             "--out", out_dir]).wait()
    if code:
        raise SystemExit(f"perfbench: set-up exited with code {code}")
    return time.perf_counter() - t0


class Client:
    """Runs operations one at a time and checks each output."""

    def __init__(self, lyr, ops: list[dict], seed: int, tracer=None):
        self.lyr = lyr
        self.ops = ops
        self.tracer = tracer
        self.caches = tracing.cached_functions()
        with open(os.path.join(HERE, "expected.json")) as fh:
            expected = json.load(fh)
        self.betti = expected["cohomology-sl2"]["betti"]
        pinned = expected["extensions-catalogue"]
        betti2 = pinned["betti2"].get(str(seed % gen.SEED_SPACE))
        if betti2 is None:
            print(f"perfbench: expected.json pins no betti2 for seed {seed}; "
                  "run perfbench/pin.py", file=sys.stderr)
            raise SystemExit(2)
        self.pins = dict(zip(pinned["triples"], betti2))
        self.times: dict[str, list[float]] = {}  # op id -> one time per pass
        self.outcomes: list[str] = []
        self.notes: list[str] = []
        self.op_time_s = 0.0  # wall and CPU time of every operation run
        self.op_cpu_s = 0.0
        self.ref_wall_s = self.ref_cpu_s = 0.0
        self.ref_units = 0
        self._ref_owed_s = 0.0
        self.between = None  # called before each operation when set

    # -- running -------------------------------------------------------------

    def clear_caches(self) -> None:
        """Cold engine caches, as a fresh CLI process has them."""
        if self.tracer:
            self.tracer.take_cache_stats()
        for fn in self.caches:
            fn.cache_clear()
        if self.tracer:
            self.tracer.reset_cache_marks()

    def timed(self, op_id: str, action):
        """Run one operation and time it; then the reference's share."""
        # Every operation starts from a collected heap, so the collector
        # runs at the same points of it on every pass.
        gc.collect()
        if self.tracer:
            self.tracer.op = op_id
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            value = action()
        except Exception:  # the operation failed; the check reports it
            value, error = None, traceback.format_exc(limit=3)
        dt, dc = time.perf_counter() - t0, time.process_time() - c0
        self.op_time_s += dt
        self.op_cpu_s += dc
        self.times.setdefault(op_id, []).append(dt)
        if self.tracer:
            self.tracer.op = None
        else:
            self.reference(REF_SHARE * dt)
        return value, error

    def reference(self, seconds: float) -> None:
        """Run reference units until ``seconds`` more of them have run; an
        overrun is carried over to the next call."""
        self._ref_owed_s += seconds
        while self._ref_owed_s > 0:
            t0, c0 = time.perf_counter(), time.process_time()
            reference_unit()
            dt = time.perf_counter() - t0
            self.ref_cpu_s += time.process_time() - c0
            self.ref_wall_s += dt
            self.ref_units += 1
            self._ref_owed_s -= dt

    def record(self, label: str, outcome: str, why: str = "") -> None:
        self.outcomes.append(outcome)
        if outcome != OK and len(self.notes) < 20:
            self.notes.append(f"{outcome}: {label}: {why}".strip())

    def cli(self, op_id: str, argv: list[str]):
        cli = self.lyr.cli

        def action():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return self.timed(op_id, action)

    def run_pass(self) -> float:
        """One pass over the fixed operation list; its wall seconds."""
        t_wall = time.perf_counter()
        for op in self.ops:
            if self.between:
                self.between()
            if op["cold"]:
                self.clear_caches()
            getattr(self, "op_" + op["check"])(op)
        return time.perf_counter() - t_wall

    # -- operations and their checks -----------------------------------------

    def op_betti(self, op) -> None:
        value, error = self.cli(str(op["id"]), op["argv"])
        if error:
            return self.record(op["label"], MISMATCH, error)
        code, out, err = value
        if code != 0:
            return self.record(op["label"], MISMATCH, f"exit {code}: {err.strip()}")
        data = json.loads(out)
        betti = [row["betti"] for row in data["rows"]]
        checks = data["square_zero"] + data["chain_map"]
        if betti != self.betti or len(checks) != 2 * (gen.SL2_DEGREE - 1) \
                or not all(checks):
            return self.record(op["label"], MISMATCH,
                               f"betti {betti}, d∘d/chain-map checks {checks}")
        self.record(op["label"], OK)

    def op_classify(self, op) -> None:
        value, error = self.cli(str(op["id"]), op["argv"])
        if error:
            return self.record(op["label"], MISMATCH, error)
        code, out, err = value
        if code == 2 and op["known_defect"] and "LY3: FAIL" in err:
            return self.record(op["label"], DEFECT, "known LY3 defect, exit 2")
        if code != 0:
            return self.record(op["label"], MISMATCH, f"exit {code}: {err.strip()}")
        data = json.loads(out)
        reps = data["representatives"]
        pinned = self.pins[op["triple"]]
        if data["betti2"] != len(reps) or pinned != data["betti2"]:
            return self.record(op["label"], MISMATCH,
                               f"betti2 {data['betti2']}, {len(reps)} "
                               f"representatives, pinned {pinned}")
        self.record(op["label"], OK)
        if reps:
            self.queries(op, reps[:QUERY_REPS])

    def queries(self, op, reps) -> None:
        """Warm-cache queries on the classified triple: for each given class
        representative r and the seeded 1-cochain b, r + d(b) is a cocycle
        cohomologous to r, and (first r only) the two extensions are
        equivalent."""
        lyr = self.lyr
        tag = f"{op['id']}"
        ws, error = self.timed(tag + ".load", lambda: lyr.fileformat.load_workspace(
            [op["path"]]))
        if error or "A" not in ws.algebras or "b" not in ws.cochains:
            return self.record("load_workspace", MISMATCH, error or "objects missing")
        self.record("load_workspace", OK)
        algebra, tmap = ws.algebras["A"], ws.operators["T"].op
        rep, b = ws.representations["ad"].rep, ws.cochains["b"].cochain
        for idx, data in enumerate(reps):
            r = cocycle_from_json(lyr, data, algebra.dim, rep.module_dim).to_cochain()
            moved, error = self.timed(f"{tag}.{idx}.cocycle", lambda: _moved(
                lyr, algebra, tmap, rep, r, b))
            if error or moved[1] is not True:
                self.record("is_cocycle(r + d b)", MISMATCH, error or "False")
                continue
            self.record("is_cocycle(r + d b)", OK)
            s = moved[0]
            same, error = self.timed(f"{tag}.{idx}.cohomologous", lambda: lyr.cohomologous(
                algebra, tmap, rep, "rly", r, s))
            self.record("cohomologous(r, r + d b)", OK if same is True else MISMATCH,
                        error or str(same))
            if idx == 0:
                phi, error = self.timed(f"{tag}.{idx}.equivalent", lambda: _equivalent(
                    lyr, algebra, tmap, rep, r, s))
                self.record("extensions_equivalent", OK if phi is not None else MISMATCH,
                            error or "None")

    def op_deform(self, op) -> None:
        value, error = self.cli(str(op["id"]), op["argv"])
        if error:
            return self.record(op["label"], MISMATCH, error)
        code, out, err = value
        if code != op["exit"]:
            return self.record(op["label"], MISMATCH, f"exit {code}: {err.strip()}")
        orders = json.loads(out)["report"]["orders"]
        failing = [n for n, rep in enumerate(orders) if not rep["ok"]]
        first = failing[0] if failing else None
        if first != op["fail_order"] or len(orders) != gen.DEFORM_ORDER + 1:
            return self.record(op["label"], MISMATCH,
                               f"first failing order {first}, expected {op['fail_order']}")
        self.record(op["label"], OK)

    def op_trivialize(self, op) -> None:
        lyr = self.lyr

        def action():
            ws = lyr.fileformat.load_workspace([op["path"]])
            entry = ws.deformations["D"]
            d = lyr.TruncatedDeformation(entry.order, entry.F, entry.G, entry.Tt)
            return lyr.trivialize_first_order(ws.algebra("A"), ws.operator("T").op, d)

        value, error = self.timed(str(op["id"]), action)
        if error:
            return self.record(op["label"], MISMATCH, error)
        iso, transported = value
        if iso.order != gen.DEFORM_ORDER or transported.order != gen.DEFORM_ORDER:
            return self.record(op["label"], MISMATCH, "wrong truncation order")
        self.record(op["label"], OK)


def _moved(lyr, algebra, tmap, rep, r, b):
    s = r + lyr.d_rly(algebra, tmap, rep, b)
    return s, lyr.is_cocycle(algebra, tmap, rep, "rly", s)


def _equivalent(lyr, algebra, tmap, rep, r, s):
    cocycle = lyr.ExtensionCocycle.from_cochain
    e1 = lyr.build_extension(algebra, tmap, rep, cocycle(r))
    e2 = lyr.build_extension(algebra, tmap, rep, cocycle(s))
    return lyr.extensions_equivalent(e1, e2)


def cocycle_from_json(lyr, data: dict, n: int, m: int):
    """Inverse of the CLI's representative JSON (1-based indices)."""
    nu = [[[Fraction(0)] * m for _ in range(n)] for _ in range(n)]
    psi = [[[[Fraction(0)] * m for _ in range(n)] for _ in range(n)] for _ in range(n)]
    chi = [[Fraction(0)] * n for _ in range(m)]
    for i, j, a, v in data["nu"]:
        nu[i - 1][j - 1][a - 1] = Fraction(v)
    for i, j, k, a, v in data["psi"]:
        psi[i - 1][j - 1][k - 1][a - 1] = Fraction(v)
    for z, a, v in data["chi"]:
        chi[a - 1][z - 1] = Fraction(v)
    return lyr.ExtensionCocycle(nu, psi, lyr.Matrix.from_rows(chi, n))


def tail(times: list[float]):
    """Highest percentile with at least ten operations beyond it, or None
    below twenty operations."""
    n = len(times)
    if n < 20:
        return None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n, n


def layer_metrics(client: Client, tr: tracing.Tracer, wall: float) -> dict:
    c = tr.counters
    self_s = tr.self_times()
    # The self time of cli.main takes in whatever no layer wrapper catches,
    # so it does not count as covered.
    covered = sum(t for prefix, t in self_s.items() if prefix != "cli.command")

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "linalg.elim_s": (self_s["linalg.elim"], "s"),
        "linalg.elim_calls": (c["linalg.elim_calls"], "count"),
        "linalg.elim_cells": (c["linalg.elim_cells"], "count"),
        "linalg.elim_nnz": (c["linalg.elim_nnz"], "count"),
        "linalg.elim_density": (ratio(c["linalg.elim_nnz"], c["linalg.elim_cells"]), "ratio"),
        "linalg.matmul_s": (self_s["linalg.matmul"], "s"),
        "linalg.matmul_calls": (c["linalg.matmul_calls"], "count"),
        "linalg.matmul_madds": (c["linalg.matmul_madds"], "count"),
        "linalg.matmul_nnz": (c["linalg.matmul_nnz"], "count"),
        "cohomology.assemble_s": (self_s["cohomology.assemble"], "s"),
        "cohomology.matrices_built": (c["cohomology.matrices_built"], "count"),
        "cohomology.matrix_cells": (c["cohomology.matrix_cells"], "count"),
        "cohomology.matrix_nnz": (c["cohomology.matrix_nnz"], "count"),
        "cohomology.delta_calls": (c["cohomology.delta_calls"], "count"),
        "cohomology.apply_s": (self_s["cohomology.apply"], "s"),
        "cohomology.cache_hit_ratio": (ratio(c["cache_hits"],
                                             c["cache_hits"] + c["cache_misses"]), "ratio"),
        "algebra.verify_s": (self_s["algebra.verify"], "s"),
        "algebra.verify_calls": (c["algebra.verify_calls"], "count"),
        "algebra.verify_max_dim": (c["algebra.verify_max_dim"], "count"),
        "reynolds.verify_s": (self_s["reynolds.verify"], "s"),
        "reynolds.descendant_s": (self_s["reynolds.descendant"], "s"),
        "representation.verify_s": (self_s["representation.verify"], "s"),
        "representation.build_s": (self_s["representation.build"], "s"),
        "extension.build_s": (self_s["extension.build"], "s"),
        "extension.build_calls": (c["extension.build_calls"], "count"),
        "extension.build_failed": (c["extension.build_failed"], "count"),
        "extension.equivalent_s": (self_s["extension.equivalent"], "s"),
        "deformation.verify_s": (self_s["deformation.verify"], "s"),
        "deformation.orders_checked": (c["deformation.orders_checked"], "count"),
        "deformation.transport_s": (self_s["deformation.transport"], "s"),
        "deformation.trivialize_s": (self_s["deformation.trivialize"], "s"),
        "fileformat.parse_s": (self_s["fileformat.parse"], "s"),
        "fileformat.bytes": (c["fileformat.bytes"], "B"),
        "cli.command_s": (self_s["cli.command"], "s"),
        "cli.exit_nonzero": (c["cli.exit_nonzero"], "count"),
        "trace.coverage": (ratio(covered, client.op_time_s), "ratio"),
        "trace.overhead_ratio": (ratio(wall, wall - tr.bookkeeping_s), "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description="lyreynolds benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    fix_environment(argv)

    root = os.getcwd()
    lyr = gen.load_engine(root)
    import lyreynolds.cli  # noqa: F401  (the client drives it as a module)
    state = os.path.join(root, ".perfbench")
    work = os.path.join(state, f"work-{args.workload}-{args.seed}")
    setup = [time_setup(args.workload, args.seed, work)]
    with open(os.path.join(work, "ops.json")) as fh:
        ops = json.load(fh)

    tr = tracing.Tracer() if args.trace else None
    client = Client(lyr, ops, args.seed, tr)
    walls = []
    if tr:
        tr.install()
        try:
            wall = client.run_pass()
            tr.take_cache_stats()
        finally:
            tr.uninstall()
        walls.append(wall)
        tr.write(os.path.join(state, f"trace-{args.workload}-{args.seed}.json"))
    else:
        probe = os.path.join(state, f"probe-{args.workload}-{args.seed}")
        start = time.perf_counter()
        spacing = args.seconds / SETUP_REPEATS

        def between():
            if len(setup) < SETUP_REPEATS and \
                    time.perf_counter() - start >= len(setup) * spacing:
                setup.append(time_setup(args.workload, args.seed, probe))

        client.between = between
        while True:
            wall = client.run_pass()
            walls.append(wall)
            if time.perf_counter() - start + wall > args.seconds:
                break
        while len(setup) < SETUP_REPEATS:
            setup.append(time_setup(args.workload, args.seed, probe))
        shutil.rmtree(probe, ignore_errors=True)
    shutil.rmtree(work, ignore_errors=True)

    attempted = len(client.outcomes)
    failed = sum(o != OK for o in client.outcomes)
    correct = MISMATCH not in client.outcomes
    defects = client.outcomes.count(DEFECT)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(walls)}  "
          f"operations {attempted}  failed {failed} ({defects} known LY3 defect)")
    for note in client.notes:
        print("  " + note)
    if tr:
        metrics = layer_metrics(client, tr, walls[0])
    else:
        passes = len(walls)
        unit_wall = client.ref_wall_s / client.ref_units
        unit_cpu = client.ref_cpu_s / client.ref_units
        metrics = {
            "run_ref": {"value": client.op_time_s / passes / unit_wall, "unit": "ref"},
            "cpu_ref": {"value": client.op_cpu_s / passes / unit_cpu, "unit": "ref"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
        # Printed, not gated: see the notes in baseline.json.
        p50 = statistics.median(statistics.median(t) for t in client.times.values())
        extra = tail([t for times in client.times.values() for t in times])
        print(f"  run_s        {client.op_time_s / passes:.6g} s  (operation time of the "
              f"mean pass, {passes} passes)")
        print(f"  cpu_s        {client.op_cpu_s / passes:.6g} s")
        print(f"  op_p50_s     {p50:.6g} s  (median over operations of each one's "
              "median over passes)")
        print(f"  fail_ratio   {failed / attempted:.4f}  ({failed}/{attempted})")
        print("  op_tail_s    " + ("n/a (fewer than 20 operations)" if extra is None else
                                   f"{extra[0]:.6f} s  (p{extra[1]:.1f} of {extra[2]} ops)"))
        print(f"  ref unit     {unit_wall * 1e3:.4g} ms wall, {unit_cpu * 1e3:.4g} ms CPU  "
              f"({client.ref_units} units)")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
