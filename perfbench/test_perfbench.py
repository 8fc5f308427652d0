"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

lyr = gen.load_engine(ROOT)
import lyreynolds.cli  # noqa: E402,F401

with open(os.path.join(HERE, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


def small_ops(tmp_path) -> list[dict]:
    """A cheap slice of two workloads: the dim <= 2 extension triples and
    the canonical-algebra deformations of seed 1."""
    ext = gen.generate("extensions-catalogue", 1, str(tmp_path / "ext"))
    ext = [op for op in ext if not any(b in op["label"] for b in ("sl2", "leibniz3"))]
    deform = gen.generate("deform-order3", 1, str(tmp_path / "def"))
    deform = [op for op in deform if op["label"].endswith("ly2")]
    return ext + deform


def traced_counters(ops) -> dict:
    tr = tracing.Tracer()
    client = run.Client(lyr, ops, 1, tr)
    tr.install()
    try:
        client.run_pass()
        tr.take_cache_stats()
    finally:
        tr.uninstall()
    assert run.MISMATCH not in client.outcomes, client.notes
    return dict(tr.counters)


def test_traced_counters_repeat_exactly(tmp_path):
    ops = small_ops(tmp_path)
    first = traced_counters(ops)
    second = traced_counters(ops)
    assert first == second
    assert first["linalg.elim_calls"] > 0 and first["deformation.orders_checked"] > 0


def test_tracer_restores_every_binding(tmp_path):
    before = {(m.__name__, k): v for m in tracing.engine_modules() for k, v in vars(m).items()}
    matmul = lyr.Matrix.__matmul__
    traced_counters(small_ops(tmp_path)[:1])
    after = {(m.__name__, k): v for m in tracing.engine_modules() for k, v in vars(m).items()}
    assert after == before and lyr.Matrix.__matmul__ is matmul


def test_generation_is_seeded(tmp_path):
    for workload in gen.WORKLOADS:
        a = gen.generate(workload, 7, str(tmp_path / "a"))
        b = gen.generate(workload, 7 + gen.SEED_SPACE, str(tmp_path / "b"))
        assert json.dumps(a).replace("/a/", "/b/") == json.dumps(b)
        for name in os.listdir(tmp_path / "a"):
            assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()
        shutil.rmtree(tmp_path / "a")
        shutil.rmtree(tmp_path / "b")


def test_pins_cover_every_drawn_scalar_and_seed():
    drawn = {str(Fraction(c)) for c in gen.SCALES}
    assert drawn <= set(EXPECTED["cohomology-sl2"]["c_checked"])
    pins = EXPECTED["extensions-catalogue"]["betti2"]
    assert set(pins) == {str(seed) for seed in range(gen.SEED_SPACE)}


def test_every_seed_runs_the_same_queries():
    rows = EXPECTED["extensions-catalogue"]["betti2"].values()
    assert len({tuple(min(b, run.QUERY_REPS) for b in row) for row in rows}) == 1


def test_pinned_sl2_betti_against_sympy():
    """The pinned cohomology-sl2 Betti numbers, from ranks that sympy's
    DomainMatrix over QQ computes for the exported differentials."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    algebra = gen.sl2()
    op = gen.scalar_op(algebra, 2)
    rep = lyr.adjoint_rep(algebra, op)
    ranks, dims = [0], []
    for p in range(1, gen.SL2_DEGREE + 1):
        d = lyr.differential_matrix(algebra, op, rep, "rly", p)
        rows = [[sympy.Rational(x.numerator, x.denominator) for x in d.row(i)]
                for i in range(d.rows)]
        ranks.append(DomainMatrix.from_list_sympy(d.rows, d.cols, rows).convert_to(
            sympy.QQ).rank())
        dims.append(d.cols)
    betti = [dims[p] - ranks[p + 1] - ranks[p] for p in range(gen.SL2_DEGREE)]
    assert betti == EXPECTED["cohomology-sl2"]["betti"]


def test_exits_nonzero_without_engine_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cohomology-sl2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
