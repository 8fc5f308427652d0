"""Recompute the pinned expectations in ``expected.json``.

    python3 perfbench/pin.py

Run from the root of a checkout whose engine is trusted; the pins are the
engine's own answers at that commit, so a later change that alters them
shows as a mismatch.

* ``cohomology-sl2``: the rly Betti numbers through ``gen.SL2_DEGREE`` of sl2 with
  T = c Id, for every value c the seed can draw.  They must agree for all
  c, and the benchmark checks every run against them.
* ``extensions-catalogue``: the raw degree-2 cone Betti number of every
  generated triple, for every one of the ``gen.SEED_SPACE`` input sets,
  computed with ``cohomology_dims`` (no extension is built, so triples
  that hit the LY3 defect get a pin too).  Triples that recur across seeds
  are computed once.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    lyr = gen.load_engine(os.getcwd())
    import lyreynolds.fileformat  # noqa: F401

    algebra = gen.sl2()
    tables = {}
    for c in map(Fraction, gen.SCALES):
        op = gen.scalar_op(algebra, c)
        report = lyr.cohomology_dims(algebra, op, lyr.adjoint_rep(algebra, op), "rly",
                                     gen.SL2_DEGREE)
        tables[str(c)] = [row.betti for row in report.rows]
        print(f"sl2 c={c}: {tables[str(c)]}", flush=True)
    if len({tuple(t) for t in tables.values()}) != 1:
        raise SystemExit(f"Betti numbers depend on c: {tables}")

    pins, known, slots = {}, {}, None
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for seed in range(gen.SEED_SPACE):
            ops = gen.generate("extensions-catalogue", seed, tmp)
            slots = [op["triple"] for op in ops]
            pins[str(seed)] = []
            for op in ops:
                with open(op["path"]) as fh:
                    key = fh.read().split("[cochain")[0]
                if key not in known:
                    ws = lyr.fileformat.load_workspace([op["path"]])
                    triple = (ws.algebras["A"], ws.operators["T"].op,
                              ws.representations["ad"].rep)
                    known[key] = lyr.cohomology_dims(*triple, "rly", 2).betti(2)
                pins[str(seed)].append(known[key])
            print(f"extensions seed {seed}: {pins[str(seed)]}", flush=True)

    expected = {
        "cohomology-sl2": {"betti": next(iter(tables.values())),
                           "c_checked": sorted(tables, key=Fraction)},
        "extensions-catalogue": {"triples": slots, "betti2": pins},
    }
    # One line per list of numbers keeps the file short.
    text = re.sub(r"\[\s+([-\d\s,\"]+?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(expected, indent=1))
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
