"""Pinned CLI output on the sample files.

Every command in ``COMMANDS`` runs in text and in ``--json`` form, every one
in ``JSON_COMMANDS`` in ``--json`` form only, and its stdout, stderr and exit
code must equal the record in ``cli_golden.json``.
Rewrite the record, after a change that is meant to alter the output, from
the repository root with

    PYTHONPATH=src python tests/test_cli_golden.py --write

The commands run in-process through ``lyreynolds.cli.main`` with the
repository root as working directory, so file names in the record are the
relative ones below.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from lyreynolds.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
SAMPLES = ["samples/extension.lyr", "samples/two_dim.lyr"]
OBJECTS = ("ly2", "T", "idmin1", "rb0", "ad", "stretch", "base2", "Tbase", "adbase",
           "Etot", "Etop", "E1", "chidefect")

COMMANDS = (
    [["verify", *SAMPLES, "--name", name] for name in OBJECTS]
    + [["cohomology", *SAMPLES, "--algebra", "ly2", "--operator", "T", "--rep", "ad",
        "--complex", which, "--max-degree", "3"] for which in ("ly", "ro", "rly")]
    + [["classify-extensions", *SAMPLES, "--algebra", alg, "--operator", op, "--rep", rep]
       for alg, op, rep in (("base2", "Tbase", "adbase"), ("ly2", "T", "ad"))]
    + [["deform-check", *SAMPLES, "--name", "stretch"],
       ["deform-check", *SAMPLES, "--name", "stretch", "--order", "1"]]
)

# sl2 with T = (3/2) Id: the descendant and the induced representation are
# built over a common denominator greater than 1
JSON_COMMANDS = [
    ["cohomology", "samples/sl2.lyr", "--algebra", "sl2", "--operator", "Tsl2",
     "--rep", "adsl2", "--complex", which, "--max-degree", "3", "--json"]
    for which in ("ly", "ro", "rly")] + [
    # a module of dimension 3 over an algebra of dimension 2, at weight -1/5
    # with T_V != T: the chain map phi is nonzero and not square, to degree 4
    ["cohomology", "samples/module.lyr", "--algebra", "ly2m", "--operator", "Tm",
     "--rep", "adtriv", "--complex", which, "--max-degree", "4", "--json"]
    for which in ("ro", "rly")]


def run(argv):
    """(stdout, stderr, exit code) of one in-process CLI run from ROOT."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def all_argvs():
    return ([argv + extra for argv in COMMANDS for extra in ([], ["--json"])]
            + JSON_COMMANDS)


def record():
    return [{"argv": argv, **run(argv)} for argv in all_argvs()]


def golden():
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_record_covers_every_command():
    assert list(golden()) == [tuple(argv) for argv in all_argvs()]


@pytest.mark.parametrize("argv", all_argvs(),
                         ids=lambda argv: " ".join(a for a in argv if a not in SAMPLES))
def test_cli_output_matches_golden_record(argv):
    entry = golden()[tuple(argv)]
    assert run(argv) == {k: entry[k] for k in ("stdout", "stderr", "exit")}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --write")
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
