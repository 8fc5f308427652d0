"""The CLI parses a call that names a command with that command's parser
only, and every other call with the full parser: the same exit codes,
output bytes and namespaces as ``oracles.main_by_full_parser``, which parses
every call with the earlier hand-written parser, and no parser kept."""

import argparse
import contextlib
import gc
import io
import sys
import weakref
from functools import partial
from pathlib import Path

import pytest

import lyreynolds.cli as cli
from tests.oracles import build_parser_by_hand, main_by_full_parser

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
TWO_DIM = str(SAMPLES / "two_dim.lyr")

TRIPLE = ["--algebra", "ly2", "--operator", "T", "--rep", "ad"]

WELL_FORMED = [
    ["verify", TWO_DIM, "--name", "ly2"],
    ["verify", TWO_DIM, "--name", "T", "--json"],
    ["verify", "--name", "ad", TWO_DIM],
    ["verify", TWO_DIM, "--name", "nothing"],
    ["verify", "--name", "ly2", "--", TWO_DIM],
    ["verify", TWO_DIM, "--na", "ly2"],
    ["verify", TWO_DIM, "--name=ly2"],
    ["cohomology", TWO_DIM, *TRIPLE],
    ["cohomology", TWO_DIM, *TRIPLE, "--complex", "ly", "--max-degree", "2"],
    ["cohomology", TWO_DIM, *TRIPLE, "--max", "2", "--json"],
    ["cohomology", TWO_DIM, *TRIPLE, "--complex=ro", "--max-degree=2"],
    ["classify-extensions", TWO_DIM, *TRIPLE],
    ["classify-extensions", TWO_DIM, *TRIPLE, "--json"],
    ["deform-check", TWO_DIM],
    ["deform-check", TWO_DIM, "--name", "stretch", "--order", "1"],
    ["deform-check", TWO_DIM, "--name", "stretch", "--order", "2"],
    ["deform-check", TWO_DIM, "--name", "stretch", "--json"],
]

MALFORMED = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["--version"],
    ["--v"],
    ["bogus"],
    ["bogus", TWO_DIM, "--name", "ly2"],
    ["deform", TWO_DIM, "--name", "stretch"],
    ["ver", TWO_DIM, "--name", "ly2"],
    ["--", "verify", TWO_DIM, "--name", "ly2"],
    ["--version", "verify", TWO_DIM, "--name", "ly2"],
    ["verify"],
    ["verify", TWO_DIM],
    ["verify", "--name", "ly2"],
    ["verify", TWO_DIM, "--name"],
    ["verify", "--", TWO_DIM, "--name", "ly2"],
    ["cohomology", TWO_DIM, "--algebra", "ly2"],
    ["cohomology", TWO_DIM, *TRIPLE, "--max-degree", "x"],
    ["cohomology", TWO_DIM, *TRIPLE, "--complex", "zz"],
    ["classify-extensions", TWO_DIM, "--rep", "ad"],
    ["deform-check", TWO_DIM, "--order", "one"],
    ["verify", TWO_DIM, "--name", "ly2", "--version"],
    ["verify", TWO_DIM, "--name", "ly2", "--bogus"],
    ["verify", TWO_DIM, "--name", "ly2", "--bogus=1"],
    ["deform-check", TWO_DIM, "--name", "stretch", "extra"],
    ["cohomology", TWO_DIM, *TRIPLE, "--name", "ly2"],
    *([name, "-h"] for name in cli.COMMANDS),
    ["cohomology", TWO_DIM, "--help"],
    ["deform-check", TWO_DIM, "--order", "1", "-h"],
]


def run(main, argv):
    """The exit code (or ``SystemExit`` code), stdout and stderr of
    ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", WELL_FORMED + MALFORMED, ids=" ".join)
def test_each_call_reads_as_under_the_full_parser(argv):
    want = run(main_by_full_parser, argv)
    assert run(cli.main, argv) == want
    # build_parser, built from the table of commands, is the hand-written parser
    assert run(partial(main_by_full_parser, build=cli.build_parser), argv) == want


def test_the_battery_reaches_every_path():
    codes = [run(cli.main, argv)[0] for argv in WELL_FORMED + MALFORMED]
    assert {0, 2, ("SystemExit", 0), ("SystemExit", 2)} <= set(codes)


def test_a_failed_check_reads_as_under_the_full_parser(tmp_path):
    # ly2 to order 1 with G_1(e1, e2, e1) = 3/7 e2: not a derivation at order 1
    path = tmp_path / "bent.lyr"
    path.write_text(Path(TWO_DIM).read_text() + "\n[deformation bent]\nalgebra = ly2\n"
                    "operator = T\norder = 1\nG = 1 1 2 1 2 3/7\n")
    for argv in (["deform-check", str(path), "--name", "bent"],
                 ["verify", str(path), "--name", "bent", "--json"]):
        want = run(main_by_full_parser, argv)
        assert want[0] == 1
        assert run(cli.main, argv) == want


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_a_well_formed_call_parses_to_the_full_parsers_namespace(argv):
    args = cli._parse_args(argv)
    assert args == cli.build_parser().parse_args(argv)
    assert args == build_parser_by_hand().parse_args(argv)
    assert (args.command, args.fn) == (argv[0], cli.COMMANDS[argv[0]][2])


@pytest.fixture
def spies(monkeypatch):
    """Counts of ``build_parser`` calls and of constructed parsers, and a
    weak reference to each parser."""
    seen = {"build_parser": 0, "parsers": []}
    build_parser = cli.build_parser

    def counting_build_parser():
        seen["build_parser"] += 1
        return build_parser()

    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        seen["parsers"].append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return seen


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_a_well_formed_call_builds_one_parser_and_keeps_none(spies, argv):
    run(cli.main, argv)
    assert spies["build_parser"] == 0
    assert len(spies["parsers"]) == 1
    gc.collect()
    assert [ref for ref in spies["parsers"] if ref() is not None] == []


@pytest.mark.parametrize("argv, builds, parsers", [
    ([], 1, 5),
    (["--version"], 1, 5),
    (["deform", TWO_DIM], 1, 5),
    (["verify", TWO_DIM, "--name", "ly2", "--bogus"], 1, 1 + 5),
    # the command's own parser reports a missing argument and prints its help
    (["verify"], 0, 1),
    (["verify", "-h"], 0, 1),
])
def test_the_full_parser_runs_for_every_other_call(spies, argv, builds, parsers):
    run(cli.main, argv)
    assert spies["build_parser"] == builds
    assert len(spies["parsers"]) == parsers


def test_no_parser_is_kept_between_calls(spies):
    for _ in range(2):
        run(cli.main, WELL_FORMED[0])
    assert len(spies["parsers"]) == 2
    assert not any(isinstance(v, argparse.ArgumentParser) for v in vars(cli).values())


@pytest.mark.parametrize("argv", [WELL_FORMED[0], WELL_FORMED[7], ["--version"], ["bogus"],
                                  ["verify", TWO_DIM, "--name", "ly2", "--bogus"]])
def test_main_reads_sys_argv_by_default(monkeypatch, argv):
    want = run(cli.main, argv)
    monkeypatch.setattr(sys, "argv", ["lyreynolds", *argv])
    assert run(lambda _: cli.main(), None) == want
