"""Pinned loader results on hand-written and mutated inputs.

Every input of ``inputs()`` is a set of ``.lyr`` files loaded together by
``load_workspace``.  The record in ``loader_golden.json`` holds, for each
input, a digest of the loaded workspace (sha256 of its ``repr``) or the
class and text of the error the load raises.  The inputs are

  * ``EVERY_KEY``, a workspace that uses every section kind and every list
    key: explicit ``rho``/``theta``/``module_op_row``, deformation
    ``F``/``G``/``T``, degree-1 ``map`` and degree-2 ``f``/``g``/``tail``;
  * the two sample files, as the command line loads them;
  * three malformed integers, each in its own input;
  * ``MUTANTS`` seeded token and line mutations of those files.

The record was written by the loader that still crashed with ValueError on
integer tokens such as ``--2`` and ``²``; those inputs must now raise
ParseError at the mutated line, and every other result must be equal.
Rewrite the record, after a change that is meant to alter the results,
from the repository root with

    PYTHONPATH=src python tests/test_loader_golden.py --write
"""

import hashlib
import json
import os
import random
import sys
from pathlib import Path

from lyreynolds.fileformat import load_workspace

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "loader_golden.json"
SAMPLES = ("two_dim.lyr", "extension.lyr")
MUTANTS = 480

EVERY_KEY = """\
[algebra a]
dim = 2
labels = x y
binary = 1 2 1 1
binary = 2 1 1 -1
ternary = 1 2 2 1 1
ternary = 1 2 1 2 1/2

[algebra b]
dim = 3
binary = 1 2 3 1
binary = 2 3 1 -2/3
ternary = 1 2 3 1 1
ternary = 3 1 2 2 5

[operator t]
algebra = a
weight = -1
row = 1 0
row = 1/2 1

[operator tb]
algebra = b
weight = 2
row = 1 0 0
row = 0 0 1
row = 0 1 3

[representation r]
algebra = a
operator = t
module_dim = 3
rho = 1 1 2 1
rho = 2 3 1 -1/2
theta = 1 2 1 3 2
theta = 2 2 2 2 -1
module_op_row = 1 0 0
module_op_row = 0 2 0
module_op_row = 1 0 -1

[representation ad]
algebra = a
adjoint = true
operator = t

[representation rb]
algebra = b
module_dim = 0

[cochain c1]
algebra = a
representation = r
degree = 1
map = 1 2 3/4
map = 2 3 1

[cochain c1r]
algebra = a
operator = t
representation = r
complex = rly
degree = 1
map = 2 1 1

[cochain c2]
algebra = a
representation = ad
degree = 2
f = 1 2 1 1
f = 2 1 2 3
g = 1 2 1 2 1
g = 2 1 2 1 -1

[cochain c2ro]
algebra = a
operator = t
representation = ad
complex = ro
degree = 2
g = 1 2 2 1 4

[cochain c2r]
algebra = a
operator = t
representation = r
complex = rly
degree = 2
f = 1 2 3 1
g = 2 1 1 2 1/3
tail = 1 2 1
tail = 2 3 -1

[deformation d]
algebra = b
operator = tb
order = 2
F = 1 1 2 3 1
F = 2 3 1 2 -1
G = 1 1 2 3 1 1
G = 2 2 1 1 3 1/2
T = 1 1 2 1
T = 2 3 3 -1

[extension e]
base = a
operator = t
representation = ad
total = b
total_operator = tb
inject_row = 0
inject_row = 0
inject_row = 1
project_row = 1 0 0
project_row = 0 1 0
"""

# a malformed integer where the loader reads a dimension or an index
MALFORMED_INTEGERS = {
    "dim-double-minus": "[algebra a]\ndim = --2\n",
    "dim-superscript": "[algebra a]\ndim = ²\n",
    "index-superscript": "[algebra a]\ndim = 2\nbinary = ² 1 1 1\n",
}

# replacement tokens: numbers, malformed numbers, names and keywords
TOKENS = ("0", "1", "2", "3", "4", "9", "-1", "1/2", "-2/3", "1/0", "007", "x",
          "--2", "²", "a", "b", "t", "ad", "r", "ly2", "T", "base2", "Etot",
          "missing", "true", "ly", "ro", "rly", "=", "[algebra", "c2]")


def base_files():
    files = {name: (ROOT / "samples" / name).read_text(encoding="utf-8") for name in SAMPLES}
    return {"every_key.lyr": EVERY_KEY, **files}


def mutate(rng, files):
    """One seeded mutation of one content line of one file: a token
    replaced, deleted or doubled, or the line deleted or doubled.  Returns
    the mutated files, the file and line, and what was done there."""
    name = rng.choice(sorted(files))
    lines = files[name].splitlines()
    content = [i for i, line in enumerate(lines) if line.split("#", 1)[0].strip()]
    at = rng.choice(content)
    tokens = lines[at].split("#", 1)[0].split()
    op = rng.choice(("replace", "replace", "replace", "delete", "double",
                     "drop-line", "double-line"))
    pos = rng.randrange(len(tokens))
    if op == "replace":
        new = rng.choice(TOKENS)
        what = f"token {pos} -> {new!r}"
        tokens[pos] = new
    elif op == "delete":
        what = f"token {pos} deleted"
        del tokens[pos]
    elif op == "double":
        what = f"token {pos} doubled"
        tokens.insert(pos, tokens[pos])
    if op.endswith("-line"):
        what = op
        lines[at:at + 1] = [] if op == "drop-line" else [lines[at]] * 2
    else:
        lines[at] = " ".join(tokens)
    return {**files, name: "\n".join(lines) + "\n"}, (name, at + 1), what


def inputs():
    """(id, description, files, where) for every input, in record order;
    ``where`` is the (file, line) of a malformed or mutated line."""
    files = base_files()
    out = [("every-key", "EVERY_KEY", {"every_key.lyr": EVERY_KEY}, None),
           ("samples", "samples/*.lyr", {n: files[n] for n in SAMPLES}, None)]
    out += [(key, repr(text), {"input.lyr": text}, ("input.lyr", text.count("\n")))
            for key, text in MALFORMED_INTEGERS.items()]
    rng = random.Random(2024)
    for k in range(MUTANTS):
        mutated, (name, line), what = mutate(rng, files)
        # the sample files load together; the every-key file loads alone
        names = ("every_key.lyr",) if name == "every_key.lyr" else SAMPLES
        out.append((f"mutant-{k:03d}", f"{name}:{line} {what}",
                    {n: mutated[n] for n in names}, (name, line)))
    return out


def load(files, directory):
    """The digest of the loaded workspace, or the error class and text."""
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        ws = load_workspace(list(files))
    except Exception as exc:  # the record keeps every failure, crashes included
        return {"error": type(exc).__name__, "text": str(exc), "line": getattr(exc, "line", None)}
    finally:
        os.chdir(cwd)
        for name in files:
            (directory / name).unlink()
    return {"digest": hashlib.sha256(repr(ws).encode()).hexdigest()}


def record(directory):
    return [{"id": key, "input": what, **load(files, directory)}
            for key, what, files, _ in inputs()]


def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_record_covers_every_input():
    assert [(e["id"], e["input"]) for e in golden()] == [(k, w) for k, w, _, _ in inputs()]


def test_record_holds_workspaces_errors_and_crashes():
    kinds = [e.get("error", "digest") for e in golden()]
    assert kinds.count("digest") >= 50
    assert {"ParseError", "NameNotFound", "DimMismatch"} <= set(kinds)
    assert kinds.count("ValueError") >= 3


def test_loader_matches_golden_record(tmp_path):
    """Every input loads to its recorded result.  Inputs that crashed with
    ValueError when the record was written must now raise ParseError at the
    recorded line of the mutated file."""
    wrong = []
    for entry, (key, what, files, where) in zip(golden(), inputs()):
        got = load(files, tmp_path)
        want = {k: v for k, v in entry.items() if k not in ("id", "input")}
        if entry.get("error") == "ValueError":
            name, line = where
            ok = (got.get("error") == "ParseError" and got["line"] == line
                  and got["text"].startswith(f"{name}:{line}: "))
        else:
            ok = got == want
        if not ok:
            wrong.append(f"{key} ({what}): {got} != {want}")
    assert not wrong, "\n".join(wrong[:20])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_loader_golden.py --write")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        entries = record(Path(tmp))
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
