import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lyreynolds.cli as cli_module
import lyreynolds.cohomology as cohomology_module
import lyreynolds.representation as representation
from lyreynolds import (
    Matrix,
    adjoint_rep,
    cochain_dim,
    cohomology_dims,
    descendant_algebra,
    differential_matrix,
)
from lyreynolds.cli import main
from lyreynolds.errors import NameNotFound, ParseError
from lyreynolds import fileformat
from lyreynolds.fileformat import load_workspace
from lyreynolds.reporting import AxiomReport, ComplexReport, OrderReport
from tests.conftest import with_entry_added

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
TWO_DIM = str(SAMPLES / "two_dim.lyr")
SL2 = str(SAMPLES / "sl2.lyr")

F = Fraction


def write(tmp_path, text, name="input.lyr"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parsing

def test_load_canonical_sample(ly2, tri_t):
    ws = load_workspace([TWO_DIM])
    assert ws.algebras["ly2"].binary == ly2.binary
    assert ws.algebras["ly2"].ternary == ly2.ternary
    assert ws.operators["T"].op == tri_t
    assert ws.representations["ad"].rep == adjoint_rep(ly2, tri_t)
    assert ws.deformations["stretch"].order == 1


def test_parse_error_carries_line(tmp_path):
    path = write(tmp_path, "[algebra a]\ndim = 2\nbinary = 1 2 1\n")
    with pytest.raises(ParseError) as err:
        load_workspace([path])
    assert err.value.line == 3


def test_malformed_rational_rejected(tmp_path):
    path = write(tmp_path, "[algebra a]\ndim = 2\nbinary = 1 2 1 1/0\n")
    with pytest.raises(ParseError) as err:
        load_workspace([path])
    assert "denominator" in str(err.value)


def test_inconsistent_antisymmetric_pair_rejected(tmp_path):
    path = write(tmp_path,
                 "[algebra a]\ndim = 2\nbinary = 1 2 1 1\nbinary = 2 1 1 1\n")
    with pytest.raises(ParseError) as err:
        load_workspace([path])
    assert err.value.line == 4


def test_consistent_redundant_pair_accepted(tmp_path):
    path = write(tmp_path,
                 "[algebra a]\ndim = 2\nbinary = 1 2 1 1\nbinary = 2 1 1 -1\n")
    ws = load_workspace([path])
    assert ws.algebras["a"].binary[0][1] == (F(1), F(0))


def test_duplicate_names_rejected(tmp_path):
    path = write(tmp_path, "[algebra a]\ndim = 1\n[algebra a]\ndim = 1\n")
    with pytest.raises(ParseError):
        load_workspace([path])


def test_unknown_reference(tmp_path):
    path = write(tmp_path,
                 "[operator T]\nalgebra = missing\nweight = 0\nrow = 1\n")
    with pytest.raises(NameNotFound):
        load_workspace([path])


def test_index_out_of_range(tmp_path):
    path = write(tmp_path, "[algebra a]\ndim = 2\nbinary = 1 3 1 1\n")
    with pytest.raises(ParseError) as err:
        load_workspace([path])
    assert "out of range" in str(err.value)


def test_cross_file_references(tmp_path):
    first = write(tmp_path, "[algebra a]\ndim = 1\n", "a.lyr")
    second = write(tmp_path,
                   "[operator t]\nalgebra = a\nweight = -1\nrow = 1\n", "b.lyr")
    ws = load_workspace([first, second])
    assert ws.operators["t"].algebra == "a"


def test_explicit_representation_entries(tmp_path):
    text = """
[algebra a]
dim = 2
binary = 1 2 1 1
ternary = 1 2 2 1 1

[representation r]
algebra = a
module_dim = 2
rho = 1 1 2 1
rho = 2 1 1 -1
theta = 2 2 1 1 1
"""
    # rho(e1)[1][2] = 1 etc. match the adjoint of the canonical algebra
    ws = load_workspace([write(tmp_path, text)])
    rep = ws.representations["r"].rep
    assert rep.rho[0].column(1) == (F(1), F(0))
    assert rep.theta[1][1].column(0) == (F(1), F(0))


# ---------------------------------------------------------------------------
# verify command

def test_verify_algebra_ok(capsys):
    assert main(["verify", TWO_DIM, "--name", "ly2"]) == 0
    out = capsys.readouterr().out
    assert "LY6: pass" in out


def test_verify_operator_wrong_weight(tmp_path, capsys):
    text = """
[algebra a]
dim = 2
binary = 1 2 1 1
ternary = 1 2 2 1 1

[operator bad]
algebra = a
weight = 1/5
row = 2 3
row = 0 5
"""
    path = write(tmp_path, text)
    assert main(["verify", path, "--name", "bad"]) == 1
    out = capsys.readouterr().out
    assert "reynolds-binary: FAIL at basis tuple (1, 2)" in out


def test_verify_empty_algebra(tmp_path, capsys):
    path = write(tmp_path, "[algebra nil]\ndim = 0\n")
    assert main(["verify", path, "--name", "nil"]) == 0


def test_verify_missing_name_exit_code(capsys):
    assert main(["verify", TWO_DIM, "--name", "nothing"]) == 2


def test_verify_missing_file_exit_code(capsys):
    assert main(["verify", "no/such/file.lyr", "--name", "x"]) == 2


def test_verify_deformation_and_cochain(tmp_path, capsys):
    text = """
[algebra a]
dim = 2
binary = 1 2 1 1
ternary = 1 2 2 1 1

[operator t]
algebra = a
weight = -1
row = 1 0
row = 0 1

[representation ad]
algebra = a
adjoint = true
operator = t

[cochain ident]
algebra = a
operator = t
representation = ad
complex = rly
degree = 1
map = 1 1 1
map = 2 2 1
"""
    path = write(tmp_path, text)
    # the identity map is not a cone cocycle here: its coboundary is nonzero
    code = main(["verify", path, "--name", "ident"])
    out = capsys.readouterr().out
    assert code == 1 and "is-cocycle: FAIL" in out
    assert main(["verify", TWO_DIM, "--name", "stretch"]) == 0


def test_verify_representation_reports_both_layers(capsys):
    assert main(["verify", TWO_DIM, "--name", "ad"]) == 0
    out = capsys.readouterr().out
    assert "theta-of-bracket: pass" in out
    assert "rho-module-op: pass" in out


def test_verify_json_round_trip(capsys):
    assert main(["verify", TWO_DIM, "--name", "T", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    report = AxiomReport.from_json(payload["report"])
    assert report.ok
    assert report.to_json() == payload["report"]


# ---------------------------------------------------------------------------
# cohomology command

def test_cohomology_table(capsys):
    code = main(["cohomology", TWO_DIM, "--algebra", "ly2", "--operator", "T",
                 "--rep", "ad", "--complex", "ly", "--max-degree", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "complex ly" in out
    dims = [line.split()[1] for line in out.splitlines()[2:5]]
    assert dims == ["4", "6", "6"]
    assert "d2 o d1 = 0: pass" in out


def test_cohomology_rly_dims(capsys):
    code = main(["cohomology", TWO_DIM, "--algebra", "ly2", "--operator", "T",
                 "--rep", "ad", "--complex", "rly", "--max-degree", "3"])
    out = capsys.readouterr().out
    assert code == 0
    dims = [line.split()[1] for line in out.splitlines()[2:5]]
    assert dims == ["4", "10", "12"]


def test_cohomology_json_round_trip(ly2, tri_t, capsys):
    code = main(["cohomology", TWO_DIM, "--algebra", "ly2", "--operator", "T",
                 "--rep", "ad", "--complex", "rly", "--max-degree", "3",
                 "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    parsed = ComplexReport.from_json(payload)
    in_memory = cohomology_dims(ly2, tri_t, adjoint_rep(ly2, tri_t), "rly", 3)
    assert parsed == in_memory
    assert payload["square_zero"] == [True, True]
    assert payload["chain_map"] == [True, True]


def clear_engine_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("lyreynolds"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


# ly2 with the singular Rota-Baxter operator (0 1; 0 0) of weight 0 and its
# adjoint representation, whose module operator is singular too
LY2_RB0 = """[algebra ly2]
dim = 2
binary = 1 2 1 1
ternary = 1 2 2 1 1

[operator rb0]
algebra = ly2
weight = 0
row = 0 1
row = 0 0

[representation ad]
algebra = ly2
adjoint = true
operator = rb0
"""


def verify_rep_calls(monkeypatch, path, op):
    """The algebras verify_rep is called over, in order, by one cold
    ``cohomology --complex rly`` of ly2 with ``op`` and the rep ``ad``."""
    calls = []
    original = representation.verify_rep

    def counting(algebra, rep):
        calls.append(algebra)
        return original(algebra, rep)

    monkeypatch.setattr(representation, "verify_rep", counting)
    monkeypatch.setattr(cli_module, "verify_rep", counting)
    clear_engine_caches()
    code = main(["cohomology", path, "--algebra", "ly2", "--operator", op,
                 "--rep", "ad", "--complex", "rly", "--max-degree", "3"])
    assert code == 0
    return calls


def test_cohomology_verifies_each_representation_once(monkeypatch, capsys):
    # never: (L, V) is the adjoint module, certified at the input gate, and
    # with T = (2 3; 0 5) and T_V = T invertible the descendant pair is
    # certified by transport
    assert len(verify_rep_calls(monkeypatch, TWO_DIM, "T")) == 0


def test_cohomology_verifies_the_descendant_pair_of_a_singular_operator(
        monkeypatch, capsys, tmp_path):
    # the adjoint (L, V) is certified at the input gate; the descendant
    # pair of the singular rb0 is verified once inside induced_rep
    path = write(tmp_path, LY2_RB0)
    calls = verify_rep_calls(monkeypatch, path, "rb0")
    ws = load_workspace([path])
    assert calls == [descendant_algebra(ws.algebra("ly2"), ws.operator("rb0").op)]


SL2_LYR = """[algebra sl2]
dim = 3
labels = h e f
binary = 1 2 2 2
binary = 1 3 3 -2
binary = 2 3 1 1
{ternary}

[operator T]
algebra = sl2
weight = -1/2
row = 2 0 0
row = 0 2 0
row = 0 0 2

[representation ad]
algebra = sl2
adjoint = true
operator = T
"""


def write_sl2(tmp_path, sl2):
    # the ternary bracket {x,y,z} = [[x,y],z] of sl2 written out, i < j
    lines = [f"ternary = {i + 1} {j + 1} {k + 1} {l + 1} {v}"
             for i in range(3) for j in range(i + 1, 3) for k in range(3)
             for l, v in enumerate(sl2.ternary[i][j][k]) if v]
    return write(tmp_path, SL2_LYR.format(ternary="\n".join(lines)), "sl2.lyr")


def counted_products(monkeypatch):
    """The list that each Matrix product appends its factor shapes to."""
    shapes = []
    original = Matrix.__matmul__

    def counting(a, b):
        shapes.append((a.rows, a.cols, b.cols))
        return original(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    return shapes


def phi2_mutant(original):
    """``original`` (a phi_matrix) with 1 added to an entry of phi2, in the
    column of a nonzero row of d1, so that phi2 . d1 changes."""
    def mutated(algebra, op, rep, degree):
        mat = original(algebra, op, rep, degree)
        if degree != 2:
            return mat
        d1 = differential_matrix(algebra, op, rep, "ly", 1)
        return with_entry_added(mat, 0, next(k for k, row in enumerate(d1.integer[1]) if row))

    return mutated


def test_cohomology_multiplies_each_composite_differential_once(
        tmp_path, monkeypatch, capsys, sl2):
    path = write_sl2(tmp_path, sl2)
    shapes = counted_products(monkeypatch)
    clear_engine_caches()
    code = main(["cohomology", path, "--algebra", "sl2", "--operator", "T",
                 "--rep", "ad", "--complex", "ly", "--max-degree", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "d2 o d1 = 0: pass" in out and "d3 o d2 = 0: pass" in out
    # d(p+1) . d(p) is checked once, inside cohomology_dims
    for p in (1, 2):
        dims = [cochain_dim(q, 3, 3) for q in (p + 2, p + 1, p)]
        assert shapes.count(tuple(dims)) == 1, p


@pytest.mark.parametrize("max_degree", [1, 2, 4])
def test_the_cone_reads_its_chain_map_off_its_square(monkeypatch, capsys, max_degree):
    # rly: one product per d(p+1) . d(p), whose lower-left block is
    # partial(p) . phi(p) - phi(p+1) . delta(p); ro: two more per degree
    shapes = counted_products(monkeypatch)
    counts = {}
    for which in ("rly", "ro"):
        clear_engine_caches()
        shapes.clear()
        code = main(["cohomology", SL2, "--algebra", "sl2", "--operator", "Tsl2",
                     "--rep", "adsl2", "--complex", which, "--max-degree", str(max_degree),
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["chain_map"] == payload["square_zero"] == [True] * (max_degree - 1)
        counts[which] = len(shapes)
    assert counts == {"rly": max_degree - 1, "ro": 3 * (max_degree - 1)}


def test_cohomology_fails_on_a_mutated_comparison_map(monkeypatch, capsys):
    args = ["cohomology", SL2, "--algebra", "sl2", "--operator", "Tsl2", "--rep", "adsl2",
            "--complex", "ly", "--max-degree", "3"]
    assert main(args) == 0
    assert "comparison map squares with d at degree 1: pass" in capsys.readouterr().out
    monkeypatch.setattr(cli_module, "phi_matrix", phi2_mutant(cli_module.phi_matrix))
    clear_engine_caches()
    assert main(args) == 1
    out = capsys.readouterr().out
    assert "d2 o d1 = 0: pass" in out and "d3 o d2 = 0: pass" in out
    assert "comparison map squares with d at degree 1: FAIL" in out
    assert "comparison map squares with d at degree 2: FAIL" in out


def test_a_mutated_comparison_map_breaks_the_cone_and_fails_the_products(
        monkeypatch, capsys):
    mutated = phi2_mutant(cohomology_module.phi_matrix)
    monkeypatch.setattr(cohomology_module, "phi_matrix", mutated)
    monkeypatch.setattr(cli_module, "phi_matrix", mutated)
    clear_engine_caches()
    args = ["cohomology", SL2, "--algebra", "sl2", "--operator", "Tsl2", "--rep", "adsl2",
            "--max-degree", "3", "--json", "--complex"]
    assert main(args + ["rly"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: outgoing . incoming != 0: the complex is broken\n"
    assert main(args + ["ro"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["square_zero"] == [True, True]
    assert payload["chain_map"][0] is False


FAILING_INPUTS = {
    "algebra": ("ternary = 1 2 2 1 1", "ternary = 1 2 2 1 1\nternary = 1 2 1 2 1"),
    "operator": ("weight = -1/5", "weight = 1/5"),
    "representation": ("adjoint = true", "module_dim = 2\nrho = 1 1 2 1"),
    # the adjoint maps written out, with the identity as module operator
    "module-operator": ("adjoint = true",
                        "module_dim = 2\nrho = 1 1 2 1\nrho = 2 1 1 -1\n"
                        "theta = 2 2 1 1 1\ntheta = 1 2 1 2 -1\n"
                        "module_op_row = 1 0\nmodule_op_row = 0 1"),
}


@pytest.mark.parametrize("broken", sorted(FAILING_INPUTS))
def test_cohomology_rejects_inputs_that_fail_verification(tmp_path, capsys, broken):
    old, new = FAILING_INPUTS[broken]
    text = Path(TWO_DIM).read_text()
    assert old in text
    path = write(tmp_path, text.replace(old, new, 1))
    clear_engine_caches()
    code = main(["cohomology", path, "--algebra", "ly2", "--operator", "T",
                 "--rep", "ad", "--complex", "rly", "--max-degree", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == \
        "error: inputs fail verification; run the verify command for details\n"


# ---------------------------------------------------------------------------
# classify-extensions command

def test_classify_extensions_count_matches_betti(ly2, tri_t, capsys):
    code = main(["classify-extensions", TWO_DIM, "--algebra", "ly2",
                 "--operator", "T", "--rep", "ad", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    betti2 = cohomology_dims(ly2, tri_t, adjoint_rep(ly2, tri_t),
                             "rly", 2).betti(2)
    assert payload["betti2"] == betti2
    assert len(payload["representatives"]) == betti2


def test_classify_extensions_trivial_group(tmp_path, capsys):
    # a 1-dim base with an injective comparison map has no degree-2 classes
    text = """
[algebra a]
dim = 1

[operator t]
algebra = a
weight = -1/2
row = 2

[representation r]
algebra = a
module_dim = 1
module_op_row = 3
operator = t
"""
    path = write(tmp_path, text)
    code = main(["classify-extensions", path, "--algebra", "a",
                 "--operator", "t", "--rep", "r"])
    out = capsys.readouterr().out
    assert code == 0
    assert "second cohomology dimension: 0" in out
    assert "semidirect" in out


# ---------------------------------------------------------------------------
# deform-check command

def test_deform_check_ok(capsys):
    assert main(["deform-check", TWO_DIM, "--name", "stretch"]) == 0
    out = capsys.readouterr().out
    assert "order 1: pass" in out


def test_deform_check_json_round_trip(capsys):
    assert main(["deform-check", TWO_DIM, "--name", "stretch", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    report = OrderReport.from_json(payload["report"])
    assert report.ok


def test_deform_check_failing_deformation(tmp_path, capsys):
    text = """
[algebra a]
dim = 2
binary = 1 2 1 1
ternary = 1 2 2 1 1

[operator t]
algebra = a
weight = -1
row = 1 0
row = 0 1

[deformation wonky]
algebra = a
operator = t
order = 1
T = 1 2 1 1
"""
    path = write(tmp_path, text)
    code = main(["deform-check", path, "--name", "wonky"])
    out = capsys.readouterr().out
    assert code == 1
    assert "order 1: FAIL" in out


def test_deform_check_order_flag(tmp_path, capsys):
    assert main(["deform-check", TWO_DIM, "--name", "stretch", "--order", "1"]) == 0
    assert main(["deform-check", TWO_DIM, "--name", "stretch", "--order", "2"]) == 2


def test_cli_output_deterministic(capsys):
    args = ["cohomology", TWO_DIM, "--algebra", "ly2", "--operator", "T",
            "--rep", "ad", "--complex", "rly", "--max-degree", "3", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_extension_sample_verifies(capsys):
    path = str(SAMPLES / "extension.lyr")
    assert main(["verify", path, "--name", "E1"]) == 0
    out = capsys.readouterr().out
    assert "base-data-matches: pass" in out
    assert main(["verify", path, "--name", "chidefect"]) == 0


def test_verify_reads_the_section_basis_of_an_extension_once(monkeypatch, capsys):
    """E1 is in block form, so the read of its canonical section, which the
    constructor, base-data-matches and induced-representation-matches
    share, is the total's own tensors: no change of basis is built."""
    import lyreynolds.extension as extension

    calls = []
    original = extension._section_basis

    def counted(ext, section):
        calls.append(section)
        return original(ext, section)

    monkeypatch.setattr(extension, "_section_basis", counted)
    assert main(["verify", str(SAMPLES / "extension.lyr"), "--name", "E1"]) == 0
    assert capsys.readouterr().out == (
        "extension-structure: pass\nbase-data-matches: pass\n"
        "induced-representation-matches: pass\n")
    assert len(calls) == 0


def test_verify_rejects_a_module_image_that_is_not_an_ideal(tmp_path, capsys):
    # the 2-dim Lie algebra [e1, e2] = e1 with V = span(e2): [e1, e2] has a
    # base part, so V is abelian but no ideal
    text = """
[algebra lie2]
dim = 2
binary = 1 2 1 1

[operator id]
algebra = lie2
weight = -1
row = 1 0
row = 0 1

[extension notideal]
total = lie2
total_operator = id
inject_row = 0
inject_row = 1
project_row = 1 0
"""
    path = write(tmp_path, text)
    assert main(["verify", path, "--name", "notideal"]) == 1
    out = capsys.readouterr().out
    assert out == "extension-structure: FAIL\nmodule image is not an ideal\n"


@pytest.mark.parametrize("references", ["base = b\noperator = tb\n", ""],
                         ids=["with-base", "bare"])
def test_verify_rejects_an_operator_that_leaves_the_module_image(tmp_path, capsys, references):
    # the abelian total of dim 2 with V = span(e2) and T_hat e2 = e1: every
    # other check passes, and the base references change nothing
    text = f"""
[algebra b]
dim = 1

[operator tb]
algebra = b
weight = 0
row = 0

[algebra a]
dim = 2

[operator ta]
algebra = a
weight = 0
row = 0 1
row = 0 0

[extension leaves]
total = a
total_operator = ta
{references}inject_row = 0
inject_row = 1
project_row = 1 0
"""
    path = write(tmp_path, text)
    assert main(["verify", path, "--name", "leaves"]) == 1
    out = capsys.readouterr().out
    assert out == "extension-structure: FAIL\nvector does not lie in the module image\n"


PAIR_OF_ALGEBRAS = """
[algebra a]
dim = 2
binary = 1 2 1 1
ternary = 1 2 2 1 1

[operator t]
algebra = a
weight = -1
row = 1 0
row = 0 1

[representation ad]
algebra = a
adjoint = true
operator = t

[algebra b]
dim = 2

[operator tb]
algebra = b
weight = -1
row = 1 0
row = 0 1

[representation adb]
algebra = b
adjoint = true
operator = tb
"""


@pytest.mark.parametrize("body,key,message", [
    # degree 1 reads only 'map'
    ("complex = ly\ndegree = 1\nmap = 1 1 1\nf = 1 2 1 5\n", "f",
     "'f' is not read by a degree-1 cochain"),
    # degree 2 never reads 'map'
    ("complex = ly\ndegree = 2\nmap = 1 1 1\n", "map", "'map' is not read by a degree-2 cochain"),
    ("complex = rly\ndegree = 1\nmap = 1 1 1\ntail = 1 1 1\ntail = 2 1 1\n", "tail",
     "'tail' is not read by a degree-1 cochain"),
    ("complex = ro\ndegree = 2\nf = 1 2 1 1\ntail = 1 1 1\n", "tail",
     "'tail' only makes sense for the rly complex"),
])
def test_cochain_keys_the_section_does_not_read_are_rejected(tmp_path, capsys, body, key,
                                                             message):
    text = PAIR_OF_ALGEBRAS + "\n[cochain c]\nalgebra = a\noperator = t\nrepresentation = ad\n"
    path = write(tmp_path, text + body)
    # the key's first line
    line = (text + body).splitlines().index(next(
        row for row in body.splitlines() if row.startswith(key + " "))) + 1
    with pytest.raises(ParseError) as err:
        load_workspace([path])
    assert err.value.line == line and message in str(err.value)
    assert main(["verify", path, "--name", "c"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("refs,what", [
    ("operator = t\nrepresentation = adb\n", "representation 'adb'"),
    ("operator = tb\nrepresentation = ad\n", "operator 'tb'"),
])
def test_cochain_references_must_live_on_its_algebra(tmp_path, capsys, refs, what):
    text = PAIR_OF_ALGEBRAS + f"\n[cochain c]\nalgebra = a\n{refs}complex = rly\ndegree = 1\n"
    path = write(tmp_path, text + "map = 1 1 1\n")
    assert main(["verify", path, "--name", "c"]) == 2
    err = capsys.readouterr().err
    assert what in err and "lives on a different algebra" in err


DEFORMATION_HEAD = """[deformation d]
algebra = a
operator = t
order = 1
"""

DEFORMATION_BASE = """
[algebra a]
dim = 2
binary = 1 2 1 1
ternary = 1 2 2 1 1

[operator t]
algebra = a
weight = -1
row = 1 0
row = 0 1
"""


@pytest.mark.parametrize("body,message", [
    # lines 5 and 6 give (1, 2) and (2, 1) values that are not negatives
    ("F = 1 1 2 1 1\nF = 1 2 1 1 1\n", "6: 'F' entry at (1, 2, 1, 1) conflicts with line 5"),
    ("G = 1 1 2 1 1 1\nG = 1 2 1 1 1 1\n",
     "6: 'G' entry at (1, 2, 1, 1, 1) conflicts with line 5"),
    # a consistent restatement on line 6 leaves line 5 as the one cited
    ("F = 1 1 2 1 1\nF = 1 2 1 1 -1\nF = 1 1 2 1 2\n",
     "7: 'F' entry at (1, 1, 2, 1) conflicts with line 5"),
    # the order is the leading index, bounded by the section's order
    ("T = 1 1 1 1\nT = 2 1 1 1\n", "6: index 2 out of range 1..1"),
])
def test_deformation_parse_errors_name_the_offending_line(tmp_path, capsys, body, message):
    path = write(tmp_path, DEFORMATION_HEAD + body + DEFORMATION_BASE, "bad.lyr")
    assert main(["deform-check", path, "--name", "d"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}:{message}\n"


@pytest.mark.parametrize("text,message", [
    ("[algebra a]\ndim = --2\n", "2: 'dim' must be one integer"),
    ("[algebra a]\ndim = ²\n", "2: 'dim' must be one integer"),
    ("[algebra a]\ndim = 2\nbinary = ² 1 1 1\n", "3: expected a 1-based index, got '²'"),
])
def test_malformed_integers_are_parse_errors(tmp_path, capsys, text, message):
    # int() rejects these tokens, so the integer rule must reject them first
    path = write(tmp_path, text, "bad.lyr")
    assert main(["verify", path, "--name", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}:{message}\n"


# ---------------------------------------------------------------------------
# the --json writer and the adjoint sections it reads

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=-10 ** 80, max_value=10 ** 80)
    | st.text(st.characters(codec=None, exclude_categories=())) | st.sampled_from(
        ["", "\x00\x1f\x7f", "\"\\/\b\f\n\r\t", "é ü ß", "  ", "😀", "\ud800"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_the_json_writer_gives_the_bytes_of_json_dumps(value):
    assert cli_module._dumps(value) == json.dumps(value, indent=2)


def test_the_json_writer_rejects_a_type_the_commands_do_not_print():
    with pytest.raises(TypeError):
        cli_module._dumps({"x": [F(1, 2)]})


def adjoint_builds(monkeypatch) -> list:
    """The (algebra, operator) pairs ``representation.adjoint_rep`` builds
    from, in order, while the patch holds."""
    built = []
    original = representation.adjoint_rep

    def counting(algebra, op=None):
        built.append((algebra, op))
        return original(algebra, op)

    monkeypatch.setattr(representation, "adjoint_rep", counting)
    return built


@pytest.mark.parametrize("argv,builds", [
    (["deform-check", TWO_DIM, "--name", "stretch", "--json"], 0),
    (["verify", TWO_DIM, "--name", "ad", "--json"], 1),
    (["cohomology", TWO_DIM, "--algebra", "ly2", "--operator", "T", "--rep", "ad",
      "--max-degree", "2"], 1),
])
def test_an_adjoint_section_is_built_when_its_representation_is_first_read(
        monkeypatch, capsys, argv, builds):
    clear_engine_caches()
    built = adjoint_builds(monkeypatch)
    assert main(argv) == 0
    assert len(built) == builds


def test_a_loaded_adjoint_entry_reads_as_one_built_at_load(monkeypatch, ly2, tri_t):
    built = adjoint_builds(monkeypatch)
    entry = load_workspace([TWO_DIM]).representations["ad"]
    assert built == []
    eager = fileformat.RepresentationEntry("ly2", "T", adjoint_rep(ly2, tri_t))
    assert repr(entry) == repr(eager) and entry == eager and hash(entry) == hash(eager)
    assert len(built) == 1  # on the first read, not on the eager build
    assert entry.rep is entry.rep and len(built) == 1


def test_a_cochain_over_an_adjoint_section_does_not_build_it(monkeypatch, capsys, tmp_path):
    # the cochain's module dimension is the adjoint section's algebra's
    cochain = tmp_path / "c1.lyr"
    cochain.write_text("[cochain c1]\nalgebra = ly2\noperator = T\nrepresentation = ad\n"
                       "complex = rly\ndegree = 1\nmap = 1 1 1\n")
    clear_engine_caches()
    built = adjoint_builds(monkeypatch)
    ws = load_workspace([TWO_DIM, str(cochain)])
    assert main(["deform-check", TWO_DIM, str(cochain), "--name", "stretch"]) == 0
    assert built == []
    assert ws.cochains["c1"].cochain.top.mod_dim == ws.representations["ad"].rep.module_dim == 2
