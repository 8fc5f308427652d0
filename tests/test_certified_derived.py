"""The descendant pair certified by transport: with T and T_V invertible,
``descendant_algebra`` and ``induced_rep`` check their output by the
morphism and intertwining identities instead of re-scanning it with the
four full verifiers.  The certified results against the dense oracles and
those verifiers, mutants of the built tables caught by the certificate, and
the re-scan path taken, counted, whenever T or T_V is singular."""

import random
from collections import Counter

import pytest

import lyreynolds.representation as representation
import lyreynolds.reynolds as reynolds
from conftest import rand_matrix, random_valid_triples
from oracles import descendant_algebra_dense, induced_rep_dense
from lyreynolds import (
    Matrix,
    ReynoldsOperator,
    adjoint_rep,
    descendant_algebra,
    direct_sum_rep,
    induced_rep,
    two_dim_example,
    verify_ly_axioms,
    verify_rep,
    verify_reynolds,
    verify_reynolds_rep,
    zero_rep,
)
from lyreynolds.errors import InternalInconsistency
from lyreynolds.linalg import position, rank
from lyreynolds.representation import _require_reynolds_rep
from lyreynolds.reynolds import _require_reynolds

VERIFIERS = ((reynolds, "verify_ly_axioms"), (reynolds, "verify_reynolds"),
             (representation, "verify_rep"), (representation, "verify_reynolds_rep"))


def invertible(mat: Matrix) -> bool:
    return rank(mat) == mat.rows


def rand_invertible(rng, k: int) -> Matrix:
    while True:
        mat = rand_matrix(rng, k, k)
        if invertible(mat):
            return mat


def certified_triples(rng, count: int):
    """Valid triples with T and T_V invertible: the adjoint module (T_V =
    T), and half of them with a trivial summand whose T_V is random and
    invertible, so that the module dimension differs from the algebra's."""
    out = []
    while len(out) < count:
        algebra, op, rep = random_valid_triples(rng, 1)[0]
        if not invertible(op.matrix):
            continue
        if len(out) % 2:
            k = rng.randint(1, 2)
            rep = direct_sum_rep([rep, zero_rep(algebra.dim, k, rand_invertible(rng, k))])
        out.append((algebra, op, rep))
    return out


def build_counted(monkeypatch, algebra, op, rep):
    """induced_rep(algebra, op, rep) built cold after the input checks, with
    the calls it makes to the four full verifiers counted by name."""
    _require_reynolds(algebra, op)
    _require_reynolds_rep(algebra, op, rep)
    descendant_algebra.cache_clear()
    induced_rep.cache_clear()
    calls = Counter()
    for module, name in VERIFIERS:
        def counting(*args, name=name, original=getattr(module, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counting)
    return induced_rep(algebra, op, rep), calls


# ---------------------------------------------------------------------------
# (a) the certified results

def test_certified_pair_equals_the_dense_oracles_and_passes_the_full_verifiers(monkeypatch):
    for algebra, op, rep in certified_triples(random.Random(71), 24):
        with monkeypatch.context() as mp:
            out, calls = build_counted(mp, algebra, op, rep)
        assert calls == Counter()
        descendant = descendant_algebra(algebra, op)
        assert descendant == descendant_algebra_dense(algebra, op)
        assert out == induced_rep_dense(algebra, op, rep)
        assert verify_ly_axioms(descendant).ok
        assert verify_reynolds(descendant, op).ok
        assert verify_rep(descendant, out).ok
        assert verify_reynolds_rep(descendant, op, out).ok


# ---------------------------------------------------------------------------
# (b) mutants of the built tables, caught by the certificate

def test_a_mutant_of_the_induced_maps_fails_the_intertwining_check(monkeypatch):
    rng = random.Random(72)
    for algebra, op, rep in certified_triples(rng, 16):
        n, m = algebra.dim, rep.module_dim
        k = rng.randint(1, 2)
        args, r, c = tuple(rng.randrange(n) for _ in range(k)), rng.randrange(m), \
            rng.randrange(m)
        original = representation._twisted

        def mutant(read, table, arity, *rest, k=k, where=position(args + (r, c),
                                                                  (n,) * k + (m, m))):
            x_t = original(read, table, arity, *rest)
            if arity == k:
                x_t = dict(x_t)
                x_t[where] = x_t.get(where, 0) + 1
            return x_t

        name = ("rho", "theta")[k - 1]
        with monkeypatch.context() as mp:
            _require_reynolds_rep(algebra, op, rep)
            mp.setattr(representation, "_twisted", mutant)
            with pytest.raises(InternalInconsistency,
                               match=rf"^induced {name} fails to intertwine with \(T, T_V\) "
                                     rf"at \({','.join(map(str, args))}\)$"):
                build_counted(mp, algebra, op, rep)
    induced_rep.cache_clear()


@pytest.mark.parametrize("depth", [2, 3])
def test_a_mutant_of_the_descendant_brackets_fails_the_morphism_check(monkeypatch, depth):
    rng = random.Random(73 + depth)
    for algebra, op, rep in certified_triples(rng, 12):
        n = algebra.dim
        if n < 2:
            continue
        i, j = sorted(rng.sample(range(n), 2))
        rest = tuple(rng.randrange(n) for _ in range(depth - 1))
        original = reynolds.dense_tensor

        def mutant(acc, d, dim, den, depth=depth, cells=((i, j) + rest, (j, i) + rest)):
            # one bracket value [e_i, e_j] (or {e_i, e_j, e_k}) moved, with
            # its antisymmetric image, so that the algebra still builds
            if d == depth:
                acc = dict(acc)
                for sign, idx in zip((1, -1), cells):
                    p = position(idx, (dim,) * (d + 1))
                    acc[p] = acc.get(p, 0) + sign * den
            return original(acc, d, dim, den)

        kind = ("binary", "ternary")[depth - 2]
        witness = ",".join(map(str, ((i, j) + rest)[:depth]))
        with monkeypatch.context() as mp:
            mp.setattr(reynolds, "dense_tensor", mutant)
            with pytest.raises(InternalInconsistency,
                               match=rf"^T fails to be a {kind} morphism at \({witness}\)$"):
                build_counted(mp, algebra, op, rep)
    descendant_algebra.cache_clear()
    induced_rep.cache_clear()


# ---------------------------------------------------------------------------
# (c) a singular T or T_V takes the re-scan path

RB0 = ReynoldsOperator(Matrix.from_rows([[0, 1], [0, 0]]), 0)


def singular_operator_triples():
    ly2 = two_dim_example()
    out = [(ly2, RB0, adjoint_rep(ly2, RB0))]
    for algebra, op, rep in random_valid_triples(random.Random(74), 40):
        if op.matrix.is_zero() and algebra.dim > 1:
            out.append((algebra, op, rep))
    return out


def test_a_singular_operator_rescans_the_descendant_pair(monkeypatch):
    triples = singular_operator_triples()
    assert len(triples) >= 4
    for algebra, op, rep in triples:
        with monkeypatch.context() as mp:
            out, calls = build_counted(mp, algebra, op, rep)
        assert calls == Counter(name for _, name in VERIFIERS)
        assert descendant_algebra(algebra, op) == descendant_algebra_dense(algebra, op)
        assert out == induced_rep_dense(algebra, op, rep)


def test_a_singular_module_operator_rescans_the_induced_representation(monkeypatch):
    rng = random.Random(75)
    for algebra, op, _ in certified_triples(rng, 12):
        k = rng.randint(1, 3)
        while True:
            tv = rand_matrix(rng, k, k)
            if not invertible(tv):
                break
        rep = zero_rep(algebra.dim, k, tv)
        with monkeypatch.context() as mp:
            out, calls = build_counted(mp, algebra, op, rep)
        assert calls == Counter(verify_rep=1, verify_reynolds_rep=1)
        assert out == induced_rep_dense(algebra, op, rep)
