"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The optional long n=5
and n=6 symmetrizer checks are enabled by setting TRACE_RELATIONS_LONG=1.
"""

import json
import os
import pathlib
import random
import time

import pytest

from trace_relations.dimensions import rel_dim_formula
from trace_relations.evaluate import evaluate_monomial
from trace_relations.montecarlo import find_relations, rank_of, stream, verify_relation
from trace_relations.symmetrizer import (enumerate_standard_tableaux,
                                         project_tableau, project_to_invariants,
                                         symmetrizer_relation_space,
                                         two_column_shape, young_symmetrizer)
from trace_relations.words import (canonicalize_letters,
                                   enumerate_invariant_basis,
                                   involution_to_monomial, tau)
from trace_relations.cli import main as cli_main

from oracles import (catalan, contract_matching, enumerate_fpf_involutions,
                     fpf_count, quasi_idempotency_failures,
                     symmetrizer_term_count, two_part_partitions)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
SEED = 20260824

EXPECTED_TABLE = {
    1: [0, 0, 0, 0, 0],
    2: [2, 0, 0, 0, 0],
    3: [2, 2, 0, 0, 0],
    4: [5, 3, 3, 0, 0],
    5: [5, 7, 4, 3, 0],
    6: [9, 13, 12, 5, 4],
}


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_dimension_table(capsys):
    with capsys.disabled():
        t0 = time.perf_counter()
        rc = cli_main(["dims", "--max-d", "6", "--max-n", "5",
                       "--seed", str(SEED), "--format", "csv",
                       "--output", "/tmp/dims_acceptance.csv"])
        elapsed = time.perf_counter() - t0
        rows = pathlib.Path("/tmp/dims_acceptance.csv").read_text().splitlines()
        got = {d: [int(v) for v in rows[d].split(",")[1:]] for d in range(1, 7)}
        ok = rc == 0 and got == EXPECTED_TABLE and elapsed < 300
        report(f"1 dimension-table d<=6 n<=5 ({elapsed:.1f}s)", ok)


def test_criterion_2_theorem_diagonal(capsys):
    with capsys.disabled():
        t0 = time.perf_counter()
        counts = [len(find_relations(n, n + 1, SEED).relations) for n in range(1, 6)]
        formula = [rel_dim_formula(n) for n in range(1, 6)]
        elapsed = time.perf_counter() - t0
        ok = counts == formula == [2, 2, 3, 3, 4] and elapsed < 120
        report(f"2 theorem diagonal n=1..5 ({elapsed:.1f}s)", ok)


def test_criterion_3_worked_example_and_golden(capsys):
    with capsys.disabled():
        rs = find_relations(2, 3, SEED)
        span = [list(v) for v in rs.relations]
        target = [2, 0, -3, 0, 1]  # Tr(x)^3 - 3Tr(x^2)Tr(x) + 2Tr(x^3)
        ok = len(rs.relations) == 2 and rank_of(span) == 2
        ok = ok and rank_of(span + [target]) == 2
        # ambiguous second relation: -1 variant verifies, -3 variant fails
        ok = ok and verify_relation((0, 2, -1, -2, 1), 2, 3, stream(SEED, "c3a"))
        ok = ok and not verify_relation((0, 2, -3, -2, 1), 2, 3, stream(SEED, "c3b"))
        golden = json.loads((DATA / "golden_n2_d3.json").read_text())
        frozen = [[int(c) for c in rel] for rel in golden["relations"]]
        ok = ok and frozen == [[2, 0, -3, 0, 1], [0, 2, -1, -2, 1]]
        ok = ok and "note" in golden
        ok = ok and rank_of(span + [list(r) for r in frozen]) == 2
        report("3 worked example + golden file", ok)


def test_criterion_4_cross_engine_ranks(capsys):
    with capsys.disabled():
        t0 = time.perf_counter()
        ok = True
        for n in (1, 2, 3, 4):
            mc = find_relations(n, n + 1, SEED)
            ys = symmetrizer_relation_space(n, SEED)
            r = rel_dim_formula(n)
            ranks = (rank_of([list(v) for v in mc.relations]),
                     rank_of([list(v) for v in ys.relations]),
                     rank_of([list(v) for v in mc.relations + ys.relations]))
            ok = ok and ranks == (r, r, r)
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 120
        report(f"4 cross-engine rank equality n=1..4 ({elapsed:.1f}s)", ok)


@pytest.mark.skipif(os.environ.get("TRACE_RELATIONS_LONG") != "1",
                    reason="long n=5 symmetrizer run; set TRACE_RELATIONS_LONG=1")
def test_criterion_4_long_n4(capsys):
    with capsys.disabled():
        tableaux = enumerate_standard_tableaux(two_column_shape(4))
        ok = len(tableaux) == 42
        ok = ok and all(symmetrizer_term_count(t) == 460_800 for t in tableaux)
        # one n=4 tableau through the 460,800-term expansion
        ok = ok and (project_tableau(tableaux[0])
                     == project_to_invariants(young_symmetrizer(tableaux[0]), 4))
        t0 = time.perf_counter()
        mc = find_relations(5, 6, SEED)
        mc_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        ys = symmetrizer_relation_space(5, SEED)
        ys_time = time.perf_counter() - t0
        r = rel_dim_formula(5)
        ok = ok and len(mc.relations) == len(ys.relations) == r
        ok = ok and rank_of([list(v) for v in mc.relations + ys.relations]) == r
        ok = ok and mc_time < ys_time
        report(f"4L n=5 long run (mc {mc_time:.1f}s, ys {ys_time:.1f}s)", ok)


@pytest.mark.skipif(os.environ.get("TRACE_RELATIONS_LONG") != "1",
                    reason="long n=6 symmetrizer run; set TRACE_RELATIONS_LONG=1")
def test_criterion_4_long_n6(capsys):
    with capsys.disabled():
        # n = 6 is the symmetrizer cap: 429 tableaux over 135,135 matchings
        t0 = time.perf_counter()
        ys = symmetrizer_relation_space(6, SEED)
        ys_time = time.perf_counter() - t0
        mc = find_relations(6, 7, SEED)
        r = rel_dim_formula(6)
        ok = len(ys.relations) == r == 4
        ok = ok and rank_of([list(v) for v in mc.relations + ys.relations]) == r
        report(f"4L n=6 symmetrizer at the cap ({ys_time:.1f}s)", ok)


def test_criterion_5_counting_identities(capsys):
    with capsys.disabled():
        ok = all(len(enumerate_fpf_involutions(d)) == fpf_count(d)
                 for d in range(1, 7))
        ok = ok and all(len(enumerate_standard_tableaux(two_column_shape(n)))
                        == catalan(n + 1) for n in range(1, 6))
        ok = ok and all(len(two_part_partitions(n + 1)) == rel_dim_formula(n)
                        for n in range(1, 31))
        report("5 counting identities", ok)


def test_criterion_6_bijection_certification(capsys):
    with capsys.disabled():
        t0 = time.perf_counter()
        ok = True
        for d in (1, 2, 3):
            for n in (1, 2, 3):
                rng = random.Random(f"{SEED}/{d}/{n}")
                for inv in enumerate_fpf_involutions(d):
                    mono = involution_to_monomial(inv)
                    for _ in range(20):
                        x = tuple(rng.randint(-9, 9) for _ in range(n * n))
                        if contract_matching(inv, x) != evaluate_monomial(mono, x):
                            ok = False
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 60
        report(f"6 contraction oracle d<=3 n<=3 ({elapsed:.1f}s)", ok)


def test_criterion_7_invariance_suite(capsys):
    with capsys.disabled():
        rng = random.Random(SEED)
        ok = True
        # conjugation by signed permutation matrices, d<=4 n<=4
        for d in range(1, 5):
            basis = enumerate_invariant_basis(d)
            for n in range(1, 5):
                for _ in range(2):
                    x = tuple(rng.randint(-5, 5) for _ in range(n * n))
                    perm = list(range(n))
                    rng.shuffle(perm)
                    signs = [rng.choice((-1, 1)) for _ in range(n)]
                    g = [[signs[j] if perm[i] == j else 0 for j in range(n)]
                         for i in range(n)]
                    gt = list(map(list, zip(*g)))
                    def mm(a, b):
                        return [[sum(a[i][l] * b[l][j] for l in range(n))
                                 for j in range(n)] for i in range(n)]
                    rows = [x[i * n:(i + 1) * n] for i in range(n)]
                    gxg = tuple(e for r in mm(mm(gt, rows), g) for e in r)
                    ok = ok and all(evaluate_monomial(m, gxg) == evaluate_monomial(m, x)
                                    for m in basis)
        # canonicalization idempotency
        for _ in range(200):
            w = tuple(rng.choice((0, 1)) for _ in range(rng.randint(1, 8)))
            c = canonicalize_letters(w)
            ok = ok and canonicalize_letters(c) == c
        # class-id orbit constancy, exhaustive d<=4
        import itertools
        from trace_relations.words import encode
        for d in range(1, 5):
            for inv in enumerate_fpf_involutions(d):
                cid = encode(involution_to_monomial(inv))
                for gperm in itertools.permutations(range(d)):
                    slot = {2 * i + e: 2 * gperm[i] + e
                            for i in range(d) for e in (0, 1)}
                    conj = [0] * (2 * d)
                    for a in range(2 * d):
                        conj[slot[a]] = slot[inv[a]]
                    image = involution_to_monomial(tuple(conj))
                    ok = ok and encode(image) == cid
        # quasi-idempotency up to size 6
        ok = ok and all(quasi_idempotency_failures(size) == ()
                        for size in range(1, 7))
        report("7 invariance property suite", ok)


def test_criterion_8_reproducibility(capsys, tmp_path):
    with capsys.disabled():
        outs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            rc = cli_main(["relations", "--n", "3", "--d", "4",
                           "--seed", "12345", "--output", str(path)])
            assert rc == 0
            outs.append(path.read_bytes())
        report("8 reproducibility byte-identical", outs[0] == outs[1])
