"""Acceptance gate: one test per shipped claim, each printing a PASS/FAIL line.

Every check is exact integer arithmetic; the time bounds are generous
wall-clock ceilings for a desk machine, not benchmarks.
"""

import time

from cpgraphs import fixtures as fx
from cpgraphs.graphs import all_pairs_distances, build_cp_graph
from cpgraphs.linalg import determinant
from cpgraphs.reduction import congruence_reduce, reducing_matrix
from cpgraphs.sequences import NeighborhoodSequence, NonLeapingSequence
from cpgraphs.suites import run_suite


def _verdict(k, label, ok, detail):
    print(f"ACCEPTANCE {k} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _gate(k, label, suite, bound_s, seed=0, scale=None):
    t0 = time.perf_counter()
    r = run_suite(suite, seed=seed, scale=scale)
    dt = time.perf_counter() - t0
    ok = r.failed == 0 and dt < bound_s
    _verdict(k, label, ok, f"{r.passed} checks, {dt:.1f}s")
    assert r.failed == 0, r.failures[:5]
    assert dt < bound_s, f"took {dt:.1f}s, bound {bound_s}s"


def test_criterion_01_two_tree_determinants():
    t0 = time.perf_counter()
    got = {
        name: determinant(all_pairs_distances(fx.fixture_graph(name)))
        for name in fx.TWO_TREE_6_DETERMINANTS
    }
    dt = time.perf_counter() - t0
    ok = got == fx.TWO_TREE_6_DETERMINANTS and dt < 1.0
    _verdict(1, "bundled 6-vertex 2-tree determinants -8/-9/-9", ok, f"{got}, {dt:.2f}s")
    assert got == fx.TWO_TREE_6_DETERMINANTS
    assert dt < 1.0


def test_criterion_02_recorded_8x8_matrices():
    t0 = time.perf_counter()
    s = NonLeapingSequence(fx.CP8_SEQ)
    checks = 0
    for anchors, want_d, want_e in (
        (fx.CP8_CHAIN_ANCHORS, fx.CP8_CHAIN_DISTANCES, fx.CP8_CHAIN_REDUCER),
        (fx.CP8_HUB_ANCHORS, fx.CP8_HUB_DISTANCES, fx.CP8_HUB_REDUCER),
    ):
        ns = NeighborhoodSequence(s, anchors)
        d = all_pairs_distances(build_cp_graph(ns))
        e = reducing_matrix(ns)
        assert d == want_d
        assert e == want_e
        assert congruence_reduce(d, e) == fx.CP8_REDUCED_ADJACENCY
        checks += 3
    dt = time.perf_counter() - t0
    ok = dt < 1.0
    _verdict(2, "both recorded members reproduce D, E, and E^T D E", ok, f"{checks} matrices, {dt:.2f}s")
    assert dt < 1.0


def test_criterion_03_congruence_exhaustive():
    _gate(3, "congruence for every family n<=8 plus 100 random members at n=12", "congruence", 120.0)


def test_criterion_04_family_constancy():
    _gate(4, "det, inertia, and cofactor sum constant across every family n<=8", "constancy", 120.0)


def test_criterion_05_cp2_closed_forms():
    _gate(5, "2-clique-path closed forms for all specs m<=4, parts 3..5", "cp2-formulas", 120.0)


def test_criterion_06_linear_2tree():
    _gate(6, "linear 2-tree formulas for 4<=n<=10", "linear-2tree", 120.0)


def test_criterion_07_weighted_path():
    _gate(7, "weighted path determinant and inertia for n<=12", "weighted-path", 60.0)


def test_criterion_08_trees():
    _gate(8, "tree formulas over all Pruefer trees n<=7 plus block composition", "trees", 60.0)


def test_criterion_09_attachment_invariance():
    _gate(9, "attachment determinant invariance, fixtures plus seeded random", "attach", 120.0)


def test_criterion_10_block_inertia():
    _gate(10, "block-2CP inertia with label-order minor signs on 30 recipes", "block-inertia", 60.0)


def test_criterion_11_addressing():
    _gate(11, "minimum address length n-1 on the six reference graphs", "addressing", 300.0)


def test_criterion_12_crossvalidation():
    _gate(12, "determinant and inertia crosschecks on 200 random matrices", "linalg-crossval", 60.0)
