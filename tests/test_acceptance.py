"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run pytest
with -s to see them stream).  Every tolerance and instance list is pinned
here; nothing is deferred to later calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import (dual_distance_by_codewords, projective_point_count,
                     random_admissible_columns, random_certificate_instance, random_subspace)

import blockforge as bf
from blockforge.expander import complete_graph
from blockforge.linalg import gaussian_binomial, matmul, rank
from blockforge.mincode import blocking_to_code, is_s_minimal
from blockforge.supply import dual_distance

CHERRY_CASES = [(5, 3, 4), (7, 3, 5), (7, 4, 6)]


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def lps29():
    return bf.lps_graph(5, 29)


@pytest.fixture(scope="module")
def cherry_sets():
    out = {}
    for q, k, n in CHERRY_CASES:
        fld = bf.field_create(q)
        supply = bf.supply_mds(fld, k, n)
        out[(q, k, n)] = bf.construct_cherry(complete_graph(n), supply)
    return out


def test_criterion_1_rank_certificate_lemma():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        q = int(rng.choice([2, 3, 5]))
        fld = bf.field_create(q)
        s = int(rng.choice([1, 2, 3]))
        k = int(rng.integers(3, 9))
        n_max = min(12, projective_point_count(q, k))
        n = int(rng.integers(max(2, s), max(max(2, s), n_max) + 1))
        supply, L, h, wit, order = random_certificate_instance(fld, k, s, n, rng)
        cert = bf.certify(supply, L, h, wit, order)
        floor = rank(cert.n_matrix) - s + 1
        assert cert.achieved_dim >= floor  # zero tolerance, exact integers
        assert cert.achieved_dim == rank(matmul(cert.m_matrix, cert.n_matrix))
        checked += 1
    elapsed = time.perf_counter() - t0
    report(1, "rank-certificate lemma (200 instances)",
           checked == 200 and elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_2_cherry_pipeline(cherry_sets):
    t0 = time.perf_counter()
    ok = True
    details = []
    for (q, k, n), b in cherry_sets.items():
        rep = bf.is_strong_blocking(b, 2)
        total = gaussian_binomial(k, k - 2, q)
        lb = bf.lower_bound(q, k, 2)
        good = rep.passed and rep.subspaces_checked == total and b.size >= lb
        ok &= good
        details.append(f"({q},{k},{n}):{b.size}pts/{total}subs")
    elapsed = time.perf_counter() - t0
    report(2, "end-to-end cherry pipeline", ok and elapsed < 60.0,
           "; ".join(details) + f", {elapsed:.2f}s")


def test_criterion_3_duality_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31337)
    for _ in range(100):
        q = int(rng.choice([2, 3]))
        fld = bf.field_create(q)
        s = int(rng.choice([1, 2]))
        k = int(rng.integers(s + 1, 5))
        n_max = min(8, projective_point_count(q, k))
        n = int(rng.integers(k, n_max + 1))
        cols = random_admissible_columns(fld, k, n, rng)
        b1, b2 = bf.duality_check(cols, s)  # raises on any mismatch
        assert b1 == b2
    elapsed = time.perf_counter() - t0
    report(3, "duality sweep (100 column sets)", elapsed < 120.0, f"{elapsed:.2f}s")


def test_criterion_4_ramanujan_property(lps29):
    t0 = time.perf_counter()
    g = lps29
    shape_ok = (g.n == 12180 and g.is_regular() and g.degree == 6
                and g.is_connected())
    rep = bf.second_eigenvalue(g, tol=1e-7)
    bound_ok = rep.lambda_bound <= 2 * math.sqrt(5) + 1e-6
    elapsed = time.perf_counter() - t0
    report(4, "Ramanujan property of the 12180-vertex 6-regular graph",
           shape_ok and bound_ok and elapsed < 300.0,
           f"lambda<={rep.lambda_bound:.9f} vs {2 * math.sqrt(5) + 1e-6:.9f}, {elapsed:.1f}s")


def test_criterion_5_expander_mixing(lps29):
    rep = bf.check_mixing(lps29, lam=2 * math.sqrt(5), trials=1000, seed=5)
    report(5, "expander mixing (1000 sampled set pairs)",
           rep.violations == 0, f"max ratio {rep.max_ratio:.3f}")


def test_criterion_6_general_position_certification():
    cases = [(7, 3, 6), (7, 4, 8), (5, 3, 6), (5, 2, 5), (13, 5, 10), (11, 6, 10),
             ((3, 2), 4, 8)]
    ok = True
    for q, k, n in cases:
        fld = bf.field_create(*q) if isinstance(q, tuple) else bf.field_create(q)
        supply = bf.supply_mds(fld, k, n)
        rep = bf.verify_general_position(supply)
        ok &= (rep.method == "exhaustive" and rep.s_independence == k - 1
               and rep.span_threshold == k)
        ok &= (dual_distance(supply.matrix)
               == dual_distance_by_codewords(supply.matrix))
    report(6, "general-position certification of MDS supplies", ok,
           f"{len(cases)} parameter sets")


def test_criterion_7_exactly_s_plus_one_edge():
    fld = bf.field_create(5, 2)  # GF(25)
    supply = bf.supply_mds(fld, 3, 24)  # |U| = 24 = (s+2)! for s = 2
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(20):
        L = random_subspace(fld, 3, 1, rng)  # codimension 2
        w = bf.exactly_s_plus_one_edge(supply, range(24), L, 2)
        good = (w is not None and len(w.edge) == 3
                and all(c != 0 for c in w.coefficients))
        if good:
            w.check(supply, L)
        ok &= good
    report(7, "size-3 full-support edge exists (20 subspaces over GF(25))", ok)


def test_criterion_8_shard_invariance(cherry_sets):
    ok = True
    for (q, k, n), b in cherry_sets.items():
        blobs = set()
        for jobs in (1, 4, 16):
            rep = bf.is_strong_blocking(b, 2, jobs=jobs)
            blobs.add(json.dumps(rep.to_dict(), sort_keys=True))
        ok &= len(blobs) == 1
    report(8, "verifier shard invariance (jobs 1/4/16)", ok)


def test_criterion_9_small_case_oracle():
    fld = bf.field_create(2)
    res = bf.minimum_size_search(fld, 3, 1)
    lb = bf.lower_bound(2, 3, 1)
    reverified = bf.is_strong_blocking(res.blocking_set, 1).passed
    ok = res.exact and res.size >= lb and reverified
    # ground truth derived by this exhaustive run: the optimum is exactly 6
    ok &= res.size == 6
    report(9, "minimum-size oracle PG(2,2), s=1", ok,
           f"optimum {res.size}, lower bound {lb}")


def test_criterion_10_affine_conversion(cherry_sets):
    q, k, n = 7, 4, 6  # the criterion-2 instance with k >= s + 2
    b = cherry_sets[(q, k, n)]
    fld = b.field
    aff = bf.to_affine_blocking(b)
    size_ok = aff.shape[0] == (q - 1) * b.size + 1
    blocked, _ = bf.blocks_affine(aff, fld, 3)
    report(10, "affine conversion of the (7,4,6) instance",
           size_ok and blocked,
           f"{aff.shape[0]} affine points block all codim-3 affine subspaces")


def test_duality_of_verified_constructions(cherry_sets):
    # cross-oracle consistency on the verified pipeline outputs
    for (q, k, n), b in cherry_sets.items():
        assert is_s_minimal(blocking_to_code(b), 2).passed
