import hashlib
import re
import sys
from importlib import resources
from pathlib import Path

import pytest

from scodes.bounds import (
    BoundEngine,
    FactTable,
    Inapplicable,
    anticode,
    grassmann_eigenvalue,
    grassmann_valency,
    lp_bound,
    lp_witness_feasible,
    partial_spread_lower,
    partial_spread_upper,
    singleton,
    sphere_packing,
)
from scodes.qcombi import gauss_binomial, qpoly_eval


@pytest.fixture(scope="module")
def engine():
    return BoundEngine()


@pytest.fixture(scope="module")
def bare_engine():
    return BoundEngine(use_facts=False)


def test_sphere_packing_values():
    assert sphere_packing(2, 8, 6, 4).value == 200787 // 451 == 445
    assert sphere_packing(2, 8, 4, 4).value == 200787
    # d = 2: the ball is just the center
    assert sphere_packing(3, 6, 2, 2).value == gauss_binomial(6, 2, 3)


def test_singleton_values():
    assert singleton(2, 8, 6, 4).value == 651
    assert singleton(2, 8, 4, 4).value == 11811
    assert singleton(2, 6, 2, 2).value == gauss_binomial(6, 2, 2)


def test_sphere_vs_singleton_family():
    # strictly tighter sphere packing exactly at q=2, n=2k, d=6
    for n in (8, 10, 12):
        k = n // 2
        assert sphere_packing(2, n, 6, k).value < singleton(2, n, 6, k).value
    for q in (2, 3):
        for n in range(4, 13):
            for k in range(2, n // 2 + 1):
                for d in range(4, 2 * k + 1, 2):
                    strict = sphere_packing(q, n, d, k).value < singleton(q, n, d, k).value
                    assert strict == (q == 2 and n == 2 * k and d == 6), (q, n, d, k)


def test_anticode_values():
    assert anticode(2, 7, 4, 3).value == 381
    assert anticode(2, 6, 4, 3).value == 1395 // 15 == 93
    assert anticode(2, 5, 2, 2).value == gauss_binomial(5, 2, 2)


def test_johnson_chain_2_9_6_4(engine):
    assert engine.johnson_II(2, 9, 6, 4).value == 1158
    assert engine.johnson_II_improved(2, 9, 6, 4).value == 1156
    assert engine.best_upper(2, 9, 6, 4).value == 1156


def test_johnson_improved_2_14_10_6(engine):
    assert engine.best_upper(2, 13, 10, 5).value == 259  # injected fact
    assert engine.johnson_II_improved(2, 14, 10, 6).value == 67349


def test_iterated_johnson_2_7_4_3(engine):
    assert engine.johnson_II_improved(2, 7, 4, 3).value == 381
    assert engine.best_upper(2, 7, 4, 3).value == 381
    assert engine.best_lower(2, 7, 4, 3).value == 333


def test_partial_spread_upper_values():
    assert partial_spread_upper(5, 16, 6).value == 9765941
    assert partial_spread_upper(5, 15, 6).value == 1953186
    assert partial_spread_upper(3, 15, 6).value == 19695
    assert partial_spread_upper(2, 7, 3).value == 17
    assert partial_spread_upper(2, 11, 4).value == 132
    assert partial_spread_lower(2, 11, 4).value == 129
    # spreads are exact for k | n
    assert partial_spread_upper(2, 8, 4).value == 17
    assert partial_spread_upper(2, 8, 4).rule == "spread"


def test_partial_spread_rules_used():
    res = partial_spread_upper(5, 16, 6)
    rules = {c.rule for c in res.children}
    assert "partial-spread:drake-freeman" in rules
    assert partial_spread_upper(2, 8, 3).value == 34


def test_deficiency_monotone_in_t():
    # for fixed q, k, r the gap to the spread-like count never grows with t
    for q, k, r in [(2, 3, 2), (2, 4, 3), (3, 3, 2), (5, 6, 4)]:
        defs = []
        for t in range(2, 6):
            n = t * k + r
            sigma_like = sum(q ** (s * k + r) for s in range(t))
            defs.append(sigma_like - partial_spread_upper(q, n, k).value)
        assert all(a >= b for a, b in zip(defs, defs[1:]))


def test_dominance_chain(engine):
    for q in (2, 3):
        for n in range(4, 13):
            for k in range(2, n // 2 + 1):
                for d in range(4, 2 * k + 1, 2):
                    ji = engine.johnson_II_improved(q, n, d, k).value
                    j = engine.johnson_II(q, n, d, k).value
                    a = anticode(q, n, d, k).value
                    s = min(sphere_packing(q, n, d, k).value, singleton(q, n, d, k).value)
                    assert ji <= j <= a < s, (q, n, d, k)


def test_dropped_candidates_never_decide():
    # best_upper lists neither sphere-packing nor Singleton, best_lower
    # neither a lifted MRD code nor a single word, and partial_spread_upper
    # not the point-count quotient: each is beaten strictly by a listed rule
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(4, 31):
            for k in range(2, n // 2 + 1):
                for d in range(4, 2 * k + 1, 2):
                    a = anticode(q, n, d, k).value
                    assert a < sphere_packing(q, n, d, k).value, (q, n, d, k)
                    assert a < singleton(q, n, d, k).value, (q, n, d, k)
                if n % k:
                    assert partial_spread_upper(q, n, k).value < (q**n - 1) // (q**k - 1), (q, n, k)
    for use_facts in (True, False):
        engine = BoundEngine(use_facts=use_facts)
        for q in (2, 3):
            for n in range(4, 25):
                for k in range(2, n // 2 + 1):
                    for d in range(4, 2 * k + 1, 2):
                        lifted = q ** ((n - k) * (k - d // 2 + 1))
                        assert engine.best_lower(q, n, d, k).value > lifted, (q, n, d, k, use_facts)


def test_ahlswede_reductions(engine):
    # the t=0, m=n-1 grid point reproduces the co-dimension Johnson form
    q, n, d, k = 2, 8, 4, 3
    aa = engine.ahlswede_aydinian(q, n, d, k)
    form = gauss_binomial(n, k, q) * engine.best_upper(q, n - 1, d, k).value // gauss_binomial(n - 1, k, q)
    assert aa.value <= form
    # the t=1, m=n-1 point equals A(n-1, d-2, k-1)
    alt = engine.best_upper(q, n - 1, d - 2, k - 1).value
    assert aa.value <= alt
    assert engine.ahlswede_aydinian(2, 8, 8, 4).value <= 17


def test_ahlswede_aydinian_never_beats_best_upper():
    # best_upper leaves the Ahlswede-Aydinian rule out of its minimum
    for use_facts in (True, False):
        engine = BoundEngine(use_facts=use_facts)
        for q in (2, 3):
            for n in range(2, 13):
                for k in range(1, n // 2 + 1):
                    for d in range(2, 2 * k + 1, 2):
                        aa = engine.ahlswede_aydinian(q, n, d, k).value
                        assert aa >= engine.best_upper(q, n, d, k).value, (use_facts, q, n, d, k)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_queries_need_no_deep_stack():
    # the engine runs its nodes on an explicit stack, so the improved
    # Johnson chain (depth ~k) and the linkage chain (depth ~n/2) fit in
    # 150 frames above the caller
    queries = [("best_upper", (2, 200, 4, 100)), ("best_lower", (2, 400, 4, 2))]
    expected = [getattr(BoundEngine(), name)(*args).value for name, args in queries]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 150)
    try:
        got = [getattr(BoundEngine(), name)(*args).value for name, args in queries]
    finally:
        sys.setrecursionlimit(limit)
    assert got == expected


def test_fact_table_cycle_is_an_error(tmp_path, monkeypatch):
    from scodes.bounds import FactFileError

    f = tmp_path / "facts.tsv"
    f.write_text("*\t9\t4\t3\tlower\t1+A(9,4;3)\tself-referential\n", encoding="utf-8")
    monkeypatch.setenv("SCODES_FACTS", str(f))
    with pytest.raises(FactFileError, match="depends on itself"):
        BoundEngine().best_lower(2, 9, 4, 3)


# every standalone rule: those that take (q, n, d, k) and the two partial-spread
# rules, which take (q, n, k)
DISTANCE_RULES = [sphere_packing, singleton, anticode, lp_bound, lp_witness_feasible]
SPREAD_RULES = [partial_spread_upper, partial_spread_lower]


@pytest.mark.parametrize("q", [0, 1, 6, 10, 12])
def test_bound_queries_reject_q_not_prime_power(q):
    engine = BoundEngine()
    for query in (engine.best_upper, engine.best_lower, *DISTANCE_RULES):
        with pytest.raises(ValueError, match="not a prime power"):
            query(q, 6, 4, 3)
    for rule in SPREAD_RULES:
        with pytest.raises(ValueError, match="not a prime power"):
            rule(q, 6, 3)
    with pytest.raises(ValueError, match="not a prime power"):
        engine.bounds(q, 6, 4, 3)


@pytest.mark.parametrize("n, d, k", [(5, 4, 9), (5, 4, -1), (6, 0, 3), (6, -2, 3)],
                         ids=["k-above-n", "k-negative", "d-zero", "d-negative"])
def test_standalone_rules_reject_parameters_outside_their_range(n, d, k):
    # unchecked, sphere_packing(2, 5, 4, 9) would divide by zero and singleton and anticode return 0
    for rule in DISTANCE_RULES:
        with pytest.raises(ValueError):
            rule(2, n, d, k)
    for rule in SPREAD_RULES:
        if not 0 <= k <= n:
            with pytest.raises(ValueError):
                rule(2, n, k)


def test_best_upper_equals_best_lower_on_exact_cases(engine):
    for (q, n, d, k, v) in [(2, 4, 4, 2, 5), (2, 5, 4, 2, 9), (2, 6, 6, 3, 9),
                            (2, 6, 4, 3, 77), (2, 8, 6, 4, 257), (2, 7, 6, 3, 17)]:
        lo, hi = engine.bounds(q, n, d, k)
        assert lo.value == hi.value == v, (q, n, d, k)


def test_conventions(engine):
    assert engine.best_upper(2, 4, 10, 2).value == 1
    assert engine.best_lower(2, 4, 10, 2).value == 1
    assert engine.best_upper(2, -1, 4, 2).value == 0
    assert engine.best_upper(2, 4, 4, 5).value == 0
    assert engine.best_upper(2, 6, 2, 2).value == gauss_binomial(6, 2, 2)
    # duality normalization
    assert engine.best_upper(2, 9, 6, 5).value == engine.best_upper(2, 9, 6, 4).value


def test_no_facts_mode(bare_engine):
    # without injected facts the engine's pure upper bound at (2,8,6,4) is
    # the improved-Johnson value 289, and nothing in the tree cites a fact
    res = bare_engine.best_upper(2, 8, 6, 4)
    assert res.value == 289
    assert not res.uses_facts()
    assert bare_engine.best_lower(2, 8, 6, 4).value == 257  # linkage-type construction


def test_fact_provenance_flagged(engine):
    res = engine.best_upper(2, 8, 6, 4)
    assert res.value == 257
    assert res.uses_facts()


def test_lower_bounds(engine):
    assert engine.best_lower(2, 12, 6, 6).value >= 16865672
    assert engine.best_lower(2, 9, 4, 3).value >= 5986
    assert engine.best_lower(2, 8, 4, 4).value >= 4802
    assert engine.best_lower(3, 7, 4, 3).value >= 6978
    # parametric fact with an additive A-term
    assert engine.best_lower(3, 11, 4, 4).value >= 3**21


def test_reverse_johnson_useful_for_large_q(engine):
    # reverting the shortening beats the pending-blocks polynomial at q = 5
    res = engine.best_lower(5, 9, 4, 4)
    poly = lambda q: (q**15 + q**11 + q**9 + 4 * q**8 + 5 * q**7 + 3 * q**6
                      + 2 * q**5 + 3 * q**4 + 2 * q**3 + 2 * q**2 + q + 1)
    assert res.value > poly(5)


def test_consistency_check_runs(engine):
    for q in (2, 3):
        for n in range(4, 11):
            for k in range(2, n // 2 + 1):
                for d in range(4, 2 * k + 1, 2):
                    lo, hi = engine.bounds(q, n, d, k)
                    assert lo.value <= hi.value


def test_lp_bound_values():
    assert lp_bound(2, 4, 4, 2).value == 5
    assert lp_bound(2, 8, 6, 4).value == anticode(2, 8, 6, 4).value
    with pytest.raises(Inapplicable):
        lp_bound(2, 8, 12, 4)


def test_lp_equals_anticode_grid():
    deviations = []
    for q in (2, 3):
        for n in range(4, 11):
            for k in range(2, n // 2 + 1):
                for d in range(4, 2 * k + 1, 2):
                    if lp_bound(q, n, d, k).value != anticode(q, n, d, k).value:
                        deviations.append((q, n, d, k))
    assert deviations == [], f"LP/anticode audit findings: {deviations}"


def test_lp_witness_grid():
    deviations = []
    for q in (2, 3):
        for n in range(4, 11):
            for k in range(2, n // 2 + 1):
                for d in range(4, 2 * k + 1, 2):
                    if not lp_witness_feasible(q, n, d, k):
                        deviations.append((q, n, d, k))
    assert deviations == [], f"primal witness audit findings: {deviations}"


def test_lp_single_variable_case():
    # k = d/2: one variable at its cap
    assert lp_bound(2, 6, 4, 2).value == anticode(2, 6, 4, 2).value


def test_grassmann_scheme_sanity():
    # valencies sum to the Grassmannian size; j=0 eigenvalues are valencies
    for q, n, k in [(2, 4, 2), (2, 6, 3), (3, 5, 2)]:
        total = sum(grassmann_valency(q, n, k, i) for i in range(k + 1))
        assert total == gauss_binomial(n, k, q)
        for i in range(k + 1):
            assert grassmann_eigenvalue(q, n, k, i, 0) == grassmann_valency(q, n, k, i)
        # row sums over each eigenspace vanish for j >= 1
        for j in range(1, k + 1):
            assert sum(grassmann_eigenvalue(q, n, k, i, j) for i in range(k + 1)) == 0


def test_fact_table_parsing(tmp_path, monkeypatch):
    text = "2\t6\t4\t3\texact\t77\ttest cite\n*\t8\t6\t4\tlower\tq^8+1\tseries\n"
    table = FactTable.from_tsv(text)
    assert len(table.facts) == 2
    f = tmp_path / "facts.tsv"
    f.write_text(text, encoding="utf-8")
    monkeypatch.setenv("SCODES_FACTS", str(f))
    engine = BoundEngine()
    assert engine.best_lower(3, 8, 6, 4).value >= 3**8 + 1
    hits = list(table.lookup(2, 6, 4, 3, ("exact",)))
    assert hits and hits[0].citation == "test cite"
    # facts apply under duality: (6,4;3) matches k = n-k = 3 queries either way
    assert engine.best_upper(2, 6, 4, 3).value == 77


# SHA-256 of every row of the shipped fact table evaluated at seven field
# sizes, frozen while facts were still parsed into a polynomial class: a
# change to how values are parsed or evaluated must give the same numbers.
GOLDEN_FACT_VALUES_SHA256 = "5cbf381dbc9cc66724ad854c285782b6a4b7aca4dd54c2f4dab55f297f71e483"


def test_shipped_fact_values_match_golden_digest():
    text = resources.files("scodes").joinpath("data/facts.tsv").read_text(encoding="utf-8")
    lines = [f"{f.q_spec} {f.n} {f.d} {f.k} {f.kind} {f.extra_term} q={q} {qpoly_eval(f.value_poly, q)}\n"
             for f in FactTable.from_tsv(text).facts for q in (2, 3, 4, 5, 7, 8, 9)]
    assert len(lines) == 168
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == GOLDEN_FACT_VALUES_SHA256


def test_fact_table_env_override(tmp_path, monkeypatch):
    f = tmp_path / "facts.tsv"
    f.write_text("2\t5\t4\t2\tupper\t7\toverride test\n", encoding="utf-8")
    monkeypatch.setenv("SCODES_FACTS", str(f))
    from scodes.bounds import load_default_facts

    table = load_default_facts()
    assert len(table.facts) == 1


def test_fact_tables_are_parsed_once_per_text(tmp_path, monkeypatch):
    from scodes.bounds import FactFileError, load_default_facts

    assert BoundEngine().facts is BoundEngine().facts is load_default_facts()
    f = tmp_path / "facts.tsv"
    f.write_text("2\t5\t4\t2\tupper\t7\tfirst\n", encoding="utf-8")
    monkeypatch.setenv("SCODES_FACTS", str(f))
    first = load_default_facts()
    assert load_default_facts() is first and [x.citation for x in first.facts] == ["first"]
    # a rewritten file is read and parsed again
    f.write_text("2\t5\t4\t2\tupper\t7\tsecond\n", encoding="utf-8")
    assert [x.citation for x in load_default_facts().facts] == ["second"]
    # a malformed one raises on every read, after a good text as before it
    f.write_text("2\t5\t4\tx\tupper\t7\tbad\n", encoding="utf-8")
    for _ in range(2):
        with pytest.raises(FactFileError, match=":1: "):
            load_default_facts()
    f.write_text("2\t5\t4\t2\tupper\t7\tfirst\n", encoding="utf-8")
    assert load_default_facts() is first


def test_fact_buckets_yield_the_linear_scan():
    # `lookup` reads the facts bucketed by (n, d); it must yield what a scan
    # of every row yields, in table order, for each query over the shipped
    # table plus rows with k > n/2, '>=Q' specs and repeated cells
    text = resources.files("scodes").joinpath("data/facts.tsv").read_text(encoding="utf-8")
    text += ("2\t8\t4\t5\tlower\t100\tk above n/2\n"
             ">=4\t8\t4\t3\tupper\tq^12\tfrom q = 4 on\n"
             ">=2\t9\t4\t6\texact\t37265\tk above n/2, from q = 2 on\n"
             "3\t6\t4\t3\tupper\tq^8\ta second (6, 4) row\n")
    table = FactTable.from_tsv(text)
    assert isinstance(table.facts, tuple) and len(table.facts) == 28
    kind_sets = [("exact",), ("lower",), ("upper",), ("exact", "lower"), ("exact", "upper")]
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 15):
            for d in range(1, 12):
                for k in range(n + 1):
                    for kinds in kind_sets:
                        scan = [f for f in table.facts if (f.n, f.d) == (n, d) and f.k in (k, n - k)
                                and f.kind in kinds and f.applies(q)]
                        assert list(table.lookup(q, n, d, k, kinds)) == scan, (q, n, d, k, kinds)
                        checked += bool(scan)
    assert checked > 0


# SHA-256 of the rendered lower trees, with and without facts, of every cell
# with k + 1 <= n - k, q in {2, 3}, d in {4, 6} and n <= 14: each lists a
# reverse-johnson candidate after the computed constructions and before the
# facts (a node above depth 0 wraps its cell's depth-0 node).  Frozen while
# every depth evaluated its cell's candidates itself.
GOLDEN_REVERSE_JOHNSON_TREES_SHA256 = "72f9ac758ed3335125ab96a22b8e372842f5db3284941ec4125387287910373c"


def test_reverse_johnson_trees_match_golden_digest():
    h = hashlib.sha256()
    with_reverse_johnson = 0
    for use_facts in (True, False):
        engine = BoundEngine(use_facts=use_facts)
        for q in (2, 3):
            for d in (4, 6):
                for n in range(1, 15):
                    for k in range((n - 1) // 2 + 1):
                        tree = engine.best_lower(q, n, d, k).render()
                        with_reverse_johnson += "reverse-johnson" in tree
                        h.update(tree.encode() + b"\n\n")
    assert with_reverse_johnson == 200
    assert h.hexdigest() == GOLDEN_REVERSE_JOHNSON_TREES_SHA256


def test_mdc_exact_small(engine):
    assert engine.mdc_exact_small(2, 5, 3) == 18
    assert engine.mdc_exact_small(2, 4, 2) == 37
    assert engine.mdc_exact_small(2, 3, 1) == 16
    assert engine.mdc_exact_small(2, 7, 5) == 34
    assert engine.mdc_exact_small(2, 6, 4) == 77
    assert engine.mdc_exact_small(3, 5, 3) == 2 * 27 + 2
    assert engine.mdc_exact_small(2, 6, 6) == 9
    assert engine.mdc_exact_small(2, 7, 7) == 2
    assert engine.mdc_exact_small(2, 6, 5) == 9
    assert engine.mdc_exact_small(2, 7, 6) == 17
    assert engine.mdc_exact_small(2, 8, 5) is None


def test_mdc_small_table_row_values(engine):
    # closed forms for n <= 5 at q = 2
    expected = {(3, 1): 16, (3, 2): 8, (3, 3): 2,
                (4, 1): 67, (4, 2): 37, (4, 3): 5, (4, 4): 5,
                (5, 1): 374, (5, 2): 187, (5, 3): 18, (5, 4): 9, (5, 5): 2}
    for (n, d), v in expected.items():
        assert engine.mdc_exact_small(2, n, d) == v, (n, d)


def test_mdc_layer_bounds(engine):
    lo, hi = engine.mdc_layer_bounds(2, 5, 3)
    assert lo.value <= 18 <= hi.value
    lo2, hi2 = engine.mdc_bounds(2, 5, 3)
    assert lo2.value == hi2.value == 18
    lo3, hi3 = engine.mdc_bounds(2, 8, 5)
    assert lo3.value <= hi3.value


def test_multilevel_lower_estimate_sound_and_tight():
    from scodes.bounds import _ef_achievable_size
    from scodes.constructions import echelon_ferrers, skeleton_greedy

    # the engine's skeleton-sum estimate never exceeds what materializing
    # achieves, and matches exactly when every chosen diagram is realizable
    for (q, n, k, d) in [(2, 8, 4, 4), (2, 7, 3, 4), (2, 6, 3, 4), (3, 6, 3, 4), (2, 7, 3, 6)]:
        est = _ef_achievable_size(q, n, k, d)
        mat = len(echelon_ferrers(skeleton_greedy(q, n, k, d), q, d))
        assert est == mat
    assert _ef_achievable_size(2, 9, 4, 6) <= len(
        echelon_ferrers(skeleton_greedy(2, 9, 4, 6), 2, 6))


def test_ef_achievable_size_matches_the_diagram_formula():
    # booking q^nu from the greedy's scores gives the sum over each chosen
    # vector's diagram: its dot-count bound where `_fdrm_meets_bound` holds
    from scodes.bounds import _ef_achievable_size
    from scodes.constructions import skeleton_greedy
    from scodes.rankmetric import _fdrm_meets_bound, fdrm_upper_bound
    from scodes.spaces import ferrers_of

    for q in (2, 3):
        for n in range(4, 13):
            for k in range(n // 2 + 1):
                for d in (4, 6, 8):
                    expected = sum(fdrm_upper_bound(F, d // 2, q) if _fdrm_meets_bound(F, d // 2) else 1
                                   for F in map(ferrers_of, skeleton_greedy(q, n, k, d)))
                    assert _ef_achievable_size(q, n, k, d) == expected, (q, n, k, d)


# the cells at which the engine books the multilevel rule: every depth-0
# lower node with n <= 13 that no convention decides
MULTILEVEL_CELLS = [(n, k, d) for n in range(4, 14) for k in range(2, n // 2 + 1)
                    for d in range(4, 2 * k + 1, 2)]


def test_multilevel_table_rows_are_their_definition():
    # each row is the nu multiset `_ef_achievable_size` sums: the skeleton's
    # scores, 0 where the diagram code does not meet its bound at d/2 >= 3;
    # the rows are exactly MULTILEVEL_CELLS, in order; on a mismatch the
    # message is the file's expected text
    from collections import Counter

    import scodes.bounds as bounds
    from scodes.constructions import _pivot_vector, _skeleton
    from scodes.rankmetric import _fdrm_meets_bound
    from scodes.spaces import ferrers_of

    rows = []
    for n, k, d in MULTILEVEL_CELLS:
        chosen, nus = _skeleton(n, k, d)
        if d // 2 > 2:
            nus = [nu if _fdrm_meets_bound(ferrers_of(_pivot_vector(u, n)), d // 2) else 0
                   for u, nu in zip(chosen, nus)]
        terms = sorted(Counter(nus).items(), reverse=True)
        rows.append(f"{n}\t{k}\t{d}\t" + " ".join(f"{nu}:{count}" for nu, count in terms) + "\n")
    text = resources.files("scodes").joinpath("data/multilevel.tsv").read_text(encoding="utf-8")
    header = [line for line in text.splitlines(keepends=True) if line.startswith("#")]
    expected = "".join(header + rows)
    assert text == expected, "expected data/multilevel.tsv:\n" + expected
    assert list(bounds._multilevel_table()) == MULTILEVEL_CELLS


def test_multilevel_table_books_the_achievable_size():
    from scodes.bounds import _ef_achievable_size, _multilevel_size

    for n, k, d in MULTILEVEL_CELLS:
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert _multilevel_size(q, n, k, d) == _ef_achievable_size(q, n, k, d), (q, n, k, d)


def test_a_cell_outside_the_multilevel_table_books_no_multilevel_candidate(bare_engine):
    from scodes.bounds import _multilevel_size

    assert _multilevel_size(2, 14, 7, 4) is None
    rules = [c.rule for c in bare_engine.best_lower(2, 14, 4, 7).children]
    assert "multilevel-greedy" not in rules and "improved-linkage" in rules
    rules = [c.rule for c in bare_engine.best_lower(2, 13, 4, 6).children]
    assert "multilevel-greedy" in rules


def test_the_package_data_ships_the_multilevel_table():
    # an installed scodes without the table would book no multilevel bound
    # and fail every lower query that reads it
    tomllib = pytest.importorskip("tomllib")
    from fnmatch import fnmatch

    import scodes

    root = Path(__file__).resolve().parents[1]
    config = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["scodes"]
    assert any(fnmatch("data/multilevel.tsv", glob) for glob in globs), globs
    assert (Path(scodes.__file__).parent / "data" / "multilevel.tsv").is_file()


def test_table_builds_each_skeleton_once(monkeypatch, capsys):
    # the multilevel rule reads the packaged table, not a skeleton: each
    # (q, n, k, d) is looked up at most once per engine
    import scodes.bounds as bounds
    from scodes.cli import main

    calls = []
    real = bounds._multilevel_size

    def spy(q, n, k, d):
        calls.append((q, n, k, d))
        return real(q, n, k, d)

    monkeypatch.setattr(bounds, "_multilevel_size", spy)
    assert main(["table", "--q", "2", "--d", "4", "--n-max", "12", "--format", "csv"]) == 0
    capsys.readouterr()
    assert calls and len(calls) == len(set(calls))
    # one engine, no memo of sizes: the `table` sweeps of two distances, then
    # a deep lower query on every cell, reach each (q, n, k, d) at most once
    calls.clear()
    engine = BoundEngine()
    cells = [(2, n, d, k) for d in (4, 6) for n in range(max(4, d), 13) for k in range(2, n // 2 + 1)
             if d <= 2 * k]
    for cell in cells:
        engine.bounds(*cell)
    for cell in cells:
        engine.best_lower(*cell)
    assert {(q, n, k, d) for q, n, d, k in cells} <= set(calls) and len(calls) == len(set(calls))


def test_engines_share_no_memo(monkeypatch):
    import scodes.bounds as bounds

    calls = []
    real_skeleton, real_binomial = bounds._skeleton, bounds.gauss_binomial

    def skeleton_spy(*args):
        calls.append("skeleton")
        return real_skeleton(*args)

    def binomial_spy(*args):
        calls.append("binomial")
        return real_binomial(*args)

    monkeypatch.setattr(bounds, "_skeleton", skeleton_spy)
    first = BoundEngine()
    lo, hi = first.bounds(2, 10, 4, 5)
    assert "skeleton" not in calls
    calls.clear()
    monkeypatch.setattr(bounds, "gauss_binomial", binomial_spy)
    assert first.bounds(2, 10, 4, 5) == (lo, hi)
    assert calls == []
    # a fresh engine is cold: it recomputes the binomials, and like every
    # engine it books the multilevel rule without building a skeleton
    second = BoundEngine()
    assert second.bounds(2, 10, 4, 5) == (lo, hi)
    assert "binomial" in calls and "skeleton" not in calls


def test_lower_upper_consistency_without_facts():
    bare = BoundEngine(use_facts=False)
    for q in (2, 3):
        for n in range(4, 13):
            for k in range(2, n // 2 + 1):
                for d in range(4, 2 * k + 1, 2):
                    lo, hi = bare.bounds(q, n, d, k)
                    assert lo.value <= hi.value


def test_mdc_binary_table_exact_values(engine):
    # exact closed-form entries of the binary mixed-dimension table
    expected = {(6, 5): 9, (6, 6): 9, (7, 6): 17, (7, 7): 2, (8, 7): 17, (8, 8): 17}
    for (n, d), v in expected.items():
        assert engine.mdc_exact_small(2, n, d) == v, (n, d)


def test_mdc_binary_table_brackets(engine):
    # published ranges must fall inside (or equal) the layer brackets
    table = {(6, 3): (108, 117), (7, 4): (334, 388), (8, 6): (257, 257)}
    for (n, d), (pub_lo, pub_hi) in table.items():
        lo, hi = engine.mdc_bounds(2, n, d)
        assert lo.value <= pub_lo and pub_hi <= hi.value, (n, d, lo.value, hi.value)


def test_lower_bound_10_4_5(engine):
    # generalized linkage + coset value at q=2, consumed as a fact
    assert engine.best_lower(2, 10, 4, 5).value >= 1188463


def test_spread_class_arithmetic():
    # lines of GF(2)^6: spread size 21, 31 parallel classes would partition
    assert (2**6 - 1) // (2**2 - 1) == 21
    assert gauss_binomial(6, 2, 2) // 21 == 31


def test_readme_quick_start_runs_as_written(monkeypatch, capsys):
    # the README's one python block, run as it stands: it builds and verifies
    # a code, then prints the module-level best_upper value and best_lower tree
    monkeypatch.delenv("SCODES_FACTS", raising=False)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "381"
    assert out[1].startswith(f"{BoundEngine().best_lower(2, 7, 4, 3).value}  <- ")
