import math
import random
from fractions import Fraction

import pytest
import scipy.special

from termassoc.stats import (
    AnalysisConfig,
    ContingencyTable,
    bonferroni_threshold,
    build_tables,
    chi_sq_survival,
    chi_square,
    compute_term_results,
    direction,
)
from termassoc.textproc import DocTermSet


def chi_square_exact(group_sizes, present):
    """Independent oracle: direct Pearson formula in exact rational arithmetic."""
    total_present = sum(present)
    total_docs = sum(group_sizes)
    if total_present == 0 or total_present == total_docs:
        return Fraction(0)
    total_absent = total_docs - total_present
    stat = Fraction(0)
    for n_g, k_g in zip(group_sizes, present):
        if n_g == 0:
            continue
        e_present = Fraction(n_g * total_present, total_docs)
        e_absent = Fraction(n_g * total_absent, total_docs)
        stat += (k_g - e_present) ** 2 / e_present
        stat += ((n_g - k_g) - e_absent) ** 2 / e_absent
    return stat


def random_table(rng, max_n=10_000, groups=3):
    sizes = tuple(rng.randint(1, max_n) for _ in range(groups))
    present = tuple(rng.randint(0, n) for n in sizes)
    return ContingencyTable(sizes, present)


# ---------------------------------------------------------------- chi_square

def test_chi_square_proportion_identical_is_zero():
    # identical percentages (e.g. all 2%) must give exactly zero
    assert chi_square(ContingencyTable((100, 100, 100), (2, 2, 2))) == 0.0
    assert chi_square(ContingencyTable((100, 200, 300), (1, 2, 3))) == 0.0


def test_chi_square_derived_values():
    # frozen from the exact-rational oracle: 600/23 and 32.5 + 65/73
    stat = chi_square(ContingencyTable((100, 100, 100), (10, 20, 40)))
    assert stat == pytest.approx(26.087, abs=1e-3)
    assert stat == pytest.approx(float(Fraction(600, 23)), rel=1e-12)

    stat = chi_square(ContingencyTable((1000, 1000, 1000), (10, 20, 50)))
    assert stat == pytest.approx(33.39, abs=1e-2)
    assert stat == pytest.approx(32.5 + 65 / 73, rel=1e-12)


def test_chi_square_degenerate_terms_score_zero():
    all_absent = ContingencyTable((10, 10), (0, 0))
    all_present = ContingencyTable((10, 10), (10, 10))
    assert chi_square(all_absent) == 0.0
    assert chi_square(all_present) == 0.0
    for table in (all_absent, all_present):
        assert not 0 < table.total_present < sum(table.group_sizes)
    mixed = ContingencyTable((10, 10), (3, 5))
    assert 0 < mixed.total_present < sum(mixed.group_sizes)


def test_chi_square_matches_exact_oracle():
    rng = random.Random(20240917)
    for _ in range(300):
        table = random_table(rng)
        got = chi_square(table)
        want = float(chi_square_exact(table.group_sizes, table.present))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_chi_square_group_permutation_invariant():
    rng = random.Random(7)
    for _ in range(50):
        table = random_table(rng, max_n=500)
        perm = list(range(3))
        rng.shuffle(perm)
        permuted = ContingencyTable(
            tuple(table.group_sizes[i] for i in perm),
            tuple(table.present[i] for i in perm),
        )
        assert chi_square(permuted) == pytest.approx(chi_square(table), rel=1e-12)


def test_chi_square_scaling_homogeneity():
    # multiplying every cell by an integer c scales the statistic by exactly c
    rng = random.Random(99)
    for _ in range(50):
        table = random_table(rng, max_n=300)
        c = rng.randint(2, 9)
        scaled = ContingencyTable(
            tuple(c * n for n in table.group_sizes),
            tuple(c * k for k in table.present),
        )
        assert chi_square(scaled) == pytest.approx(c * chi_square(table), rel=1e-12)


def test_chi_square_nonnegative_and_zero_iff_proportional():
    rng = random.Random(3)
    for _ in range(200):
        table = random_table(rng, max_n=50)
        stat = chi_square(table)
        assert stat >= 0.0
        if 0 < table.total_present < sum(table.group_sizes):
            proportional = len({Fraction(k, n) for n, k in zip(table.group_sizes, table.present)}) == 1
            assert (stat == 0.0) == proportional


def test_contingency_table_validation():
    with pytest.raises(ValueError):
        ContingencyTable((10,), (1,))
    with pytest.raises(ValueError):
        ContingencyTable((10, 10), (11, 0))
    with pytest.raises(ValueError):
        ContingencyTable((0, 0), (0, 0))


# ------------------------------------------------------------- chi_sq_survival

def test_survival_closed_form_df2():
    # Q(x, 2) = exp(-x/2)
    for i in range(101):
        x = i
        assert abs(chi_sq_survival(x, 2) - math.exp(-x / 2)) <= 1e-12


def test_survival_examples():
    assert chi_sq_survival(0.0, 1) == 1.0
    assert chi_sq_survival(0.0, 7) == 1.0
    assert chi_sq_survival(33.6224, 2) == pytest.approx(5.0e-8, rel=0.01)
    assert chi_sq_survival(26.087, 2) == pytest.approx(2.16e-6, rel=0.01)


def test_survival_matches_scipy():
    rng = random.Random(5150)
    for _ in range(400):
        df = rng.randint(1, 12)
        x = rng.random() * 120
        want = float(scipy.special.gammaincc(df / 2, x / 2))
        assert chi_sq_survival(x, df) == pytest.approx(want, rel=1e-10, abs=1e-300)


def test_survival_domain_errors():
    with pytest.raises(ValueError):
        chi_sq_survival(-0.5, 2)
    with pytest.raises(ValueError):
        chi_sq_survival(1.0, 0)


# -------------------------------------------------------- bonferroni_threshold

def test_threshold_derived_values():
    # df=2 closed form: x* = -2 ln(alpha/m)
    assert bonferroni_threshold(0.05, 1, 2) == pytest.approx(5.9915, abs=1e-3)
    assert bonferroni_threshold(0.05, 10**6, 2) == pytest.approx(33.6224, abs=1e-3)
    assert bonferroni_threshold(1.0, 1, 2) == 0.0
    assert bonferroni_threshold(1.0, 1, 9) == 0.0


def test_threshold_survival_round_trip():
    for alpha, m, df in [(0.05, 1, 2), (0.05, 137, 2), (0.01, 10**4, 3), (0.5, 33, 1), (0.05, 10**6, 6)]:
        x = bonferroni_threshold(alpha, m, df)
        assert abs(chi_sq_survival(x, df) - alpha / m) <= 1e-9


def test_threshold_monotone_in_m():
    prev = 0.0
    for m in (1, 2, 10, 100, 10_000, 10**6):
        x = bonferroni_threshold(0.05, m, 2)
        assert x >= prev
        prev = x


# ------------------------------------------------------------------- direction

def test_direction_picks_max_proportion():
    idx, props = direction(ContingencyTable((100, 100, 100), (10, 20, 40)))
    assert idx == 2
    assert props == [0.1, 0.2, 0.4]


def test_direction_funded_by_illustration():
    # presence of 1% / 2% / 5% points at the top group
    idx, _ = direction(ContingencyTable((1000, 1000, 1000), (10, 20, 50)))
    assert idx == 2


def test_direction_tie_breaks_low():
    idx, _ = direction(ContingencyTable((100, 100, 100), (5, 5, 5)))
    assert idx == 0


# ---------------------------------------------------------------- build_tables

def _sets(*pairs):
    return [DocTermSet(doc_id, set(terms)) for doc_id, terms in pairs]


def test_build_tables_counts_documents_not_occurrences():
    # a document contributes at most 1 per term by construction of DocTermSet
    term_sets = _sets(("a", {"x"}), ("b", {"x"}), ("c", {"x", "y"}), ("d", {"y"}), ("e", set()))
    groups = {"a": 0, "b": 0, "c": 1, "d": 1, "e": 1}
    tables = build_tables(term_sets, groups, 2, min_df=1)
    assert tables["x"].group_sizes == (2, 3)
    assert tables["x"].present == (2, 1)
    assert tables["y"].present == (0, 2)


def test_build_tables_min_df_excludes_rare_terms():
    term_sets = _sets(("a", {"rare"}), ("b", {"common"}), ("c", {"common"}), ("d", {"common"}))
    groups = {"a": 0, "b": 0, "c": 1, "d": 1}
    tables = build_tables(term_sets, groups, 2, min_df=3)
    assert "rare" not in tables
    assert "common" in tables
    assert len(tables) == 1  # m for the Bonferroni divisor


def test_build_tables_two_groups_example():
    term_sets = _sets(("a", {"t"}), ("b", set()), ("c", {"t"}), ("d", {"t"}), ("e", set()))
    groups = {"a": 0, "b": 0, "c": 1, "d": 1, "e": 1}
    tables = build_tables(term_sets, groups, 2, min_df=1)
    assert tables["t"].group_sizes == (2, 3)
    assert tables["t"].present == (1, 2)


def test_build_tables_errors():
    with pytest.raises(ValueError):
        build_tables([], {}, 2, min_df=1)
    with pytest.raises(ValueError):
        # group 1 empty
        build_tables(_sets(("a", {"x"})), {"a": 0}, 2, min_df=1)


def test_build_tables_shard_merge_independent_of_order():
    rng = random.Random(1)
    term_sets = [
        DocTermSet(f"d{i}", {f"t{rng.randint(0, 20)}" for _ in range(rng.randint(0, 8))})
        for i in range(200)
    ]
    groups = {f"d{i}": i % 3 for i in range(200)}
    a = build_tables(term_sets, groups, 3, min_df=2)
    shuffled = term_sets[:]
    rng.shuffle(shuffled)
    b = build_tables(shuffled, groups, 3, min_df=2)
    assert a == b


# --------------------------------------------------------- compute_term_results

def test_compute_results_significance_flag_equivalence():
    rng = random.Random(2024)
    term_sets = [
        DocTermSet(f"d{i}", {f"t{rng.randint(0, 30)}" for _ in range(rng.randint(1, 10))})
        for i in range(300)
    ]
    groups = {f"d{i}": i % 3 for i in range(300)}
    tables = build_tables(term_sets, groups, 3, min_df=5)
    results, m, threshold = compute_term_results(tables, ["low", "3", "4"], alpha=0.05)
    assert m == len(tables) > 0
    for r in results:
        assert r.significant == (r.chi2 >= threshold)
        # statistic-side rule agrees with the p-value side up to bisection tolerance
        if r.significant:
            assert r.p_value <= 0.05 / m + 1e-9
        else:
            assert r.p_value >= 0.05 / m - 1e-9
        assert r.df == 2
        assert r.direction in ("low", "3", "4")


def test_compute_results_empty():
    results, m, threshold = compute_term_results({}, ["low", "3", "4"])
    assert results == [] and m == 0 and threshold is None


def test_analysis_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(alpha=0.0)
    with pytest.raises(ValueError):
        AnalysisConfig(top_k=0)
    with pytest.raises(ValueError):
        AnalysisConfig(min_doc_frequency=0)
