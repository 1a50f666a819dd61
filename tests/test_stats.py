import math
import random
from fractions import Fraction
from unittest import mock

import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, given, strategies as st

from termassoc import stats
from termassoc.stats import (
    AnalysisConfig,
    bonferroni_threshold,
    build_tables,
    chi_sq_survival,
    chi_square,
    compute_term_results,
    direction,
)
from termassoc.textproc import DocTermSet, iter_ngrams


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
    return sizes, present


# ---------------------------------------------------------------- chi_square

def test_chi_square_proportion_identical_is_zero():
    # identical percentages (e.g. all 2%) must give exactly zero
    assert chi_square((100, 100, 100), (2, 2, 2)) == 0.0
    assert chi_square((100, 200, 300), (1, 2, 3)) == 0.0


def test_chi_square_derived_values():
    # frozen from the exact-rational oracle: 600/23 and 32.5 + 65/73
    stat = chi_square((100, 100, 100), (10, 20, 40))
    assert stat == pytest.approx(26.087, abs=1e-3)
    assert stat == pytest.approx(float(Fraction(600, 23)), rel=1e-12)

    stat = chi_square((1000, 1000, 1000), (10, 20, 50))
    assert stat == pytest.approx(33.39, abs=1e-2)
    assert stat == pytest.approx(32.5 + 65 / 73, rel=1e-12)


def test_chi_square_degenerate_terms_score_zero():
    all_absent = ((10, 10), (0, 0))
    all_present = ((10, 10), (10, 10))
    assert chi_square(*all_absent) == 0.0
    assert chi_square(*all_present) == 0.0
    for sizes, present in (all_absent, all_present):
        assert not 0 < sum(present) < sum(sizes)
    sizes, present = (10, 10), (3, 5)
    assert 0 < sum(present) < sum(sizes)


def test_chi_square_matches_exact_oracle():
    rng = random.Random(20240917)
    for _ in range(300):
        sizes, present = random_table(rng)
        got = chi_square(sizes, present)
        want = float(chi_square_exact(sizes, present))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@given(st.lists(st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
                min_size=2, max_size=6))
def test_chi_square_matches_scipy(cells):
    sizes, present = tuple(n for n, _ in cells), tuple(k for _, k in cells)
    assume(0 < sum(present) < sum(sizes))
    observed = [[k, n - k] for n, k in cells]
    want = scipy.stats.chi2_contingency(observed, correction=False)[0]
    assert chi_square(sizes, present) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_chi_square_group_permutation_invariant():
    rng = random.Random(7)
    for _ in range(50):
        sizes, present = random_table(rng, max_n=500)
        perm = list(range(3))
        rng.shuffle(perm)
        permuted = (
            tuple(sizes[i] for i in perm),
            tuple(present[i] for i in perm),
        )
        assert chi_square(*permuted) == pytest.approx(chi_square(sizes, present), rel=1e-12)


def test_chi_square_scaling_homogeneity():
    # multiplying every cell by an integer c scales the statistic by exactly c
    rng = random.Random(99)
    for _ in range(50):
        sizes, present = random_table(rng, max_n=300)
        c = rng.randint(2, 9)
        scaled = (
            tuple(c * n for n in sizes),
            tuple(c * k for k in present),
        )
        assert chi_square(*scaled) == pytest.approx(c * chi_square(sizes, present), rel=1e-12)


def test_chi_square_nonnegative_and_zero_iff_proportional():
    rng = random.Random(3)
    for _ in range(200):
        sizes, present = random_table(rng, max_n=50)
        stat = chi_square(sizes, present)
        assert stat >= 0.0
        if 0 < sum(present) < sum(sizes):
            proportional = len({Fraction(k, n) for n, k in zip(sizes, present)}) == 1
            assert (stat == 0.0) == proportional


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
    idx, props = direction((100, 100, 100), (10, 20, 40))
    assert idx == 2
    assert props == [0.1, 0.2, 0.4]


def test_direction_funded_by_illustration():
    # presence of 1% / 2% / 5% points at the top group
    idx, _ = direction((1000, 1000, 1000), (10, 20, 50))
    assert idx == 2


def test_direction_tie_breaks_low():
    idx, _ = direction((100, 100, 100), (5, 5, 5))
    assert idx == 0


# ---------------------------------------------------------------- build_tables

def _sets(*term_lists):
    return [DocTermSet([[t] for t in terms], 1) for terms in term_lists]


def test_build_tables_counts_documents_not_occurrences():
    # a document contributes at most 1 per term by construction of DocTermSet
    term_sets = _sets({"x"}, {"x"}, {"x", "y"}, {"y"}, set())
    groups = [0, 0, 1, 1, 1]
    tables = build_tables(term_sets, groups, 2, min_df=1)
    assert tables["x"] == (2, 1)
    assert tables["y"] == (0, 2)
    # The group sizes (2, 3) are the caller's: the results' proportions divide by them.
    results, _, _ = compute_term_results(tables, (2, 3), ["a", "b"])
    assert [(r.n, r.proportions) for r in results] == [(3, (1.0, 1 / 3)), (2, (0.0, 2 / 3))]


def test_build_tables_min_df_excludes_rare_terms():
    term_sets = _sets({"rare"}, {"common"}, {"common"}, {"common"})
    groups = [0, 0, 1, 1]
    tables = build_tables(term_sets, groups, 2, min_df=3)
    assert "rare" not in tables
    assert "common" in tables
    assert len(tables) == 1  # m for the Bonferroni divisor


def test_build_tables_two_groups_example():
    term_sets = _sets({"t"}, set(), {"t"}, {"t"}, set())
    groups = [0, 0, 1, 1, 1]
    tables = build_tables(term_sets, groups, 2, min_df=1)
    assert tables["t"] == (1, 2)
    (result,), _, _ = compute_term_results(tables, (2, 3), ["a", "b"])
    assert (result.n, result.proportions) == (3, (1 / 2, 2 / 3))


def test_build_tables_errors():
    # One group index per term set; group sizes are the caller's (analyze_scope's) to check.
    with pytest.raises(ValueError, match="argument 2 is longer"):
        build_tables(_sets({"x"}, {"x"}), [0, 1, 1], 2, min_df=1)
    with pytest.raises(ValueError, match="argument 2 is shorter"):
        build_tables(_sets({"x"}, {"x"}), [0], 2, min_df=1)


def test_build_tables_shard_merge_independent_of_order():
    rng = random.Random(1)
    term_sets = [
        DocTermSet([[f"t{rng.randint(0, 20)}"] for _ in range(rng.randint(0, 8))], 1)
        for i in range(200)
    ]
    groups = [i % 3 for i in range(200)]
    a = build_tables(term_sets, groups, 3, min_df=2)
    shuffled = list(zip(term_sets, groups))
    rng.shuffle(shuffled)
    b = build_tables([ts for ts, _ in shuffled], [g for _, g in shuffled], 3, min_df=2)
    assert a == b


def build_tables_oracle(term_sets, groups, n_groups, min_df):
    """Brute force: every n-gram of every document, counted once per document, then the cut."""
    sizes = [0] * n_groups
    counts = {}
    for ts, g in zip(term_sets, groups):
        sizes[g] += 1
        present = set()
        for tokens in ts.units:
            present.update(iter_ngrams(tokens, ts.n_max))
        for term in present:
            counts.setdefault(term, [0] * n_groups)[g] += 1
    return {term: tuple(row) for term, row in counts.items() if sum(row) >= min_df}


# A four-token vocabulary repeats grams within and across documents.
UNITS = st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=12), max_size=4)


@st.composite
def tabulation_inputs(draw):
    n_max = draw(st.integers(1, 8))
    n_docs = draw(st.integers(3, 14))
    term_sets = [DocTermSet(draw(UNITS), n_max) for _ in range(n_docs)]
    groups = [i if i < 3 else draw(st.integers(0, 2)) for i in range(n_docs)]
    # Either any floor up to one past the corpus size, or exactly the document
    # frequency of some gram, so sub-phrase counts land on min_df.
    dfs = sorted({sum(row) for row in build_tables_oracle(term_sets, groups, 3, 1).values()})
    floors = st.integers(1, n_docs + 1)
    min_df = draw(st.one_of(floors, st.sampled_from(dfs)) if dfs else floors)
    return term_sets, groups, min_df, draw(st.permutations(list(zip(term_sets, groups))))


def assert_tables_match_oracle(term_sets, groups, min_df):
    """build_tables gives the oracle's tables, with units as lists or as tuples (as extraction makes
    them), also with every phrase in one, two or four buckets; returns them."""
    want = build_tables_oracle(term_sets, groups, 3, min_df)
    as_tuples = [DocTermSet(tuple(map(tuple, ts.units)), ts.n_max) for ts in term_sets]
    for sets in (term_sets, as_tuples):
        assert build_tables(sets, groups, 3, min_df) == want
        # Masks 0, 1 and 3 put every phrase into one, two or four hash buckets, so light
        # phrases share heavy buckets and only the exact document-frequency cut removes them.
        for mask in (0, 1, 3):
            with mock.patch.object(stats, "_bucket_mask", return_value=mask):
                assert build_tables(sets, groups, 3, min_df) == want
    return want


@given(tabulation_inputs())
def test_build_tables_matches_brute_force_oracle(inputs):
    term_sets, groups, min_df, shuffled = inputs
    want = assert_tables_match_oracle(term_sets, groups, min_df)
    assert build_tables([ts for ts, _ in shuffled], [g for _, g in shuffled], 3, min_df) == want


def test_build_tables_matches_brute_force_oracle_above_255():
    # A min_df above 255 does not fit the one-byte bucket counts. Among 600 documents over
    # a two-token vocabulary, words, bigrams and trigrams reach such floors, and some
    # floors are exactly the document frequency of a gram.
    rng = random.Random(4)
    units = ([[rng.choice("ab") for _ in range(rng.randint(1, 12))] for _ in range(rng.randint(0, 4))]
             for _ in range(600))
    term_sets = [DocTermSet(doc_units, 8) for doc_units in units]
    groups = [i % 3 for i in range(600)]
    dfs = sorted({sum(row) for row in build_tables_oracle(term_sets, groups, 3, 256).values()})
    lengths = set()
    for min_df in (256, dfs[0], dfs[len(dfs) // 2], dfs[-1], dfs[-1] + 1):
        lengths.update(term.count(" ") + 1 for term in assert_tables_match_oracle(term_sets, groups, min_df))
    assert lengths == {1, 2, 3}


def test_build_tables_drops_a_light_bigram_in_a_heavy_bucket():
    # Every token reaches min_df = 3, so every bigram reaches level 2: "a b" is in 3
    # documents, "c d" and "d c" in 1 each. With one bucket, all three are counted
    # and the two light ones are cut.
    term_sets = [DocTermSet(units, 2) for units in
                 ([["a", "b"]], [["a", "b"]], [["a", "b"]], [["c", "d"]], [["c"], ["d"]], [["d", "c"]])]
    want = {"a": (2, 1), "b": (2, 1), "c": (1, 2), "d": (1, 2), "a b": (2, 1)}
    assert build_tables(term_sets, [0, 0, 1, 0, 1, 1], 2, min_df=3) == want
    with mock.patch.object(stats, "_bucket_mask", return_value=0) as bucket_mask:
        assert build_tables(term_sets, [0, 0, 1, 0, 1, 1], 2, min_df=3) == want
    bucket_mask.assert_called_once_with(5, 3)   # 5 bigram occurrences at level 2


def test_build_tables_bucket_counts_pass_255():
    # With one bucket, level 2 puts 300 bigram occurrences into it, more than a byte
    # holds: "a b" 151 times in 2 documents, "b a" 149 times in 1.
    term_sets = [DocTermSet([["a", "b"] * 150], 2), DocTermSet([["a", "b"]], 2)]
    with mock.patch.object(stats, "_bucket_mask", return_value=0):
        assert build_tables(term_sets, [0, 1], 2, min_df=2) == {"a": (1, 1), "b": (1, 1), "a b": (1, 1)}
    # A min_df of 300 does not fit a byte either: "a b" in 300 documents must reach it.
    term_sets = [DocTermSet([["a", "b"]], 2) for _ in range(300)]
    for mask in (0, 1):
        with mock.patch.object(stats, "_bucket_mask", return_value=mask):
            tables = build_tables(term_sets, [i % 2 for i in range(300)], 2, min_df=300)
        assert tables == {"a": (150, 150), "b": (150, 150), "a b": (150, 150)}


def test_build_tables_leaves_every_unit_unchanged():
    # One run hands the same units to every scope's count, so counting must not change them.
    # A rare token x<i> cuts most units into two kept runs at every level; the rest stay whole.
    rng = random.Random(5)
    term_sets = []
    for i in range(30):
        phrase = "a b c d e f".split()
        if i % 3:
            phrase.insert(rng.randint(1, 5), f"x{i}")
        term_sets.append(DocTermSet([phrase, [rng.choice("abcdef") for _ in range(rng.randint(1, 8))]], 5))
    before = [[list(tokens) for tokens in ts.units] for ts in term_sets]
    objects = [(ts.units, *ts.units) for ts in term_sets]
    tables = build_tables(term_sets, [i % 3 for i in range(30)], 3, min_df=3)
    assert "a b c d e" in tables and not any(term.startswith("x") for term in tables)
    assert [ts.units for ts in term_sets] == before
    assert all(a is b for ts, objs in zip(term_sets, objects) for a, b in zip((ts.units, *ts.units), objs))


# --------------------------------------------------------- compute_term_results

def test_compute_results_significance_flag_equivalence():
    rng = random.Random(2024)
    term_sets = [
        DocTermSet([[f"t{rng.randint(0, 30)}"] for _ in range(rng.randint(1, 10))], 1)
        for i in range(300)
    ]
    groups = [i % 3 for i in range(300)]
    tables = build_tables(term_sets, groups, 3, min_df=5)
    results, m, threshold = compute_term_results(tables, (100, 100, 100), ["low", "3", "4"], alpha=0.05)
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


def test_compute_results_are_the_terms_a_report_can_show():
    sizes = (100, 100, 100)
    flat = {f"flat{i}": (10 + i % 2, 10, 11) for i in range(20)}
    # Nothing significant: every term is shown, as the report falls back to all of them.
    results, m, threshold = compute_term_results(flat, sizes, ["low", "3", "4"])
    assert m == 20 and [r.term for r in results] == sorted(flat)
    assert not any(r.significant for r in results)
    assert all(r.n == sum(flat[r.term]) for r in results)
    # One significant term crowds out the rest; m and the threshold still count every term.
    tables = {**flat, "strong": (2, 10, 60)}
    results, m, strong_threshold = compute_term_results(tables, sizes, ["low", "3", "4"])
    assert m == 21 and strong_threshold == bonferroni_threshold(0.05, 21, 2)
    (result,) = results
    assert (result.term, result.significant, result.direction) == ("strong", True, "4")
    assert result.n == sum(tables["strong"])
    assert result.chi2 == chi_square(sizes, (2, 10, 60))
    assert result.p_value == chi_sq_survival(result.chi2, 2)
    assert result.proportions == (0.02, 0.1, 0.6)


def test_compute_results_empty():
    results, m, threshold = compute_term_results({}, (1, 1, 1), ["low", "3", "4"])
    assert results == [] and m == 0 and threshold is None


def test_analysis_config_validation():
    for n_max in (0, 9):
        with pytest.raises(ValueError):
            AnalysisConfig(n_max=n_max)
    with pytest.raises(ValueError):
        AnalysisConfig(alpha=0.0)
    with pytest.raises(ValueError):
        AnalysisConfig(top_k=0)
    with pytest.raises(ValueError):
        AnalysisConfig(min_doc_frequency=0)
