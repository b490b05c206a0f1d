import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snowlink import (
    HomogeneousLinkModel,
    InvariantViolation,
    ParseError,
    PatternSpaceTooLarge,
    RaschLinkModel,
    SampleData,
    enumerate_patterns,
    load_sample,
    pattern_from_string,
    pattern_to_string,
    sample_from_dict,
    sample_to_dict,
    save_sample,
)
from snowlink.simulator import (
    ConditionalMultinomial,
    PopulationConfig,
    draw_sample,
    replicate_rng,
)


def test_enumerate_single_site():
    assert enumerate_patterns(1) == [0b0, 0b1]


def test_enumerate_excluding_first_site():
    assert enumerate_patterns(2, excluded_site=0) == [0b00, 0b10]


def test_enumerate_three_sites_popcount_total():
    # brute-force count of set bits over all 3-bit masks
    pats = enumerate_patterns(3)
    assert len(pats) == 8
    assert sum(bin(x).count("1") for x in pats) == 12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_enumeration_sizes_and_exclusion(n):
    assert len(enumerate_patterns(n)) == 2**n
    for l in range(n):
        space = enumerate_patterns(n, excluded_site=l)
        assert len(space) == 2 ** (n - 1)
        assert all((x >> l) & 1 == 0 for x in space)
        assert space == sorted(space)


def _enumerate_by_loop(n, excluded_site):
    """The pattern space built one mask at a time, as a reference."""
    low_mask = (1 << excluded_site) - 1
    return [((k & ~low_mask) << 1) | (k & low_mask) for k in range(1 << (n - 1))]


def test_enumeration_matches_reference_loop():
    for n in range(1, 11):
        assert enumerate_patterns(n) == list(range(1 << n))
        for l in range(n):
            space = enumerate_patterns(n, excluded_site=l)
            assert space == _enumerate_by_loop(n, l)
            assert all(type(x) is int for x in space)


def test_enumeration_guard():
    with pytest.raises(PatternSpaceTooLarge):
        enumerate_patterns(21)


def test_pattern_string_round_trip():
    assert pattern_to_string(0b0101, 4) == "1010"
    assert pattern_from_string("1010", 4) == 0b0101
    with pytest.raises(ParseError):
        pattern_from_string("10", 3)


def test_minimal_sample_empty_counts():
    data = sample_from_dict({"n": 2, "N": 5, "m": [3, 4]})
    assert data.r1 == 0 and data.r2 == 0
    assert data.m_total == 7
    assert data.r_within == (0, 0)


def test_own_site_bit_rejected():
    with pytest.raises(InvariantViolation):
        SampleData(n=2, N=5, m=(3, 4), within=({0b01: 1}, {}))


def test_within_exceeding_site_size_rejected():
    with pytest.raises(InvariantViolation):
        SampleData(n=2, N=5, m=(1, 4), within=({0b10: 2}, {}))


def test_zero_pattern_key_rejected():
    with pytest.raises(InvariantViolation):
        SampleData(n=2, N=5, m=(3, 4), between1={0: 3})


def test_totals_recomputed_from_maps():
    data = SampleData(n=2, N=6, m=(4, 2), between1={1: 2, 3: 5},
                      within=({2: 1}, {1: 2}), between2={2: 7})
    assert data.r1 == 7
    assert data.r2 == 7
    assert data.r_within == (1, 2)


def test_load_rejects_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_sample(path)
    path.write_text(json.dumps({"n": 2, "N": 5}))
    with pytest.raises(ParseError):
        load_sample(path)


def test_load_rejects_invariant_violation(tmp_path):
    path = tmp_path / "bad.json"
    obj = {"n": 2, "N": 5, "m": [3, 4],
           "within": [[{"pattern": "10", "count": 1}], []]}
    path.write_text(json.dumps(obj))
    with pytest.raises(InvariantViolation):
        load_sample(path)  # within[0] carries bit 0


@st.composite
def sample_data_strategy(draw):
    n = draw(st.integers(1, 5))
    N = n + draw(st.integers(0, 6))
    m = tuple(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
    nonzero = list(range(1, 1 << n))
    between1 = draw(st.dictionaries(st.sampled_from(nonzero), st.integers(1, 9),
                                    max_size=min(4, len(nonzero))))
    between2 = draw(st.dictionaries(st.sampled_from(nonzero), st.integers(1, 9),
                                    max_size=min(4, len(nonzero))))
    within = []
    for l in range(n):
        space = [x for x in enumerate_patterns(n, l) if x != 0]
        if not space or m[l] == 0:
            within.append({})
            continue
        keys = draw(st.lists(st.sampled_from(space), unique=True, max_size=2))
        counts = {}
        budget = m[l]
        for k in keys:
            if budget == 0:
                break
            c = draw(st.integers(1, budget))
            counts[k] = c
            budget -= c
        within.append(counts)
    return SampleData(n=n, N=N, m=m, between1=between1,
                      within=tuple(within), between2=between2)


@settings(max_examples=60, deadline=None)
@given(sample_data_strategy())
def test_serialization_round_trip(data):
    assert sample_from_dict(sample_to_dict(data)) == data


def test_file_round_trip(tmp_path):
    data = SampleData(n=3, N=8, m=(2, 0, 5), between1={1: 4, 6: 1},
                      within=({6: 1}, {}, {3: 2}), between2={7: 2})
    path = tmp_path / "sample.json"
    save_sample(data, path)
    assert load_sample(path) == data


def _check_tables(data):
    for comp in (data.covered, data.uncovered):
        (site, pats, counts), *sites = comp.tables
        assert site is None and counts.sum() == comp.r
        assert [entry[0] for entry in sites] == list(range(len(comp.m)))
        for l, pats, counts in sites:
            # every person of the site is counted once, the unlinked ones
            # as the pattern-0 row, which is there exactly when they are
            unlinked = comp.m[l] - sum(comp.within[l].values())
            assert counts.sum() == comp.m[l]
            assert (0 in pats) == (unlinked > 0)
            assert dict(zip(pats.tolist(), counts.tolist())) == (
                {**comp.within[l], 0: unlinked} if unlinked else comp.within[l])


@settings(max_examples=60, deadline=None)
@given(sample_data_strategy())
def test_tables_count_every_site_person_once(data):
    _check_tables(data)


@pytest.mark.parametrize("family", ["homogeneous", "rasch"])
def test_tables_count_every_site_person_once_in_drawn_samples(family):
    n = 3
    model = HomogeneousLinkModel(n) if family == "homogeneous" else RaschLinkModel(n, 20)
    theta = np.r_[[0.8, -0.5, 1.5], [1.0] * (model.q - n)]
    config = PopulationConfig(N=5, n=n, cluster_mode=ConditionalMultinomial(60), tau2=30,
                              model1=model, model2=model, theta1=theta, theta2=theta)
    fully_linked = 0
    for i in range(20):
        data, _ = draw_sample(config, replicate_rng(3, i))
        _check_tables(data)
        fully_linked += sum(0 not in pats for _, pats, _ in data.covered.tables[1:])
    assert fully_linked  # the draws include sites without a pattern-0 row
