import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2hopf import reps as reps_module
from f2hopf.cli import reps_payload
from f2hopf.gf2 import enumerate_invertible
from f2hopf.golden import (
    DUAL_REPS,
    REP_COUNTS,
    TENSOR_TABLE,
    dsl2_named_reps,
    dsl2_presentation,
)
from f2hopf.reps import (
    direct_sum,
    dual_rep,
    enumerate_reps,
    equivalence_classes,
    equivalent_by_conjugation,
    invariant_line,
    is_representation,
    regular_rep,
    tensor_rep,
)
from reference import are_equivalent, conjugate, naive_conjugation, naive_orbit_partition

H = dsl2_presentation()
ALG = H.alg


NAMED = dsl2_named_reps()


def named(key):
    return NAMED[key]


@pytest.mark.parametrize("k", [1, 2])
def test_counts_small(k):
    reps = enumerate_reps(ALG, k)
    assert len(reps) == REP_COUNTS[k]
    for r in reps:
        assert is_representation(ALG, r)


def test_unit_must_act_as_the_identity():
    from f2hopf.reps import Representation

    zero = (0, 0)
    with pytest.raises(ValueError, match="unit must act as the identity"):
        Representation(2, (zero,) * ALG.n)
    assert Representation(2, ((1, 2),) + (zero,) * (ALG.n - 1)).k == 2


def test_count_k3():
    reps = enumerate_reps(ALG, 3)
    assert len(reps) == REP_COUNTS[3]


def test_named_reps_valid_and_found():
    for key in ("1", "1b", "2", "2b"):
        r = named(key)
        assert is_representation(ALG, r)
        pool = enumerate_reps(ALG, r.k)
        assert any(r.images == p.images for p in pool)


def test_k1_classes_are_raw():
    reps = enumerate_reps(ALG, 1)
    assert equivalence_classes(reps) == [[0], [1]]


def test_k2_equivalence_classes():
    reps = enumerate_reps(ALG, 2)
    classes = equivalence_classes(reps)
    assert len(classes) == 5
    assert sorted(len(c) for c in classes) == [1, 1, 6, 6, 6]
    # the named two-dimensional representations sit in distinct classes
    assert not are_equivalent(named("2"), named("2b"))


def test_duals():
    for a, b in DUAL_REPS.items():
        assert are_equivalent(dual_rep(H, named(a)), named(b)), (a, b)


def test_tensor_table():
    for (a, b), want in TENSOR_TABLE.items():
        t = tensor_rep(H, named(a), named(b))
        assert is_representation(ALG, t)
        if len(want) == 1:
            target = named(want[0])
        else:
            target = direct_sum(named(want[0]), named(want[1]))
        assert equivalent_by_conjugation(t, target) is not None, (a, b)


def test_unit_tensor_neutral():
    for key in ("1", "1b", "2", "2b"):
        t = tensor_rep(H, named("1"), named(key))
        assert are_equivalent(t, named(key))


def test_invariant_lines():
    assert invariant_line(named("2"), 0b11, named("1"))
    assert invariant_line(named("2b"), 0b11, named("1b"))
    assert not invariant_line(named("2"), 0b01, named("1"))
    assert not invariant_line(named("2"), 0b11, named("1b"))


def test_regular_representation():
    reg = regular_rep(ALG)
    assert is_representation(ALG, reg)
    both = direct_sum(named("2"), named("2b"))
    assert equivalent_by_conjugation(both, reg) is not None


def test_conjugation_preserves_validity():
    r = named("2")
    for p in enumerate_invertible(2):
        assert is_representation(ALG, conjugate(r, p))


def test_direct_sums_generate_k3_classes():
    # every size-3 representation decomposes into the four generators
    reps3 = enumerate_reps(ALG, 3)
    classes = equivalence_classes(reps3)
    candidates = [
        direct_sum(named(a), named(b))
        for a, b in (("1", "2"), ("1", "2b"), ("1b", "2"), ("1b", "2b"),
                     ("2", "1"),)
    ] + [
        direct_sum(direct_sum(named(a), named(b)), named(c))
        for a in ("1", "1b") for b in ("1", "1b") for c in ("1", "1b")
    ]
    for cls in classes:
        rep = reps3[cls[0]]
        assert any(
            equivalent_by_conjugation(rep, cand) is not None for cand in candidates
        )


@functools.cache
def reps_of_size(k):
    return enumerate_reps(ALG, k)


def test_conjugation_matches_oracle_on_reps_stage_pairs(monkeypatch):
    pairs = []
    search = reps_module.equivalent_by_conjugation

    def record(r1, r2):
        pairs.append((r1, r2))
        return search(r1, r2)

    monkeypatch.setattr(reps_module, "equivalent_by_conjugation", record)
    reps_payload()
    monkeypatch.undo()
    assert len(pairs) == 32
    got = [equivalent_by_conjugation(r1, r2) for r1, r2 in pairs]
    assert got == [naive_conjugation(r1, r2) for r1, r2 in pairs]
    assert sum(p is not None for p in got) == 20


def test_conjugation_matches_oracle_on_all_k2_pairs():
    reps = reps_of_size(2)
    for r1 in reps:
        for r2 in reps:
            assert equivalent_by_conjugation(r1, r2) == naive_conjugation(r1, r2)


def test_conjugation_matches_oracle_on_sampled_k3_pairs():
    reps = reps_of_size(3)
    classes = [c for c in equivalence_classes(reps) if len(c) > 1]
    rng = random.Random(20201)
    pairs = [tuple(rng.sample(range(len(reps)), 2)) for _ in range(100)]
    pairs += [tuple(rng.sample(rng.choice(classes), 2)) for _ in range(100)]
    found = 0
    for i, j in pairs:
        got = equivalent_by_conjugation(reps[i], reps[j])
        assert got == naive_conjugation(reps[i], reps[j]), (i, j)
        found += got is not None
    assert found >= 100


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_conjugate_found_with_smallest_intertwiner(data):
    # k <= 3: every representation (the named ones among them); k = 4: sums
    # of the named two-dimensional ones, as in the tensor table.
    k = data.draw(st.sampled_from([2, 3, 4]))
    if k < 4:
        r = data.draw(st.sampled_from(reps_of_size(k)))
    else:
        r = data.draw(st.sampled_from([direct_sum(named("2"), named("2b")),
                                       direct_sum(named("2"), named("2"))]))
    p = data.draw(st.sampled_from(enumerate_invertible(k)))
    target = conjugate(r, p)
    q = equivalent_by_conjugation(r, target)
    assert q is not None
    assert conjugate(r, q).images == target.images
    assert q <= p
    if k < 4:
        assert q == naive_conjugation(r, target)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_equivalence_classes_match_naive_orbits(k):
    reps = reps_of_size(k)
    assert equivalence_classes(reps) == naive_orbit_partition(reps)
