import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpart import counting, kernels
from mpart.bijection import (
    BetaSeq,
    carry_betas,
    carry_mults,
    enumerate_members,
    is_member,
    phi,
    phi_inv,
)
from mpart.budgets import EnumerationBudgetExceeded
from mpart.counting import recurrence_table
from mpart.partitions import MaryPartition, enumerate_b, weight
from mpart.radix import to_base
from test_values import UNCHECKED_GRID
from walks import materialise

# the full correspondence for base 4, n = 36 (multiplicities and sequences
# both written largest index first)
TABLE_4_36 = [
    ((2, 1, 0), (0, 0)),
    ((2, 0, 4), (0, 1)),
    ((1, 5, 0), (1, 0)),
    ((1, 4, 4), (1, 1)),
    ((1, 3, 8), (1, 2)),
    ((1, 2, 12), (1, 3)),
    ((1, 1, 16), (1, 4)),
    ((1, 0, 20), (1, 5)),
    ((0, 9, 0), (2, 0)),
    ((0, 8, 4), (2, 1)),
    ((0, 7, 8), (2, 2)),
    ((0, 6, 12), (2, 3)),
    ((0, 5, 16), (2, 4)),
    ((0, 4, 20), (2, 5)),
    ((0, 3, 24), (2, 6)),
    ((0, 2, 28), (2, 7)),
    ((0, 1, 32), (2, 8)),
    ((0, 0, 36), (2, 9)),
]


def from_msb(m, mults_msb):
    mults = list(mults_msb)
    while len(mults) > 1 and mults[0] == 0:
        mults.pop(0)
    return MaryPartition(m, tuple(reversed(mults)))


def test_phi_known_pairs():
    assert phi(from_msb(4, (2, 1, 0)), 36).msb_first() == (0, 0)
    assert phi(from_msb(4, (1, 4, 4)), 36).msb_first() == (1, 1)
    assert phi(from_msb(4, (0, 0, 36)), 36).msb_first() == (2, 9)


def test_phi_of_digit_vector_is_zero():
    for m, n in [(2, 19), (3, 25), (5, 485), (7, 100)]:
        digits = to_base(m, n).digits
        p = from_msb(m, tuple(reversed(digits)))
        assert phi(p, n).betas == (0,) * to_base(m, n).j


def test_phi_weight_mismatch_raises():
    with pytest.raises(ValueError):
        phi(MaryPartition(4, (4, 4, 1)), 35)


def test_phi_inv_known_pairs():
    assert phi_inv(BetaSeq(4, 36, (0, 2))).mults == (0, 9)
    assert phi_inv(BetaSeq(4, 36, (1, 0))).msb_first() == (2, 0, 4)
    # the all-zero sequence undoes nothing: back to the digit vector
    assert phi_inv(BetaSeq(4, 36, (0, 0))).msb_first() == (2, 1, 0)


def test_phi_inv_rejects_nonmember():
    with pytest.raises(ValueError):
        phi_inv(BetaSeq(4, 36, (10, 2)))


def test_full_table_4_36():
    parts = enumerate_b(4, 36)
    got = [((0,) * (3 - len(p.mults)) + p.msb_first(), phi(p, 36).msb_first()) for p in parts]
    assert got == TABLE_4_36


def test_is_member_examples():
    assert is_member(BetaSeq(4, 36, (9, 2)))
    assert not is_member(BetaSeq(4, 36, (10, 2)))
    assert not is_member(BetaSeq(4, 36, (2, 0)))
    assert not is_member(BetaSeq(4, 36, (-1, 0)))


def test_beta_seq_length_checked():
    with pytest.raises(ValueError):
        BetaSeq(4, 36, (1, 2, 3))
    with pytest.raises(ValueError):
        BetaSeq(4, 36, (1,))
    # n < m has the empty sequence
    assert BetaSeq(7, 6, ()).msb_first() == ()


def test_empty_sequence_case():
    assert is_member(BetaSeq(7, 6, ()))
    assert phi_inv(BetaSeq(7, 6, ())).mults == (6,)
    assert phi(MaryPartition(7, (6,)), 6).betas == ()


def test_round_trip_small_grid():
    for m in (2, 3, 4, 5):
        for n in range(1, 121):
            for p in enumerate_b(m, n):
                assert phi_inv(phi(p, n)) == p


@settings(deadline=None)
@given(st.integers(2, 10), st.lists(st.integers(0, 40), max_size=8), st.integers(1, 40))
def test_phi_round_trip_property(m, lower_mults, top_mult):
    # any canonical multiplicity vector: free lower entries, nonzero top
    p = MaryPartition(m, (*lower_mults, top_mult))
    image = phi(p, weight(p))
    assert is_member(image)
    assert phi_inv(image) == p


@settings(deadline=None, max_examples=500)
@given(st.data())
def test_membership_is_the_chained_inequalities(data):
    # n with j + 1 digits, j = 0 included, and entries drawn from -3 to
    # past the bounds that the entries above them set
    m = data.draw(st.integers(2, 10))
    j = data.draw(st.integers(0, 8))
    n = data.draw(st.integers(m**j, m ** (j + 1) - 1))
    alpha = to_base(m, n).digits
    msb = []  # beta_j, ..., beta_1
    above = 0
    for t in range(j, 0, -1):
        above = data.draw(st.integers(-3, max(alpha[t] + m * above, 0) + 3))
        msb.append(above)
    b = BetaSeq(m, n, tuple(reversed(msb)))
    # 0 <= beta_j <= alpha_j and 0 <= beta_t <= alpha_t + m*beta_{t+1} below
    member, above = True, 0
    for t, beta in zip(range(j, 0, -1), msb):
        member = member and 0 <= beta <= alpha[t] + m * above
        above = beta
    assert is_member(b) == member
    if member:
        assert phi(phi_inv(b), n) == b
    else:
        with pytest.raises(ValueError, match="sequence violates its chained bounds"):
            phi_inv(b)


def test_bijection_onto_members_small_grid():
    for m in (2, 3, 4, 5):
        for n in range(1, 121):
            parts = enumerate_b(m, n)
            members = enumerate_members(m, n)
            images = [phi(p, n) for p in parts]
            # injectivity, surjectivity, and cardinality in one comparison:
            # descending partitions map to ascending sequences
            assert images == members


def test_wrappers_agree_with_the_carry_cores():
    # phi, phi_inv and is_member against the tuple cores the table and the
    # bijection suite run, and the table's walk against enumerate_b
    for m in range(2, 8):
        for n in range(1, 151):
            alpha = to_base(m, n).digits
            parts = enumerate_b(m, n)
            for p in parts:
                assert phi(p, n).betas == carry_betas(m, alpha, p.mults)
            # carry_mults strips the top zeros itself, so from_mults of it
            # is the partition with exactly these multiplicities
            for b in enumerate_members(m, n):
                assert phi_inv(b).mults == carry_mults(m, alpha, b.betas)
                assert is_member(b)
            # the walk keeps every exponent up to j; stripped, it is parts
            assert materialise(kernels.walk_partitions, m, n, tuple) == [
                p.mults + (0,) * (len(alpha) - len(p.mults)) for p in parts]


def test_the_two_walks_hand_out_the_same_innermost_runs():
    # the correspondence in bijection's module docstring: beta_1 = 0 at a run's
    # first partition, whose (beta_2..beta_j, L + 1) is (k_2..k_j, count)
    for m, n in UNCHECKED_GRID:
        alpha = to_base(m, n).digits
        partition_runs, sum_runs = [], []

        def partition_run(mults, rem):
            if len(mults) > 1:
                mults[1], mults[0] = divmod(rem, m)
            else:
                mults[0] = rem
            betas = carry_betas(m, alpha, mults)
            assert betas[:1] in ((), (0,))  # empty only for n < m, where rem < m
            partition_runs.append((betas[1:], rem // m + 1))

        def sum_run(ks, count):
            sum_runs.append((tuple(ks[1:len(alpha) - 1]), count))

        kernels.walk_partitions(m, n, 10**9, partition_run)
        kernels.nested_sum_b(m, n, 10**9, sum_run)
        assert partition_runs == sum_runs


def test_carry_cores_on_plain_tuples():
    alpha = to_base(4, 36).digits
    # every exponent up to j may be given, or only up to the largest part
    assert carry_betas(4, alpha, (4, 4, 1)) == (1, 1)
    assert carry_betas(4, alpha, (36, 0, 0)) == carry_betas(4, alpha, (36,)) == (9, 2)
    # zeros padded above m**j add no weight
    assert carry_betas(4, alpha, (4, 4, 1, 0)) == (1, 1)
    assert carry_betas(4, alpha, (36, 0, 0, 0)) == (9, 2)
    assert carry_mults(4, alpha, (9, 2)) == (36,)
    assert carry_mults(4, alpha, (0, 0)) == (0, 1, 2)
    assert carry_mults(4, alpha, (10, 2)) is None
    assert carry_mults(4, alpha, (0, -1)) is None
    # the weight check: beta_0 != 0, or a part above m**j
    with pytest.raises(ValueError, match="partition sums to 37, not 36"):
        carry_betas(4, alpha, (5, 4, 1))
    with pytest.raises(ValueError, match="partition sums to 64, not 36"):
        carry_betas(4, alpha, (0, 0, 0, 1))
    with pytest.raises(ValueError, match="partition sums to 0, not 36"):
        carry_betas(4, alpha, ())
    # n < m: the empty sequence, and the one partition n = n*1
    assert carry_betas(7, (6,), (6,)) == ()
    assert carry_mults(7, (6,), ()) == (6,)


def test_members_all_satisfy_bounds():
    for m, n in [(3, 80), (4, 36), (5, 123)]:
        for b in enumerate_members(m, n):
            assert is_member(b)


def test_enumerate_members_checks_its_budget_before_the_walk(set_budget):
    # the members are in bijection with the partitions, so b(m, n) is the
    # exact number the budget is checked against
    for m, n in ((2, 100), (3, 200), (5, 60)):
        set_budget(None)
        b = recurrence_table(m, n)[n]
        set_budget(b)
        assert len(enumerate_members(m, n)) == b
        set_budget(b - 1)
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_members(m, n)
    set_budget(None)
    for n in (2**70, 10**12):
        start = time.perf_counter()
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_members(2, n)
        assert time.perf_counter() - start < 1.0


def test_enumerate_members_checks_its_budget_below_the_base(set_budget):
    # n < m has the one empty sequence, and it is counted like any other
    set_budget(0)
    with pytest.raises(EnumerationBudgetExceeded) as info:
        enumerate_members(3, 2)
    assert str(info.value) == "more than 0 sequences for n=2 in base 3"
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_b(3, 2)
    set_budget(1)
    assert enumerate_members(3, 2) == [BetaSeq(3, 2, ())]
    set_budget(None)
    with pytest.raises(ValueError, match="n must be positive, got 0"):
        enumerate_members(3, 0)


def test_enumerate_members_borrows_nothing_from_the_formulas(monkeypatch, set_budget):
    # the sequences are checked against count_b_poly elsewhere, so neither
    # their enumeration nor its budget check may go through it
    def fail(m, n):
        raise AssertionError("count_b_poly called")

    monkeypatch.setattr(counting, "count_b_poly", fail)
    assert len(enumerate_members(3, 100)) == 402
    set_budget(401)
    with pytest.raises(EnumerationBudgetExceeded) as info:
        enumerate_members(3, 100)
    assert str(info.value) == "more than 401 sequences for n=100 in base 3"
