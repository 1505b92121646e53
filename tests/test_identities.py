import pickle
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from fibsums import (
    BinomialKernel,
    GridSpec,
    IdentityId,
    IdentityParams,
    InapplicableParamsError,
    IntegralityError,
    Kernel,
    SequenceKind,
    VerificationRecord,
    binomial_rhs,
    catalog,
    descriptor,
    direct_sum,
    eval_pair,
    fib,
    reduce_power,
    run_grids,
)
from fibsums.identities import SLOT_ORDER, _root5_swap, _times_5pow
from fibsums.quadfield import SQRT5, alpha_pow

from oracles import naive_fib, naive_lucas

F, L = SequenceKind.FIB, SequenceKind.LUCAS
P = IdentityParams


class TestCatalog:
    def test_size_and_order(self):
        cat = catalog()
        assert len(cat) == 30
        assert cat[0].id is IdentityId.F1
        assert [d.id for d in cat] == list(IdentityId)

    def test_ids_unique(self):
        ids = [d.id for d in catalog()]
        assert len(set(ids)) == len(ids)

    def test_descriptors_well_formed(self):
        for d in catalog():
            assert d.anchor
            assert "n" in d.slots
            assert set(d.slots) <= set(SLOT_ORDER)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            descriptor("nope")

    def test_f_l_pairs_share_the_left_side_and_domain(self):
        cat = catalog()
        assert [d.kind for d in cat] == [F, L] * 15
        for f, l in zip(cat[::2], cat[1::2]):
            assert (f.slots, f.lhs_args, f.domain_error) == (l.slots, l.lhs_args, l.domain_error), f.id


class TestRoot5Swap:
    @pytest.mark.parametrize("n", [*range(13), 25, 40])
    def test_matches_binet_pairing_in_q_alpha(self, n):
        # alpha^i sqrt5^n -/+ beta^i (-sqrt5)^n, over sqrt5 for F, computed without fib/lucas
        up, down = SQRT5**n, (-SQRT5) ** n
        for i in range(-40, 41):
            a, b = alpha_pow(i), alpha_pow(i).conj()
            assert (a * up - b * down) * SQRT5.inv() == (_root5_swap(n, F, i), 0), (n, i)
            assert a * up + b * down == (_root5_swap(n, L, i), 0), (n, i)


class TestIdentityParams:
    def test_slot_order_is_the_field_order(self):
        assert P._fields == SLOT_ORDER == ("n", "j", "r", "s", "p", "m")

    def test_verify_builds_params_positionally_in_slot_order(self):
        # one point per spec, every slot at a distinct value, so a permuted slot shows
        spec = GridSpec(
            ids=(IdentityId.E9, IdentityId.EVEN_F),
            n_range=(2, 2), j_range=(3, 3), r_range=(-1, -1), s_range=(4, 4), p_range=(-2, -2), m_range=(5, 5),
        )
        params = [rec.params for rec in run_grids([spec]).records]
        assert params == [P(n=2, j=3, r=-1, s=4, p=-2), P(n=2, j=3, r=-1, s=4, m=5)]
        assert all(type(q) is P for q in params)

    def test_defaults_and_keyword_construction(self):
        assert P() == P(0, 1, 1, 0, 1, 1)
        q = P(s=-3, n=4)
        assert (q.n, q.j, q.r, q.s, q.p, q.m) == (4, 1, 1, -3, 1, 1)
        assert P(**{"m": 2, "j": -1}) == P(0, -1, 1, 0, 1, 2)

    def test_immutable(self):
        q = P(n=2)
        for slot in SLOT_ORDER:
            with pytest.raises(AttributeError):
                setattr(q, slot, 7)
        assert q == P(n=2)

    def test_equality_and_hash(self):
        assert P(n=2, s=1) == P(2, 1, 1, 1) and P(n=2, s=1) != P(n=2, s=-1)
        assert hash(P(n=2, s=1)) == hash(P(2, 1, 1, 1))
        assert len({P(n=2), P(2), P(n=3)}) == 2

    def test_repr(self):
        assert repr(P(n=2)) == "IdentityParams(n=2, j=1, r=1, s=0, p=1, m=1)"

    def test_pickle_round_trip(self):
        # --jobs workers send failure records, params included, to the parent by pickle
        q = P(n=5, j=-2, r=3, s=-1, p=4, m=2)
        rec = VerificationRecord(IdentityId.EVEN_F, q, Fraction(1), Fraction(2), False)
        for value in (q, rec):
            back = pickle.loads(pickle.dumps(value))
            assert back == value
        assert type(pickle.loads(pickle.dumps(q))) is P


class TestApplicable:
    def test_p_zero_excluded_for_q13_q14(self):
        ok, reason = descriptor(IdentityId.Q13).applicable(P(n=1, p=0))
        assert not ok and reason == "p must be nonzero"
        ok, reason = descriptor(IdentityId.Q14).applicable(P(n=1, p=0))
        assert not ok

    def test_p_zero_fine_elsewhere(self):
        assert descriptor(IdentityId.Q15).applicable(P(n=1, p=0)) == (True, None)
        assert descriptor(IdentityId.E9).applicable(P(n=1, p=0)) == (True, None)

    def test_f1_any_integers(self):
        assert descriptor(IdentityId.F1).applicable(P(n=5, j=-3, r=0, s=7)) == (True, None)

    def test_even_family_m_zero_valid(self):
        assert descriptor(IdentityId.EVEN_F).applicable(P(n=3, m=0)) == (True, None)

    def test_negative_n_or_m_rejected(self):
        ok, reason = descriptor(IdentityId.F1).applicable(P(n=-1))
        assert not ok and "n" in reason
        ok, reason = descriptor(IdentityId.ODD_L).applicable(P(n=2, m=-1))
        assert not ok and "m" in reason

    @pytest.mark.parametrize("id", list(IdentityId), ids=lambda id: id.value)
    def test_rhs_raises_one_domain_error(self, id):
        # every closed side reports the domain the same way, engine-bound F1/L1/T1 included
        desc = descriptor(id)
        with pytest.raises(InapplicableParamsError, match=f"^{id.value}: n must be non-negative$"):
            desc.rhs(P(n=-1))
        if "m" in desc.slots:
            with pytest.raises(InapplicableParamsError, match=f"^{id.value}: m must be non-negative$"):
                desc.rhs(P(n=2, m=-1))
        if id in (IdentityId.Q13, IdentityId.Q14):
            with pytest.raises(InapplicableParamsError, match=f"^{id.value}: p must be nonzero$"):
                desc.rhs(P(n=2, p=0))


class TestLinear:
    def test_spot_values(self):
        assert binomial_rhs(BinomialKernel(3, 1, 1, 1, 0), 1, 1, F) == 8
        assert binomial_rhs(BinomialKernel(3, 1, 1, 1, 0), 1, 1, L) == 18

    def test_n_zero_single_term(self):
        for j, s in product((-2, 1, 3), (-1, 0, 2)):
            assert binomial_rhs(BinomialKernel(0, 5, -7, 2, s), j, 1, F) == fib(j * s)

    def test_rational_weights(self):
        x, z = Fraction(1, 2), Fraction(-2, 3)
        for n, j, r, s in product(range(4), (-1, 2), (1, -2), (0, 1)):
            assert binomial_rhs(BinomialKernel(n, x, z, r, s), j, 1, F) == direct_sum(n, x, z, j, r, s, 1, F)
            assert binomial_rhs(BinomialKernel(n, x, z, r, s), j, 1, L) == direct_sum(n, x, z, j, r, s, 1, L)


class TestSpecialLinear:
    def test_spot_values(self):
        assert descriptor(IdentityId.E5).rhs(P(n=2, j=1, r=1, s=0)) == 1
        assert descriptor(IdentityId.E6).rhs(P(n=2, j=1, r=1, s=0)) == 3
        assert descriptor(IdentityId.E9).rhs(P(n=2, j=1, r=1, s=0, p=2)) == -3


class TestQuadratic:
    def test_spot_values(self):
        assert descriptor(IdentityId.Q13).rhs(P(n=1, j=1, r=1, s=0, p=1)) == -1
        assert descriptor(IdentityId.Q14).rhs(P(n=1, j=1, r=1, s=0, p=1)) == 7
        assert descriptor(IdentityId.Q15).rhs(P(n=1, j=1, r=1, s=0, p=1)) == -1

    def test_p_zero_raises(self):
        with pytest.raises(InapplicableParamsError):
            descriptor(IdentityId.Q13).rhs(P(n=1, j=1, r=1, s=0, p=0))


class TestCubic:
    @pytest.mark.parametrize(
        "id,n,s,expected",
        [
            (IdentityId.C18, 2, 1, 11),
            (IdentityId.C19, 1, 0, 9),
            (IdentityId.C20, 1, 0, -1),
            (IdentityId.C22, 1, 0, 2),
        ],
    )
    def test_spot_values(self, id, n, s, expected):
        assert descriptor(id).rhs(P(n=n, s=s)) == expected

    def test_fractional_five_powers_still_integral(self):
        # n = 0/1 push the 5-exponents negative; the result stays an integer
        for id in (IdentityId.C22, IdentityId.C23):
            for n in range(4):
                for s in range(-3, 4):
                    assert descriptor(id).rhs(P(n=n, s=s)).denominator == 1


POWER_IDS = {
    (False, False, F): IdentityId.EVEN_F, (False, False, L): IdentityId.EVEN_L,
    (False, True, F): IdentityId.ALT_EVEN_F, (False, True, L): IdentityId.ALT_EVEN_L,
    (True, False, F): IdentityId.ODD_F, (True, False, L): IdentityId.ODD_L,
    (True, True, F): IdentityId.ALT_ODD_F, (True, True, L): IdentityId.ALT_ODD_L,
}


def even_rhs(n, j, r, s, m, alt, kind):
    """sum_k (+/-1)^k C(n,k) W_{j(rk+s)}^(2m) through its catalog entry."""
    return descriptor(POWER_IDS[False, alt, kind]).rhs(P(n=n, j=j, r=r, s=s, m=m))


def odd_rhs(n, j, r, s, m, alt, kind):
    """sum_k (+/-1)^k C(n,k) W_{j(2rk+s)}^(2m+1) through its catalog entry."""
    return descriptor(POWER_IDS[True, alt, kind]).rhs(P(n=n, j=j, r=r, s=s, m=m))


class TestEvenOddPowers:
    @pytest.mark.parametrize(
        "args,expected",
        [
            ((2, 1, 1, 0, 1, False, F), 3),
            ((2, 2, 1, 0, 1, False, F), 11),
            ((2, 1, 2, 0, 1, True, F), 7),
            ((3, 1, 1, 0, 0, False, L), 8),
        ],
    )
    def test_even_spot_values(self, args, expected):
        assert even_rhs(*args) == expected

    @pytest.mark.parametrize(
        "args,expected",
        [
            ((2, 1, 1, 1, 0, False, F), 10),
            ((1, 1, 1, 0, 0, True, L), -1),
        ],
    )
    def test_odd_spot_values(self, args, expected):
        assert odd_rhs(*args) == expected

    def test_odd_n_zero_collapses_to_power(self):
        for j, r, s, m in product((-2, 1, 3), (-1, 1, 2), (-2, 0, 1), range(3)):
            assert odd_rhs(0, j, r, s, m, False, F) == fib(j * s) ** (2 * m + 1)

    def test_branch_totality(self):
        # every (j, m, r) lands in exactly one branch and evaluates
        for j, m, r in product(range(-3, 4), range(0, 3), range(-3, 4)):
            for alt in (False, True):
                for kind in (F, L):
                    even_rhs(2, j, r, 1, m, alt, kind)
                    odd_rhs(2, j, r, 1, m, alt, kind)

    def test_three_way_against_engine_and_oracle(self):
        # theorem branches == Q(alpha) engine == direct summation
        for n, j, r, s, m in product((0, 1, 2, 4), (-2, 1), (-1, 2), (-1, 0, 2), (0, 1, 2)):
            for alt in (False, True):
                z = -1 if alt else 1
                for kind in (F, L):
                    via_engine = binomial_rhs(BinomialKernel(n, 1, z, r, s), j, 2 * m, kind)
                    via_oracle = direct_sum(n, 1, z, j, r, s, 2 * m, kind)
                    via_branch = even_rhs(n, j, r, s, m, alt, kind)
                    assert via_engine == via_oracle == via_branch, (n, j, r, s, m, alt, kind)
                    via_engine = binomial_rhs(BinomialKernel(n, 1, z, 2 * r, s), j, 2 * m + 1, kind)
                    via_oracle = direct_sum(n, 1, z, j, 2 * r, s, 2 * m + 1, kind)
                    via_branch = odd_rhs(n, j, r, s, m, alt, kind)
                    assert via_engine == via_oracle == via_branch, (n, j, r, s, m, alt, kind)

    def test_rejects_negative_m(self):
        with pytest.raises(InapplicableParamsError):
            even_rhs(1, 1, 1, 0, -1, False, F)
        with pytest.raises(InapplicableParamsError):
            odd_rhs(1, 1, 1, 0, -2, False, F)


EVEN_ODD_IDS = (
    IdentityId.EVEN_F, IdentityId.EVEN_L, IdentityId.ALT_EVEN_F, IdentityId.ALT_EVEN_L,
    IdentityId.ODD_F, IdentityId.ODD_L, IdentityId.ALT_ODD_F, IdentityId.ALT_ODD_L,
)
small = st.integers(-12, 12)


class TestEvenOddBeyondTheBox:
    """The even/odd power theorems against the oracle well past the grid's n <= 12, |j,r,s| <= 4."""

    @pytest.mark.parametrize("id", EVEN_ODD_IDS, ids=lambda id: id.value)
    @seed(20210520)
    @settings(deadline=None)
    @given(n=st.integers(0, 40), j=small, r=small, s=small, m=st.integers(0, 5))
    @example(n=7, j=0, r=3, s=2, m=2)
    @example(n=7, j=3, r=0, s=-2, m=2)
    @example(n=0, j=2, r=-3, s=4, m=3)
    @example(n=9, j=2, r=-1, s=3, m=0)
    @example(n=11, j=-3, r=5, s=-1, m=4)
    @example(n=0, j=1, r=1, s=2, m=1)  # jmr odd at n = 0: the centre's 0^0 = 1
    def test_matches_oracle(self, id, n, j, r, s, m):
        outcome = eval_pair(id, P(n=n, j=j, r=r, s=s, m=m))
        assert outcome.match, outcome


OTHER_IDS = tuple(id for id in IdentityId if id not in EVEN_ODD_IDS)
wide = st.integers(-50, 50)


class TestCatalogBeyondTheBox:
    """The other 22 identities against the oracle well past the grid's n <= 12, |j,r,s,p| <= 4."""

    @pytest.mark.parametrize("id", OTHER_IDS, ids=lambda id: id.value)
    @seed(20210521)
    @settings(deadline=None)
    @given(n=st.integers(0, 60), j=wide, r=wide, s=wide, p=wide)
    @example(n=0, j=3, r=-2, s=5, p=4)
    @example(n=9, j=0, r=7, s=-3, p=-2)
    @example(n=8, j=5, r=0, s=2, p=6)
    @example(n=13, j=-4, r=3, s=-7, p=-5)  # jr < 0
    @example(n=60, j=47, r=-50, s=33, p=-41)  # jr < 0 at the corner of the ranges
    @example(n=6, j=2, r=1, s=-1, p=0)  # outside Q13/Q14's domain
    def test_matches_oracle(self, id, n, j, r, s, p):
        params = P(n=n, j=j, r=r, s=s, p=p)
        if p == 0 and id in (IdentityId.Q13, IdentityId.Q14):
            with pytest.raises(InapplicableParamsError):
                eval_pair(id, params)
        else:
            outcome = eval_pair(id, params)
            assert outcome.match, outcome


class TestEvalPair:
    def test_match_examples(self):
        assert eval_pair(IdentityId.C18, P(n=2, s=1)) == (11, 11, True)
        assert eval_pair(IdentityId.E6, P(n=2, j=1, r=1, s=0)) == (3, 3, True)

    def test_inapplicable_raises(self):
        with pytest.raises(InapplicableParamsError, match="p must be nonzero"):
            eval_pair(IdentityId.Q13, P(n=1, p=0))

    def test_out_of_contract_p_zero_observation(self):
        # the p != 0 restriction looks conservative: the oracle side equals the
        # printed Q13/Q14 formula at p = 0 too
        j, r, s, p = 2, -1, 1, 0
        js, jr = j * s, j * r
        sign = -1 if js % 2 else 1
        for n in range(4):
            head = naive_fib(2 * jr) ** n * naive_lucas(p * n - 2 * js)
            tail = sign * 2 * naive_fib(jr) ** n * naive_lucas(jr + p) ** n
            params = P(n=n, j=j, r=r, s=s, p=p)
            assert descriptor(IdentityId.Q13).lhs(params) == Fraction(head - tail, 5)
            assert descriptor(IdentityId.Q14).lhs(params) == head + tail

    def test_whole_catalog_small_box(self):
        # every identity, a small parameter box, exact match everywhere
        for desc in catalog():
            axes = {
                "n": range(0, 5) if "n" in desc.slots else (0,),
                "j": range(-2, 3) if "j" in desc.slots else (1,),
                "r": range(-2, 3) if "r" in desc.slots else (1,),
                "s": range(-2, 3) if "s" in desc.slots else (0,),
                "p": range(-2, 3) if "p" in desc.slots else (1,),
                "m": range(0, 3) if "m" in desc.slots else (1,),
            }
            for combo in product(*(axes[slot] for slot in SLOT_ORDER)):
                params = P(*combo)
                ok, _ = desc.applicable(params)
                if not ok:
                    continue
                outcome = eval_pair(desc.id, params)
                assert outcome.match, (desc.id, params, outcome)


class TestIntegrality:
    def test_times_5pow_passes_and_raises(self):
        assert _times_5pow(4, 0) == 4
        assert _times_5pow(-3, 2) == -75
        assert _times_5pow(-50, -2) == -2
        for value, e in ((4, 0), (-3, 2), (-50, -2)):
            assert type(_times_5pow(value, e)) is int
        with pytest.raises(IntegralityError, match=r"^expected an integer value, got 1/5$"):
            _times_5pow(1, -1)
        with pytest.raises(IntegralityError):
            _times_5pow(-30, -2)

    def test_closed_forms_integral_on_sample(self):
        for n, s in product(range(5), range(-2, 3)):
            for id in (IdentityId.C18, IdentityId.C20, IdentityId.C22):
                assert type(descriptor(id).rhs(P(n=n, s=s))) is int
        for n, j, r, s, m in product(range(4), (-1, 2), (1, 2), (-1, 1), range(3)):
            assert type(even_rhs(n, j, r, s, m, False, F)) is int
            assert type(odd_rhs(n, j, r, s, m, True, L)) is int


# The one value rule: an int when the value is integral, a Fraction only when it
# has a denominator, never a float.  Each row is (call, expected value); the
# expected value's type is the type the call must return.
_HALF, _THREE_HALVES = Fraction(1, 2), Fraction(3, 2)
VALUE_TYPE_CASES = {
    "direct_sum int weights": (lambda: direct_sum(2, 1, 1, 1, 1, 1, 3, F), 11),
    "direct_sum Fraction(1) weights, as `sum` passes them": (
        lambda: direct_sum(2, Fraction(1), Fraction(1), 1, 1, 1, 3, F), 11
    ),
    "direct_sum Fraction(2) weight": (lambda: direct_sum(2, Fraction(2), 1, 1, 1, 0, 1, F), 5),
    "direct_sum rational weights, integral sum": (lambda: direct_sum(1, _HALF, _HALF, 1, 1, 1, 1, F), 1),
    "direct_sum rational weights, rational sum": (
        lambda: direct_sum(2, _HALF, _THREE_HALVES, 1, 1, 0, 1, F), Fraction(15, 4)
    ),
    "binomial_rhs int weights": (lambda: binomial_rhs(BinomialKernel(2, 1, 1, 1, 1), 1, 3, F), 11),
    "binomial_rhs int weights, Lucas": (lambda: binomial_rhs(BinomialKernel(3, 1, 1, 1, 0), 1, 1, L), 18),
    "binomial_rhs Fraction(1) weights": (
        lambda: binomial_rhs(BinomialKernel(2, Fraction(1), Fraction(1), 1, 1), 1, 3, F), 11
    ),
    "binomial_rhs Fraction(2) weight": (lambda: binomial_rhs(BinomialKernel(2, Fraction(2), 1, 1, 0), 1, 1, F), 5),
    "binomial_rhs rational weights, integral sum": (
        lambda: binomial_rhs(BinomialKernel(1, _HALF, _HALF, 1, 1), 1, 1, F), 1
    ),
    "binomial_rhs rational weights, rational sum": (
        lambda: binomial_rhs(BinomialKernel(2, _HALF, _THREE_HALVES, 1, 0), 1, 1, F), Fraction(15, 4)
    ),
    "reduce_power at z = 0, integral": (lambda: reduce_power(Kernel(((_HALF, 0), (3, 1))), 1, 1, 0, L), 1),
    "reduce_power at z = 0, rational": (
        lambda: reduce_power(Kernel(((Fraction(1, 3), 0), (3, 1))), 1, 1, 0, L), Fraction(2, 3)
    ),
}


class TestValueType:
    @pytest.mark.parametrize("call,expected", VALUE_TYPE_CASES.values(), ids=VALUE_TYPE_CASES.keys())
    def test_int_when_integral_fraction_only_with_a_denominator(self, call, expected):
        value = call()
        assert value == expected
        assert type(value) is type(expected)
        assert type(value) is int or value.denominator != 1

    def test_eval_pair_sides_are_ints(self):
        outcome = eval_pair(IdentityId.C18, P(n=2, s=1))
        assert outcome == (11, 11, True)
        assert type(outcome.lhs) is int and type(outcome.rhs) is int

    def test_every_catalog_side_is_an_int(self):
        axes = {"n": (0, 1, 4), "j": (-2, 3), "r": (-1, 2), "s": (-1, 2), "p": (-1, 2), "m": (0, 2)}
        for desc in catalog():
            checked = 0
            read = (axes[slot] if slot in desc.slots else (P._field_defaults[slot],) for slot in SLOT_ORDER)
            for combo in product(*read):
                params = P(*combo)
                if not desc.applicable(params)[0]:
                    continue
                lhs, rhs = desc.lhs(params), desc.rhs(params)
                assert type(lhs) is int and type(rhs) is int, (desc.id, params, lhs, rhs)
                checked += 1
            assert checked, desc.id
