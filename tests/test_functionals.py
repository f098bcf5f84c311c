import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bohradii import analytic, functionals
from bohradii.analytic import (
    BlaschkeProduct,
    Moebius,
    Polynomial,
    evaluate,
    random_test_function,
)
from bohradii.errors import DomainError, UncertifiedFunctionError
from bohradii.functionals import (
    STACK_CELLS,
    b1_factor,
    bohr_lhs,
    bohr_lhs_theta_corpus,
    bohr_lhs_theta_grid,
    envelope_sup,
    gap,
    majorant,
    sharpness_factor,
    sharpness_fn,
)
from bohradii.radii import Theorem, WeightPair, radius, radius_t31
from bohradii.rootfind import Bracket, bisect_unique_root
from bohradii.verify import DEFAULT_EPSILON, THETA_POINTS, below_radius_grid, default_corpus

from support import (
    blaschke_series_mp,
    blaschke_sums_mp,
    bohr_lhs_digest,
    bohr_lhs_queries,
    factor_forms_mp,
)

RNG = np.random.default_rng(2024)


def random_weights(theorem):
    alpha = float(RNG.uniform(0.05, 1.0))
    if theorem is Theorem.T31:
        beta = float((1.0 - alpha) + RNG.uniform(0.05, 2.0))
    elif theorem is Theorem.T33:
        beta = float(alpha * RNG.uniform(1.0, 4.0))
    elif theorem is Theorem.T34:
        alpha = float(RNG.uniform(0.8, 1.0))
        beta = float(alpha * RNG.uniform(0.05, 0.95))
    else:
        beta = float(RNG.uniform(0.05, 2.5))
    return WeightPair(alpha, beta)


def r1star(w):
    return bisect_unique_root(
        (2.0 * w.alpha, 2.0 * w.beta + w.alpha, -w.alpha), Bracket(0.0, 0.5)
    ).value


class TestBohrLhs:
    def test_constant_function_collapses(self):
        w = WeightPair(0.7, 1.2)
        breakdown = bohr_lhs(Theorem.T31, Polynomial((0.4,)), 0.2j, w)
        assert breakdown.total == pytest.approx(0.4, abs=1e-15)
        assert breakdown.series_term == 0.0

    def test_t31_moebius_closed_form(self):
        w = WeightPair(0.6, 0.9)
        a, r = 0.8, 0.3
        breakdown = bohr_lhs(Theorem.T31, Moebius(a), complex(-r), w)
        expected = (
            0.6 * (a + r) / (1.0 + a * r)
            + 0.4 * a
            + 0.9 * (1.0 - a * a) * r / (1.0 - a * r)
        )
        assert breakdown.total == pytest.approx(expected, abs=1e-14)
        assert breakdown.truncation_slack == 0.0

    def test_t35_rotation(self):
        w = WeightPair(0.8, 1.5)
        breakdown = bohr_lhs(Theorem.T35, Moebius(0.0), complex(0.25), w)
        assert breakdown.total == pytest.approx(0.8 * 0.25 + 1.5 * 0.0625, abs=1e-14)

    def test_terms_sum_to_total(self):
        f = random_test_function(77, 4)
        for theorem in Theorem:
            w = random_weights(theorem)
            b = bohr_lhs(theorem, f, 0.2 - 0.1j, w)
            assert b.total == pytest.approx(
                b.modulus_term + b.constant_term + b.series_term + b.area_term,
                abs=1e-14,
            )
            assert b.truncation_slack >= 0.0

    def test_uncertified_function_rejected(self):
        with pytest.raises(UncertifiedFunctionError):
            bohr_lhs(Theorem.T31, Polynomial((0.0, 2.0)), 0.1, WeightPair(1.0, 1.0))

    def test_inadmissible_weights_rejected(self):
        with pytest.raises(DomainError):
            bohr_lhs(Theorem.T33, Moebius(0.5), 0.1, WeightPair(1.0, 0.5))

    def test_theta_grid_matches_single_point(self):
        thetas = np.array([0.0, 0.9, math.pi, 4.4])
        for f in (Moebius(0.85), random_test_function(31, 5)):
            for theorem in Theorem:
                w = random_weights(theorem)
                r = 0.27
                totals, slacks = bohr_lhs_theta_grid(theorem, f, r, w, thetas)
                for theta, total, slack in zip(thetas, totals, slacks):
                    z = r * complex(math.cos(theta), math.sin(theta))
                    single = bohr_lhs(theorem, f, z, w)
                    assert single.total == pytest.approx(total, abs=1e-12)
                    assert abs(single.truncation_slack - slack) <= 1e-9

    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_theta_grid_equals_single_point_on_real_axis(self, theorem):
        # Real coefficients at theta in {0, pi}: numpy and Python complex
        # arithmetic agree there, so any difference is a difference in which
        # terms the two entry points add, or in what order.
        rng = np.random.default_rng(41)
        weights = below_radius_grid(theorem)
        thetas = np.array([0.0, math.pi])
        for i in range(200):
            coeffs = rng.normal(size=int(rng.integers(1, 9)))
            f = Polynomial(tuple(coeffs * rng.uniform(0.3, 0.9) / np.abs(coeffs).sum()))
            w = weights[i % len(weights)]
            r = float(rng.uniform(0.05, 0.95))
            totals, slacks = bohr_lhs_theta_grid(theorem, f, r, w, thetas)
            for z, total, slack in zip(r * np.exp(1j * thetas), totals, slacks):
                single = bohr_lhs(theorem, f, complex(z), w)
                assert (single.total, single.truncation_slack) == (total, slack)


def mixed_corpus():
    """Every shape a stack meets: a polynomial, Moebius maps, a zero-free
    product, degree 1, 12 equal zeros (a term count unlike its degree-12
    mates') and each of degrees 1-6 more often than one stack holds."""
    return [
        Polynomial((0.3, 0.2j, -0.25)),
        Moebius(0.0),
        BlaschkeProduct((), 0.7),
        BlaschkeProduct((0.4 - 0.2j,), 0.9),
        *(random_test_function(600 + i, 12) for i in range(3)),
        BlaschkeProduct((0.9,) * 12, 1.0),
        Moebius(0.97),
        *(random_test_function(700 + i, 1 + i % 6) for i in range(60)),
        Moebius(0.5),
    ]


UNCERTIFIED = Polynomial((0.9, 0.9))


def spy_pipeline(monkeypatch):
    """The (c0, lead, t) of every stream ``_pipelined_product`` runs from now on."""
    seen, real = [], analytic._pipelined_product

    def spy(scale, c0, lead, t, n):
        seen.append((c0, lead, t))
        return real(scale, c0, lead, t, n)

    monkeypatch.setattr(analytic, "_pipelined_product", spy)
    return seen


class TestCorpusStacks:
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_rows_equal_one_function_calls_bit_for_bit(self, theorem):
        corpus = mixed_corpus()
        # t33/t34 split the ten degree-6 members: (6 + 1) cells per column
        assert STACK_CELLS // (7 * THETA_POINTS) < 10
        thetas = 2.0 * math.pi * np.arange(THETA_POINTS) / THETA_POINTS
        for w in (below_radius_grid(theorem)[0], below_radius_grid(theorem)[-1]):
            r = radius(theorem, w).value - DEFAULT_EPSILON
            totals, slacks = bohr_lhs_theta_corpus(theorem, corpus, r, w, thetas)
            assert totals.shape == slacks.shape == (len(corpus), THETA_POINTS)
            for f, total, slack in zip(corpus, totals, slacks):
                alone = bohr_lhs_theta_grid(theorem, f, r, w, thetas)
                assert np.array_equal(total, alone[0]) and np.array_equal(slack, alone[1])

    @pytest.mark.parametrize("count", [0, 1, 2])
    @pytest.mark.parametrize("theorem", [Theorem.T33, Theorem.T34])
    def test_seed_corpus_rows_at_few_angles(self, theorem, count):
        # at one angle a product alone takes the one-center engine, while in a stack
        # it streams: the totals may differ in the last bits, within the smaller slack
        corpus = default_corpus(7)
        w, thetas = below_radius_grid(theorem)[0], 0.5 + np.arange(count)
        totals, slacks = bohr_lhs_theta_corpus(theorem, corpus, 0.2, w, thetas)
        for f, total, slack in zip(corpus, totals, slacks):
            alone = bohr_lhs_theta_grid(theorem, f, 0.2, w, thetas)
            if count == 1 and isinstance(f, BlaschkeProduct):
                assert abs(total[0] - alone[0][0]) <= min(slack[0], alone[1][0])
            else:
                assert np.array_equal(total, alone[0]) and np.array_equal(slack, alone[1])

    @pytest.mark.parametrize("theorem", [Theorem.T33, Theorem.T34])
    def test_uneven_split_rows_equal_one_function_calls(self, theorem, monkeypatch):
        # 17 members of one degree, as in the seed corpus, in near-equal stacks
        corpus = [random_test_function(900 + i, 3) for i in range(17)]
        forms = spy_pipeline(monkeypatch)
        thetas = 2.0 * math.pi * np.arange(THETA_POINTS) / THETA_POINTS
        w = below_radius_grid(theorem)[0]
        r = radius(theorem, w).value - DEFAULT_EPSILON
        totals, slacks = bohr_lhs_theta_corpus(theorem, corpus, r, w, thetas)
        sizes = [c0.shape[-2] for c0, _, _ in forms]
        assert sum(sizes) == 17 and len(sizes) > 1 and max(sizes) - min(sizes) == 1
        for f, total, slack in zip(corpus, totals, slacks):
            alone = bohr_lhs_theta_grid(theorem, f, r, w, thetas)
            assert np.array_equal(total, alone[0]) and np.array_equal(slack, alone[1])

    @pytest.mark.parametrize("theorem, rows", [
        *((theorem, [6]) for theorem in (Theorem.T31, Theorem.T32, Theorem.T35, Theorem.T36)),
        *((theorem, [1, 2, 3, 3, 4, 4, 5, 5, 6, 6]) for theorem in (Theorem.T33, Theorem.T34)),
    ])
    def test_seed_corpus_stack_layout(self, theorem, rows, monkeypatch):
        # the layout measured fastest: one padded stream at center 0, and
        # many-center stacks per degree split under STACK_CELLS; padding those
        # across degrees, or one unpadded stream per degree, was slower
        forms = spy_pipeline(monkeypatch)
        w = below_radius_grid(theorem)[0]
        r = radius(theorem, w).value - DEFAULT_EPSILON
        thetas = 2.0 * math.pi * np.arange(THETA_POINTS) / THETA_POINTS
        bohr_lhs_theta_corpus(theorem, default_corpus(7), r, w, thetas)
        assert [len(c0) for c0, _, _ in forms] == rows

    @pytest.mark.parametrize("theorem, stacks", [
        (Theorem.T31, 6), (Theorem.T33, 10), (Theorem.T35, 0), (Theorem.T36, 0),
    ])
    def test_products_stacked_only_where_read(self, theorem, stacks, monkeypatch):
        # t35/t36 take no modulus, and their terms come from the shared stream:
        # no degree group of the seed corpus's products is stacked beside it
        built, real = [], functionals._stack
        monkeypatch.setattr(functionals, "_stack", lambda fs: built.append(fs) or real(fs))
        w = below_radius_grid(theorem)[0]
        r = radius(theorem, w).value - DEFAULT_EPSILON
        thetas = 2.0 * math.pi * np.arange(THETA_POINTS) / THETA_POINTS
        bohr_lhs_theta_corpus(theorem, default_corpus(7), r, w, thetas)
        assert sum(isinstance(fs[0], BlaschkeProduct) for fs in built) == stacks

    @pytest.mark.parametrize("theorem", [Theorem.T33, Theorem.T35])
    def test_pipeline_forms_arrive_c_contiguous(self, theorem, monkeypatch):
        # many centers (t33) and center 0 (t35): strided forms defeat numpy's
        # flat loops in every step of every stream
        forms = spy_pipeline(monkeypatch)
        w = below_radius_grid(theorem)[0]
        r = radius(theorem, w).value - DEFAULT_EPSILON
        thetas = 2.0 * math.pi * np.arange(THETA_POINTS) / THETA_POINTS
        bohr_lhs_theta_corpus(theorem, mixed_corpus(), r, w, thetas)
        assert any(c0.shape[-2] > 1 for c0, _, _ in forms)  # a stack was streamed
        assert all(v.flags.c_contiguous for form in forms for v in form)

    @pytest.mark.parametrize("theorem, columns", [(Theorem.T33, THETA_POINTS), (Theorem.T35, 1)])
    def test_streams_carry_only_the_terms_columns(self, theorem, columns, monkeypatch):
        # one column per angle (t33) or per product at center 0 (t35): the tail and
        # roundoff bounds come in closed form, with no envelope columns beside them
        forms = spy_pipeline(monkeypatch)
        w = below_radius_grid(theorem)[0]
        r = radius(theorem, w).value - DEFAULT_EPSILON
        thetas = 2.0 * math.pi * np.arange(THETA_POINTS) / THETA_POINTS
        bohr_lhs_theta_corpus(theorem, mixed_corpus(), r, w, thetas)
        assert forms and all(v.shape[-1] == columns for form in forms for v in form)

    @pytest.mark.parametrize("first, later, w, r, error, text", [
        (UNCERTIFIED, Moebius(0.5), WeightPair(0.3, 0.2), 1.5, UncertifiedFunctionError, "cert"),
        (Moebius(0.5), UNCERTIFIED, WeightPair(0.3, 0.2), 1.5, DomainError, "t31 constraint"),
        (Moebius(0.5), UNCERTIFIED, WeightPair(0.3, 0.9), 1.5, DomainError, "r must lie"),
        (Moebius(0.5), UNCERTIFIED, WeightPair(0.3, 0.9), 0.5, UncertifiedFunctionError, "cert"),
    ])
    def test_checks_in_one_by_one_order(self, first, later, w, r, error, text):
        # member 0 certified, then the weights, then r, then the other members
        with pytest.raises(error, match=text) as err:
            bohr_lhs_theta_corpus(Theorem.T31, [first, Moebius(0.2), later], r, w, [0.0])
        assert type(err.value) is error

    @pytest.mark.parametrize("first, error, text", [
        (UNCERTIFIED, UncertifiedFunctionError, "cert"),
        (Moebius(0.5), DomainError, "angles"),
    ])
    def test_angles_checked_after_r_before_later_members(self, first, error, text):
        # member 0 certified, then the weights, r and the angles, then the other members
        with pytest.raises(error, match=text):
            bohr_lhs_theta_corpus(Theorem.T31, [first, UNCERTIFIED], 0.5, WeightPair(0.3, 0.9),
                                  [0.0, math.nan])

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("theorem, f, r", [
        (Theorem.T31, Moebius(0.5), 0.5),
        (Theorem.T33, random_test_function(3, 2), 0.3),
    ])
    def test_non_finite_angles_rejected(self, theorem, f, r, theta):
        with pytest.raises(DomainError, match="angles"):
            bohr_lhs_theta_corpus(theorem, [f], r, below_radius_grid(theorem)[0], [0.0, theta])

    @pytest.mark.parametrize("w, r, theta, text", [
        (WeightPair(0.3, 0.2), 1.5, math.nan, "t31 constraint"),
        (WeightPair(0.3, 0.9), 1.5, math.nan, "r must lie"),
        (WeightPair(0.3, 0.9), 0.5, math.nan, "angles"),
    ])
    def test_empty_corpus_checks_weights_r_and_angles(self, w, r, theta, text):
        with pytest.raises(DomainError, match=text):
            bohr_lhs_theta_corpus(Theorem.T31, [], r, w, [theta])

    @pytest.mark.parametrize("r", [0.0, 5e-324, 1e-300, 0.999999])
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_rows_equal_one_function_calls_at_edge_radii(self, theorem, r):
        corpus = mixed_corpus()[:15]  # every shape, and degrees 1-6 once
        w = below_radius_grid(theorem)[0]
        thetas = np.array([0.0, 2.0, math.pi])
        if theorem in (Theorem.T33, Theorem.T34) and r > 0.5:
            # the recentred series of most members diverge there
            with pytest.raises(DomainError):
                bohr_lhs_theta_corpus(theorem, corpus, r, w, thetas)
            return
        totals, slacks = bohr_lhs_theta_corpus(theorem, corpus, r, w, thetas)
        assert np.all(np.isfinite(totals)) and np.all(np.isfinite(slacks))
        for f, total, slack in zip(corpus, totals, slacks):
            alone = bohr_lhs_theta_grid(theorem, f, r, w, thetas)
            assert np.array_equal(total, alone[0]) and np.array_equal(slack, alone[1])

    @pytest.mark.parametrize("r", [math.nan, math.inf, -0.5, 1.0])
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_radius_outside_disk_rejected(self, theorem, r):
        with pytest.raises(DomainError):
            bohr_lhs_theta_corpus(theorem, mixed_corpus(), r, below_radius_grid(theorem)[0],
                                  np.array([0.0, 1.0]))


class TestPreparedCorpus:
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_rows_equal_list_rows_bit_for_bit(self, theorem):
        corpus = mixed_corpus()
        prepared = functionals._Corpus(corpus)
        thetas = 2.0 * math.pi * np.arange(THETA_POINTS) / THETA_POINTS
        for w in (below_radius_grid(theorem)[0], below_radius_grid(theorem)[-1]):
            r = radius(theorem, w).value - DEFAULT_EPSILON
            listed = bohr_lhs_theta_corpus(theorem, corpus, r, w, thetas)
            shared = bohr_lhs_theta_corpus(theorem, prepared, r, w, thetas)
            assert all(np.array_equal(a, b) for a, b in zip(listed, shared))

    def test_rows_equal_list_rows_where_campaigns_share_a_radius(self):
        # one prepared corpus through every angle-free family, two weight pairs each,
        # at shared radii: r = 0 gives t31 and t35 the same (r, area), so only start
        # tells their memoised sums apart
        corpus = mixed_corpus()
        prepared = functionals._Corpus(corpus)
        for r in (0.0, 0.2, 0.0, 0.2):
            for theorem in (Theorem.T31, Theorem.T35, Theorem.T32, Theorem.T36):
                for w in (below_radius_grid(theorem)[3], below_radius_grid(theorem)[-1]):
                    listed = bohr_lhs_theta_corpus(theorem, corpus, r, w, [0.0, 2.0])
                    shared = bohr_lhs_theta_corpus(theorem, prepared, r, w, [0.0, 2.0])
                    assert all(a.tobytes() == b.tobytes() for a, b in zip(listed, shared))

    def test_memoised_sums_keyed_by_radius_start_and_area(self):
        prepared = functionals._Corpus(mixed_corpus())
        for part in (prepared.products, prepared.groups[Moebius, 0]):
            members = [prepared[i] for i in part]
            f = members if part is prepared.products else analytic._stack(members)
            for flags in [(r, start, area) for r in (0.3, 0.6) for start in (0, 1)
                          for area in (False, True)] * 2:
                memo = prepared.sums(part)(f, *flags)
                fresh = analytic._zero_center_sums(f, *flags)
                assert [np.asarray(x).tobytes() for x in memo] == [
                    np.asarray(x).tobytes() for x in fresh]

    def test_members_certified_once_then_never_again(self, monkeypatch):
        corpus = mixed_corpus()
        seen, real = [], functionals.certify_bounded
        monkeypatch.setattr(functionals, "certify_bounded", lambda f: seen.append(f) or real(f))
        prepared = functionals._Corpus(corpus)
        assert seen == corpus and list(prepared) == corpus
        for theorem in (Theorem.T31, Theorem.T33, Theorem.T35):
            w = below_radius_grid(theorem)[0]
            bohr_lhs_theta_corpus(theorem, prepared, 0.1, w, [0.0, 1.0])
        assert len(seen) == len(corpus)

    def test_uncertified_member_raises_certify_error(self):
        with pytest.raises(UncertifiedFunctionError) as err:
            functionals._Corpus([Moebius(0.5), random_test_function(3, 2), UNCERTIFIED, Moebius(0.2)])
        with pytest.raises(UncertifiedFunctionError) as alone:
            functionals._certify(UNCERTIFIED)
        assert str(err.value) == str(alone.value)

    @pytest.mark.parametrize("theorem", [Theorem.T33, Theorem.T34])
    def test_product_stacks_stream_through_the_recentred_sums(self, theorem, monkeypatch):
        # the seed corpus's ten product stacks each reach recentered_abs_sums_grid once,
        # with one set of factor forms and one stream; the evaluator takes every modulus
        forms = spy_pipeline(monkeypatch)
        evaluated, real_grid = [], functionals.evaluate_grid
        monkeypatch.setattr(functionals, "evaluate_grid",
                            lambda f, zs: evaluated.append(f) or real_grid(f, zs))
        summed, real_sums = [], functionals.recentered_abs_sums_grid
        monkeypatch.setattr(functionals, "recentered_abs_sums_grid",
                            lambda f, *rest: summed.append(f) or real_sums(f, *rest))
        factored, real_forms = [], analytic._factor_forms
        monkeypatch.setattr(analytic, "_factor_forms",
                            lambda f, *rest: factored.append(f) or real_forms(f, *rest))
        w = below_radius_grid(theorem)[0]
        r = radius(theorem, w).value - DEFAULT_EPSILON
        thetas = 2.0 * math.pi * np.arange(THETA_POINTS) / THETA_POINTS
        bohr_lhs_theta_corpus(theorem, default_corpus(7), r, w, thetas)
        products = [f for f in summed if isinstance(f, BlaschkeProduct)]
        assert len(products) == len({id(f) for f in products}) == 10
        assert [id(f) for f in factored] == [id(f) for f in products] and len(forms) == 10
        assert [type(f) for f in evaluated] == [Moebius] + [BlaschkeProduct] * 10
        assert [id(f) for f in evaluated[1:]] == [id(f) for f in products]

    def test_rows_are_prepared_without_certifying_again(self, monkeypatch):
        prepared = functionals._Corpus(mixed_corpus())
        seen, real = [], functionals.certify_bounded
        monkeypatch.setattr(functionals, "certify_bounded", lambda f: seen.append(f) or real(f))
        part = [1, 3, *prepared.products[5:9], len(prepared) - 1]
        rows = prepared.rows(part)
        assert list(rows) == [prepared[i] for i in part] and not seen
        fresh = functionals._Corpus([prepared[i] for i in part])
        assert rows.groups == fresh.groups and rows.products == fresh.products


ZEROS_TO_095 = st.lists(st.builds(cmath.rect, st.floats(0.0, 0.95), st.floats(0.0, 2.0 * math.pi)),
                        max_size=6)


# t33 takes beta >= alpha and t34 alpha in [4/5, 1], beta < alpha: the same left-hand side
RECENTRED_WEIGHTS = st.one_of(
    st.builds(lambda a, s: (Theorem.T33, WeightPair(a, a * s)), st.floats(0.01, 1.0),
              st.floats(1.0, 4.0)),
    st.builds(lambda a, s: (Theorem.T34, WeightPair(a, a * s)), st.floats(0.8, 1.0),
              st.floats(0.05, 0.95)))


def recentred_bound(f, r, w, thetas):
    """``_recentred_bounds``' X of the one product ``f`` at each angle."""
    rows, bounds = functionals._recentred_bounds(functionals._Corpus([f]), r, w, thetas)
    assert rows == [0]
    return bounds[0]


class TestRecentredBound:
    """Cauchy's majorant B = alpha |f| + beta (E(1) - |f|) plus its stated rounding bounds
    the t33/t34 total: the streamed total minus its slack, and the exact total."""

    @settings(max_examples=25, deadline=None)
    @given(f=st.builds(BlaschkeProduct, ZEROS_TO_095.map(tuple), st.floats(0.01, 1.0)),
           r=st.floats(0.0, 0.5, exclude_max=True),
           thetas=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=2, max_size=6),
           family=RECENTRED_WEIGHTS)
    # |zeta| r/(|D| - |zeta| r) = 19: the factor sums' worst conditioning here
    @example(f=BlaschkeProduct((0.95,), 1.0), r=0.4999, thetas=[0.0, 1e-3],
             family=(Theorem.T33, WeightPair(1.0, 4.0)))
    def test_at_least_streamed_total_minus_slack(self, f, r, thetas, family):
        theorem, w = family
        bound = recentred_bound(f, r, w, thetas)
        totals, slacks = bohr_lhs_theta_grid(theorem, f, r, w, np.array(thetas))
        assert np.all(np.isfinite(bound))
        assert np.all(bound >= totals - slacks)
        # the peak a campaign folds, as the bound's docstring states
        assert np.all(bound - 1.0 >= totals - 1.0 - slacks)

    @pytest.mark.parametrize("f, r", [
        (random_test_function(7 * 100003 + 5, 6), 0.28),
        (BlaschkeProduct((0.95, -0.9j, 0.5 + 0.5j), 0.8), 0.45),
        (BlaschkeProduct((0.3,), 1.0), 0.2),  # one factor: B is the exact total
        # aligned zeros near the circle at r near 1/2: B rounds 1.5e-13 below the exact one
        (BlaschkeProduct((0.95,) * 3, 1.0), 0.4999),
    ])
    def test_at_least_exact_total(self, f, r):
        w = WeightPair(0.9, 1.3)
        thetas = [0.0, 0.7, 2.5, 4.0]
        bound = recentred_bound(f, r, w, thetas)
        with mpmath.workdps(60):
            for x, theta in zip(bound.tolist(), thetas):
                z0 = r * np.exp(1j * np.array([theta]))[0]  # the campaign's point, bit for bit
                (_, series), _ = blaschke_sums_mp(f, complex(z0), r, 1, 30)
                _, mass = blaschke_series_mp(f, complex(z0), r, 0, moduli=True)
                modulus = abs(mpmath.mpf(f.scale) * mpmath.fprod(
                    c0 for c0, _, _ in factor_forms_mp(f, complex(z0), r)))
                majorant = w.alpha * modulus + w.beta * (mass - modulus)
                # the exact total is at most its upper bracket, which the majorant bounds
                assert w.alpha * modulus + w.beta * series <= majorant * (1 + mpmath.mpf(10) ** -50)
                assert x >= majorant


class TestMajorant:
    def test_t31_saturates_at_full_contraction(self):
        w = WeightPair(0.35, 0.8)
        for r in (0.0, 0.2, 0.5, 0.9):
            assert majorant(Theorem.T31, 1.0, r, w) == pytest.approx(1.0, abs=1e-14)

    def test_t35_at_zero_offset(self):
        w = WeightPair(1.0, 1.0)
        r = 0.31
        expected = (r * (1.0 + r) * (1.0 - r * r) + r * r) / (1.0 - r * r) ** 2
        assert majorant(Theorem.T35, 0.0, r, w) == pytest.approx(expected, abs=1e-14)

    def test_derivative_family_requires_half(self):
        with pytest.raises(DomainError):
            majorant(Theorem.T33, 0.5, 0.6, WeightPair(1.0, 1.0))

    def test_gap_sign_iff_majorant_below_one(self):
        for _ in range(300):
            theorem = list(Theorem)[int(RNG.integers(0, 6))]
            w = random_weights(theorem)
            r_hi = 0.499 if theorem in (Theorem.T33, Theorem.T34) else 0.95
            r = float(RNG.uniform(0.01, r_hi))
            a = float(RNG.uniform(0.0, 1.0))
            g = gap(theorem, a, r, w)
            m = majorant(theorem, a, r, w)
            if abs(g) <= 1e-12:
                continue  # boundary
            assert (g <= 0.0) == (m <= 1.0)


class TestDomination:
    """The majorant dominates the functional wherever its bound chain is valid:
    everywhere below r = 1 for the Maclaurin and area families, and below the
    root of 2*alpha*r^2 + (2*beta+alpha)*r - alpha for the recentred families
    (beyond it the quadratic-in-|f(z)| step loses monotonicity and the closed
    form is no longer a majorant)."""

    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_seeded_corpus_dominated(self, theorem):
        thetas = 2.0 * math.pi * np.arange(64) / 64
        checked = 0
        for i in range(500):
            f = random_test_function(5000 + i, 1 + i % 6)
            w = random_weights(theorem)
            r_cap = 0.45
            if theorem in (Theorem.T33, Theorem.T34):
                r_cap = min(r_cap, 0.999 * r1star(w))
            r = float(RNG.uniform(0.02, r_cap))
            totals, slacks = bohr_lhs_theta_grid(theorem, f, r, w, thetas)
            a0 = abs(evaluate(f, 0.0))
            bound = majorant(theorem, a0, r, w)
            assert np.all(totals <= bound + slacks + 1e-9)
            checked += 1
        assert checked == 500


class TestAlgebraicIdentities:
    def test_b1_factorisation(self):
        for _ in range(50):
            w = random_weights(Theorem.T31)
            r = float(RNG.uniform(0.0, 0.99))
            for a in np.linspace(0.0, 1.0, 100):
                lhs = gap(Theorem.T31, float(a), r, w)
                rhs = (1.0 - a) * b1_factor(float(a), r, w)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_sharpness_factor_meets_gap_factor_at_one(self):
        for _ in range(200):
            w = random_weights(Theorem.T31)
            r = float(RNG.uniform(0.0, 0.99))
            assert sharpness_factor(1.0, r, w) == pytest.approx(
                b1_factor(1.0, r, w), abs=1e-12
            )

    def test_gap_factor_at_one_is_defining_quadratic(self):
        w = WeightPair(0.6, 0.9)
        for r in np.linspace(0.0, 0.9, 10):
            expected = (1.0 + 2.0 * w.beta - 2.0 * w.alpha) * r * r + (
                2.0 * w.alpha + 2.0 * w.beta
            ) * r - 1.0
            assert b1_factor(1.0, float(r), w) == pytest.approx(expected, abs=1e-12)

    def test_t32_gap_at_one(self):
        for _ in range(200):
            w = random_weights(Theorem.T32)
            r = float(RNG.uniform(0.0, 0.99))
            assert gap(Theorem.T32, 1.0, r, w) == pytest.approx(
                (w.alpha - 1.0) * (1.0 - r * r), abs=1e-12
            )

    def test_t33_gap_at_one(self):
        for _ in range(200):
            w = random_weights(Theorem.T33)
            r = float(RNG.uniform(0.0, 0.49))
            assert gap(Theorem.T33, 1.0, r, w) == pytest.approx(
                (w.alpha - 1.0) * (1.0 + r) ** 2 * (1.0 - 2.0 * r), abs=1e-12
            )

    def test_t35_gap_at_one_factorisation(self):
        # the area-family gap at a = 1 is (alpha - 1)(1 - r^2)^2: it vanishes
        # only on the alpha = 1 slice
        for _ in range(200):
            w = random_weights(Theorem.T35)
            r = float(RNG.uniform(0.0, 0.99))
            assert gap(Theorem.T35, 1.0, r, w) == pytest.approx(
                (w.alpha - 1.0) * (1.0 - r * r) ** 2, abs=1e-12
            )

    def test_t36_gap_vanishes_at_one(self):
        for _ in range(200):
            w = random_weights(Theorem.T36)
            r = float(RNG.uniform(0.0, 0.99))
            assert gap(Theorem.T36, 1.0, r, w) == pytest.approx(0.0, abs=1e-12)


class TestSharpnessFn:
    def test_matches_functional_on_extremal_family(self):
        for _ in range(50):
            w = random_weights(Theorem.T31)
            a = float(RNG.uniform(0.0, 0.999))
            r = float(RNG.uniform(0.0, 0.95))
            breakdown = bohr_lhs(Theorem.T31, Moebius(a), complex(-r), w)
            assert sharpness_fn(a, r, w) == pytest.approx(breakdown.total, abs=1e-12)

    def test_rotation_case(self):
        # a = 0 makes the extremal function a rotation: the modulus term and
        # the series term each contribute r, so H = (alpha + beta) r
        assert sharpness_fn(0.0, 0.37, WeightPair(1.0, 1.0)) == pytest.approx(
            2.0 * 0.37, abs=1e-15
        )

    def test_domain_gates(self):
        w = WeightPair(1.0, 1.0)
        with pytest.raises(DomainError):
            sharpness_fn(1.0, 0.2, w)
        with pytest.raises(DomainError):
            sharpness_fn(0.5, 1.0, w)


class TestEnvelopeSup:
    def test_t31_envelope_is_one_at_radius(self):
        for alpha, beta in [(1.0, 1.0), (0.6, 0.8), (0.8, 0.3)]:
            w = WeightPair(alpha, beta)
            r = radius_t31(w).value
            env = envelope_sup(Theorem.T31, r, w)
            assert env.sup == pytest.approx(1.0, abs=1e-8)
            assert env.argmax_a > 0.99

    def test_t35_envelope_below_one_inside(self):
        env = envelope_sup(Theorem.T35, 1.0 / 3.0, WeightPair(1.0, 0.5))
        assert env.sup <= 1.0 + 1e-10

    def test_zero_radius_collapses(self):
        w = WeightPair(0.7, 1.1)
        env = envelope_sup(Theorem.T32, 0.0, w)
        assert env.sup == pytest.approx(0.7, abs=1e-8)
        assert env.argmax_a > 0.99

    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_monotone_in_r(self, theorem):
        w = random_weights(theorem)
        r_hi = 0.45 if theorem in (Theorem.T33, Theorem.T34) else 0.9
        sups = [
            envelope_sup(theorem, float(r), w).sup
            for r in np.linspace(0.01, r_hi, 20)
        ]
        for lo, hi in zip(sups, sups[1:]):
            assert hi >= lo - 1e-12

    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_refinement_is_the_checked_majorant(self, theorem):
        # the golden-section steps skip majorant's domain checks, not its value
        w = below_radius_grid(theorem)[-1]
        r = radius(theorem, w).value - DEFAULT_EPSILON
        env = envelope_sup(theorem, r, w)
        assert env.sup == float(majorant(theorem, env.argmax_a, r, w))

    def test_best_scan_point_at_either_end(self):
        # refined toward A_CAP past the last grid point, toward 0 before the first
        last = envelope_sup(Theorem.T31, 0.0, WeightPair(0.05, 0.9815789473684211))
        assert last.argmax_a == 0.999999999
        first = envelope_sup(Theorem.T33, 0.45, WeightPair(0.05, 0.05))
        assert (first.sup, first.argmax_a) == (0.14625000000000005, 0.0)

    def test_deterministic(self):
        w = WeightPair(0.9, 1.4)
        a = envelope_sup(Theorem.T35, 0.31, w)
        b = envelope_sup(Theorem.T35, 0.31, w)
        assert a == b


class TestMajorantAtRadius:
    """At r slightly under each family's radius the envelope stays under 1;
    the inequality machinery and root machinery agree with each other."""

    @pytest.mark.parametrize("theorem,alpha,beta", [
        (Theorem.T31, 0.5, 0.8), (Theorem.T32, 0.8, 1.7), (Theorem.T33, 0.7, 1.4),
        (Theorem.T34, 0.85, 0.3), (Theorem.T35, 0.6, 1.1), (Theorem.T36, 0.6, 1.1),
    ])
    def test_envelope_at_radius_minus_margin(self, theorem, alpha, beta):
        w = WeightPair(alpha, beta)
        r = radius(theorem, w).value - 1e-3
        assert envelope_sup(theorem, r, w).sup <= 1.0 + 1e-9


def test_bohr_lhs_seeded_queries_match_pinned_digest():
    """``bohr_lhs`` bit for bit on 3,000 seeded queries over all six families and three
    kinds (``support.bohr_lhs_queries``): the single-point path beyond ``golden_cli.txt``'s
    ``check`` lines at z = -r.  The digest holds under numpy's AVX-512 and AVX2 kernels."""
    digest = bohr_lhs_digest(bohr_lhs_queries(7, 3000))
    assert digest == "4df370bf1d247e31158967198dad92dacab51a44c527d0759f85ca8da167d329"
