"""Tests for grouped designs, model identifiers, constraints, and the
sufficient-statistics cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alaselect.data_model import (
    ENUMERATION_LIMIT,
    ConstraintSet,
    DesignMatrix,
    Gram,
    admissible_bits,
    build_cache,
    submodel_stats,
)
from alaselect.errors import (
    DegenerateResponse,
    InvalidModel,
    NotInvertible,
    RefuseEnumeration,
)
from alaselect.families import gaussian, logistic, poisson

from tests.oracles import make_design, model_spaces, reference_models


class TestDesignMatrix:
    """Column groups must partition the matrix and drive model dimensions."""

    def test_groups_must_tile_the_columns(self, rng):
        """Ranges with a gap, an overlap, or missing coverage are rejected."""
        values = rng.normal(size=(5, 4))
        with pytest.raises(ValueError):
            DesignMatrix(values, ((0, 2), (3, 4)))
        with pytest.raises(ValueError):
            DesignMatrix(values, ((0, 2), (1, 4)))
        with pytest.raises(ValueError):
            DesignMatrix(values, ((0, 2),))

    def test_empty_group_rejected(self, rng):
        values = rng.normal(size=(5, 2))
        with pytest.raises(ValueError):
            DesignMatrix(values, ((0, 0), (0, 2)))

    def test_intercept_group_must_exist(self, rng):
        values = rng.normal(size=(5, 2))
        with pytest.raises(ValueError):
            DesignMatrix(values, ((0, 1), (1, 2)), intercept_group=5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, rng, value):
        """As ``build_cache`` refuses a non-finite response."""
        values = rng.normal(size=(5, 2))
        values[3, 1] = value
        with pytest.raises(ValueError, match="design matrix contains non-finite entries"):
            DesignMatrix(values, ((0, 1), (1, 2)))
        # finite entries whose sum overflows pass
        DesignMatrix(np.full((4, 2), 1e308), ((0, 1), (1, 2)))

    def test_singleton_constructor_matches_manual_ranges(self, rng):
        values = rng.normal(size=(6, 3))
        a = DesignMatrix.with_singleton_groups(values, intercept_group=0)
        b = DesignMatrix(values, ((0, 1), (1, 2), (2, 3)), intercept_group=0)
        assert a.groups == b.groups
        np.testing.assert_array_equal(a.group_sizes, [1, 1, 1])
        assert a.n == 6 and a.p == 3 and a.n_groups == 3

    def test_columns_for_concatenates_active_ranges(self, rng):
        design = make_design(rng, 8, [2, 1, 3])
        np.testing.assert_array_equal(design.columns_for((1, 0, 1)), [0, 1, 3, 4, 5])
        np.testing.assert_array_equal(design.columns_for((0, 0, 0)), [])

    def test_model_counts_groups_and_columns(self, rng):
        design = make_design(rng, 8, [2, 1, 3])
        model = design.model((1, 0, 1))
        assert model.size == 2
        assert model.p_gamma == 5
        assert model.active_groups == (0, 2)
        assert str(model) == "101"

    def test_intercept_must_stay_active(self, rng):
        design = make_design(rng, 8, [2, 1], intercept=True)
        with pytest.raises(InvalidModel):
            design.model((0, 1, 0))

    def test_model_checks_length(self, rng):
        design = make_design(rng, 8, [1, 1, 1])
        with pytest.raises(ValueError):
            design.model((1, 0))


class TestGram:
    """``X'X`` is computed once, when the ``Gram`` is built, and read back
    as exactly symmetric blocks of one column list or of a stack of them."""

    def test_block_matches_dense_product(self, rng):
        # the wide product's two triangles could differ in rounding, the more
        # so for a strided view of the data; the stored block must still be
        # exactly symmetric
        for shape, cols in (((11, 5), [0, 2, 4]), ((10_000, 50), range(50))):
            for x in (rng.normal(size=shape), rng.normal(size=shape)[:, ::-1]):
                cols = np.array(cols)
                block = Gram(x).block(cols)
                np.testing.assert_allclose(
                    block, x[:, cols].T @ x[:, cols], rtol=1e-12, atol=1e-12
                )
                np.testing.assert_array_equal(block, block.T)

    def test_entries_are_never_recomputed(self, rng):
        x = rng.normal(size=(7, 4))
        gram = Gram(x)
        # the whole product, p * p = 16 entries, computed at construction
        assert gram.dot_count == 4 * 4
        first = gram.block(np.array([0, 1]))
        gram.block(np.array([1, 0]))
        wider = gram.block(np.array([0, 1, 2]))
        stacked = gram.block(np.array([[0, 1], [2, 3]]))
        assert gram.dot_count == 4 * 4
        # one store: a superset's block and a stack hold the same entries
        np.testing.assert_array_equal(wider[:2, :2], first)
        np.testing.assert_array_equal(stacked[0], first)
        np.testing.assert_array_equal(stacked[1], gram.block(np.array([2, 3])))

    def test_filled_entries_never_change(self, rng):
        """Every entry keeps the rounding of the one wide product, whatever
        block was read before it."""
        x = rng.normal(size=(10_000, 50))
        gram = Gram(x)
        gram.block(np.array([0]))
        np.testing.assert_array_equal(gram.block(np.arange(50)), x.T @ x)

    @settings(max_examples=25, deadline=None)
    @given(
        touches=st.lists(
            st.lists(st.integers(min_value=0, max_value=5), min_size=1),
            min_size=1,
            max_size=4,
        )
    )
    def test_any_subset_matches_dense(self, touches):
        """Every column list, in any touch order and with repeats, reproduces
        the dense Gram slice as an exactly symmetric block, bitwise the
        block a fresh store gives; no read computes an entry."""
        x = np.random.default_rng(3).normal(size=(9, 6))
        gram = Gram(x)
        for cols in touches:
            cols = np.array(cols)
            block = gram.block(cols)
            np.testing.assert_allclose(
                block, x[:, cols].T @ x[:, cols], rtol=0, atol=1e-12
            )
            np.testing.assert_array_equal(block, block.T)
            np.testing.assert_array_equal(block, Gram(x).block(cols))
        assert gram.dot_count == 6 * 6


class TestConstraintSet:
    """Dependency rules must be acyclic and checked as stated."""

    def test_cycle_is_rejected_with_a_path(self):
        with pytest.raises(ValueError, match="cycle"):
            ConstraintSet(3, ((0, 1), (1, 2), (2, 0)))

    def test_self_dependency_is_a_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            ConstraintSet(2, ((1, 1),))

    def test_satisfied_by_requires_active_parents(self):
        cs = ConstraintSet(3, ((1, 0), (2, 1)))
        assert cs.satisfied_by((1, 1, 1))
        assert cs.satisfied_by((1, 1, 0))
        assert not cs.satisfied_by((0, 1, 0))
        assert not cs.satisfied_by((1, 0, 1))

    def test_size_cap_counts_active_groups(self):
        cs = ConstraintSet(1)
        assert cs.satisfied_by((0, 1, 0))
        assert not cs.satisfied_by((1, 1, 0))


class TestEnumerateModels:
    """The full admissible model list, in first-bit-major order."""

    @settings(max_examples=80, deadline=None)
    @given(space=model_spaces(), data=st.data())
    def test_bit_matrix_matches_a_plain_loop(self, space, data):
        n_groups, constraints, intercept = space
        expected = reference_models(n_groups, constraints, intercept)
        bits = admissible_bits(n_groups, constraints, intercept)
        assert bits.dtype == np.uint8 and bits.shape == (len(expected), n_groups)
        assert [tuple(row) for row in bits.tolist()] == expected
        sizes = data.draw(
            st.lists(st.integers(1, 3), min_size=n_groups, max_size=n_groups)
        )
        stops = np.cumsum(sizes).tolist()
        design = DesignMatrix(
            np.zeros((1, stops[-1])), tuple(zip([0] + stops[:-1], stops)), intercept
        )
        models = [design.model(row) for row in bits]
        assert [m.key for m in models] == [bytes(b) for b in expected]
        assert [m.size for m in models] == [sum(b) for b in expected]
        assert [m.p_gamma for m in models] == [
            sum(s for s, b in zip(sizes, bits) if b) for bits in expected
        ]

    @settings(max_examples=80, deadline=None)
    @given(space=model_spaces(), data=st.data())
    def test_subset_enumeration_matches_a_plain_loop(self, space, data):
        n_groups, constraints, intercept = space
        among = sorted(data.draw(st.sets(st.integers(0, n_groups - 1))))
        assert [
            tuple(row)
            for row in admissible_bits(
                n_groups, constraints, intercept, among=among
            ).tolist()
        ] == reference_models(n_groups, constraints, intercept, among)

    def test_order_is_lexicographic_in_the_bits(self):
        bits = [tuple(row) for row in admissible_bits(3).tolist()]
        assert bits == [
            (0, 0, 0),
            (0, 0, 1),
            (0, 1, 0),
            (0, 1, 1),
            (1, 0, 0),
            (1, 0, 1),
            (1, 1, 0),
            (1, 1, 1),
        ]

    def test_refuses_spaces_beyond_the_limit(self):
        with pytest.raises(RefuseEnumeration):
            admissible_bits(ENUMERATION_LIMIT + 1)

    def test_constraints_filter_the_list(self):
        cs = ConstraintSet(3, ((1, 0),))
        bits = [tuple(row) for row in admissible_bits(3, cs).tolist()]
        assert (0, 1, 0) not in bits
        assert (0, 1, 1) not in bits
        assert (1, 1, 0) in bits
        assert all(cs.satisfied_by(b) for b in bits)

    def test_size_cap_limits_model_size(self):
        cs = ConstraintSet(1)
        bits = [tuple(row) for row in admissible_bits(3, cs).tolist()]
        assert sorted(bits) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_intercept_group_is_always_active(self):
        bits = admissible_bits(3, intercept_group=0)
        assert all(b[0] == 1 for b in bits)
        assert len(bits) == 4

    def test_sizes_feed_model_dimensions(self):
        design = DesignMatrix(np.zeros((1, 5)), ((0, 2), (2, 5)))
        dims = {m.key: m.p_gamma for m in map(design.model, admissible_bits(2))}
        assert dims[bytes((1, 1))] == 5
        assert dims[bytes((0, 1))] == 3


class TestBuildCache:
    """The cache fixes the expansion point and shares the Gram store."""

    def test_gaussian_zero_center_keeps_the_response(self, rng):
        design = make_design(rng, 10, [1, 2])
        y = rng.normal(size=10)
        cache = build_cache(design, y, gaussian())
        np.testing.assert_allclose(cache.ytilde, y, atol=0)
        np.testing.assert_allclose(cache.zty, design.values.T @ y, atol=1e-12)
        np.testing.assert_allclose(cache.yty, y @ y, atol=1e-12)
        assert cache.nu0 == 0.0

    def test_intercept_center_solves_the_mean_equation(self, rng):
        """With the intercept-anchored center, the offset is the canonical
        link at the response mean and the shifted response follows."""
        design = make_design(rng, 40, [2], intercept=True)
        y = (rng.random(40) < 0.3).astype(np.float64)
        cache = build_cache(design, y, logistic(), center="intercept-mle")
        ybar = y.mean()
        np.testing.assert_allclose(cache.nu0, np.log(ybar / (1 - ybar)), atol=1e-12)
        np.testing.assert_allclose(cache.bp_nu0, ybar, atol=1e-12)
        np.testing.assert_allclose(cache.bpp_nu0, ybar * (1 - ybar), atol=1e-12)
        np.testing.assert_allclose(
            cache.ytilde, (y - cache.bp_nu0) / cache.bpp_nu0, atol=1e-12
        )

    def test_constant_response_is_degenerate_at_the_intercept_center(self, rng):
        design = make_design(rng, 12, [1], intercept=True)
        y = np.zeros(12)
        with pytest.raises(DegenerateResponse):
            build_cache(design, y, logistic(), center="intercept-mle")

    def test_unknown_center_name_raises(self, rng):
        design = make_design(rng, 8, [1])
        with pytest.raises(ValueError):
            build_cache(design, rng.normal(size=8), gaussian(), center="mode")

    def test_response_length_checked(self, rng):
        design = make_design(rng, 8, [1])
        with pytest.raises(ValueError):
            build_cache(design, np.zeros(7), gaussian())

    def test_submodel_stats_match_dense_products(self, rng):
        design = make_design(rng, 15, [2, 1, 2], intercept=True)
        y = rng.normal(size=15)
        cache = build_cache(design, y, gaussian())
        bits = (1, 0, 1, 1)
        xtx, xty = submodel_stats(cache, design.model(bits))
        cols = design.columns_for(bits)
        z = design.values[:, cols]
        np.testing.assert_allclose(xtx, z.T @ z, atol=1e-12)
        np.testing.assert_allclose(xty, z.T @ y, atol=1e-12)

    def test_caches_for_two_centers_can_share_one_gram_store(self, rng):
        design = make_design(rng, 30, [1, 1], intercept=True)
        y = (rng.random(30) < 0.5).astype(np.float64)
        first = build_cache(design, y, logistic(), center="zero")
        second = build_cache(
            design, y, logistic(), center="intercept-mle", gram=first.gram
        )
        assert second.gram is first.gram
        first.gram.block(np.array([1]))
        count = first.gram.dot_count
        second.gram.block(np.array([1]))
        assert second.gram.dot_count == count

    def test_group_block_matches_raw_gram(self, rng):
        design = make_design(rng, 12, [2, 3])
        cache = build_cache(design, rng.normal(size=12), gaussian())
        cols = np.arange(2, 5)
        z = design.values[:, cols]
        np.testing.assert_allclose(cache.gram.block(cols), z.T @ z, atol=1e-12)
        _, logdet = cache.block_prior.precision(cols, g=1.0)
        np.testing.assert_allclose(
            logdet - 3 * np.log(3 / 12), np.linalg.slogdet(z.T @ z)[1], atol=1e-10
        )

    def test_duplicated_columns_make_a_group_singular(self, rng):
        col = rng.normal(size=(9, 1))
        design = DesignMatrix(np.hstack([col, col]), ((0, 2),))
        cache = build_cache(design, rng.normal(size=9), poisson())
        with pytest.raises(NotInvertible):
            cache.block_prior.precision(np.array([0, 1]), g=1.0)
