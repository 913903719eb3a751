"""Unit + property tests for the signomial algebra."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.errors import SGPModelError
from repro.sgp import CompiledSignomial, SGPProblem, Signomial


def make_signomial():
    """2*x0^2*x1 - 3*x1 + 5"""
    return Signomial.from_terms(
        [(2.0, {0: 2, 1: 1}), (-3.0, {1: 1}), (5.0, {})]
    )


class TestConstruction:
    def test_constant(self):
        sig = Signomial.constant(4.2)
        assert sig.is_constant()
        assert sig.constant_value() == 4.2
        assert sig.evaluate({}) == 4.2

    def test_variable(self):
        sig = Signomial.variable(3)
        assert sig.evaluate({3: 2.5}) == 2.5
        assert sig.variables() == {3}

    def test_like_terms_merge(self):
        sig = Signomial()
        sig.add_term(1.0, {0: 1})
        sig.add_term(2.0, {0: 1})
        assert sig.num_terms == 1
        assert sig.evaluate({0: 3.0}) == 9.0

    def test_cancellation_removes_term(self):
        sig = Signomial()
        sig.add_term(1.5, {0: 2})
        sig.add_term(-1.5, {0: 2})
        assert sig.num_terms == 0
        assert sig.evaluate({0: 7.0}) == 0.0

    def test_zero_exponent_dropped(self):
        sig = Signomial.from_terms([(2.0, {0: 0, 1: 1})])
        assert sig.variables() == {1}

    def test_negative_var_id_rejected(self):
        with pytest.raises(SGPModelError):
            Signomial.from_terms([(1.0, {-1: 2})])

    def test_nonfinite_coeff_rejected(self):
        sig = Signomial()
        with pytest.raises(SGPModelError):
            sig.add_term(float("nan"), {0: 1})

    def test_nonfinite_exponent_rejected(self):
        sig = Signomial()
        for exponent in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SGPModelError, match="exponent"):
                sig.add_term(1.0, {0: exponent})
        assert sig.num_terms == 0


class TestInspection:
    def test_posynomial_detection(self):
        assert Signomial.from_terms([(1.0, {0: 1}), (2.0, {1: 2})]).is_posynomial()
        assert not make_signomial().is_posynomial()

    def test_max_degree(self):
        assert make_signomial().max_degree() == 3.0
        assert Signomial.constant(1.0).max_degree() == 0.0

    def test_constant_value_raises_for_nonconstant(self):
        with pytest.raises(SGPModelError):
            make_signomial().constant_value()


class TestAlgebra:
    def test_add(self):
        total = make_signomial() + Signomial.variable(1) * 3.0
        # -3 x1 + 3 x1 cancels, leaving 2 x0^2 x1 + 5.
        assert total.num_terms == 2
        assert total.evaluate({0: 1.0, 1: 10.0}) == pytest.approx(2.0 * 10.0 + 5.0)

    def test_add_scalar(self):
        sig = Signomial.variable(0) + 2.0
        assert sig.evaluate({0: 1.0}) == 3.0

    def test_sub(self):
        diff = make_signomial() - make_signomial()
        assert diff.num_terms == 0

    def test_rsub(self):
        sig = 1.0 - Signomial.variable(0)
        assert sig.evaluate({0: 0.25}) == 0.75

    def test_neg(self):
        sig = -make_signomial()
        x = {0: 2.0, 1: 3.0}
        assert sig.evaluate(x) == -make_signomial().evaluate(x)

    def test_scalar_mul(self):
        sig = make_signomial() * 2.0
        x = {0: 1.5, 1: 0.5}
        assert sig.evaluate(x) == pytest.approx(2.0 * make_signomial().evaluate(x))

    def test_signomial_mul(self):
        a = Signomial.from_terms([(1.0, {0: 1}), (1.0, {})])  # x0 + 1
        b = Signomial.from_terms([(1.0, {0: 1}), (-1.0, {})])  # x0 - 1
        product = a * b  # x0^2 - 1
        assert product.num_terms == 2
        assert product.evaluate({0: 3.0}) == pytest.approx(8.0)

    def test_copy_is_independent(self):
        sig = make_signomial()
        clone = sig.copy()
        clone.add_term(1.0, {9: 1})
        assert 9 not in sig.variables()


class TestEvaluation:
    def test_evaluate_dict_and_array_agree(self):
        sig = make_signomial()
        as_dict = sig.evaluate({0: 1.5, 1: 2.5})
        as_array = sig.evaluate(np.array([1.5, 2.5]))
        assert as_dict == pytest.approx(as_array)

    def test_nonpositive_variable_rejected(self):
        sig = Signomial.variable(0)
        with pytest.raises(SGPModelError):
            sig.evaluate({0: 0.0})

    def test_gradient_matches_hand_computation(self):
        sig = make_signomial()  # 2 x0^2 x1 - 3 x1 + 5
        grad = sig.gradient({0: 2.0, 1: 3.0})
        assert grad[0] == pytest.approx(2 * 2 * 2.0 * 3.0)  # 4 x0 x1
        assert grad[1] == pytest.approx(2 * 4.0 - 3.0)  # 2 x0^2 - 3


class TestCompiled:
    def test_value_matches_exact(self):
        sig = make_signomial()
        compiled = sig.compile(2)
        x = np.array([1.3, 0.7])
        assert compiled.value(x) == pytest.approx(sig.evaluate(x))

    def test_grad_matches_exact(self):
        sig = make_signomial()
        compiled = sig.compile(2)
        x = np.array([1.3, 0.7])
        _, grad = compiled.value_and_grad(x)
        exact = sig.gradient(x)
        assert grad[0] == pytest.approx(exact[0])
        assert grad[1] == pytest.approx(exact[1])

    def test_empty_signomial(self):
        compiled = Signomial().compile(3)
        x = np.ones(3)
        value, grad = compiled.value_and_grad(x)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_too_few_vars_rejected(self):
        with pytest.raises(SGPModelError):
            Signomial.variable(5).compile(3)
        with pytest.raises(SGPModelError):
            CompiledSignomial([Signomial.constant(1.0), Signomial.variable(3)], 3)

    def test_unused_extra_vars_ok(self):
        compiled = Signomial.variable(0).compile(10)
        assert compiled.value(np.full(10, 2.0)) == 2.0

    @given(
        coeffs=st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=6
        ),
        x=st.lists(
            st.floats(min_value=0.05, max_value=3.0), min_size=3, max_size=3
        ),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_compiled_matches_exact(self, coeffs, x, data):
        """Compiled (log-space) evaluation equals exact dict evaluation."""
        terms = []
        for coeff in coeffs:
            exponents = {
                var: data.draw(st.integers(min_value=0, max_value=3))
                for var in range(3)
            }
            terms.append((coeff, exponents))
        sig = Signomial.from_terms(terms)
        compiled = sig.compile(3)
        point = np.asarray(x)
        value, grad = compiled.value_and_grad(point)
        assert value == pytest.approx(sig.evaluate(point), rel=1e-9, abs=1e-9)
        exact_grad = sig.gradient(point)
        for var in range(3):
            assert grad[var] == pytest.approx(exact_grad.get(var, 0.0), rel=1e-9, abs=1e-9)

    @given(
        x=st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=2, max_size=2)
    )
    @settings(max_examples=30, deadline=None)
    def test_property_finite_difference_gradient(self, x):
        """Analytic gradient agrees with central finite differences."""
        sig = make_signomial()
        compiled = sig.compile(2)
        point = np.asarray(x)
        _, grad = compiled.value_and_grad(point)
        eps = 1e-6
        for var in range(2):
            shift = np.zeros(2)
            shift[var] = eps
            numeric = (compiled.value(point + shift) - compiled.value(point - shift)) / (
                2 * eps
            )
            assert grad[var] == pytest.approx(numeric, rel=1e-4, abs=1e-6)


# ----------------------------------------------------------------------
# the stacked block: many signomials, one compiled form
# ----------------------------------------------------------------------
def reference_row(signomial, num_vars, x):
    """One signomial compiled and evaluated on its own, term by term in a
    private exponent matrix: the per-constraint arithmetic a stacked
    row must reproduce bit for bit."""
    terms = list(signomial.terms())
    if not terms:
        return 0.0, np.zeros(num_vars)
    rows, cols, data = [], [], []
    for t, (_, exponents) in enumerate(terms):
        for var, exp in exponents.items():
            rows.append(t)
            cols.append(var)
            data.append(exp)
    exponents = sparse.csr_matrix(
        (data, (rows, cols)), shape=(len(terms), num_vars)
    )
    values = np.array([c for c, _ in terms]) * np.exp(exponents @ np.log(x))
    return float(values.sum()), (exponents.T.tocsr() @ values) / x


def magnitude(signomial, x):
    """``Σ |c_k| · Π x^e`` — the scale float rounding is relative to."""
    absolute = Signomial.from_terms((abs(c), e) for c, e in signomial.terms())
    return absolute.evaluate(x)


@st.composite
def systems(draw):
    """Rows of random signomials plus a positive point, with a
    constant-only row and a row whose terms cancelled to nothing."""
    num_vars = draw(st.integers(min_value=1, max_value=4))
    coeff = st.floats(min_value=-5, max_value=5).filter(lambda c: abs(c) > 1e-3)
    exponents = st.dictionaries(
        st.integers(min_value=0, max_value=num_vars - 1),
        st.floats(min_value=-2, max_value=3),
        max_size=num_vars,
    )
    rows = [
        Signomial.from_terms(
            draw(st.lists(st.tuples(coeff, exponents), max_size=20))
        )
        for _ in range(draw(st.integers(min_value=0, max_value=5)))
    ]
    rows.insert(draw(st.integers(0, len(rows))), Signomial.constant(draw(coeff)))
    cancelled = Signomial.variable(0) * 2.0
    cancelled.add_term(-2.0, {0: 1.0})
    rows.insert(draw(st.integers(0, len(rows))), cancelled)
    x = np.array(
        draw(st.lists(st.floats(min_value=0.1, max_value=3.0),
                      min_size=num_vars, max_size=num_vars))
    )
    return rows, num_vars, x


class TestStacked:
    @given(system=systems())
    @settings(max_examples=60, deadline=None)
    def test_rows_match_the_reference(self, system):
        """Values and Jacobian rows equal the dict-based reference within
        1e-12 of the terms' magnitude, and the per-signomial compiled
        arithmetic bit for bit."""
        rows, num_vars, x = system
        block = CompiledSignomial(rows, num_vars)
        values, jacobian = block.values(x), block.jacobian(x)
        assert values.shape == (len(rows),)
        assert jacobian.shape == (len(rows), num_vars)
        for i, sig in enumerate(rows):
            scale = magnitude(sig, x)
            assert values[i] == pytest.approx(
                sig.evaluate(x), rel=1e-12, abs=1e-12 * scale
            )
            exact = sig.gradient(x)
            for var in range(num_vars):
                assert jacobian[i, var] == pytest.approx(
                    exact.get(var, 0.0), rel=1e-12, abs=1e-12 * scale / x[var]
                )
            value, grad = reference_row(sig, num_vars, x)
            assert values[i] == value
            assert jacobian[i].tobytes() == grad.tobytes()

    @given(system=systems(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_selected_rows_and_shared_term_values(self, system, data):
        """Passing precomputed term values or selecting rows changes no bit."""
        rows, num_vars, x = system
        block = CompiledSignomial(rows, num_vars)
        picked = np.array(
            sorted(data.draw(st.sets(st.integers(0, len(rows) - 1)))), dtype=int
        )
        terms = block.term_values(x)
        assert block.values(x, terms).tobytes() == block.values(x).tobytes()
        subset = block.jacobian(x, terms, rows=picked)
        assert subset.tobytes() == block.jacobian(x)[picked].tobytes()

    def test_no_rows(self):
        block = CompiledSignomial([], 3)
        assert block.num_rows == block.num_terms == 0
        assert block.values(np.ones(3)).shape == (0,)
        assert block.jacobian(np.ones(3)).shape == (0, 3)

    def test_single_row_is_the_signomial(self):
        sig = make_signomial()
        x = np.array([1.3, 0.7])
        block = CompiledSignomial([sig], 2)
        compiled = sig.compile(2)
        value, grad = compiled.value_and_grad(x)
        assert block.values(x).tolist() == [value] == [compiled.value(x)]
        assert block.jacobian(x)[0].tobytes() == grad.tobytes()

    def test_constraint_added_after_compile(self):
        problem = SGPProblem([0.2, 0.4])
        problem.add_constraint(Signomial.variable(1) - Signomial.variable(0))
        first = problem.compile()
        assert problem.compile() is first
        problem.add_constraint(Signomial.variable(0) - 0.1, margin=0.05)
        x = np.array([0.3, 0.5])
        assert problem.compile().num_rows == 2
        assert problem.constraint_values(x) == pytest.approx([0.2, 0.25])
        assert problem.margins.tolist() == [0.0, 0.05]

    def test_pickle_round_trip(self):
        problem = SGPProblem([0.2, 0.4, 0.6])
        problem.add_constraint(make_signomial(), margin=0.01)
        problem.add_constraint(Signomial.variable(2) * Signomial.variable(0) - 0.5)
        problem.compile()
        clone = pickle.loads(pickle.dumps(problem))
        x = np.array([0.9, 1.1, 0.4])
        assert clone.compile().num_rows == 2
        assert clone.constraint_values(x).tobytes() == (
            problem.constraint_values(x).tobytes()
        )
        assert clone.compile().jacobian(x).tobytes() == (
            problem.compile().jacobian(x).tobytes()
        )
