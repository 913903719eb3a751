"""Signomial algebra.

A *signomial* (Eq. 3 of the paper) is a finite sum of terms

    f(x) = Σ_k  c_k · x_1^{e_1k} · x_2^{e_2k} · ... · x_n^{e_nk}

over strictly positive variables ``x``, with real coefficients ``c_k``
and real exponents ``e_jk``.  When every coefficient is positive the
signomial is a *posynomial*; a single term is a *monomial*.

Variables are identified by non-negative integer ids (the optimizer
assigns one id per adjustable edge weight plus, in the multi-vote
formulation, one per deviation variable).  A :class:`Signomial` is a
mutable dict-of-terms used while *building* expressions; the solver
*compiles* a program's signomials into one :class:`CompiledSignomial`
block, which evaluates all their values and gradients through a few
vectorized sparse matrix products — essential because each constraint
can contain thousands of walk terms and the solver evaluates them all
hundreds of times.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

import numpy as np
from scipy import sparse

from repro.errors import SGPModelError

#: Terms whose coefficient magnitude falls below this are dropped; they
#: are far below both solver tolerance and float accumulation error.
COEFF_EPS = 1e-300

ExponentKey = tuple[tuple[int, float], ...]


def _canonical_key(exponents: Mapping[int, float]) -> ExponentKey:
    """Canonical hashable key for an exponent mapping (zero exponents dropped)."""
    items = []
    for var, exp in exponents.items():
        if var < 0:
            raise SGPModelError(f"variable ids must be non-negative, got {var}")
        if not math.isfinite(exp):
            raise SGPModelError(f"non-finite exponent {exp!r} on x_{var}")
        if exp != 0.0:
            items.append((int(var), float(exp)))
    items.sort()
    return tuple(items)


class Signomial:
    """A mutable signomial: mapping of exponent keys to coefficients.

    Supports term accumulation, addition/subtraction, scalar and
    signomial multiplication, exact evaluation, and analytic gradients.
    Exact (dict-based) evaluation is convenient for tests and small
    expressions; hot paths should :meth:`compile` first.
    """

    __slots__ = ("_terms",)

    def __init__(self) -> None:
        self._terms: dict[ExponentKey, float] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, value: float) -> "Signomial":
        """The constant signomial ``value``."""
        sig = cls()
        sig.add_term(value, {})
        return sig

    @classmethod
    def variable(cls, var: int) -> "Signomial":
        """The signomial ``x_var``."""
        sig = cls()
        sig.add_term(1.0, {var: 1.0})
        return sig

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[float, Mapping[int, float]]]) -> "Signomial":
        """Build from ``(coefficient, {var: exponent})`` pairs."""
        sig = cls()
        for coeff, exponents in terms:
            sig.add_term(coeff, exponents)
        return sig

    def add_term(self, coeff: float, exponents: Mapping[int, float]) -> None:
        """Accumulate ``coeff · Π x_v^e`` into this signomial."""
        if not math.isfinite(coeff):
            raise SGPModelError(f"non-finite coefficient {coeff!r}")
        key = _canonical_key(exponents)
        new = self._terms.get(key, 0.0) + coeff
        if abs(new) < COEFF_EPS:
            self._terms.pop(key, None)
        else:
            self._terms[key] = new

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_terms(self) -> int:
        """Number of distinct terms."""
        return len(self._terms)

    def terms(self) -> Iterable[tuple[float, dict[int, float]]]:
        """Iterate over ``(coefficient, {var: exponent})`` pairs."""
        for key, coeff in self._terms.items():
            yield coeff, dict(key)

    def variables(self) -> set[int]:
        """The set of variable ids appearing with non-zero exponent."""
        out: set[int] = set()
        for key in self._terms:
            out.update(var for var, _ in key)
        return out

    def is_posynomial(self) -> bool:
        """Whether every coefficient is positive (GP-compatible)."""
        return all(c > 0 for c in self._terms.values())

    def is_constant(self) -> bool:
        """Whether the signomial has no variable dependence."""
        return not self.variables()

    def constant_value(self) -> float:
        """Value when constant; raises otherwise."""
        if not self.is_constant():
            raise SGPModelError("signomial is not constant")
        return sum(self._terms.values())

    def max_degree(self) -> float:
        """Largest total exponent over terms (0 for the zero signomial)."""
        best = 0.0
        for key in self._terms:
            best = max(best, sum(exp for _, exp in key))
        return best

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def copy(self) -> "Signomial":
        clone = Signomial()
        clone._terms = dict(self._terms)
        return clone

    def __add__(self, other: "Signomial | float") -> "Signomial":
        result = self.copy()
        if isinstance(other, Signomial):
            for key, coeff in other._terms.items():
                result.add_term(coeff, dict(key))
        else:
            result.add_term(float(other), {})
        return result

    __radd__ = __add__

    def __neg__(self) -> "Signomial":
        result = Signomial()
        result._terms = {key: -coeff for key, coeff in self._terms.items()}
        return result

    def __sub__(self, other: "Signomial | float") -> "Signomial":
        if isinstance(other, Signomial):
            return self + (-other)
        return self + (-float(other))

    def __rsub__(self, other: float) -> "Signomial":
        return (-self) + float(other)

    def __mul__(self, other: "Signomial | float") -> "Signomial":
        result = Signomial()
        if isinstance(other, Signomial):
            for key_a, coeff_a in self._terms.items():
                exp_a = dict(key_a)
                for key_b, coeff_b in other._terms.items():
                    merged = dict(exp_a)
                    for var, exp in key_b:
                        merged[var] = merged.get(var, 0.0) + exp
                    result.add_term(coeff_a * coeff_b, merged)
        else:
            factor = float(other)
            for key, coeff in self._terms.items():
                result.add_term(coeff * factor, dict(key))
        return result

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Signomial terms={self.num_terms} vars={len(self.variables())}>"

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, x: "Mapping[int, float] | np.ndarray") -> float:
        """Exact evaluation at ``x`` (mapping or dense array of positives)."""
        total = 0.0
        for key, coeff in self._terms.items():
            term = coeff
            for var, exp in key:
                value = x[var]
                if value <= 0:
                    raise SGPModelError(
                        f"signomial variables must be positive, x[{var}]={value}"
                    )
                term *= value**exp
            total += term
        return total

    def gradient(self, x: "Mapping[int, float] | np.ndarray") -> dict[int, float]:
        """Exact gradient at ``x`` as ``{var: d f / d x_var}``."""
        grad: dict[int, float] = {}
        for key, coeff in self._terms.items():
            term = coeff
            for var, exp in key:
                term *= x[var] ** exp
            for var, exp in key:
                grad[var] = grad.get(var, 0.0) + term * exp / x[var]
        return grad

    def compile(self, num_vars: int) -> "CompiledSignomial":
        """Compile into vectorized sparse form over ``num_vars`` variables."""
        return CompiledSignomial([self], num_vars)


class CompiledSignomial:
    """Immutable, vectorized form of signomials stacked as rows.

    Row ``i`` is one signomial.  The terms of every row share one sparse
    exponent matrix ``E`` (terms × variables; each row's terms
    contiguous, rows in order) and one coefficient vector, and row ``i``
    owns terms ``offsets[i]:offsets[i + 1]``.  Evaluation is done in log
    space: for positive ``x`` each term is ``c_k · exp(E_k · log x)``, so
    one log, one matrix-vector product and one exp give every term, and

    - ``value_i = Σ_{k in row i} c_k · exp(E_k · log x)``
    - ``J_ij    = Σ_{k in row i} c_k · exp(E_k · log x) · E_kj / x_j``,
      one sparse product ``W @ E`` divided by ``x``, where row ``i`` of
      ``W`` holds row ``i``'s term values.

    Each row sums its own contiguous slice of term values with
    ``ndarray.sum`` and each Jacobian entry accumulates in term order,
    so a row evaluates bit for bit as it would compiled alone.  A single
    signomial compiles to the one-row case (:meth:`value`,
    :meth:`value_and_grad`).
    """

    __slots__ = ("num_vars", "coeffs", "exponents", "offsets", "_spans")

    def __init__(self, signomials: Iterable[Signomial], num_vars: int) -> None:
        if num_vars < 0:
            raise SGPModelError(f"num_vars must be non-negative, got {num_vars}")
        coeffs: list[float] = []
        term_sizes: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        offsets = [0]
        for signomial in signomials:
            for key, coeff in signomial._terms.items():
                coeffs.append(coeff)
                term_sizes.append(len(key))
                for var, exp in key:
                    cols.append(var)
                    data.append(exp)
            offsets.append(len(coeffs))
        if cols and max(cols) >= num_vars:
            raise SGPModelError(
                f"signomial uses variable {max(cols)} but num_vars={num_vars}"
            )
        self.num_vars = num_vars
        self.coeffs = np.array(coeffs, dtype=float)
        term_starts = np.concatenate(([0], np.cumsum(term_sizes, dtype=np.int64)))
        self.exponents = sparse.csr_matrix(
            (np.array(data, dtype=float), np.array(cols, dtype=np.int64), term_starts),
            shape=(len(coeffs), num_vars),
        )
        self.offsets = np.array(offsets, dtype=np.int64)
        self._spans = list(zip(offsets[:-1], offsets[1:]))

    @property
    def num_rows(self) -> int:
        """Number of stacked signomials."""
        return len(self._spans)

    @property
    def num_terms(self) -> int:
        """Number of terms over all rows."""
        return int(self.coeffs.size)

    def term_values(self, x: np.ndarray) -> np.ndarray:
        """Every term's value ``c_k · exp(E_k · log x)`` at positive ``x``."""
        if not self.coeffs.size:
            return np.zeros(0)
        return self.coeffs * np.exp(self.exponents @ np.log(x))

    def values(
        self, x: np.ndarray, term_values: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Each row's value at ``x`` (``term_values`` at ``x`` if known)."""
        if term_values is None:
            term_values = self.term_values(np.asarray(x, dtype=float))
        return np.array(
            [term_values[start:stop].sum() for start, stop in self._spans],
            dtype=float,
        )

    def jacobian(
        self,
        x: np.ndarray,
        term_values: "np.ndarray | None" = None,
        rows: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Dense Jacobian at ``x``: one row per signomial (or per ``rows``)."""
        x = np.asarray(x, dtype=float)
        if term_values is None:
            term_values = self.term_values(x)
        weights = sparse.csr_matrix(
            (term_values, np.arange(self.num_terms), self.offsets),
            shape=(self.num_rows, self.num_terms),
        )
        if rows is not None:
            weights = weights[rows]
        return np.asarray((weights @ self.exponents).toarray() / x)

    def value(self, x: np.ndarray) -> float:
        """The one-row case: the signomial's value at ``x``."""
        return float(self.values(x)[0])

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """The one-row case: value and dense gradient, sharing term values."""
        x = np.asarray(x, dtype=float)
        term_values = self.term_values(x)
        return (
            float(self.values(x, term_values)[0]),
            self.jacobian(x, term_values)[0],
        )
