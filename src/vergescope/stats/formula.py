"""Model formulas and design-matrix construction with treatment coding.

A formula is a response name plus a set of terms; a term is a tuple of one or
more variable names (length >= 2 means an interaction, encoded column-wise as
element-wise products). Categorical variables get reference-level (treatment)
indicator columns; the first declared level is the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import FormulaError, LevelError

__all__ = ["Term", "ModelFormula", "build_design_matrix", "infer_levels"]

Term = tuple[str, ...]


def _canonical(term: Sequence[str]) -> Term:
    names = tuple(term)
    if len(names) == 0:
        raise FormulaError("empty term")
    if len(set(names)) != len(names):
        raise FormulaError(f"repeated variable in term {names}")
    return tuple(sorted(names))


@dataclass(frozen=True)
class ModelFormula:
    """Response name plus main-effect and interaction terms (no intercept term;
    the intercept column is always included)."""

    response: str
    terms: tuple[Term, ...]

    def __post_init__(self):
        canon = []
        seen = set()
        for t in self.terms:
            c = _canonical(t)
            if c in seen:
                raise FormulaError(f"duplicate term {c}")
            seen.add(c)
            canon.append(c)
        object.__setattr__(self, "terms", tuple(canon))
        self.validate_marginality()

    @classmethod
    def parse(cls, text: str) -> "ModelFormula":
        """Parse an R-style formula string.

        Supports ``y ~ 1``, ``+`` for additive terms, ``:`` for a single
        interaction, and ``*`` for main effects plus all interactions.
        """
        if "~" not in text:
            raise FormulaError(f"formula needs a '~': {text!r}")
        lhs, rhs = text.split("~", 1)
        response = lhs.strip()
        if not response:
            raise FormulaError(f"formula needs a response: {text!r}")
        terms: list[Term] = []

        def add(term: Term):
            c = _canonical(term)
            if c not in terms:
                terms.append(c)

        for chunk in rhs.split("+"):
            chunk = chunk.strip()
            if not chunk:
                raise FormulaError(f"empty term in formula: {text!r}")
            if chunk == "1":
                continue
            if "*" in chunk:
                factors = [f.strip() for f in chunk.split("*")]
                if any(not f or ":" in f for f in factors):
                    raise FormulaError(f"malformed term {chunk!r}")
                # a*b*c expands to every nonempty subset of {a, b, c}
                n = len(factors)
                for mask in range(1, 1 << n):
                    subset = tuple(factors[i] for i in range(n) if mask >> i & 1)
                    add(subset)
            elif ":" in chunk:
                add(tuple(f.strip() for f in chunk.split(":")))
            else:
                add((chunk,))
        terms.sort(key=lambda t: (len(t), t))
        return cls(response, tuple(terms))

    def validate_marginality(self):
        present = set(self.terms)
        for t in self.terms:
            for name in t:
                if (name,) not in present and len(t) > 1:
                    raise FormulaError(
                        f"interaction {t} requires main effect {name!r} (marginality)"
                    )

    def to_string(self) -> str:
        if not self.terms:
            return f"{self.response} ~ 1"
        parts = [":".join(t) for t in sorted(self.terms, key=lambda t: (len(t), t))]
        return f"{self.response} ~ " + " + ".join(parts)

    def without(self, term: Sequence[str]) -> "ModelFormula":
        c = _canonical(term)
        if c not in self.terms:
            raise FormulaError(f"term {c} not in formula")
        return ModelFormula(self.response, tuple(t for t in self.terms if t != c))

    def droppable_terms(self) -> tuple[Term, ...]:
        """Terms not strictly contained in any remaining term (marginality-safe drops)."""
        out = []
        for t in self.terms:
            ts = set(t)
            if not any(ts < set(other) for other in self.terms):
                out.append(t)
        return tuple(out)

    def contains(self, other: "ModelFormula") -> bool:
        return set(other.terms) <= set(self.terms) and other.response == self.response

    def variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for t in self.terms:
            for name in t:
                if name not in seen:
                    seen.append(name)
        return tuple(seen)


def infer_levels(column: Sequence) -> list[str]:
    """Sorted distinct values of a categorical column."""
    return sorted({str(v) for v in column})


def _is_categorical(column: np.ndarray) -> bool:
    return not np.issubdtype(column.dtype, np.number)


@dataclass
class DesignInfo:
    matrix: np.ndarray
    column_names: list[str]


def build_design_matrix(
    data: Mapping[str, Sequence],
    formula: ModelFormula,
    levels: Mapping[str, Sequence[str]] | None = None,
) -> DesignInfo:
    """Expand ``formula`` against columnar ``data`` into a dense design matrix.

    Continuous columns pass through unchanged; categorical columns become
    len(levels)-1 indicators against the first (reference) level; interaction
    terms are element-wise products of their factors' columns. The intercept
    column of ones comes first.
    """
    levels = dict(levels or {})
    cols: dict[str, np.ndarray] = {}
    n = None
    for var in formula.variables():
        if var not in data:
            raise FormulaError(f"variable {var!r} not in data")
        arr = np.asarray(data[var])
        if n is None:
            n = len(arr)
        elif len(arr) != n:
            raise FormulaError(f"column {var!r} has length {len(arr)}, expected {n}")
        cols[var] = arr
    if n is None:
        n = len(np.asarray(data[formula.response])) if formula.response in data else 0

    # Per-variable encoded blocks: list of (suffix, float column).
    encoded: dict[str, list[tuple[str, np.ndarray]]] = {}
    for var, arr in cols.items():
        if _is_categorical(arr):
            lv = [str(v) for v in levels.get(var, infer_levels(arr))]
            if len(lv) < 2:
                raise LevelError(f"categorical {var!r} needs >= 2 levels, got {lv}")
            values = np.asarray([str(v) for v in arr])
            unknown = set(values) - set(lv)
            if unknown:
                raise LevelError(f"unknown level(s) {sorted(unknown)} for {var!r}")
            encoded[var] = [
                (f"{var}[{level}]", (values == level).astype(float)) for level in lv[1:]
            ]
        else:
            encoded[var] = [(var, arr.astype(float))]

    out_cols: list[np.ndarray] = [np.ones(n)]
    names: list[str] = ["intercept"]
    for term in formula.terms:
        blocks = [encoded[v] for v in term]
        # cartesian product over the factors' encoded columns
        combos: list[tuple[str, np.ndarray]] = blocks[0]
        for blk in blocks[1:]:
            combos = [
                (f"{nm1}:{nm2}", c1 * c2) for (nm1, c1) in combos for (nm2, c2) in blk
            ]
        for nm, col in combos:
            out_cols.append(col)
            names.append(nm)
    return DesignInfo(np.column_stack(out_cols), names)
