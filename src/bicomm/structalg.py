"""Finite-dimensional algebras given by structure constants.

An algebra of dimension n over a field is stored as a sparse table of
basis products e_i * e_j = sum_k c[k] e_k; absent (i, j) entries mean the
product is zero.  Elements are sparse coordinate dicts index -> scalar.
Evaluation works on values: dicts mapping (k, y) to a nonzero scalar,
with k a basis index and y the packed y-int `Monomial(...)[0]` of a
monomial in indeterminates y_n.  A plain coordinate sits at y = 0; the
two complete identity checks give each pair of an argument and a basis
vector its own y_n.  One product loop sums every value via Field.add_into.

Identity checking expands a non-associative polynomial f at generic
coordinates (the generic-element method), or evaluates it at random
sample tuples (sound for failures only).  Symbolic mode expands f at
once, which decides validity over every scalar extension.  Multilinear
mode runs the first variable over the basis vectors: for multilinear f
the coefficient of y_{n_1} ... y_{n_r} is f at one tuple of basis vectors.
"""

from __future__ import annotations

import json
import random
from functools import partial

from .errors import BadAlgebra, BadElement, NotMultilinear
from .monomials import Monomial, _unpack
from .scalars import Field
from .terms import Leaf, NAPolynomial, Node, term_leaves


def _is_json_int(raw) -> bool:
    """Whether raw is an integer or a string; a float, a boolean or any
    other value is refused, since int() would truncate or coerce it."""
    return isinstance(raw, str) or isinstance(raw, int) and not isinstance(raw, bool)


def _index(raw, what: str) -> int:
    """An index from an int that is no bool or a string int() reads;
    anything else raises BadElement."""
    try:
        if _is_json_int(raw):
            return int(raw)
    except ValueError:
        pass
    raise BadElement(f"{what} {raw!r} is not an integer")


def _require_int(n, what: str) -> None:
    """Raise ValueError unless n is an int that is no bool, which range()
    and the comparisons below would truncate or coerce."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{what} must be an int, got {n!r}")


def _json_int(raw) -> int:
    """An integer from a JSON integer or string."""
    if _is_json_int(raw):
        return int(raw)
    raise BadAlgebra(f"expected an integer in the algebra JSON, got {raw!r}")


class StructureAlgebra:
    """Algebra by structure constants over a scalar field."""

    __slots__ = ("dim", "field", "table", "_nonzero")

    def __init__(self, dim: int, field: Field, table=None):
        _require_int(dim, "dimension")
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = dim
        self.field = field
        self.table = {}
        self._nonzero = {}
        if table:
            for (i, j), coeffs in dict(table).items():
                self._set_product(i, j, coeffs)

    def _set_product(self, i, j, coeffs) -> None:
        """Store e_i * e_j in table as a dense coefficient tuple, and its
        nonzero (k, c) pairs, which evaluation runs over, in _nonzero.
        Indices are read like those of check_element and coefficients
        stored through Field.canonical."""
        i, j = _index(i, "basis index"), _index(j, "basis index")
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise BadElement(f"basis index pair ({i}, {j}) out of range")
        coeffs = tuple(map(self.field.canonical, coeffs))
        if len(coeffs) != self.dim:
            raise BadElement(
                f"product ({i}, {j}) has {len(coeffs)} coefficients, need {self.dim}"
            )
        if any(coeffs):
            self.table[(i, j)] = coeffs
            self._nonzero[(i, j)] = tuple((k, c) for k, c in enumerate(coeffs) if c)

    def basis_element(self, i: int) -> dict:
        if not 0 <= i < self.dim:
            raise BadElement(f"basis index {i} out of range")
        return {i: self.field.one}

    def check_element(self, v: dict) -> dict:
        """v with int indices and each coordinate stored through
        Field.canonical, zeros dropped.  An index must be an int or a
        string of digits, and a coordinate an int or a Fraction; anything
        else raises BadElement."""
        out = {}
        for i, c in v.items():
            index = _index(i, "coordinate index")
            if not 0 <= index < self.dim:
                raise BadElement(f"coordinate index {i} out of range")
            if c := self.field.canonical(c):
                out[index] = c
        return out

    def product(self, u: dict, v: dict) -> dict:
        return _coordinates(_product(self, _at_zero(u), _at_zero(v)))

    def to_json_obj(self) -> dict:
        rows = []
        for (i, j), coeffs in sorted(self.table.items()):
            rows.append([i, j, [self.field.format_scalar(c) for c in coeffs]])
        return {"dim": self.dim, "field": self.field.spec_string(), "table": rows}

    def to_json(self) -> str:
        obj = self.to_json_obj()
        lines = [
            "{",
            f'  "dim": {obj["dim"]},',
            f'  "field": {json.dumps(obj["field"])},',
        ]
        if obj["table"]:
            lines.append('  "table": [')
            rows = [json.dumps(row) for row in obj["table"]]
            lines.extend(f"    {row}," for row in rows[:-1])
            lines.append(f"    {rows[-1]}")
            lines.append("  ]")
        else:
            lines.append('  "table": []')
        lines.append("}")
        return "\n".join(lines)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "StructureAlgebra":
        if not isinstance(obj, dict):
            raise BadAlgebra("algebra JSON must be an object")
        for key in ("dim", "field"):
            if key not in obj:
                raise BadAlgebra(f"algebra JSON lacks the key {key!r}")
        rows = obj.get("table", [])
        if not isinstance(rows, list):
            raise BadAlgebra('algebra JSON "table" must be a list')
        dim = _json_int(obj["dim"])
        field = Field.parse(str(obj["field"]))

        def scalar(raw):
            if isinstance(raw, str):
                return field.parse_scalar(raw)
            return field.from_int(_json_int(raw))

        table = {}
        for row in rows:
            if not (isinstance(row, list) and len(row) == 3 and isinstance(row[2], list)):
                raise BadAlgebra(f"table row {row!r} is not [i, j, [coefficients]]")
            i, j, coeffs = _json_int(row[0]), _json_int(row[1]), [scalar(c) for c in row[2]]
            if (i, j) in table:
                raise BadAlgebra(f"algebra JSON table has two rows for [{i}, {j}]")
            table[(i, j)] = coeffs
        return cls(dim, field, table)

    @classmethod
    def from_json(cls, text: str) -> "StructureAlgebra":
        try:
            obj = json.loads(text)
        except RecursionError:
            raise BadAlgebra("algebra JSON is nested too deeply") from None
        return cls.from_json_obj(obj)

    def __eq__(self, other):
        return (
            isinstance(other, StructureAlgebra)
            and self.dim == other.dim
            and self.field == other.field
            and self.table == other.table
        )

    def __repr__(self):
        return f"StructureAlgebra(dim={self.dim}, {self.field!r}, {len(self.table)} products)"


def witt_truncated(n: int, field: Field) -> StructureAlgebra:
    """Truncated one-variable Witt-type algebra on e_0 .. e_{n-1}.

    With e_i standing for x^i d/dx, the product (f d/dx) * (g d/dx) =
    (g f') d/dx gives e_i * e_j = i e_{i+j-1}, cut to zero when the
    exponent leaves the truncation range.
    """
    _require_int(n, "dimension")
    if n < 1:
        raise ValueError(f"need a positive dimension, got {n}")
    table = {}
    for i in range(n):
        for j in range(n):
            k = i + j - 1
            if i >= 1 and 0 <= k < n:
                coeffs = [field.zero] * n
                coeffs[k] = field.from_int(i)
                table[(i, j)] = coeffs
    return StructureAlgebra(n, field, table)


# --- evaluation -------------------------------------------------------------


def _at_zero(v: dict) -> dict:
    """A coordinate dict as a value, every coordinate at y = 0."""
    return {(i, 0): c for i, c in v.items()}


def _coordinates(value: dict) -> dict:
    """A value whose keys all sit at y = 0 as a coordinate dict."""
    return {i: c for (i, _), c in value.items()}


def _product(alg: StructureAlgebra, u: dict, v: dict) -> dict:
    """Product of two values through the structure table.  Each nonzero
    entry c of e_i * e_j contributes a*b*c at (k, y1 + y2) for a at
    (i, y1) in u and b at (j, y2) in v, and one Field.add_into call sums
    the contributions.  y1 + y2 multiplies the two monomials; it needs no
    guard check, since an exponent never exceeds the identity's degree."""
    acc = {}
    nonzero = alg._nonzero
    alg.field.add_into(acc, (
        ((k, y1 + y2), a * b * c)
        for (i, y1), a in u.items()
        for (j, y2), b in v.items()
        for k, c in nonzero.get((i, j), ())
    ))
    return acc


def _eval_tree(t, args: dict, alg: StructureAlgebra) -> dict:
    """Value of one tree, left subtree before right, folded on an explicit
    stack where a None mark multiplies the last two values."""
    done = []
    todo = [t]
    while todo:
        s = todo.pop()
        if s is None:
            right = done.pop()
            done[-1] = _product(alg, done[-1], right)
        elif isinstance(s, Leaf):
            got = args.get(s.index)
            if got is None:
                raise BadElement(f"no argument supplied for x{s.index}")
            done.append(got)
        else:
            todo += (None, s.right, s.left)
    return done[0]


def _eval_poly(terms: list, args: dict, alg: StructureAlgebra) -> dict:
    """Value of a polynomial, given as its (tree, scalar) terms, at one
    tuple of argument values: the sum of scalar * tree value, added
    through Field.add_into."""
    acc = {}
    for t, c in terms:
        alg.field.add_into(acc, _eval_tree(t, args, alg).items(), c)
    return acc


def evaluate_polynomial(f: NAPolynomial, args, alg: StructureAlgebra) -> dict:
    """Value of f at the given elements, as a sparse coordinate dict.

    args may be a sequence (position r supplies x_{r+1}) or a dict
    mapping variable indices to elements.  A dict key follows the index
    rule of check_element and must be at least 1; any other key raises
    BadElement.
    """
    alg.field.check_same(f.field)
    if isinstance(args, dict):
        supplied = {}
        for k, v in args.items():
            if (index := _index(k, "variable index")) < 1:
                raise BadElement(f"variable index {k!r} is below 1")
            supplied[index] = _at_zero(alg.check_element(v))
    else:
        supplied = {r + 1: _at_zero(alg.check_element(v)) for r, v in enumerate(args)}
    return _coordinates(_eval_poly(f.sorted_terms(), supplied, alg))


# --- identity checking ------------------------------------------------------


def format_witness(witness) -> str:
    """A witness as text: "none", a basis tuple "(e1,e0,e1)", or sample
    coordinates "({0: -2, 1: 1}; ...)" with each scalar printed by str,
    which shows an integral rational the same as an int or a Fraction."""
    if witness is None:
        return "none"
    if all(isinstance(w, int) for w in witness):
        return "(" + ",".join(f"e{i}" for i in witness) + ")"

    def coords(w):
        return "{" + ", ".join(f"{i}: {c}" for i, c in sorted(w.items())) + "}"

    return "(" + "; ".join(coords(w) for w in witness) + ")"


class CheckResult:
    """Outcome of an identity check: verdict plus an optional witness.

    A multilinear failure carries the lexicographically least tuple of
    basis indices at which f is nonzero; a sample failure the tuple of
    coordinate dicts; a symbolic failure none, since it may only appear
    after scalar extension.
    """

    __slots__ = ("holds", "witness", "mode")

    def __init__(self, holds: bool, witness=None, mode: str = ""):
        self.holds = holds
        self.witness = witness
        self.mode = mode

    def __bool__(self):
        return self.holds

    def __repr__(self):
        if self.holds:
            return f"CheckResult(Holds, mode={self.mode})"
        return f"CheckResult(Fails, witness={format_witness(self.witness)}, mode={self.mode})"


def _multilinear_variables(f: NAPolynomial) -> list:
    """Sorted variable list, or NotMultilinear when some term repeats or
    omits a variable used elsewhere."""
    varset = None
    for t in f.terms:
        leaves = term_leaves(t)
        if len(set(leaves)) != len(leaves):
            raise NotMultilinear(f"variable repeated in a term of {f}")
        s = set(leaves)
        if varset is None:
            varset = s
        elif s != varset:
            raise NotMultilinear("terms use different variable sets")
    return sorted(varset or ())


def _generic_coordinates(variables: list, alg: StructureAlgebra) -> dict:
    """Generic values: the coordinate of e_i in the variable at position
    pos is the indeterminate y_n, n = pos * dim + i + 1, in index order."""
    return {
        k: {(i, Monomial([(pos * alg.dim + i + 1, 1)])[0]): alg.field.one for i in range(alg.dim)}
        for pos, k in enumerate(variables)
    }


def check_identity(
    f: NAPolynomial,
    alg: StructureAlgebra,
    mode: str = "multilinear",
    samples: int = 100,
    seed: int = 0,
) -> CheckResult:
    """Check whether f vanishes identically on the algebra.

    Mode "multilinear" is complete for multilinear f: with the first
    variable fixed to e_0, e_1, ... in turn and the others generic, the
    first nonzero expansion gives the least failing basis tuple.
    "symbolic" expands f at generic coordinates, which decides validity
    over every scalar extension; "sample" tries random tuples and can
    only certify failure.
    """
    alg.field.check_same(f.field)
    terms = f.sorted_terms()
    if mode == "multilinear":
        variables = _multilinear_variables(f)
        if not variables:
            return CheckResult(f.is_zero, None, mode)
        args = _generic_coordinates(variables, alg)
        first = variables[0]
        generic = args[first]
        for item in generic.items():
            args[first] = dict([item])
            if value := _eval_poly(terms, args, alg):
                # y_{n_1} ... y_{n_r} has the coefficient f(e_{(n_1-1) % dim}, ...)
                witness = min(tuple((n - 1) % alg.dim for n, _ in _unpack(y)) for _, y in value)
                return CheckResult(False, witness, mode)
        return CheckResult(True, None, mode)
    variables = sorted(f.variables())
    if mode == "symbolic":
        value = _eval_poly(terms, _generic_coordinates(variables, alg), alg)
        return CheckResult(not value, None, mode)
    if mode == "sample":
        _require_int(samples, "samples")
        if samples < 1:
            raise ValueError(f"need at least one sample, got {samples}")
        rng = random.Random(seed)
        # each draw is already a field element: an int in -3..3 over Q, a residue over F_p
        p = alg.field.characteristic
        draw = partial(rng.randrange, p) if p else partial(rng.randint, -3, 3)
        for _ in range(samples):
            args = {k: {(i, 0): c for i in range(alg.dim) if (c := draw())} for k in variables}
            if _eval_poly(terms, args, alg):
                return CheckResult(False, tuple(map(_coordinates, args.values())), mode)
        return CheckResult(True, None, mode)
    raise ValueError(f"unknown identity-check mode {mode!r}")


def left_commutativity(field: Field) -> NAPolynomial:
    """x1*(x2*x3) - x2*(x1*x3)."""
    a = NAPolynomial.term(field, Node(Leaf(1), Node(Leaf(2), Leaf(3))))
    b = NAPolynomial.term(field, Node(Leaf(2), Node(Leaf(1), Leaf(3))))
    return a.sub(b)


def right_commutativity(field: Field) -> NAPolynomial:
    """(x1*x2)*x3 - (x1*x3)*x2."""
    a = NAPolynomial.term(field, Node(Node(Leaf(1), Leaf(2)), Leaf(3)))
    b = NAPolynomial.term(field, Node(Node(Leaf(1), Leaf(3)), Leaf(2)))
    return a.sub(b)


class BicommVerdict:
    """Joint verdict of the two defining identities."""

    __slots__ = ("left", "right")

    def __init__(self, left: CheckResult, right: CheckResult):
        self.left = left
        self.right = right

    @property
    def holds(self) -> bool:
        return self.left.holds and self.right.holds

    @property
    def witness(self):
        if not self.left.holds:
            return self.left.witness
        if not self.right.holds:
            return self.right.witness
        return None

    def __bool__(self):
        return self.holds

    def __repr__(self):
        if self.holds:
            return "BicommVerdict(Holds)"
        return f"BicommVerdict(Fails, witness={format_witness(self.witness)})"


def check_bicommutative(alg: StructureAlgebra) -> BicommVerdict:
    """Exhaustive check of left and right commutativity on basis triples."""
    left = check_identity(left_commutativity(alg.field), alg, mode="multilinear")
    right = check_identity(right_commutativity(alg.field), alg, mode="multilinear")
    return BicommVerdict(left, right)
