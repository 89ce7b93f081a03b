"""Dense exact matrices, row spaces, and unit vectors.

Everything here is field-agnostic: entries are raw scalar values and all
arithmetic goes through the attached field object. Zero-dimensional shapes
(0xn, nx0) are first-class, since graded algebras routinely have empty grades.
Every product (``@``, ``apply`` and ``RowSpace.reduce``) is one call of the
field's contraction kernel ``combine``, which skips zero entries (falsy in
every field) and normalizes each output entry once, so the entries of a
product are canonical scalars of the field.

Every stored entry is canonical, and the kernels lean on that to skip work
that cannot change the result. ``kron`` copies the zero block for a left
entry 0 and the right factor's row for a left entry 1, and ``@`` with a
square identity operand returns the other operand itself. Over GF(p) both
are exact only because entries are reduced: an unreduced 4 over GF(3) would
be copied where ``mul`` returns 1. Over Q a copied entry equals what ``mul``
would return in any case; the canonical form there only keeps each integral
entry an ``int``.

Only the public constructor ``Matrix(field, data, cols)`` copies, validates
and puts into canonical form its data, for matrices from outside (documents,
fixtures, tests). A matrix this module builds itself (a product,
Kronecker product, transpose, identity or inverse), and the evaluator's
cap, cup and swap pieces, are wrapped as they are by the private
``Matrix._of``, since their rows are already canonical tuples of one length.
"""

from __future__ import annotations


class SingularMatrixError(ValueError):
    """Raised when inverting a singular (or non-square) matrix."""


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data, cols: int | None = None):
        # cols must be given explicitly when there are no rows
        self.field = field
        rows = tuple(tuple(map(field.of, row)) for row in data)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else (cols or 0)
        if any(len(row) != self.cols for row in rows):
            raise ValueError("ragged matrix data")
        self.data = rows

    @classmethod
    def _of(cls, field, data: tuple, cols: int) -> "Matrix":
        """Wrap `data`, a tuple of `cols`-length tuples, without copying or
        checking it: only for data built by crossmod, never for outside input."""
        m = object.__new__(cls)
        m.field, m.rows, m.cols, m.data = field, len(data), cols, data
        return m

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls._of(field, tuple([tuple([o if i == j else z for j in range(n)])
                                     for i in range(n)]), n)

    @classmethod
    def from_columns(cls, field, columns, rows: int) -> "Matrix":
        """The matrix whose columns are the given vectors of length `rows`."""
        return cls._of(field, tuple(zip(*columns)) if columns else ((),) * rows,
                       len(columns))

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.shape() == other.shape()
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.shape(), self.data))

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(fmt(x) for x in row) for row in self.data)
        return f"Matrix[{self.rows}x{self.cols}]({body})"

    def _is_identity(self) -> bool:
        """Square with ones on the diagonal and zeros elsewhere; stops at
        the first row that is not. A 0x0 matrix is the empty identity, a
        0xn or nx0 one with n > 0 is none."""
        if self.rows != self.cols:
            return False
        one = self.field.one
        for i, row in enumerate(self.data):
            if row[i] != one or any(row[:i]) or any(row[i + 1:]):
                return False
        return True

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in matrix product: {self.shape()} @ {other.shape()}"
            )
        # entries are canonical, so the other operand holds exactly the
        # entries that combine would build
        if self._is_identity():
            return other
        if other._is_identity():
            return self
        f = self.field
        return Matrix._of(f, tuple([f.combine(other.cols, zip(row, other.data))
                                    for row in self.data]), other.cols)

    def apply(self, vec):
        """Matrix times column vector, given and returned as plain tuples."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return self.field.combine(self.rows, zip(vec, zip(*self.data)))

    def transpose(self) -> "Matrix":
        return Matrix.from_columns(self.field, self.data, self.cols)

    def _eliminate(self, extra):
        """Gauss-Jordan reduction of [A | extra], pivoting on the columns of A
        only; `extra` holds the appended entries of each row. Returns the
        reduced rows and the pivot columns, in order."""
        f = self.field
        work = [list(row) + list(more) for row, more in zip(self.data, extra, strict=True)]
        pivots = []
        for col in range(self.cols):
            r = len(pivots)
            pivot = next((k for k in range(r, self.rows)
                          if not f.is_zero(work[k][col])), None)
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            inv_p = f.div(f.one, work[r][col])
            work[r] = [f.mul(inv_p, x) for x in work[r]]
            for k in range(self.rows):
                if k != r and not f.is_zero(work[k][col]):
                    factor = work[k][col]
                    work[k] = [f.sub(x, f.mul(factor, y))
                               for x, y in zip(work[k], work[r])]
            pivots.append(col)
        return work, pivots

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise SingularMatrixError("cannot invert non-square matrix")
        n = self.rows
        work, pivots = self._eliminate(Matrix.identity(self.field, n).data)
        if len(pivots) < n:
            raise SingularMatrixError("matrix is singular")
        return Matrix._of(self.field, tuple([tuple(row[n:]) for row in work]), n)

    def solve(self, b):
        """One solution x of A x = b, or None if the system is inconsistent."""
        f = self.field
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        work, pivots = self._eliminate([(x,) for x in b])
        if any(not f.is_zero(row[-1]) for row in work[len(pivots):]):
            return None
        x = [f.zero] * self.cols
        for row, col in zip(work, pivots):
            x[col] = row[-1]
        return tuple(x)

    def nullspace(self):
        """A basis of the right kernel {x : A x = 0}."""
        f = self.field
        work, pivots = self._eliminate([()] * self.rows)
        basis = []
        for fc in (c for c in range(self.cols) if c not in pivots):
            vec = [f.zero] * self.cols
            vec[fc] = f.one
            for row, pc in zip(work, pivots):
                vec[pc] = f.neg(row[fc])
            basis.append(tuple(vec))
        return basis

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; the left factor is the most significant index.
        A block scaled by 0 is the zero block and one scaled by 1 is the
        right factor's row as it is; only other blocks are multiplied."""
        f = self.field
        mul, zero, one = f.mul, f.zero, f.one
        zeros = (zero,) * other.cols
        data = []
        for arow in self.data:
            for brow in other.data:
                row = []
                for a in arow:
                    if not a:
                        row += zeros
                    elif a == one:
                        row += brow
                    else:
                        row += [mul(a, b) if b else zero for b in brow]
                data.append(tuple(row))
        return Matrix._of(f, tuple(data), self.cols * other.cols)

    def to_json(self):
        fmt = self.field.format
        return [[fmt(x) for x in row] for row in self.data]

    @classmethod
    def from_json(cls, field, data, rows=None, cols=None, name="matrix") -> "Matrix":
        """The matrix of `data`, a JSON list of rows of scalars; a string or object
        in place of a list is refused, naming `name`, after the parse and shape checks."""
        m = cls(field, [[field.parse(x) for x in row] for row in data], cols=cols)
        if rows is not None and m.rows != rows:
            raise ValueError(f"expected {rows} rows, got {m.rows}")
        if cols is not None and m.cols != cols:
            raise ValueError(f"expected {cols} cols, got {m.cols}")
        if not isinstance(data, list) or not all([isinstance(row, list) for row in data]):
            raise ValueError(f"{name} must be a list of lists of scalars")
        return m


def unit_vector(field, n: int, i: int):
    return tuple(field.one if j == i else field.zero for j in range(n))


class RowSpace:
    """A subspace of K^n kept in reduced row-echelon form.

    Supports incremental insertion, reduction, and quotient bookkeeping
    (pivot columns vs. free columns).
    """

    def __init__(self, field, n: int):
        self.field = field
        self.n = n
        self.basis: list[tuple] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec):
        """The residue of vec modulo the space: vec minus each basis row
        times vec's entry at that row's pivot. That entry needs no update as
        rows are subtracted, because in reduced row-echelon form every other
        basis row is 0 at the pivot."""
        f = self.field
        vec = tuple(vec)
        if len(vec) != self.n:
            raise ValueError("vector length mismatch")
        return f.combine(self.n, [(f.one, vec), *((f.neg(vec[p]), row)
                                                  for row, p in zip(self.basis, self.pivots))])

    def add(self, vec) -> bool:
        """Insert a vector; returns True if the space grew. A vector in the
        span reduces to zero and changes nothing. Otherwise the reduced
        row-echelon form of [basis; vec] is unique, so re-reducing it keeps
        the basis canonical."""
        vec = tuple(vec)
        if not any(self.reduce(vec)):
            return False
        rows = self.basis + [vec]
        work, pivots = Matrix._of(self.field, tuple(rows), self.n)._eliminate([()] * len(rows))
        self.basis = [tuple(row) for row in work[:len(pivots)]]
        self.pivots = pivots
        return True

    def free_columns(self) -> list[int]:
        pivot_set = set(self.pivots)
        return [j for j in range(self.n) if j not in pivot_set]

    def quotient_coords(self, vec):
        """Coordinates of vec + W in the basis {e_j + W : j free}."""
        residual = self.reduce(vec)
        return tuple(residual[j] for j in self.free_columns())
