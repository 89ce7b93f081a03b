"""Dense exact matrices, row spaces, and unit vectors.

Everything here is field-agnostic: entries are raw scalar values and all
arithmetic goes through the attached field object. Zero-dimensional shapes
(0xn, nx0) are first-class, since graded algebras routinely have empty grades.
Every product (``@``, ``apply``, ``RowSpace.reduce``) and every row operation
of the elimination behind ``inverse``, ``solve``, ``nullspace`` and
``RowSpace.add`` is one call of the field's kernel ``combine``, which skips
zero entries (falsy in every field) and normalizes each output entry once.

Every stored entry is canonical, and the kernels lean on that to skip work
that cannot change the result. ``kron``, the one loop here that multiplies
entry by entry (``field.mul``; a ``combine`` per row measured slower),
copies the zero block for a left entry 0 and the right factor's row for a
left entry 1, ``kron`` with the shared 1x1 identity as its left factor
returns the right factor itself, ``kron`` of two shared identities the
shared identity of their product size, and ``@`` with a shared identity operand
returns the other operand itself. Over GF(p) the copies are exact only
because entries are reduced: an unreduced 4 over GF(3) would be copied
where ``mul`` returns 1. Over Q a copied entry equals what ``mul`` would
return in any case; the canonical form there only keeps each integral entry
an ``int``.

``Matrix.identity(field, n)`` hands out one shared instance per (field, n),
built the first time that size is asked for and kept after, so the cache
holds one matrix per (field, n) asked for. crossmod never mutates a matrix
it has built, so no caller changes the identity every other caller sees.
One rule says what an identity is: ``@`` and ``kron`` take only the shared
instance, by object in O(1), so ``A @ A.inverse()`` goes through the
product. What crossmod stores for reuse (the algebra's ``rho`` and ``phi``
blocks, the evaluator's pieces) goes through ``interned``, the one place
that compares entries with an identity's, which swaps an equal matrix for
the shared one.

Caller input takes one intake rule: the public constructor
``Matrix(field, data, cols)`` copies and validates its data, and it and
every entry point that takes a caller's vector (``apply``, ``solve``,
``RowSpace.reduce`` and ``RowSpace.add``) put each entry through
``field.of``, which makes it canonical and refuses any other type, such as
a ``float``. A matrix this module builds itself (a product,
Kronecker product, transpose, identity or inverse), and the evaluator's
pieces, their integer matrices and divided results, are wrapped as they
are by the private ``Matrix._of``: their rows are canonical tuples of one length.
"""

from __future__ import annotations


class SingularMatrixError(ValueError):
    """Raised when inverting a singular (or non-square) matrix."""


# (field name, n) -> the shared n x n identity over the field, kept once it
# is built; equal fields have one name, and a str key hashes with no call
# into the field's own __hash__
_IDENTITIES: dict = {}


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
        """The n x n identity over field: one shared instance per (field, n),
        built the first time it is asked for and never mutated."""
        m = _IDENTITIES.get((field.name, n))
        if m is None:
            z, o = field.zero, field.one
            m = _IDENTITIES[(field.name, n)] = cls._of(
                field, tuple([tuple([o if i == j else z for j in range(n)])
                              for i in range(n)]), n)
        return m

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
        """Whether this is the shared identity of its size, by object in
        O(1); an equal matrix built otherwise is not (see `interned`)."""
        return _IDENTITIES.get((self.field.name, self.rows)) is self

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
        f = self.field
        return f.combine(self.rows, zip(map(f.of, vec), zip(*self.data)))

    def transpose(self) -> "Matrix":
        return Matrix.from_columns(self.field, self.data, self.cols)

    def _eliminate(self, extra):
        """Gauss-Jordan reduction of [A | extra], pivoting on the columns of A
        only (`extra` holds the appended entries of each row), one `combine`
        per row operation; a pivot row whose pivot is one is not scaled.
        Returns the reduced rows and the pivot columns."""
        f = self.field
        work = [(*row, *more) for row, more in zip(self.data, extra, strict=True)]
        pivots = []
        for col in range(self.cols):
            r = len(pivots)
            pivot = next((k for k in range(r, self.rows)
                          if not f.is_zero(work[k][col])), None)
            if pivot is None:
                continue
            top, work[pivot] = work[pivot], work[r]
            if top[col] != f.one:
                top = f.combine(len(top), [(f.div(f.one, top[col]), top)])
            work[r] = top
            for k in range(self.rows):
                if k != r and not f.is_zero(work[k][col]):
                    work[k] = f.combine(len(top), [(f.one, work[k]), (f.neg(work[k][col]), top)])
            pivots.append(col)
        return work, pivots

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise SingularMatrixError("cannot invert non-square matrix")
        n = self.rows
        work, pivots = self._eliminate(Matrix.identity(self.field, n).data)
        if len(pivots) < n:
            raise SingularMatrixError("matrix is singular")
        return Matrix._of(self.field, tuple([row[n:] for row in work]), n)

    def solve(self, b):
        """One solution x of A x = b, or None if the system is inconsistent."""
        f = self.field
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        work, pivots = self._eliminate([(x,) for x in map(f.of, b)])
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
        The shared 1x1 identity on the left returns the right factor itself,
        and two shared identities give the shared identity of their product
        size. A block scaled by 0 is the zero block and one scaled by 1 is
        the right factor's row as it is; only other blocks are multiplied."""
        f = self.field
        if self._is_identity() and (self.rows == 1 or other._is_identity()):
            return other if self.rows == 1 else Matrix.identity(f, self.rows * other.rows)
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


def interned(m: Matrix) -> Matrix:
    """The shared ``Matrix.identity`` of m's size if m equals it, else m
    itself: the one place that compares a matrix's entries with an
    identity's."""
    if m.rows != m.cols:
        return m
    ident = Matrix.identity(m.field, m.rows)
    return ident if m.data == ident.data else m


def unit_vector(field, n: int, i: int):
    return tuple(field.one if j == i else field.zero for j in range(n))


class RowSpace:
    """A subspace of K^n kept in reduced row-echelon form: `basis` holds the
    rows and `pivots` their pivot columns. Supports incremental insertion
    and reduction."""

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
        vec = tuple(map(f.of, vec))
        if len(vec) != self.n:
            raise ValueError("vector length mismatch")
        return f.combine(self.n, [(f.one, vec), *((f.neg(vec[p]), row)
                                                  for row, p in zip(self.basis, self.pivots))])

    def add(self, vec) -> bool:
        """Insert a vector; returns True if the space grew. A vector in the
        span reduces to zero and changes nothing. Otherwise [basis; residue]
        spans what [basis; vec] spans, and its reduced row-echelon form is
        unique, so re-reducing it keeps the basis canonical."""
        residue = self.reduce(vec)
        if not any(residue):
            return False
        rows = self.basis + [residue]
        work, pivots = Matrix._of(self.field, tuple(rows), self.n)._eliminate([()] * len(rows))
        self.basis = work[:len(pivots)]
        self.pivots = pivots
        return True
