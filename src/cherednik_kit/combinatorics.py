"""Partitions, r-partitions, compositions, permutations, tableaux, and the
orders among them.

Conventions:

- A partition is a tuple of positive integers in non-increasing order; the
  empty partition is ().  Trailing zeros are normalized away on construction.
- Boxes are addressed (component, row, column), all of row/column 1-based;
  iteration order is always lexicographic in (component, row, column).
- Permutations of {1..n} are tuples (w(1), ..., w(n)).
- Compositions are tuples of non-negative integers of a fixed length.

Text formats (used by the CLI):

- multipartition: components joined by '|', each a comma list, empty
  component = empty string (e.g. '3,3,1|2,1||5,5,2,1').
- tableau / shape assignment: like a multipartition but rows joined by '/'
  inside each component (e.g. '1,3,4/8,9|2,6/5,7').
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

Partition = tuple[int, ...]
Composition = tuple[int, ...]
Permutation = tuple[int, ...]


# ---------------------------------------------------------------------------
# partitions


def as_partition(parts: Sequence[int]) -> Partition:
    """Normalize (drop trailing zeros) and validate a partition."""
    parts = tuple(int(x) for x in parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError(f"not non-increasing: {parts}")
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part: {parts}")
    return parts


def conjugate(part: Partition) -> Partition:
    """Conjugate partition: column counts of the diagram."""
    if not part:
        return ()
    return tuple(sum(1 for x in part if x >= j) for j in range(1, part[0] + 1))


def _partitions(total: int, cap: int) -> Iterator[Partition]:
    """The partitions of total with parts at most cap, in descending
    lexicographic order."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in descending lexicographic order ((n) first)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return list(_partitions(n, n))


# ---------------------------------------------------------------------------
# multipartitions and boxes


@dataclass(frozen=True)
class BoxRef:
    component: int
    row: int
    column: int

    @property
    def content(self) -> int:
        return self.column - self.row

    def sort_key(self) -> tuple[int, int, int]:
        return (self.component, self.row, self.column)


@dataclass(frozen=True)
class MultiPartition:
    r: int
    components: tuple[Partition, ...]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be >= 1")
        comps = tuple(as_partition(c) for c in self.components)
        if len(comps) != self.r:
            raise ValueError(f"expected {self.r} components, got {len(comps)}")
        object.__setattr__(self, "components", comps)

    @classmethod
    def _valid(cls, r: int, components: tuple[Partition, ...]) -> "MultiPartition":
        """The r-partition of these components, already r partitions as
        tuples: built without the per-component check."""
        shape = object.__new__(cls)
        object.__setattr__(shape, "r", r)
        object.__setattr__(shape, "components", components)
        return shape

    @property
    def size(self) -> int:
        return sum(sum(c) for c in self.components)

    def boxes(self) -> list[BoxRef]:
        out = []
        for l, comp in enumerate(self.components):
            for i, row_len in enumerate(comp, start=1):
                for j in range(1, row_len + 1):
                    out.append(BoxRef(l, i, j))
        return out

    def contains(self, b: BoxRef) -> bool:
        if not (0 <= b.component < self.r and b.row >= 1 and b.column >= 1):
            return False
        comp = self.components[b.component]
        return b.row <= len(comp) and b.column <= comp[b.row - 1]

    def as_text(self) -> str:
        return "|".join(map(_partition_text, self.components))

    def __str__(self):
        return self.as_text()


@functools.lru_cache(maxsize=4096)
def _partition_text(part: Partition) -> str:
    """A partition as its comma list, rendered once per distinct partition
    (of the last 4,096): an r-partition's text joins r of them."""
    return ",".join(map(str, part))


def parse_int_list(text: str, name: str, form: str = "a comma list of integers",
                   whole: str | None = None) -> tuple[int, ...]:
    """The comma list `text` ('' is empty) as integers.  A token that is not
    one raises ValueError naming `name`, the form, and the input `whole`
    that `text` is a piece of (by default `text` itself)."""
    try:
        return tuple(int(v) for v in text.split(",")) if text else ()
    except ValueError:
        whole = text if whole is None else whole
        raise ValueError(f"{name} must be {form}, not {whole!r}") from None


def parse_partition(text: str, name: str = "partition") -> Partition:
    return as_partition(parse_int_list(text, name)) if text.strip() else ()


def parse_multipartition(text: str, r: int | None = None, name: str = "shape") -> MultiPartition:
    form = "comma lists of integers joined by '|'"
    comps = tuple(as_partition(parse_int_list(tok, name, form, text)) if tok.strip() else ()
                  for tok in text.split("|"))
    if r is not None:
        if len(comps) == 1 and not comps[0] and r > 1:
            comps = ((),) * r
        if len(comps) != r:
            raise ValueError(f"shape {text!r} has {len(comps)} components, expected {r}")
    return MultiPartition(len(comps), comps)


def _splits(total: int, slots: int) -> Iterator[list[tuple[int, int]]]:
    """The compositions of total into slots >= 1 non-negative parts, in
    lexicographically decreasing order, each as its nonzero parts, a list of
    (slot, part) in slot order.  The next one moves a unit out of the last
    nonzero part before the final slot into the slot after it, together with
    the final part; `filled` lists the slots of those parts, so a step costs
    O(1) beyond the parts it yields."""
    parts, last = [total] + [0] * (slots - 1), slots - 1
    filled = [0] if total and last else []
    while True:
        yield [(k, parts[k]) for k in filled] + ([(last, parts[last])] if parts[last] else [])
        if not filled:
            return
        p = filled[-1]
        parts[p] -= 1
        if not parts[p]:
            filled.pop()
        moved, parts[last] = parts[last] + 1, 0
        if p + 1 < last:
            parts[p + 1] = moved
            filled.append(p + 1)
        else:
            parts[last] = moved


def enumerate_multipartitions(r: int, n: int) -> list[MultiPartition]:
    """All r-partitions of n, deterministic order (component sizes in
    lexicographically decreasing order, partitions of each size in descending
    lex order, leftmost component slowest).  Only the nonzero sizes are
    expanded: a shape costs O(n) steps and one tuple of its r components."""
    if r < 1 or n < 0:
        raise ValueError("need r >= 1, n >= 0")
    choices = functools.cache(partitions_of)   # each size met, once
    out = []
    for parts in _splits(n, r):
        comps = [()] * r
        for picked in itertools.product(*(choices(size) for _, size in parts)):
            for (k, _), part in zip(parts, picked):
                comps[k] = part
            out.append(MultiPartition._valid(r, tuple(comps)))
    return out


# ---------------------------------------------------------------------------
# permutations (one-line notation on {1..n})


def perm_inverse(w: Permutation) -> Permutation:
    inv = [0] * len(w)
    for i, wi in enumerate(w, start=1):
        inv[wi - 1] = i
    return tuple(inv)


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Bruhat order via the rank-matrix criterion:
    u <= w iff |{a<=i : u(a) >= j}| <= |{a<=i : w(a) >= j}| for all i, j."""
    n = len(u)
    if len(w) != n:
        raise ValueError("length mismatch")
    for i in range(1, n):
        for a, b in zip(sorted(u[:i]), sorted(w[:i])):
            if a > b:
                return False
    return True


def simple_transposition(n: int, i: int) -> Permutation:
    """s_i swapping i and i+1 (1 <= i <= n-1)."""
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """A reduced word for w (bubble-sort: w = s_{i_1} ... s_{i_p})."""
    w = list(w)
    n = len(w)
    word = []
    # repeatedly remove descents from the right of the one-line word
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                word.append(i + 1)
                changed = True
    word.reverse()
    return tuple(word)


def sorting_data(mu: Sequence[int]) -> tuple[Partition, Composition, Permutation, Permutation]:
    """(mu+, mu-, w_mu, r_mu) for a composition mu.

    w_mu is the longest permutation with w_mu.mu = mu- (non-decreasing
    rearrangement), given entrywise by
        w_mu(i) = #{j < i : mu_j < mu_i} + #{j >= i : mu_j <= mu_i},
    and r_mu is the rank function, w_mu(i) + r_mu(i) = n + 1.
    """
    mu = tuple(int(x) for x in mu)
    if any(x < 0 for x in mu):
        raise ValueError("composition entries must be >= 0")
    n = len(mu)
    mu_plus = tuple(sorted(mu, reverse=True))
    mu_minus = tuple(sorted(mu))
    w = sorting_permutation(mu)
    r = tuple(n + 1 - wi for wi in w)
    return as_partition(mu_plus), mu_minus, w, r


def sorting_permutation(mu: tuple[int, ...]) -> Permutation:
    """w_mu of sorting_data alone, for a tuple of integers mu."""
    # w_mu(i) is the place of i when the indices are sorted by mu_i, equal
    # entries latest index first: a stable sort of the reversed indices
    w = [0] * len(mu)
    for place, i in enumerate(sorted(range(len(mu) - 1, -1, -1), key=mu.__getitem__), start=1):
        w[i] = place
    return tuple(w)


# ---------------------------------------------------------------------------
# dominance and the composition order


class Comparison(Enum):
    EQUAL = "equal"
    GREATER = "greater"
    LESS = "less"
    INCOMPARABLE = "incomparable"


def dominance_compare(lam: Partition, chi: Partition) -> Comparison:
    """Dominance order on partitions of the same size, by partial sums."""
    lam, chi = as_partition(lam), as_partition(chi)
    if sum(lam) != sum(chi):
        raise ValueError("dominance compares partitions of equal size")
    if lam == chi:
        return Comparison.EQUAL
    m = max(len(lam), len(chi))
    ge = le = True
    sa = sb = 0
    for i in range(m):
        sa += lam[i] if i < len(lam) else 0
        sb += chi[i] if i < len(chi) else 0
        if sa < sb:
            ge = False
        if sa > sb:
            le = False
    if ge:
        return Comparison.GREATER
    if le:
        return Comparison.LESS
    return Comparison.INCOMPARABLE


def partition_contents(lam: Partition) -> list[int]:
    return [j - i for i, row in enumerate(lam, start=1) for j in range(1, row + 1)]


def dominance_via_contents(lam: Partition, chi: Partition) -> bool:
    """lam >= chi iff for every j, lam has at least as many boxes of content
    >= j as chi does."""
    lam, chi = as_partition(lam), as_partition(chi)
    if sum(lam) != sum(chi):
        raise ValueError("dominance compares partitions of equal size")
    ca, cb = partition_contents(lam), partition_contents(chi)
    thresholds = set(ca) | set(cb)
    return all(
        sum(1 for c in ca if c >= j) >= sum(1 for c in cb if c >= j)
        for j in thresholds
    )


def composition_compare(mu: Sequence[int], nu: Sequence[int]) -> Comparison:
    """mu > nu iff mu+ strictly dominates nu+, or mu+ = nu+ and
    w_mu > w_nu in Bruhat order."""
    mu, nu = tuple(mu), tuple(nu)
    if len(mu) != len(nu):
        raise ValueError("compositions must have equal length")
    if mu == nu:
        return Comparison.EQUAL
    mu_plus, _, w_mu, _ = sorting_data(mu)
    nu_plus, _, w_nu, _ = sorting_data(nu)
    if sum(mu) != sum(nu):
        raise ValueError("compositions must have equal size")
    if mu_plus != nu_plus:
        return dominance_compare(mu_plus, nu_plus)
    if bruhat_leq(w_nu, w_mu):
        return Comparison.GREATER
    if bruhat_leq(w_mu, w_nu):
        return Comparison.LESS
    return Comparison.INCOMPARABLE


# ---------------------------------------------------------------------------
# tableaux


@dataclass(frozen=True)
class StandardTableau:
    """A bijective filling of an r-partition with 1..n, increasing along rows
    and down columns within each component."""

    shape: MultiPartition
    entries: tuple[tuple[tuple[int, ...], ...], ...]  # entries[comp][row][col]

    def __post_init__(self):
        if len(self.entries) != self.shape.r:
            raise ValueError(f"expected {self.shape.r} components, got {len(self.entries)}")
        seen = set()
        n = self.shape.size
        for l, comp in enumerate(self.shape.components):
            rows = self.entries[l]
            if len(rows) != len(comp):
                raise ValueError("entry rows do not match shape")
            for i, row_len in enumerate(comp):
                if len(rows[i]) != row_len:
                    raise ValueError("entry row length mismatch")
                for j in range(row_len):
                    v = rows[i][j]
                    if not (1 <= v <= n) or v in seen:
                        raise ValueError("entries must biject onto 1..n")
                    seen.add(v)
                    if j > 0 and rows[i][j - 1] >= v:
                        raise ValueError("rows must increase")
                    if i > 0 and j < len(rows[i - 1]) and rows[i - 1][j] >= v:
                        raise ValueError("columns must increase")

    @functools.cached_property
    def _boxes(self) -> tuple[BoxRef, ...]:
        """The box of each value 1..n, in order."""
        boxes = {v: BoxRef(l, i, j) for l, rows in enumerate(self.entries)
                 for i, row in enumerate(rows, start=1) for j, v in enumerate(row, start=1)}
        return tuple(boxes[v] for v in range(1, len(boxes) + 1))

    def box_of(self, value: int) -> BoxRef:
        if not 1 <= value <= len(self._boxes):
            raise ValueError(f"value {value} not present")
        return self._boxes[value - 1]

    def swap_adjacent(self, i: int) -> "StandardTableau":
        """The tableau with entries i and i+1 exchanged."""
        b, b2 = self.box_of(i), self.box_of(i + 1)
        rows = [list(map(list, comp)) for comp in self.entries]
        rows[b.component][b.row - 1][b.column - 1] = i + 1
        rows[b2.component][b2.row - 1][b2.column - 1] = i
        return StandardTableau(self.shape, tuple(
            tuple(tuple(row) for row in comp) for comp in rows))

    def as_text(self) -> str:
        return _filling_text(self.entries)

    def __str__(self):
        return self.as_text()


def _filling_text(filling: tuple[tuple[tuple[int, ...], ...], ...]) -> str:
    """entries[comp][row][col] as tableau / shape assignment text."""
    return "|".join(
        "/".join(",".join(str(v) for v in row) for row in comp)
        for comp in filling
    )


def _parse_filling(text: str, name: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Tableau / shape assignment text as entries[comp][row][col]."""
    form = "comma lists of integers, rows joined by '/' and components by '|'"
    return tuple(
        tuple(parse_int_list(row, name, form, text) for row in (tok.split("/") if tok else ()))
        for tok in text.split("|")
    )


def parse_tableau(text: str, shape: MultiPartition, name: str = "tableau") -> StandardTableau:
    return StandardTableau(shape, _parse_filling(text, name))


def _place(shape: MultiPartition, filling: list[list[list[int]]], value: int,
           out: list[StandardTableau]) -> None:
    """Append to out every standard tableau that completes the partial
    filling (filling[comp][row] lists the entries 1..value-1 so far), putting
    value into each addable box in lex box order."""
    if value > shape.size:
        out.append(StandardTableau(shape, tuple(
            tuple(tuple(row) for row in comp) for comp in filling)))
        return
    for comp, rows in zip(shape.components, filling):
        for i, row_len in enumerate(comp):
            cur = len(rows[i])
            if cur < row_len and (i == 0 or len(rows[i - 1]) > cur):
                rows[i].append(value)
                _place(shape, filling, value + 1, out)
                rows[i].pop()


def enumerate_syt(shape: MultiPartition) -> list[StandardTableau]:
    """All standard Young tableaux on an r-partition, placing 1..n in lex box
    order of the growing sub-shape (deterministic)."""
    out: list[StandardTableau] = []
    _place(shape, [[[] for _ in comp] for comp in shape.components], 1, out)
    return out


# ---------------------------------------------------------------------------
# shape assignments S = S(mu, T)


@dataclass(frozen=True)
class ShapeAssignment:
    """A filling of an r-partition with non-negative integers, weakly
    increasing along rows and down columns."""

    shape: MultiPartition
    values: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if len(self.values) != self.shape.r:
            raise ValueError(f"expected {self.shape.r} components, got {len(self.values)}")
        for l, comp in enumerate(self.shape.components):
            rows = self.values[l]
            if len(rows) != len(comp) or any(len(rows[i]) != comp[i] for i in range(len(comp))):
                raise ValueError("values do not match shape")
            for i, row in enumerate(rows):
                for j, v in enumerate(row):
                    if v < 0:
                        raise ValueError("values must be >= 0")
                    if j > 0 and row[j - 1] > v:
                        raise ValueError("rows must weakly increase")
                    if i > 0 and rows[i - 1][j] > v:
                        raise ValueError("columns must weakly increase")

    def value(self, b: BoxRef) -> int:
        return self.values[b.component][b.row - 1][b.column - 1]

    def is_column_strict(self) -> bool:
        """Strictly increasing down columns (rows stay weakly increasing)."""
        for rows in self.values:
            for i in range(1, len(rows)):
                for j in range(len(rows[i])):
                    if rows[i - 1][j] >= rows[i][j]:
                        return False
        return True

    def satisfies_residues(self) -> bool:
        """S(b) = beta(b) mod r for every box."""
        r = self.shape.r
        return all(self.value(b) % r == b.component % r for b in self.shape.boxes())

    def as_text(self) -> str:
        return _filling_text(self.values)

    def __str__(self):
        return self.as_text()


def parse_assignment(text: str, shape: MultiPartition, name: str = "filling") -> ShapeAssignment:
    return ShapeAssignment(shape, _parse_filling(text, name))


def shape_assignment(mu: Sequence[int], T: StandardTableau) -> ShapeAssignment:
    """S(b) = mu_{w_mu^{-1}(T(b))}."""
    mu = tuple(mu)
    if len(mu) != T.shape.size:
        raise ValueError("composition length must equal shape size")
    _, _, w_mu, _ = sorting_data(mu)
    w_inv = perm_inverse(w_mu)
    values = tuple(
        tuple(
            tuple(mu[w_inv[T.entries[l][i][j] - 1] - 1] for j in range(len(T.entries[l][i])))
            for i in range(len(T.entries[l]))
        )
        for l in range(T.shape.r)
    )
    return ShapeAssignment(T.shape, values)


def assignment_pair(S: ShapeAssignment) -> tuple[Composition, StandardTableau]:
    """A non-decreasing composition mu and standard tableau T with
    shape_assignment(mu, T) = S.

    w_mu reverses each constant block of the non-decreasing mu, so boxes
    sharing an S-value are walked in reverse lex order; the resulting tableau
    entries then increase along rows, and the assignment round-trips.
    """
    boxes = sorted(
        S.shape.boxes(),
        key=lambda b: (S.value(b),) + tuple(-c for c in b.sort_key()),
    )
    mu = tuple(S.value(b) for b in boxes)
    _, _, w_mu, _ = sorting_data(mu)
    entries = [[[0] * row for row in comp] for comp in S.shape.components]
    for pos, b in enumerate(boxes, start=1):
        entries[b.component][b.row - 1][b.column - 1] = w_mu[pos - 1]
    T = StandardTableau(S.shape, tuple(
        tuple(tuple(row) for row in comp) for comp in entries))
    return mu, T
