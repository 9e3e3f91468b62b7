"""Finite poset and lattice toolkit.

Posets store a boolean order matrix plus opaque element labels; lattices add
meet and join tables, both built by one bit-packed join kernel.  On top of that
sit the structural checks used by the verification harness: irreducibles,
length, semidistributivity, principal congruences, congruence uniformity (by
Day's join-dependency criterion), congruence verification, quotients,
extremality, left modularity and trimness, plus JSON and DOT exports.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NotACongruenceError, NotALatticeError, NotAPartialOrderError


class FinitePoset:
    def __init__(self, labels: Sequence, leq: np.ndarray):
        self.labels = list(labels)
        self.leq = np.asarray(leq, dtype=bool)
        if self.leq.shape != (len(self.labels), len(self.labels)):
            raise ValueError("order matrix shape does not match element count")

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def from_leq(
        cls,
        labels: Sequence,
        leq: Callable[[object, object], bool] | np.ndarray,
        validate: bool = True,
    ) -> "FinitePoset":
        if callable(leq):
            m = len(labels)
            matrix = np.zeros((m, m), dtype=bool)
            for a in range(m):
                for b in range(m):
                    matrix[a, b] = leq(labels[a], labels[b])
        else:
            matrix = np.asarray(leq, dtype=bool)
        poset = cls(labels, matrix)
        if validate:
            poset._validate()
        return poset

    def _validate(self):
        leq = self.leq
        if not leq.diagonal().all():
            a = int(np.flatnonzero(~leq.diagonal())[0])
            raise NotAPartialOrderError("relation is not reflexive", (a,))
        sym = leq & leq.T & ~np.eye(self.n, dtype=bool)
        if sym.any():
            a, b = map(int, np.argwhere(sym)[0])
            raise NotAPartialOrderError("relation is not antisymmetric", (a, b))
        closure = leq @ leq
        gaps = closure & ~leq
        if gaps.any():
            a, c = map(int, np.argwhere(gaps)[0])
            b = int(np.flatnonzero(leq[a] & leq[:, c])[0])
            raise NotAPartialOrderError("relation is not transitive", (a, b, c))

    @cached_property
    def covers(self) -> np.ndarray:
        """covers[a, b] is True when b covers a."""
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        # float32 counts paths exactly (below 2**24 elements) and runs on BLAS.
        paths = lt.astype(np.float32)
        return lt & ~((paths @ paths) > 0)

    def cover_pairs(self) -> list[tuple[int, int]]:
        return [tuple(map(int, ab)) for ab in np.argwhere(self.covers)]

    @cached_property
    def heights(self) -> np.ndarray:
        """Length of the longest chain ending at each element."""
        order = np.argsort(self.leq.sum(axis=0), kind="stable")
        h = np.zeros(self.n, dtype=np.int64)
        covers = self.covers
        for x in order:
            below = np.flatnonzero(covers[:, x])
            if below.size:
                h[x] = h[below].max() + 1
        return h

    def length(self) -> int:
        return int(self.heights.max()) if self.n else 0


class FiniteLattice:
    """A poset together with its dense meet and join tables."""

    def __init__(self, poset: FinitePoset, meet: np.ndarray, join: np.ndarray):
        self.poset = poset
        self._meet = meet
        self._join = join

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def labels(self) -> list:
        return self.poset.labels

    @property
    def leq(self) -> np.ndarray:
        return self.poset.leq

    @cached_property
    def bottom(self) -> int:
        return int(np.flatnonzero(self.leq.all(axis=1))[0])

    @cached_property
    def top(self) -> int:
        return int(np.flatnonzero(self.leq.all(axis=0))[0])

    def meet_table(self) -> np.ndarray:
        return self._meet

    def join_table(self) -> np.ndarray:
        return self._join

    def meet(self, a: int, b: int) -> int:
        return int(self._meet[a, b])

    def join(self, a: int, b: int) -> int:
        return int(self._join[a, b])

    def dual(self) -> "FiniteLattice":
        dual_poset = FinitePoset(self.labels, self.leq.T)
        dual_poset.covers = self.poset.covers.T
        return FiniteLattice(dual_poset, self._join, self._meet)

    @cached_property
    def _semidistributivity_witness(self):
        return _semidistributivity_scan(self)


# Each block of the join kernel keeps its temporaries near this many bytes.
_JOIN_BLOCK_BYTES = 2**18
# Leading zero bits of each byte; 0 for an empty byte, whose candidate then fails.
_LEADING_ZEROS = np.array([(8 - v.bit_length()) % 8 for v in range(256)], dtype=np.intp)


def _join_kernel(leq: np.ndarray, order: np.ndarray):
    """Join table of ``leq``, or None and the first pair, row-major, with no join.

    Up-sets are bit rows over the linear extension ``order``, so the join of a
    and b is the first set bit of up[a] & up[b] when its own row equals the AND.
    """
    m = len(order)
    bits = np.pad(leq[:, order], ((0, 0), (0, -m % 64)))
    up = np.ascontiguousarray(np.packbits(bits, axis=1)).view(np.uint64)
    table = np.empty((m, m), dtype=np.int32)
    step = max(1, _JOIN_BLOCK_BYTES // (up.nbytes + 1))
    for lo in range(0, m, step):
        common = up[lo:lo + step, None, :] & up[None, :, :]
        word = (common != 0).argmax(axis=2)
        first = np.take_along_axis(common, word[..., None], axis=2).view(np.uint8)
        byte = (first != 0).argmax(axis=2)
        bit = _LEADING_ZEROS[np.take_along_axis(first, byte[..., None], axis=2)[..., 0]]
        cand = order[64 * word + 8 * byte + bit]
        bad = (up[cand] != common).any(axis=2)
        if bad.any():
            a, b = np.argwhere(bad)[0]
            return None, (lo + int(a), int(b))
        table[lo:lo + step] = cand
    return table, None


def try_lattice(poset: FinitePoset) -> FiniteLattice:
    """Build meet and join tables, or raise NotALatticeError with a witness pair.

    Meets are joins of the dual order.  The witness has the smallest failing
    element first, joins before meets, then its smallest partner.
    """
    # x < y makes up(x) larger than up(y): larger up-sets first is a linear
    # extension, and its reverse extends the dual.
    order = np.argsort(-poset.leq.sum(axis=1), kind="stable")
    join, no_lub = _join_kernel(poset.leq, order)
    meet, no_glb = _join_kernel(poset.leq.T, order[::-1])
    if no_lub and not (no_glb and no_glb[0] < no_lub[0]):
        raise NotALatticeError(no_lub, "no-lub")
    if no_glb:
        raise NotALatticeError(no_glb, "no-glb")
    return FiniteLattice(poset, meet, join)


# -- irreducibles and basic statistics ----------------------------------------


def join_irreducibles(lat: FiniteLattice) -> list[int]:
    """Indices of elements with exactly one lower cover."""
    return [int(x) for x in np.flatnonzero(lat.poset.covers.sum(axis=0) == 1)]


def meet_irreducibles(lat: FiniteLattice) -> list[int]:
    return [int(x) for x in np.flatnonzero(lat.poset.covers.sum(axis=1) == 1)]


def lower_cover(lat: FiniteLattice, j: int) -> int:
    below = np.flatnonzero(lat.poset.covers[:, j])
    if below.size != 1:
        raise ValueError(f"element {j} is not join-irreducible")
    return int(below[0])


def length(obj) -> int:
    poset = obj.poset if isinstance(obj, FiniteLattice) else obj
    return poset.length()


# -- semidistributivity --------------------------------------------------------


def semidistributivity_witness(lat: FiniteLattice):
    """A triple violating one of the semidistributive laws, or None.

    The scan runs once per lattice; later calls read the kept result.
    """
    return lat._semidistributivity_witness


def _semidistributivity_scan(lat: FiniteLattice):
    meet = lat.meet_table()
    join = lat.join_table()
    for table, other, name in ((join, meet, "join"), (meet, join, "meet")):
        for p in range(lat.n):
            row = table[p]
            equal = row[:, None] == row[None, :]
            target = row[other]
            bad = equal & (row[:, None] != target)
            if bad.any():
                q, r = map(int, np.argwhere(bad)[0])
                return (name, p, q, r)
    return None


def is_semidistributive(lat: FiniteLattice) -> bool:
    return semidistributivity_witness(lat) is None


# -- congruences ---------------------------------------------------------------


class Partition:
    """A partition of lattice indices, hashable up to block order."""

    def __init__(self, block_of: Sequence[int]):
        relabel: dict[int, int] = {}
        canon = []
        for b in block_of:
            relabel.setdefault(b, len(relabel))
            canon.append(relabel[b])
        self.block_of = tuple(canon)
        blocks: dict[int, list[int]] = {}
        for x, b in enumerate(self.block_of):
            blocks.setdefault(b, []).append(x)
        self.blocks = tuple(tuple(members) for _, members in sorted(blocks.items()))

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int) -> "Partition":
        block_of = [-1] * n
        for b, members in enumerate(blocks):
            for x in members:
                if block_of[x] != -1:
                    raise ValueError(f"element {x} listed twice")
                block_of[x] = b
        if any(b == -1 for b in block_of):
            raise ValueError("partition does not cover all elements")
        return cls(block_of)

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls(range(n))

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.block_of == other.block_of

    def __hash__(self) -> int:
        return hash(self.block_of)

    def __len__(self) -> int:
        return len(self.blocks)

    def refines(self, other: "Partition") -> bool:
        seen = {}
        for x, b in enumerate(self.block_of):
            o = other.block_of[x]
            if seen.setdefault(b, o) != o:
                return False
        return True


def congruence_closure(
    lat: FiniteLattice, pairs: Iterable[tuple[int, int]]
) -> Partition:
    """Finest congruence identifying all the given pairs, by closure."""
    meet = lat.meet_table()
    join = lat.join_table()
    parent = list(range(lat.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = list(pairs)
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[rx] = ry
        for z in range(lat.n):
            jx, jy = int(join[x, z]), int(join[y, z])
            if find(jx) != find(jy):
                queue.append((jx, jy))
            mx, my = int(meet[x, z]), int(meet[y, z])
            if find(mx) != find(my):
                queue.append((mx, my))
    return Partition([find(x) for x in range(lat.n)])


def principal_congruence(lat: FiniteLattice, a: int, b: int) -> Partition:
    """Finest congruence in which a and b are congruent."""
    return congruence_closure(lat, [(a, b)])


def all_congruences(lat: FiniteLattice) -> list[Partition]:
    """Every congruence, generated by joining principal cover congruences."""
    principals = {
        congruence_closure(lat, [pair]) for pair in lat.poset.cover_pairs()
    }
    found = {Partition.discrete(lat.n)} | principals
    frontier = list(found)
    while frontier:
        theta = frontier.pop()
        for gen in principals:
            merged = congruence_closure(
                lat,
                [(blk[0], x) for blk in theta.blocks for x in blk[1:]]
                + [(blk[0], x) for blk in gen.blocks for x in blk[1:]],
            )
            if merged not in found:
                found.add(merged)
                frontier.append(merged)
    return sorted(found, key=lambda p: (len(p.blocks), p.block_of), reverse=True)


def check_congruence(lat: FiniteLattice, partition: Partition):
    """Verify the interval and order-preservation conditions; returns (ok, why)."""
    if len(partition.block_of) != lat.n:
        return False, "partition size does not match the lattice"
    leq = lat.leq
    mins = np.empty(len(partition.blocks), dtype=np.int64)
    maxs = np.empty(len(partition.blocks), dtype=np.int64)
    for b, members in enumerate(partition.blocks):
        lo = members[0]
        hi = members[0]
        for x in members[1:]:
            lo = lat.meet(lo, x)
            hi = lat.join(hi, x)
        interval = np.flatnonzero(leq[lo] & leq[:, hi])
        if set(map(int, interval)) != set(members):
            return False, f"class {b} is not an interval"
        mins[b] = lo
        maxs[b] = hi
    block_of = np.asarray(partition.block_of)
    for a, b in lat.poset.cover_pairs():
        if not leq[mins[block_of[a]], mins[block_of[b]]]:
            return False, "class-minimum map is not order preserving"
        if not leq[maxs[block_of[a]], maxs[block_of[b]]]:
            return False, "class-maximum map is not order preserving"
    return True, None


def quotient_lattice(lat: FiniteLattice, partition: Partition) -> FiniteLattice:
    """Lattice on congruence-class minima, ordered as in the original."""
    ok, why = check_congruence(lat, partition)
    if not ok:
        raise NotACongruenceError(why)
    mins = []
    for members in partition.blocks:
        lo = members[0]
        for x in members[1:]:
            lo = lat.meet(lo, x)
        mins.append(lo)
    mins = sorted(mins)
    leq = lat.leq[np.ix_(mins, mins)]
    poset = FinitePoset([lat.labels[x] for x in mins], leq)
    return try_lattice(poset)


def _lower_bounded(lat: FiniteLattice) -> bool:
    """No cycle of join dependencies: j D k if j != k, j <= k v x, j !<= k_* v x."""
    irr = join_irreducibles(lat)
    join, below = lat.join_table(), lat.leq[irr]
    dep = np.zeros((len(irr), len(irr)), dtype=bool)
    for col, k in enumerate(irr):
        low = join[lower_cover(lat, k)]
        dep[:, col] = (below[:, join[k]] & ~below[:, low]).any(axis=1)
    np.fill_diagonal(dep, False)
    alive = np.ones(len(irr), dtype=bool)
    while (sinks := alive & ~dep[:, alive].any(axis=1)).any():
        alive &= ~sinks
    return not alive.any()


def is_congruence_uniform(lat: FiniteLattice) -> bool:
    """Day's criterion: congruence uniform exactly when lower and upper bounded.

    A. Day, Canad. J. Math. 31 (1979); Freese, Ježek, Nation, Free Lattices, ch. II.
    """
    return _lower_bounded(lat) and _lower_bounded(lat.dual())


# -- extremality, left modularity, trimness -------------------------------------


def is_extremal(lat: FiniteLattice) -> bool:
    ln = lat.poset.length()
    return len(join_irreducibles(lat)) == ln == len(meet_irreducibles(lat))


def is_left_modular_element(lat: FiniteLattice, p: int) -> bool:
    """(r v p) ^ q = r v (p ^ q) for every r <= q."""
    meet = lat.meet_table()
    join = lat.join_table()
    lhs = meet[join[:, p]]
    rhs = join[:, meet[p]]
    return bool(((lhs == rhs) | ~lat.leq).all())


def has_left_modular_chain(lat: FiniteLattice) -> bool:
    """A maximal chain of length(L) + 1 left-modular elements exists."""
    modular = np.fromiter(
        (is_left_modular_element(lat, p) for p in range(lat.n)), dtype=bool
    )
    if not (modular[lat.bottom] and modular[lat.top]):
        return False
    covers = lat.poset.covers
    best = np.full(lat.n, -1, dtype=np.int64)
    best[lat.bottom] = 0
    order = np.argsort(lat.leq.sum(axis=0), kind="stable")
    for x in order:
        if not modular[x] or best[x] < 0:
            continue
        for y in np.flatnonzero(covers[x]):
            if modular[y]:
                best[y] = max(best[y], best[x] + 1)
    return best[lat.top] == lat.poset.length()


def is_trim(lat: FiniteLattice, verify_chain: bool = False) -> bool:
    """Extremal plus a left-modular maximal chain.

    Semidistributive lattices only need the extremality count; the explicit
    chain search runs for the rest, or additionally when verify_chain is set.
    """
    if not is_extremal(lat):
        return False
    if is_semidistributive(lat):
        return has_left_modular_chain(lat) if verify_chain else True
    return has_left_modular_chain(lat)


# -- exports --------------------------------------------------------------------


def lattice_to_json(obj, label_fn: Callable = str) -> dict:
    poset = obj.poset if isinstance(obj, FiniteLattice) else obj
    return {
        "elements": [label_fn(x) for x in poset.labels],
        "covers": [list(pair) for pair in sorted(poset.cover_pairs())],
    }


def lattice_to_dot(obj, label_fn: Callable = str, name: str = "lattice") -> str:
    """DOT digraph with edges a -> b for covers, ranked by height from the bottom."""
    poset = obj.poset if isinstance(obj, FiniteLattice) else obj
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for idx, label in enumerate(poset.labels):
        text = label_fn(label).replace('"', '\\"')
        lines.append(f'  n{idx} [label="{text}"];')
    for a, b in sorted(poset.cover_pairs()):
        lines.append(f"  n{a} -> n{b};")
    heights = poset.heights
    for level in range(poset.length() + 1):
        group = " ".join(f"n{int(x)};" for x in np.flatnonzero(heights == level))
        if group:
            lines.append(f"  {{ rank=same; {group} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"
