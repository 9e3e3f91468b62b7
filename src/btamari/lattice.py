"""Finite poset and lattice toolkit.

Posets store a boolean order matrix plus an array of element labels, one
entry per element (for the type-B orders, a right-part row); lattices add
meet and join tables, both built by one bit-packed join kernel.  It holds
the up-sets word major over a linear extension, finds each pair's first
common bit word by word, and accepts that candidate as the join when its
up-set is as large as the common one.  Covers are index pairs (lower,
upper).  A poset reads its own off one product of its strict order with
itself, row-major, the only m x m product here; the cover pairs that the
congruence checks take, such as the weak order's, may come in any order.
A lattice's ``meet`` and ``join`` tables are plain attributes.  Its
``dual`` is built once, on the same arrays with the pairs swapped, and
holds no reference back, so no cycle outlives the lattice; its
``irreducibles``, the join-irreducibles and their lower covers, are found
once, and the meet-irreducibles are the dual's.  On top of that sit the
structural checks used by the verification harness: length,
semidistributivity, congruence uniformity (by Day's join-dependency
criterion, from bit words of the irreducibles below each element), the
congruence test on bit words and cover pairs (so that the weak order needs
no matrix) and the quotient order on the class minima it finds, left
modularity in one pass over the covers, plus JSON and DOT exports.  Every
blocked pass, here and in the callers, sizes its blocks by one rule,
``blocks``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import NotALatticeError


class FinitePoset:
    def __init__(self, labels: Sequence, leq: np.ndarray):
        self.labels = np.asarray(labels)
        self.leq = np.asarray(leq, dtype=bool)
        if self.leq.shape != (len(self.labels), len(self.labels)):
            raise ValueError("order matrix shape does not match element count")

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def covers(self) -> tuple[np.ndarray, np.ndarray]:
        """The cover pairs: ``upper[k]`` covers ``lower[k]``, row-major."""
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        # float32 counts paths exactly (below 2**24 elements) and runs on BLAS.
        paths = lt.astype(np.float32)
        return np.nonzero(lt & ~((paths @ paths) > 0))

    @cached_property
    def heights(self) -> np.ndarray:
        """Length of the longest chain ending at each element."""
        return self._chain_heights(*self.covers)

    def _chain_heights(self, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """Length of the longest chain of the given cover pairs ending at each element.

        One pass over a linear extension, down-set sizes ascending: each
        element's height is 1 + the largest height among its lower covers
        in the pairs, all of which come earlier.  The pairs are taken in
        that order of their upper ends, O(m + pairs) steps in all.
        """
        order = np.argsort(self.leq.sum(axis=0)[upper], kind="stable")
        h = [0] * self.n
        for a, b in zip(lower[order].tolist(), upper[order].tolist()):
            if h[a] >= h[b]:
                h[b] = h[a] + 1
        return np.array(h, dtype=np.int64)

    def length(self) -> int:
        return int(self.heights.max()) if self.n else 0


class FiniteLattice(FinitePoset):
    """A poset together with its dense meet and join tables."""

    def __init__(
        self, labels: Sequence, leq: np.ndarray, meet: np.ndarray, join: np.ndarray
    ):
        super().__init__(labels, leq)
        self.meet = meet
        self.join = join

    @cached_property
    def dual(self) -> "FiniteLattice":
        """The dual lattice, built once and kept.

        It shares this lattice's arrays, transposed or swapped, but holds no
        reference back to it, so a lattice is freed as soon as its last
        reference goes, with no cycle left for the collector.
        """
        dual = FiniteLattice(self.labels, self.leq.T, self.join, self.meet)
        dual.covers = self.covers[::-1]
        return dual

    @cached_property
    def irreducibles(self) -> tuple[np.ndarray, np.ndarray]:
        """The join-irreducibles, by index, and the unique lower cover of each.

        Found once per lattice; the meet-irreducibles are the dual's.
        """
        lower, upper = self.covers
        irr = np.flatnonzero(np.bincount(upper, minlength=self.n) == 1)
        below = np.empty(self.n, dtype=np.intp)
        below[upper] = lower
        return irr, below[irr]


# Each block of a blocked table pass keeps its temporaries near this many bytes.
BLOCK_BYTES = 2**18


def blocks(count: int, item_bytes: int) -> list[slice]:
    """The one block rule: slices of ``range(count)``, in order, each of
    ``max(1, BLOCK_BYTES // (item_bytes + 1))`` items, so that a block of
    items of ``item_bytes`` bytes stays within BLOCK_BYTES unless one item
    alone is larger."""
    step = max(1, BLOCK_BYTES // (item_bytes + 1))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def pack_words(bits: np.ndarray) -> np.ndarray:
    """Boolean rows packed into (m, ceil(k / 64)) little-endian ``uint64`` words.

    Column c of a row is bit c % 64 of the row's word c // 64.
    """
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((len(packed), -(-packed.shape[1] // 8)), dtype="<u8")
    words.view(np.uint8)[:, :packed.shape[1]] = packed
    return words


def contained(words: np.ndarray) -> np.ndarray:
    """leq[a, b]: no bit of word row a lies outside word row b.

    The words are read in ``blocks`` of columns, and each block in blocks
    of rows; a pair's verdict is ANDed over the column blocks (rows of a
    few words, as up to n = 8, are one block).
    """
    m, width = words.shape
    leq = np.ones((m, m), dtype=bool)
    for c in blocks(width, words.itemsize * m):
        block = words[:, c]
        outside = ~block
        for r in blocks(m, outside.nbytes):
            leq[r] &= ~(block[r, None, :] & outside).any(axis=2)
    return leq


def _not_within(words: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per k, whether word row ``a[k]`` has a bit outside word row ``b[k]``.

    The pairs are read in ``blocks`` of word columns, and each in blocks of
    pairs, and a pair's verdict is ORed over the column blocks.  Pairs whose
    rows fit one block are one expression: the blocked loop was measurably
    slower on the many small calls of a verification.
    """
    if len(a) * words.shape[1] * words.itemsize <= BLOCK_BYTES:
        return (words[a] & ~words[b]).any(axis=1)
    outside = np.zeros(len(a), dtype=bool)
    for c in blocks(words.shape[1], words.itemsize):
        block = words[:, c]
        for p in blocks(len(a), block.itemsize * block.shape[1]):
            outside[p] |= (block[a[p]] & ~block[b[p]]).any(axis=1)
    return outside


def _join_kernel(leq: np.ndarray, order: np.ndarray):
    """Join table of ``leq``, or None and the first pair, row-major, with no join.

    Element ``order[r]`` has rank r, and up-sets are bit rows over the ranks,
    held word major: ``up[w, r]`` is word w of the up-set of rank r, and
    rank s is bit s % 64 of word s // 64.  The join of a and b is the first
    set bit of their common up-set.  That candidate lies in the common set,
    so its own up-set lies inside it, and it is the join exactly when the
    two sets have the same size.

    Rows are taken by rank, in ``blocks``, and each word is one flat
    (rows x m) pass, in ascending order: it ANDs the two up-sets, adds the
    popcount of the common word, and keeps the first nonzero one.  Up-sets
    rank their members no lower than their element, so a block's passes
    start at its lowest rank's word; the words below are zero.  The first
    set bit is the lowest bit of the first nonzero word x: ``x ^ (x - 1)``
    keeps the bits up to it, so its popcount is one past that bit's rank.
    A pair with no common upper bound has no nonzero word, and its
    candidate falls past the last element, where no size matches.
    """
    m = len(order)
    up = np.ascontiguousarray(pack_words(leq[:, order])[order].T)
    words = len(up)
    size = np.full(64 * words, -1, dtype=np.intp)
    size[:m] = leq.sum(axis=1)[order]
    count_t, word_t = np.min_scalar_type(m), np.min_scalar_type(words)
    rank = np.argsort(order)
    table = np.empty((m, m), dtype=np.int32)
    failed = []
    for r in blocks(m, 8 * m):
        lo = r.start
        rows = up[:, r, None]
        count = np.zeros((rows.shape[1], m), dtype=count_t)
        first = np.zeros(count.shape, dtype=np.uint64)
        # Words read while the common set was still empty, the last of them
        # the one that holds its first bit.
        empties = np.zeros(count.shape, dtype=word_t)
        for w in range(lo // 64, words):
            common = rows[w] & up[w]
            empty = count == 0
            count += np.bitwise_count(common)
            common *= empty
            first |= common
            empties += empty
        # Rank 64 * (lo // 64 + empties - 1) + popcount(x ^ (x - 1)) - 1.
        cand = np.multiply(empties, 64, dtype=np.intp)
        cand += 64 * (lo // 64) - 65
        cand += np.bitwise_count(first ^ (first - np.uint64(1)))
        bad = size[cand] != count
        if bad.any():
            a, b = np.nonzero(bad)
            failed.append(int((order[lo + a] * m + order[b]).min()))
        elif not failed:
            table[order[r]] = order[cand][:, rank]
    if failed:
        return None, divmod(min(failed), m)
    return table, None


def try_lattice(poset: FinitePoset) -> FiniteLattice:
    """Build meet and join tables, or raise NotALatticeError with a witness pair.

    Meets are joins of the dual order.  The witness has the smallest failing
    element first, joins before meets, then its smallest partner; the error
    carries its labels too.
    """
    # x < y makes up(x) larger than up(y): larger up-sets first is a linear
    # extension, and its reverse extends the dual.
    order = np.argsort(-poset.leq.sum(axis=1), kind="stable")
    join, no_lub = _join_kernel(poset.leq, order)
    meet, no_glb = _join_kernel(poset.leq.T, order[::-1])
    if no_lub and not (no_glb and no_glb[0] < no_lub[0]):
        pair, reason = no_lub, "no-lub"
    elif no_glb:
        pair, reason = no_glb, "no-glb"
    else:
        return FiniteLattice(poset.labels, poset.leq, meet, join)
    raise NotALatticeError(pair, reason, poset.labels[list(pair)])


# -- semidistributivity --------------------------------------------------------


def semidistributivity_witness(lat: FiniteLattice):
    """A triple violating one of the semidistributive laws, or None.

    Join semidistributivity is tested first, then meet.
    """
    return _kappa_witness(lat.dual, "join") or _kappa_witness(lat, "meet")


def _kappa_witness(lat: FiniteLattice, name: str):
    """``(name, j, x, y)`` with j ^ x = j ^ y != j ^ (x v y), or None.

    Freese, Ježek, Nation, Free Lattices, Thm 2.56: a finite lattice is meet
    semidistributive exactly when, for every join-irreducible j with lower
    cover j_*, the set {x : j ^ x = j_*} has a greatest element kappa(j).
    The set is read off the order, with no meet table: it is
    {x : j_* <= x, not j <= x}, since j ^ x is j when j <= x, and otherwise
    lies strictly below j, so below its only lower cover j_*, and equals
    j_* exactly when j_* <= x.  Its maximal elements are the members with
    no upper cover inside it.  Two of them, x and y, violate the law: x v y
    lies above both, so outside the set, and j ^ (x v y) = j.  ``name``
    labels the law; the join law is this test on the dual.
    """
    (irr, lows), (lower, upper) = lat.irreducibles, lat.covers
    maximal = lat.leq[lows] & ~lat.leq[irr]
    # Drop from the t-th set each member with an upper cover inside it.
    t, k = np.nonzero(maximal[:, upper])
    maximal[t, lower[k]] = False
    several = np.flatnonzero(maximal.sum(axis=1) > 1)
    if not several.size:
        return None
    t = int(several[0])
    x, y = np.flatnonzero(maximal[t])[:2]
    return (name, int(irr[t]), int(x), int(y))


# -- congruences ---------------------------------------------------------------


def _congruence_failure(words, covers, block_of):
    """Why the classes are not a congruence (None when they are), and their minima.

    x <= y when the word of x lies inside that of y; ``covers`` = (below,
    above) are the cover pairs, in any order.  A congruence is a partition into
    intervals whose class-minimum and class-maximum maps preserve order (N.
    Reading, Order 21, 2004), as they do if they do on covers.  With lo and hi a
    shortest and a longest member, class C is an interval exactly when every
    member lies in [lo, hi] and no cover x < y leaves C with y <= hi.  If
    C = [b, t], then lo = b and hi = t (words grow strictly), and such a y
    lies in [b, t] = C.  Conversely, each z in [lo, hi] ends a chain of
    covers from lo whose steps all lie below hi; none leaves C, so z is in C.
    """
    if len(block_of) != len(words):
        return "partition size does not match the lattice", None
    below, above = covers
    # Number the classes by their first element, as ``why`` reports them.
    _, first, classes = np.unique(block_of, return_index=True, return_inverse=True)
    classes = np.argsort(np.argsort(first))[classes]
    # Each class's members by size: its shortest first and its longest last.
    by_size = np.lexsort((np.bitwise_count(words).sum(axis=1), classes))
    starts = np.searchsorted(classes[by_size], np.arange(len(first)))
    mins = by_size[starts]
    maxs = by_size[np.append(starts[1:], len(words)) - 1]
    every, top = np.arange(len(words)), maxs[classes]
    stray = _not_within(words, mins[classes], every) | _not_within(words, every, top)
    below_top = ~_not_within(words, above, top[below])
    leaves = below_top & (classes[below] != classes[above])
    bad_class = np.concatenate([classes[stray], classes[below[leaves]]])
    if bad_class.size:
        return f"class {int(bad_class.min())} is not an interval", mins
    lo, hi = classes[below], classes[above]
    bad_min = _not_within(words, mins[lo], mins[hi])
    bad = np.flatnonzero(bad_min | _not_within(words, maxs[lo], maxs[hi]))
    if bad.size:
        # The first cover pair, row-major, that breaks either map names the failure.
        if bad_min[bad[np.lexsort((above[bad], below[bad]))[0]]]:
            return "class-minimum map is not order preserving", mins
        return "class-maximum map is not order preserving", mins
    return None, mins


def quotient_order(labels, words, mins) -> FinitePoset:
    """The class minima ``mins`` of a congruence, ordered as in the original.

    The order is given by its elements' ``labels`` and their down-sets (or
    any sets that grow strictly with the order, such as inversion sets) as
    ``words``; ``mins`` are the minima ``_congruence_failure`` returns with
    no failure, so the congruence is tested once, by the caller.  The
    quotient of a lattice by a congruence is a lattice on the class minima;
    this returns its order only, and ``try_lattice`` builds its tables.
    """
    mins = np.sort(mins)
    return FinitePoset(labels[mins], contained(words[mins]))


def _lower_bounded(lat: FiniteLattice) -> bool:
    """No cycle of join dependencies: j D k if j != k, j <= k v x, j !<= k_* v x.

    Each element e gets the set of join-irreducibles below it as a bit row
    of ``pack_words``, ``mask[e]``: one uint64 word up to 64 irreducibles.
    Column k of D, the set of j with j D k, is then the OR over x of
    mask[k v x] & ~mask[k_* v x], O(|J| m W) words for W words per mask.
    Columns are taken in ``blocks`` of k, so that the block x m x W
    temporaries stay near BLOCK_BYTES.  Sinks of D are then peeled off until
    none is left (lower bounded) or a cycle is.
    """
    irr, lows = lat.irreducibles
    join = lat.join
    mask = pack_words(lat.leq[irr].T)
    dep = np.empty((len(irr), len(irr)), dtype=bool)
    for k in blocks(len(irr), mask.nbytes):
        gained = mask[join[irr[k]]] & ~mask[join[lows[k]]]
        column = np.bitwise_or.reduce(gained, axis=1)
        dep[:, k] = np.unpackbits(
            column.view(np.uint8), axis=1, count=len(irr), bitorder="little"
        ).T
    np.fill_diagonal(dep, False)
    alive = np.ones(len(irr), dtype=bool)
    while (sinks := alive & ~dep[:, alive].any(axis=1)).any():
        alive &= ~sinks
    return not alive.any()


def is_congruence_uniform(lat: FiniteLattice) -> bool:
    """Day's criterion: congruence uniform exactly when lower and upper bounded.

    A. Day, Canad. J. Math. 31 (1979); Freese, Ježek, Nation, Free Lattices, ch. II.
    """
    return _lower_bounded(lat) and _lower_bounded(lat.dual)


# -- left modularity -------------------------------------------------------------


def _left_modular(lat: FiniteLattice) -> np.ndarray:
    """Per element p, whether (r v p) ^ q = r v (p ^ q) for every r <= q.

    That holds exactly when no cover y < z has p ^ y = p ^ z and p v y =
    p v z.  For r <= q, y = r v (p ^ q) <= z = (r v p) ^ q; if y < z, both
    meet p in p ^ q and join it in p v r, and so does every cover y < y1 <= z.
    Conversely, such a pair gives (y v p) ^ z = z but y v (p ^ z) = y.  So
    each element's meet and join rows are compared at the two ends of every
    cover, O(m covers) in all, in ``blocks`` of elements.
    """
    lower, upper = lat.covers
    meet, join = lat.meet, lat.join
    modular = np.empty(lat.n, dtype=bool)
    for p in blocks(lat.n, meet.itemsize * len(lower)):
        meets, joins = meet[p], join[p]
        same = (meets[:, lower] == meets[:, upper]) & (joins[:, lower] == joins[:, upper])
        modular[p] = ~same.any(axis=1)
    return modular


def has_left_modular_chain(lat: FiniteLattice) -> bool:
    """A maximal chain of left-modular elements exists: with it, an extremal L is trim.

    The heights' pass runs on the covers whose two ends are both left
    modular, and such a chain exists exactly when it finds one of length(L):
    a chain of length(L) covers cannot be extended, so it is maximal.
    """
    modular = _left_modular(lat)
    lower, upper = lat.covers
    both = modular[lower] & modular[upper]
    return bool(lat._chain_heights(lower[both], upper[both]).max() == lat.length())


# -- exports --------------------------------------------------------------------


def lattice_to_json(lat: FiniteLattice, label_fn: Callable = str) -> dict:
    return {
        "elements": [label_fn(x) for x in lat.labels],
        "covers": np.column_stack(lat.covers).tolist(),
    }


def lattice_to_dot(lat: FiniteLattice, label_fn: Callable = str) -> str:
    """DOT digraph with edges a -> b for covers, ranked by height from the bottom."""
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for idx, label in enumerate(lat.labels):
        text = label_fn(label).replace('"', '\\"')
        lines.append(f'  n{idx} [label="{text}"];')
    lines += map("  n{} -> n{};".format, *lat.covers)
    heights = lat.heights
    for level in range(lat.length() + 1):
        group = " ".join(f"n{int(x)};" for x in np.flatnonzero(heights == level))
        if group:
            lines.append(f"  {{ rank=same; {group} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"
