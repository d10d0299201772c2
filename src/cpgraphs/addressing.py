"""Squashed-cube addressing over the alphabet {0, 1, *}.

An addressing scheme assigns each vertex a length-d word; the distance
between two words counts positions where one has 0 and the other 1 (a *
never contributes). A scheme is valid when word distance equals graph
distance for every pair. The search is exhaustive at desk scale (graphs on
at most 6 vertices, words of length at most 10) with an explicit node
budget, so "no scheme of length d exists" is a real conclusion, not a
timeout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_

from .errors import InputError, ResourceLimit
from .graphs import LabeledGraph, all_pairs_distances
from .matrices import IntMatrix
from .linalg import inertia_congruence
from .formulas import addressing_lower_bound

ALPHABET = "01*"
MAX_VERTICES = 6
MAX_LENGTH = 10  # 3^10 = 59049 words


class LengthMismatch(InputError):
    """Two addresses of different lengths cannot be compared."""


class SizeMismatch(InputError):
    """The scheme does not assign exactly one address per vertex."""


class TooLarge(ResourceLimit):
    """The graph or address length exceeds the exhaustive-search size guard."""


class BudgetExceeded(ResourceLimit):
    """The node budget ran out before the search was conclusive."""


@dataclass(frozen=True)
class AddressScheme:
    """One address per vertex, in vertex-label order."""

    d: int
    addresses: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "addresses", tuple(self.addresses))
        if self.d < 0:
            raise InputError("address length must be nonnegative")
        if len(self.addresses) >= 2 and self.d < 1:
            raise InputError("need length at least 1 for two or more vertices")
        for a in self.addresses:
            if len(a) != self.d:
                raise InputError(f"address {a!r} does not have length {self.d}")
            if any(c not in ALPHABET for c in a):
                raise InputError(f"address {a!r} uses characters outside 0, 1, *")


def scheme_to_json_obj(s: AddressScheme) -> dict:
    return {"d": s.d, "addr": list(s.addresses)}


def scheme_from_json_obj(obj: dict) -> AddressScheme:
    try:
        d, addr = int(obj["d"]), tuple(str(a) for a in obj["addr"])
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise InputError(f"bad scheme object: {e}") from None
    return AddressScheme(d, addr)


def address_distance(a: str, b: str) -> int:
    """Number of positions where one word has 0 and the other 1."""
    if len(a) != len(b):
        raise LengthMismatch(f"lengths {len(a)} and {len(b)} differ")
    for w in (a, b):
        if any(c not in ALPHABET for c in w):
            raise InputError(f"address {w!r} uses characters outside 0, 1, *")
    return _clashes(a, b)


def _clashes(a: str, b: str) -> int:
    """address_distance of two words already known to be valid and of one length."""
    return sum(1 for x, y in zip(a, b) if x + y in ("01", "10"))


def verify_scheme(g: LabeledGraph, scheme: AddressScheme) -> bool:
    """Does word distance equal graph distance for every vertex pair?"""
    if len(scheme.addresses) != g.n:
        raise SizeMismatch(f"{len(scheme.addresses)} addresses for {g.n} vertices")
    # AddressScheme has checked every word's alphabet and length
    rows = all_pairs_distances(g).rows
    addr = scheme.addresses
    return all(
        _clashes(addr[i], addr[j]) == rows[i][j] for i in range(g.n) for j in range(i + 1, g.n)
    )


def _digit_masks(d: int) -> list[list[int]]:
    """masks[p][c] has bit i set when word i has digit c at position p.

    Word i is i written in base 3 with d digits, most significant first,
    which is the lexicographic order of {0, 1, 2}^d.
    """
    masks = []
    for p in range(d):
        width = 3 ** (d - 1 - p)
        stride = 3 * width
        # bit 0 of each of the 3^p blocks of stride bits
        starts = ((1 << (stride * 3**p)) - 1) // ((1 << stride) - 1)
        masks.append([(((1 << width) - 1) << (c * width)) * starts for c in range(3)])
    return masks


def _word(i: int, d: int) -> list[int]:
    """The digits of word i, most significant first (see _digit_masks)."""
    out = [0] * d
    for p in range(d - 1, -1, -1):
        i, out[p] = divmod(i, 3)
    return out


@lru_cache(maxsize=1)
def _layout(g: LabeledGraph) -> tuple[IntMatrix, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """g's distance matrix, its BFS vertex order from vertex 1 (by distance
    from 1, ties by label, as a BFS with sorted frontiers visits them), and
    each vertex's distances to the vertices before it in that order.

    Cached for the last graph, so exact_n's bound and each length it tries
    share one build.
    """
    dist = all_pairs_distances(g)
    rows = dist.rows
    order = tuple(sorted(range(1, g.n + 1), key=lambda v: (rows[0][v - 1], v)))
    earlier = tuple(tuple(rows[u - 1][v - 1] for u in order[:t]) for t, v in enumerate(order))
    return dist, order, earlier


def search_scheme(
    g: LabeledGraph, d: int, budget: int | None = None
) -> AddressScheme | None:
    """Exhaustive search for a valid length-d scheme; None means none exists.

    Vertices are assigned in BFS order, each trying the 3^d words in
    lexicographic order. Symmetry breaking: the columns of the growing
    address matrix must stay lexicographically nondecreasing, which keeps
    one representative per column permutation without losing any scheme.

    A vertex's candidates are a bitmask over word indices: the AND, over the
    vertices already assigned, of the words at the right distance from each
    one's word, and of the words that keep every tied adjacent column pair
    in order (memoized per set of tied pairs). A word's distance masks and
    tied pairs are built the first time it is a candidate, never for all
    3^d words up front. The assigned words' mask lists sit on a stack,
    padded with 0 up to distance n - 1 so that a graph distance above d
    selects no word, and each vertex's distances to the vertices before it
    are listed once per graph. A vertex's candidates are found before it is
    entered, so a vertex with none is counted without a call. The set bits
    are walked in increasing order. budget caps the number of words scanned,
    and still counts every word, rejected or not: the index gaps between
    candidates and the rest of each level after the last one count too.
    Exceeding it raises instead of guessing. A length above MAX_LENGTH is
    refused before anything is built.
    """
    if g.n > MAX_VERTICES:
        raise TooLarge(f"{g.n} vertices exceeds the guard of {MAX_VERTICES}")
    if d > MAX_LENGTH:
        raise TooLarge(f"address length {d} exceeds the guard of {MAX_LENGTH}")
    if d < 0:
        raise InputError("address length must be nonnegative")
    if g.n == 0:
        return AddressScheme(d, ())
    _, order, earlier = _layout(g)
    n_words = 3**d
    full = (1 << n_words) - 1
    digit = _digit_masks(d)
    # words whose digits at p and p + 1 are in order
    pair_in_order = [
        reduce(or_, (digit[p][x] & digit[p + 1][y] for x in range(3) for y in range(x, 3)))
        for p in range(d - 1)
    ]
    pad = [0] * max(len(order) - 1 - d, 0)
    in_order: dict[int, int] = {}
    seen: dict[int, tuple[int, list[int]]] = {}
    stack: list[list[int]] = []
    found: list[int] = []  # the scheme's words, filled in as extend returns
    limit = math.inf if budget is None else budget
    nodes = 0

    def word_info(i: int) -> tuple[int, list[int]]:
        """Word i's tied adjacent column pairs (bit p: p, p + 1), and masks[k]:
        the words at word distance k from word i, for k up to n - 1."""
        w = _word(i, d)
        ties = sum(1 << p for p in range(d - 1) if w[p] == w[p + 1])
        masks = [full] + [0] * d
        for p, x in enumerate(w):
            if x == 2:
                continue
            far, near = digit[p][1 - x], digit[p][x] | digit[p][2]
            for k in range(d, 0, -1):
                masks[k] = (masks[k] & near) | (masks[k - 1] & far)
            masks[0] &= near
        info = seen[i] = (ties, masks + pad)
        return info

    def keeps_order(ties: int) -> int:
        """Words that keep each tied adjacent column pair (bit p: p, p + 1) in order."""
        mask = full
        for p in range(d - 1):
            if ties >> p & 1:
                mask &= pair_in_order[p]
        in_order[ties] = mask
        return mask

    def extend(t: int, ties: int, cands: int) -> bool:
        """Try vertex order[t]'s candidates (never none); stack holds the
        mask lists of the words at 0..t-1."""
        nonlocal nodes
        if t == len(order) - 1:
            i = (cands & -cands).bit_length() - 1
            nodes += i + 1
            if nodes > limit:
                raise BudgetExceeded(f"budget of {budget} nodes exhausted")
            found.append(i)
            return True
        row = earlier[t + 1]
        last = -1
        while cands:
            low = cands & -cands
            cands ^= low
            i = low.bit_length() - 1
            nodes += i - last
            if nodes > limit:
                raise BudgetExceeded(f"budget of {budget} nodes exhausted")
            last = i
            tied, masks = seen.get(i) or word_info(i)
            stack.append(masks)
            tied &= ties
            nxt = in_order.get(tied)
            if nxt is None:
                nxt = keeps_order(tied)
            for m, k in zip(stack, row):
                nxt &= m[k]
            if not nxt:
                nodes += n_words  # checked with the next count of this level
            elif extend(t + 1, tied, nxt):
                found.append(i)
                return True
            stack.pop()
        nodes += n_words - 1 - last
        if nodes > limit:
            raise BudgetExceeded(f"budget of {budget} nodes exhausted")
        return False

    ties = (1 << max(d - 1, 0)) - 1
    if not extend(0, ties, keeps_order(ties)):
        return None
    by_label = [""] * g.n
    for v, i in zip(order, reversed(found)):
        by_label[v - 1] = "".join(ALPHABET[c] for c in _word(i, d))
    return AddressScheme(d, tuple(by_label))


def _minimum_scheme(g: LabeledGraph, budget: int | None = None) -> tuple[int, AddressScheme]:
    """exact_n's scan, one search per length: (inertia lower bound, minimum scheme)."""
    if g.n > MAX_VERTICES:
        raise TooLarge(f"{g.n} vertices exceeds the guard of {MAX_VERTICES}")
    if g.n <= 1:
        return 0, AddressScheme(0, ("",) * g.n)
    lb = addressing_lower_bound(inertia_congruence(_layout(g)[0]))
    for d in range(max(lb, 1), g.n):
        scheme = search_scheme(g, d, budget)
        if scheme is not None:
            return lb, scheme
    raise RuntimeError("no scheme found up to n - 1; this contradicts the length bound")


def exact_n(g: LabeledGraph, budget: int | None = None) -> int:
    """Minimum address length, searched upward from the inertia bound.

    The Winkler bound guarantees a scheme of length n - 1 exists, so the
    scan terminates. An exhausted budget raises rather than answering.
    """
    return _minimum_scheme(g, budget)[1].d
