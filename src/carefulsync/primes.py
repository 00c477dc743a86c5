"""Prime-number PFA constructions with superpolynomial reset thresholds.

One group of p+3 states per list entry p: a counting cycle 1..p, a start
state 0, and two bottleneck states A and B.  Symbol b funnels a group back
to its start; symbol a advances the counters, so only multiples of every
p line the groups up, forcing about p_1 * p_2 * ... * p_r steps.  A chain
of filler states can pad the last group to hit an exact state count, and a
rewiring of the start states makes the automaton strongly connected.
"""

from dataclasses import dataclass
from math import gcd

from .pfa import Pfa


@dataclass(frozen=True)
class PrimeList:
    """An ordered list of pairwise coprime values >= 2; order matters."""

    values: tuple[int, ...]

    def __post_init__(self):
        vals = self.values
        if any(v < 2 for v in vals):
            raise ValueError("entries must be >= 2")
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if gcd(vals[i], vals[j]) != 1:
                    raise ValueError(
                        f"entries {vals[i]} and {vals[j]} are not coprime"
                    )

    @property
    def q(self) -> int:
        product = 1
        for v in self.values:
            product *= v
        return product

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def _as_prime_list(values) -> PrimeList:
    return values if isinstance(values, PrimeList) else PrimeList(tuple(values))


def build_prime_pfa(values, padding: int = 0, transitive: bool = False) -> Pfa:
    """Build the grouped binary PFA for a coprime list (needs >= 2 groups).

    State labels follow the group scheme: "50", "51", ..., "55", "5A", "5B"
    for a group with p = 5, then "pad1", ... for the filler chain spliced
    into the last group's b-path.
    """
    plist = _as_prime_list(values)
    r = len(plist)
    if r < 2:
        raise ValueError("need at least two groups")
    if padding < 0:
        raise ValueError("padding must be >= 0")
    ps = plist.values

    index: dict[tuple, int] = {}
    labels = []
    for i, p in enumerate(ps):
        for j in range(p + 1):
            index[(i, j)] = len(labels) + 1
            labels.append(f"{p}{j}")
        index[(i, "A")] = len(labels) + 1
        labels.append(f"{p}A")
        index[(i, "B")] = len(labels) + 1
        labels.append(f"{p}B")
    for t in range(padding):
        index[("pad", t)] = len(labels) + 1
        labels.append(f"pad{t + 1}")
    n = len(labels)

    a = [None] * (n + 1)
    b = [None] * (n + 1)
    last = r - 1
    for i, p in enumerate(ps):
        for j in range(1, p):
            a[index[(i, j)]] = index[(i, j + 1)]
        a[index[(i, p)]] = index[(i, 1)]
        if transitive:
            a[index[(i, 0)]] = index[(last, 1)] if i == 0 else index[(i - 1, 1)]
        else:
            a[index[(i, 0)]] = index[(i, 1)]
        if i < last - 1:
            a[index[(i, "A")]] = index[(i + 1, "B")]
        elif i == last - 1:
            a[index[(i, "A")]] = index[(last, "A")]
        else:
            a[index[(i, "A")]] = index[(last, ps[last])]
        # a stays undefined on every B state and on the padding chain

        for j in range(1, p):
            b[index[(i, j)]] = index[(i, "B")]
        b[index[(i, p)]] = index[(i, "A")]
        b[index[(i, "A")]] = index[(i, "B")]
        b[index[(i, 0)]] = index[(i, 0)]
        if i == last and padding:
            b[index[(i, "B")]] = index[("pad", 0)]
        else:
            b[index[(i, "B")]] = index[(i, 0)]
    for t in range(padding):
        b[index[("pad", t)]] = (
            index[("pad", t + 1)] if t + 1 < padding else index[(last, 0)]
        )

    delta = tuple((a[q], b[q]) for q in range(1, n + 1))
    return Pfa(n=n, symbols=("a", "b"), delta=delta, labels=tuple(labels))


def prime_rt_formula(values) -> int:
    """Closed form for the unpadded, non-transitive reset threshold.

    5r - 2 plus the sum of the suffix products p_i * p_(i+1) * ... * p_r
    for i = 1 .. r-1; exact arbitrary-precision arithmetic throughout.
    """
    plist = _as_prime_list(values)
    if len(plist) < 2:
        raise ValueError("need at least two groups")
    return _rt_value(plist.values)


def _rt_value(values) -> int:
    """:func:`prime_rt_formula` of a list of at least two values, unchecked:
    the caller guarantees that they are pairwise coprime and >= 2."""
    total = 5 * len(values) - 2
    suffix = values[-1]
    for v in reversed(values[:-1]):
        suffix *= v
        total += suffix
    return total


def martyugin_stats(values) -> tuple[int, int]:
    """State count and reset threshold of the classical chained construction.

    Only the two closed values: 1 + 2 * sum(p_i) states and 2 + 2 * prod(p_i)
    threshold.  The automaton itself is not built here.
    """
    plist = _as_prime_list(values)
    return 1 + 2 * sum(plist.values), 2 + 2 * plist.q


def transitive_lower_bound(values) -> int:
    """ceil(q + q / max(p_i)): a floor under the transitive variant's threshold."""
    plist = _as_prime_list(values)
    q = plist.q
    top = max(plist.values)
    return q + -(-q // top)


def group_count(values) -> int:
    plist = _as_prime_list(values)
    return 3 * len(plist) + sum(plist.values)


def best_prime_list(n: int) -> tuple[tuple[int, ...], int, int]:
    """The coprime list maximizing the threshold formula within n states.

    Searches ascending pairwise-coprime lists with 3r + sum(p_i) <= n
    (ascending order maximizes the suffix-product sum for a fixed set) and
    returns (list, padding, formula value) with padding = n - states and the
    lexicographically smallest list on ties.
    """
    if n < 16:
        raise ValueError("need n >= 16 states")

    best: tuple[int, tuple[int, ...]] | None = None

    def extend(chosen: list[int], budget: int):
        nonlocal best
        if len(chosen) >= 2:
            # coprime by construction, so the formula's own check is skipped
            value = _rt_value(chosen)
            key = (value, tuple(chosen))
            if best is None or value > best[0] or (value == best[0] and key[1] < best[1]):
                best = (value, tuple(chosen))
        start = chosen[-1] + 1 if chosen else 2
        for v in range(start, budget - 2):
            if all(gcd(v, u) == 1 for u in chosen):
                chosen.append(v)
                extend(chosen, budget - v - 3)
                chosen.pop()

    extend([], n)
    assert best is not None
    value, plist = best
    return plist, n - group_count(plist), value
