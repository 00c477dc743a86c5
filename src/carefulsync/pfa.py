"""Partial finite automata with careful-synchronization semantics.

States are numbered 1..n.  A transition may be undefined; applying a word
to a set of states yields ``None`` as soon as any member would take an
undefined transition.  All values here are immutable and hashable, so they
can be shared freely between threads.

:func:`image` is the one subset step, shared with the solver's search.
:func:`apply_word` takes it once per run of equal letters, under that
letter's partial map raised to the run's length, so a long word costs one
step per run rather than one per letter.
"""

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby


class FormatError(ValueError):
    """Raised when a serialized automaton document is malformed."""


@dataclass(frozen=True)
class Pfa:
    """A partial deterministic automaton.

    ``delta[q-1][s]`` is the target of state ``q`` under symbol index ``s``,
    or ``None`` when the transition is undefined.  ``labels``, when given,
    supplies one distinct display name per state (used by DOT/JSON output).
    """

    n: int
    symbols: tuple[str, ...]
    delta: tuple[tuple[int | None, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one state, got n={self.n}")
        if len(self.symbols) > 256:  # a word holds one symbol index per byte
            raise ValueError(f"at most 256 symbols, got {len(self.symbols)}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("symbols must be distinct")
        if "" in self.symbols:
            # parse_word would match an empty label forever without advancing
            raise ValueError("symbols must be nonempty")
        if len(self.delta) != self.n:
            raise ValueError(f"delta has {len(self.delta)} rows, expected {self.n}")
        for q, row in enumerate(self.delta, start=1):
            if len(row) != len(self.symbols):
                raise ValueError(f"delta row for state {q} has wrong arity")
            for s, target in enumerate(row):
                if target is not None and not 1 <= target <= self.n:
                    raise ValueError(
                        f"delta[{q}][{self.symbols[s]}] = {target} out of range 1..{self.n}"
                    )
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise ValueError(f"expected {self.n} labels, got {len(self.labels)}")
            if len(set(self.labels)) != self.n:
                raise ValueError("labels must be distinct")

    def step(self, q: int, s: int) -> int | None:
        """Target of state ``q`` (1-based) under symbol index ``s``."""
        if not 1 <= q <= self.n:
            raise ValueError(f"state {q} out of range 1..{self.n}")
        if not 0 <= s < len(self.symbols):
            raise ValueError(f"symbol index {s} out of range")
        return self.delta[q - 1][s]

    @cached_property
    def kernel(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The automaton compiled for :func:`image`, built once per instance.

        Returns ``(masks, cols)``: ``masks[s]`` has bit ``q-1`` set iff
        symbol ``s`` is defined on state ``q``, and ``cols[s][q-1]`` is the
        one-bit set of that target (0 where undefined).
        """
        masks = []
        cols = []
        for s in range(len(self.symbols)):
            mask = 0
            col = [0] * self.n
            for q, row in enumerate(self.delta):
                if row[s] is not None:
                    mask |= 1 << q
                    col[q] = 1 << (row[s] - 1)
            masks.append(mask)
            cols.append(tuple(col))
        return tuple(masks), tuple(cols)

    def label(self, q: int) -> str:
        return self.labels[q - 1] if self.labels else str(q)

    def defined_count(self) -> int:
        return sum(t is not None for row in self.delta for t in row)


@dataclass(frozen=True)
class StateSet:
    """A subset of the states 1..n, stored as a bit vector.

    Bit ``q-1`` of ``bits`` is set iff state ``q`` is a member.  Supports
    carriers of any size (Python integers are unbounded).
    """

    bits: int
    n: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("members out of carrier range")

    @classmethod
    def full(cls, n: int) -> "StateSet":
        return cls((1 << n) - 1, n)

    @classmethod
    def of(cls, members, n: int) -> "StateSet":
        bits = 0
        for q in members:
            if not 1 <= q <= n:
                raise ValueError(f"state {q} out of range 1..{n}")
            bits |= 1 << (q - 1)
        return cls(bits, n)

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def __iter__(self):
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length()
            bits ^= low

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, q: int) -> bool:
        return 1 <= q <= self.n and self.bits >> (q - 1) & 1 == 1


@dataclass(frozen=True)
class Word:
    """A sequence of symbol indices into some automaton's symbol list, one
    byte each; other iterables of indices 0..255 are converted to bytes."""

    letters: bytes = b""

    def __post_init__(self):
        letters = self.letters
        if not isinstance(letters, (bytes, bytearray)):
            letters = tuple(letters)
            bad = next((s for s in letters if not 0 <= s < 256), None)
            if bad is not None:
                raise ValueError(f"symbol index {bad} out of range")
        object.__setattr__(self, "letters", bytes(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __iter__(self):
        return iter(self.letters)


def parse_word(pfa: Pfa, text: str) -> Word:
    """Parse a word from text over the automaton's symbol labels.

    Whitespace separates symbols when present; otherwise symbols are matched
    greedily (longest label first), so multi-character labels work too.
    When every label is one character, each character is looked up on its
    own, and the greedy loop runs only to name the position of a miss.
    """
    index = {label: i for i, label in enumerate(pfa.symbols)}
    if any(map(str.isspace, text)):
        tokens = text.split()
    else:
        if all(len(label) == 1 for label in index):
            try:
                return Word(bytes(map(index.__getitem__, text)))
            except KeyError:
                pass
        tokens = []
        by_length = sorted(index, key=len, reverse=True)
        pos = 0
        while pos < len(text):
            for label in by_length:
                if text.startswith(label, pos):
                    tokens.append(label)
                    pos += len(label)
                    break
            else:
                raise ValueError(f"cannot match a symbol at position {pos} of {text!r}")
    try:
        return Word(bytes(map(index.__getitem__, tokens)))
    except KeyError as exc:
        raise ValueError(f"unknown symbol {exc.args[0]!r}") from None


def format_word(pfa: Pfa, word: Word, pretty: bool = False) -> str:
    """Render a word as a plain string, or run-length compressed (``b^3 a^2``)."""
    letters = word.letters
    bad = letters.translate(None, bytes(range(len(pfa.symbols))))  # the letters out of range
    if bad:
        raise ValueError(f"symbol index {bad[0]} out of range")
    if not pretty:
        return letters.decode("latin-1").translate(dict(enumerate(pfa.symbols)))
    label = pfa.symbols.__getitem__
    parts = []
    for s, run in groupby(letters):
        k = len(list(run))
        parts.append(label(s) if k == 1 else f"{label(s)}^{k}")
    return " ".join(parts)


def image(bits: int, mask: int, col: tuple[int, ...]) -> int | None:
    """One subset step: the image of the set ``bits`` under the symbol
    compiled as ``mask`` and ``col`` (see :attr:`Pfa.kernel`), or ``None``
    when some member is outside the symbol's domain."""
    if bits & ~mask:
        return None
    out = 0
    while bits:
        low = bits & -bits
        out |= col[low.bit_length() - 1]
        bits ^= low
    return out


def _then(first, second):
    """The partial map ``first`` followed by ``second``, both in the
    ``(mask, col)`` form of :attr:`Pfa.kernel`: a state is in its domain iff
    ``first`` is defined on it and ``second`` on its target."""
    _, col1 = first
    mask2, col2 = second
    mask = 0
    col = [0] * len(col1)
    for q, target in enumerate(col1):
        if target & mask2:
            mask |= 1 << q
            col[q] = col2[target.bit_length() - 1]
    return mask, tuple(col)


def apply_word(pfa: Pfa, s: StateSet, w: Word) -> StateSet | None:
    """Image of a state set under a word; ``None`` if any step is undefined.

    The empty set maps to the empty set.  A symbol index outside the
    automaton's alphabet is a usage error, distinct from an undefined image,
    raised when the walk reaches it.

    The word is applied one run of equal letters at a time: a run s^k takes
    one :func:`image` step under the k-th power of s's partial map, composed
    by binary doubling and kept for the rest of the call.  A state is in the
    power's domain iff its whole path under s^k is defined, so a set's image
    is ``None`` exactly when the letter-by-letter walk would reach ``None``.
    """
    if s.n != pfa.n:
        raise ValueError(f"state set over {s.n} states fed to a {pfa.n}-state automaton")
    masks, cols = pfa.kernel
    nsym = len(masks)
    powers = {}

    def power(sym, k):
        if k == 1:
            return masks[sym], cols[sym]
        found = powers.get((sym, k))
        if found is None:
            half = power(sym, k >> 1)
            found = _then(half, half)
            if k & 1:
                found = _then(found, (masks[sym], cols[sym]))
            powers[sym, k] = found
        return found

    bits = s.bits
    for sym, run in groupby(w):
        if not 0 <= sym < nsym:
            raise ValueError(f"symbol index {sym} out of range")
        bits = image(bits, *power(sym, len(list(run))))
        if bits is None:
            return None
    return StateSet(bits, pfa.n)


def is_sync_word(pfa: Pfa, w: Word) -> bool:
    """True iff the word is defined on every state and merges all of them."""
    image = apply_word(pfa, StateSet.full(pfa.n), w)
    return image is not None and len(image) == 1


def to_json(pfa: Pfa) -> str:
    doc = {
        "n": pfa.n,
        "symbols": list(pfa.symbols),
        "delta": [list(row) for row in pfa.delta],
    }
    if pfa.labels is not None:
        doc["labels"] = list(pfa.labels)
    return json.dumps(doc, ensure_ascii=False)


def from_json(text: str) -> Pfa:
    """Parse an automaton document, naming the offending field on error."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError("document: expected an object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise FormatError("n: expected a positive integer")
    symbols = doc.get("symbols")
    if (
        not isinstance(symbols, list)
        or not symbols
        or any(not isinstance(x, str) for x in symbols)
    ):
        raise FormatError("symbols: expected a nonempty list of strings")
    if len(set(symbols)) != len(symbols):
        raise FormatError("symbols: duplicate entries")
    if "" in symbols:
        raise FormatError("symbols: empty label")
    if len(symbols) > 256:
        raise FormatError(f"symbols: at most 256 entries, got {len(symbols)}")
    delta = doc.get("delta")
    if not isinstance(delta, list) or len(delta) != n:
        raise FormatError(f"delta: expected {n} rows")
    rows = []
    for qi, row in enumerate(delta):
        if not isinstance(row, list) or len(row) != len(symbols):
            raise FormatError(f"delta[{qi}]: expected {len(symbols)} entries")
        for si, target in enumerate(row):
            if target is None:
                continue
            if not isinstance(target, int) or isinstance(target, bool) or not 1 <= target <= n:
                raise FormatError(f"delta[{qi}][{si}]: target {target!r} not in 1..{n}")
        rows.append(tuple(row))
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or any(not isinstance(x, str) for x in labels):
            raise FormatError("labels: expected a list of strings")
        if len(labels) != n:
            raise FormatError(f"labels: expected {n} entries, got {len(labels)}")
        if len(set(labels)) != n:
            raise FormatError("labels: duplicate entries")
        labels = tuple(labels)
    return Pfa(n=n, symbols=tuple(symbols), delta=tuple(rows), labels=labels)


def to_dot(pfa: Pfa) -> str:
    """Render as a DOT digraph: one edge per defined transition."""
    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph pfa {", "  rankdir=LR;", "  node [shape=circle];"]
    for q in range(1, pfa.n + 1):
        lines.append(f"  {quote(pfa.label(q))};")
    for q in range(1, pfa.n + 1):
        for s, label in enumerate(pfa.symbols):
            target = pfa.delta[q - 1][s]
            if target is not None:
                lines.append(
                    f"  {quote(pfa.label(q))} -> {quote(pfa.label(target))} [label={quote(label)}];"
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
