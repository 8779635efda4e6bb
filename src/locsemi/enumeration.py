"""Exhaustive generation and census of all small partial structures.

A structure on n elements is an n*n-digit number in base n+1: digit 0 means
the cell is undefined, digit k means the product is element k-1.  Enumeration
is counting, which gives exact coverage of the (n+1)**(n*n) search space
and a deterministic order.

This module states no axiom: each table's five flags come from the fused
kernel ``checks._table_flags``.  ``_decode_table`` reads the flat table at
a code, ``decode_magma`` labels it, and ``encode_magma`` reads the digits
back from ``checks._flat_table``.  Every flag is invariant under relabeling
the carrier, so the census and the witness search classify only the tables
whose code is the minimum over every relabeling (the orderly-generation
test); the raw census weights each by its class size n!/|Aut(t)|, and no
canonical form is built or stored.  Raw, deduplicated and sampled censuses
share one path from codes to rows, ``_tally_rows``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Mapping

from .checks import _flat_table, _table_flags
from .errors import CapacityError, DomainError
from .magma import FinitePartialMagma, serialize_magma

_LETTERS = ("a", "b", "c", "d")
_FLAG_NAMES = ("locality", "strong", "refined", "partial", "transitive")
_FLAG_LETTERS = "LSRPT"

EXHAUSTIVE_MAX = 3


def search_space_size(n: int) -> int:
    return (n + 1) ** (n * n)


def _check_size(n: int) -> None:
    if n < 1:
        raise DomainError(f"carrier size must be at least 1, got {n}")


def _check_exhaustive(n: int, what: str, hint: str = "") -> None:
    """The size checks of an exhaustive pass; the CLI prints their error text."""
    _check_size(n)
    if n > EXHAUSTIVE_MAX:
        tail = f"; {hint} for n={n}" if hint else ""
        raise CapacityError(f"{what} supported for n <= {EXHAUSTIVE_MAX}{tail}")


def _decode_table(n: int, code: int) -> list[int]:
    """The flat table at ``code``: cell i*n+j holds the product's index, or -1."""
    base = n + 1
    t = []
    for _ in range(n * n):
        t.append(code % base - 1)
        code //= base
    return t


def decode_magma(n: int, code: int) -> FinitePartialMagma:
    """The magma at position ``code`` in enumeration order."""
    if not 1 <= n <= len(_LETTERS):
        raise DomainError(f"carrier size must be 1..{len(_LETTERS)}")
    if not 0 <= code < search_space_size(n):
        raise DomainError(f"code {code} out of range for n={n}")
    labels = _LETTERS[:n]
    table = {(labels[k // n], labels[k % n]): labels[v]
             for k, v in enumerate(_decode_table(n, code)) if v >= 0}
    return FinitePartialMagma(labels, table)


def encode_magma(m: FinitePartialMagma) -> int:
    """Inverse of decode_magma on its own carrier labels (any labels accepted)."""
    base = len(m.elements) + 1
    code = 0
    # Horner's rule from the most significant cell
    for v in reversed(_flat_table(m)):
        code = code * base + v + 1
    return code


def _iter_tables(n: int):
    """Yield (code, table) for every code in order; the table list is reused."""
    cells = n * n
    t = [-1] * cells
    for code in range(search_space_size(n)):
        yield code, t
        i = 0
        while i < cells:
            t[i] += 1
            if t[i] < n:
                break
            t[i] = -1
            i += 1


def _relabelings(n: int) -> list[tuple[list[int], list[tuple[int, int]]]]:
    """Each non-identity carrier permutation p as (values, cells).

    Relabeling by p moves cell (i,j) holding v to (p[i],p[j]) holding p[v].
    ``values`` is p with -1 appended, so values[-1] keeps undefined cells
    undefined; ``cells`` pairs each target cell, most significant digit
    first, with the source cell it is read from.
    """
    out = []
    for p in itertools.permutations(range(n)):
        if p == tuple(range(n)):
            continue
        inv = [p.index(v) for v in range(n)]
        cells = [(k, inv[k // n] * n + inv[k % n]) for k in reversed(range(n * n))]
        out.append((list(p) + [-1], cells))
    return out


def _orbit_size(t: list[int], relabelings, n_fact: int) -> int:
    """0 if some relabeling of t has a smaller code, else n!/|Aut(t)|.

    Codes compare digit by digit from the most significant cell, so each
    relabeling is settled at the first cell where it differs from t; one
    that matches t on every cell is an automorphism.
    """
    automorphisms = 1
    for values, cells in relabelings:
        for k, src in cells:
            y = values[t[src]]
            if y != t[k]:
                if y < t[k]:
                    return 0
                break
        else:
            automorphisms += 1
    return n_fact // automorphisms


def _representatives(n: int):
    """Yield (code, table, class size) for each isomorphism-class minimum, in order.

    A class's first table in enumeration order is its minimum, so the first
    representative with given flags is also the first table with them.
    """
    relabelings = _relabelings(n)
    n_fact = math.factorial(n)
    for code, t in _iter_tables(n):
        size = _orbit_size(t, relabelings, n_fact)
        if size:
            yield code, t, size


# ---------------------------------------------------------------------------
# public operations

def scan_flags(n: int) -> Iterator[tuple[int, tuple[bool, bool, bool, bool, bool]]]:
    """(code, flags) for every structure of carrier size n, in enumeration order."""
    _check_exhaustive(n, "exhaustive scan", "use sampling")
    for code, t in _iter_tables(n):
        yield code, _table_flags(n, t)


def enumerate_magmas(n: int) -> Iterator[FinitePartialMagma]:
    """Every structure of carrier size n exactly once, in enumeration order."""
    _check_exhaustive(n, "exhaustive enumeration", "use sample_magmas")
    for code in range(search_space_size(n)):
        yield decode_magma(n, code)


def _sampled_codes(n: int, count: int, seed: int) -> Iterator[int]:
    """``count`` codes drawn uniformly (with replacement); checks run at the call."""
    _check_size(n)
    if count < 0:
        raise DomainError(f"sample count must be non-negative, got {count}")
    rng = random.Random(seed)
    total = search_space_size(n)
    return (rng.randrange(total) for _ in range(count))


def sample_magmas(n: int, count: int, seed: int) -> Iterator[FinitePartialMagma]:
    """``count`` structures drawn uniformly (with replacement) from size n."""
    for code in _sampled_codes(n, count, seed):
        yield decode_magma(n, code)


@dataclass(frozen=True)
class CensusRow:
    """One flag pattern: its mask, how many structures carry it, and the first one.

    ``pattern`` positions are locality, strong, refined, partial, transitive
    (letters L, S, R, P, T; '-' when the flag is off).  ``witness`` is the
    serialized first structure in enumeration order, which is the minimum
    of its isomorphism class, so raw and dedup censuses share witnesses;
    ``witness_code`` is its position.
    """

    pattern: str
    count: int
    witness_code: int
    witness: str


def _tally_rows(n: int, items) -> list[CensusRow]:
    """Census rows from (code, table, weight) items in increasing code order.

    A pattern counts the weights of its tables, and its witness is its
    first code, which the order makes its minimum.
    """
    tally: dict[tuple, list[int]] = {}
    for code, t, weight in items:
        flags = _table_flags(n, t)
        row = tally.get(flags)
        if row is None:
            tally[flags] = [weight, code]
        else:
            row[0] += weight
    rows = [CensusRow("".join(l if f else "-" for l, f in zip(_FLAG_LETTERS, flags)),
                      count, code, serialize_magma(decode_magma(n, code)))
            for flags, (count, code) in tally.items()]
    return sorted(rows, key=lambda r: r.pattern)


def census(n: int, dedup: bool = False) -> list[CensusRow]:
    """Classify every structure of size n and aggregate by flag pattern.

    Only isomorphism-class minima are classified, since the flags are
    invariant under relabeling.  The raw census counts each class as its
    n!/|Aut(t)| tables, and these counts sum to the closed-form
    search-space size; with dedup=True each class counts once.  Either way
    a pattern's witness is its first table, a class minimum.
    """
    _check_exhaustive(n, "exhaustive census", "use sample_census")
    items = _representatives(n)
    if dedup:
        items = ((code, t, 1) for code, t, _ in items)
    return _tally_rows(n, items)


def sample_census(n: int, count: int, seed: int) -> list[CensusRow]:
    """Census over ``count`` random codes; counts are sample tallies, not totals."""
    codes = sorted(_sampled_codes(n, count, seed))
    return _tally_rows(n, ((code, _decode_table(n, code), 1) for code in codes))


def parse_flag_pattern(wanted: Mapping[str, bool]) -> dict[int, bool]:
    """Validate a partial flag assignment keyed by flag name."""
    positions = {}
    for name, value in wanted.items():
        if name not in _FLAG_NAMES:
            raise DomainError(f"unknown flag {name!r}; flags are {_FLAG_NAMES}")
        positions[_FLAG_NAMES.index(name)] = bool(value)
    return positions


def find_witness(pattern: Mapping[str, bool], n: int) -> FinitePartialMagma | None:
    """First structure in enumeration order matching every specified flag."""
    wanted = parse_flag_pattern(pattern)
    _check_exhaustive(n, "witness search")
    for code, t, _ in _representatives(n):
        flags = _table_flags(n, t)
        if all(flags[pos] == val for pos, val in wanted.items()):
            return decode_magma(n, code)
    return None


def format_census_table(rows: list[CensusRow]) -> str:
    """Aligned table plus one machine-readable line per pattern."""
    lines = [f"{'pattern':<8} {'count':>10} {'code':>10}"]
    for r in rows:
        lines.append(f"{r.pattern:<8} {r.count:>10} {r.witness_code:>10}")
    lines.append(f"{'total':<8} {sum(r.count for r in rows):>10}")
    for r in rows:
        lines.append(f"pattern={r.pattern} count={r.count} code={r.witness_code}")
    return "\n".join(lines)
