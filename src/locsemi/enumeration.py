"""Exhaustive generation and census of all small partial structures.

A structure on n elements is an n*n-digit number in base n+1: digit 0 means
the cell is undefined, digit k means the product is element k-1.  Enumeration
is counting, which gives exact coverage of the (n+1)**(n*n) search space
and a deterministic order.

This module states no axiom.  ``scan_flags``, the census, the sampled
census and the witness search decide whole blocks of tables at once with
the bit-sliced kernel ``checks._block_flags``: one int per cell and digit
holds a bit per table of the block, and the kernel returns the five flags
as five such sets.  The exhaustive pass cuts the space by the digit of the
most significant cell, so its blocks share the lower cells' digit sets.  A
sample (n <= 4, the sizes with labels) is drawn straight into the digit
sets of chunks of _SAMPLE_CHUNK tables, from random bit planes.
``scan_flags`` expands a block's sets back to one flag tuple per code
through one byte key per table.  A pattern counts the tables of its set,
its witness is its least code over the blocks that hold it, and
``--dedup`` counts isomorphism classes by Burnside's lemma over the sets of
tables each relabeling fixes.  ``_decode_table`` reads the flat table at a
code, ``decode_magma`` labels it, and ``encode_magma`` sums the digits back
from the magma's table.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from dataclasses import dataclass
from typing import Iterator, Mapping

from .checks import _CLASS_NAMES, _block_flags, _check_inclusions
from .errors import CapacityError, DomainError, InvariantError
from .magma import FinitePartialMagma, serialize_magma

_LETTERS = ("a", "b", "c", "d")
_FLAG_NAMES = _CLASS_NAMES
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


def _check_decodable(n: int) -> None:
    """The sizes that have labels."""
    if not 1 <= n <= len(_LETTERS):
        raise DomainError(f"carrier size must be 1..{len(_LETTERS)}")


def _decode_table(n: int, code: int) -> array:
    """The flat table at ``code``: cell i*n+j holds the product's index, or -1."""
    base = n + 1
    t = array("i")
    for _ in range(n * n):
        t.append(code % base - 1)
        code //= base
    return t


def decode_magma(n: int, code: int) -> FinitePartialMagma:
    """The magma at position ``code`` in enumeration order."""
    _check_decodable(n)
    if not 0 <= code < search_space_size(n):
        raise DomainError(f"code {code} out of range for n={n}")
    labels = _LETTERS[:n]
    table = {(labels[k // n], labels[k % n]): labels[v]
             for k, v in enumerate(_decode_table(n, code)) if v >= 0}
    return FinitePartialMagma(labels, table)


def encode_magma(m: FinitePartialMagma) -> int:
    """Inverse of decode_magma on its own carrier labels (any labels accepted)."""
    index = {x: i for i, x in enumerate(m.elements)}
    n = len(index)
    return sum([(index[c] + 1) * (n + 1) ** (index[a] * n + index[b])
                for (a, b), c in m.table.items()])


def _blocks(n: int):
    """(first code, digit sets, full) for each block of the exhaustive pass.

    A block holds, in order, the codes whose most significant cell holds one
    digit, and bit i stands for its i-th code.  Cell k holds digit v on the
    codes whose k-th base-(n+1) digit is v: runs of (n+1)**k ones, one run
    every (n+1)**(k+1) codes.  Those sets are the same in every block, so
    they are built once and shared.
    """
    base = n + 1
    top = n * n - 1
    size = base ** top
    full = (1 << size) - 1
    lower = []
    spans = 1  # one bit at the start of every run of cell k
    for k in reversed(range(top)):
        run = base ** k
        zero = (spans << run) - spans
        lower.insert(0, [zero << (v * run) for v in range(base)])
        spans = sum(spans << v * run for v in range(base))
    for d in range(base):
        yield d * size, lower + [[full if v == d else 0 for v in range(base)]], full


# tables per block of a sampled census, so that its sets do not grow with the count
_SAMPLE_CHUNK = 4096


def _draw(n: int, size: int, rng: random.Random) -> list[list[int]]:
    """The digit sets of ``size`` tables drawn uniformly, bit i for the i-th table.

    Cell by cell, each round draws one plane of ``size`` random bits per bit
    of a digit.  The tables still pending whose planes spell a value v <= n
    take digit v, and the rest draw again, so each digit is uniform on 0..n.
    """
    bits = n.bit_length()
    digits = []
    for _ in range(n * n):
        sets = [0] * (n + 1)
        pending = (1 << size) - 1
        while pending:
            planes = [(~p, p) for p in map(rng.getrandbits, [size] * bits)]
            for v in range(n + 1):
                held = pending
                for b, plane in enumerate(planes):
                    held &= plane[v >> b & 1]
                sets[v] |= held
                pending ^= held
        digits.append(sets)
    return digits


def _sampled_blocks(n: int, count: int, seed: int):
    """(digit sets, digit sets, full) per chunk of up to _SAMPLE_CHUNK tables, each
    drawn when it is reached; a chunk is named by its sets, which _least_code reads."""
    rng = random.Random(seed)
    for start in range(0, count, _SAMPLE_CHUNK):
        size = min(_SAMPLE_CHUNK, count - start)
        digits = _draw(n, size, rng)
        yield digits, digits, (1 << size) - 1


def _least_code(digits, tables: int) -> int:
    """The least code among the tables of a nonempty set: the least digit some
    table holds, most significant cell first, keeping the tables that hold it."""
    code = 0
    for sets in reversed(digits):
        for v, held in enumerate(sets):
            if tables & held:
                tables &= held
                code = code * len(sets) + v
                break
    return code


def _flag_sets(n: int, digits, full: int) -> tuple[int, int, int, int, int]:
    """The kernel's five flag sets of a block in _CLASS_NAMES order, the class chain checked."""
    flags = _block_flags(n, digits, full)
    _check_inclusions(flags, "the block kernel gives {} tables that are not {}")
    return flags


def _lowest(tables: int) -> int:
    """The index of the lowest table in a nonempty set."""
    return (tables & -tables).bit_length() - 1


def _patterns(flags, full: int) -> list[tuple[str, int]]:
    """(pattern, tables) for each flag pattern that some table of the block carries."""
    split = [("", full)]
    for letter, held in zip(_FLAG_LETTERS, flags):
        parts = []
        for pattern, tables in split:
            on = tables & held
            if on:
                parts.append((pattern + letter, on))
            if on != tables:
                parts.append((pattern + "-", tables ^ on))
        split = parts
    return split


def _fixed_sets(n: int, digits, full: int) -> list[int]:
    """For each non-identity relabeling p, the tables of the block that p fixes.

    Relabeling by p moves cell (i,j) holding v to (p[i],p[j]) holding p[v], so
    a table is fixed when every cell's digit, moved by p, is the digit of the
    cell it lands on.
    """
    out = []
    for p in itertools.permutations(range(n)):
        if p == tuple(range(n)):
            continue
        moved = [0] + [v + 1 for v in p]
        fixed = full
        for k, source in enumerate(digits):
            target = digits[p[k // n] * n + p[k % n]]
            same = 0
            for v, tables in enumerate(source):
                same |= tables & target[moved[v]]
            fixed &= same
            if not fixed:
                break
        out.append(fixed)
    return out


# ---------------------------------------------------------------------------
# public operations

def scan_flags(n: int) -> Iterator[tuple[int, tuple[bool, bool, bool, bool, bool]]]:
    """(code, flags) for every structure of carrier size n, in enumeration order.

    Flag set j of a block, written as a bit string, translates to bit j of
    one byte per table; the five OR-ed together give each table a byte key,
    read at C speed, and every table with the same key shares one tuple.
    The pairs come from one ``zip`` per block, chained, so none passes
    through a Python frame; the size is checked on the first ``next``.
    """
    return itertools.chain.from_iterable(_scan_blocks(n))


def _scan_blocks(n: int):
    """One iterator of scan_flags pairs per block of the exhaustive pass."""
    _check_exhaustive(n, "exhaustive scan", "use sampling")
    shared = [tuple(bool(key >> j & 1) for j in range(len(_FLAG_NAMES)))
              for key in range(1 << len(_FLAG_NAMES))]
    to_bit = [bytes.maketrans(b"01", bytes((0, 1 << j))) for j in range(len(_FLAG_NAMES))]
    for first, digits, full in _blocks(n):
        width = full.bit_length()
        keys = 0
        for tables, table in zip(_flag_sets(n, digits, full), to_bit):
            keys |= int.from_bytes(f"{tables:0{width}b}".encode().translate(table), "big")
        yield zip(range(first, first + width),
                  map(shared.__getitem__, keys.to_bytes(width, "little")))


@dataclass(frozen=True)
class CensusRow:
    """One flag pattern: its mask, how many structures carry it, and the first one.

    ``pattern`` positions are the classes in _FLAG_NAMES order (letters L,
    S, R, P, T; '-' when the flag is off).  ``witness`` is the
    serialized first structure in enumeration order, which is the minimum
    of its isomorphism class, so raw and dedup censuses share witnesses;
    ``witness_code`` is its position.
    """

    pattern: str
    count: int
    witness_code: int
    witness: str


def _rows(n: int, blocks, least, dedup: bool = False) -> list[CensusRow]:
    """Census rows over ``blocks``.

    A pattern counts the tables of its sets, and its witness is its least
    code: the least, over the blocks, of ``least(block, tables)``, the least
    code among the tables ``tables`` of the block that ``block`` names.
    With dedup a pattern counts isomorphism classes by Burnside's lemma: the
    tables each relabeling fixes, summed over all n! relabelings, over n!.
    """
    tally: dict[str, list[int]] = {}
    for block, digits, full in blocks:
        flags = _flag_sets(n, digits, full)
        fixed = _fixed_sets(n, digits, full) if dedup else ()
        for pattern, tables in _patterns(flags, full):
            count = tables.bit_count() + sum((tables & f).bit_count() for f in fixed)
            code = least(block, tables)
            row = tally.setdefault(pattern, [0, code])
            row[0] += count
            row[1] = min(row[1], code)
    if dedup:
        n_fact = math.factorial(n)
        for pattern, row in tally.items():
            classes, rest = divmod(row[0], n_fact)
            if rest:
                raise InvariantError(f"Burnside sum of {pattern} is not a multiple of {n_fact}")
            row[0] = classes
    return [CensusRow(pattern, count, code, serialize_magma(decode_magma(n, code)))
            for pattern, (count, code) in sorted(tally.items())]


def census(n: int, dedup: bool = False) -> list[CensusRow]:
    """Classify every structure of size n and aggregate by flag pattern.

    The raw counts sum to the closed-form search-space size; with
    dedup=True each isomorphism class counts once.  Either way a pattern's
    witness is its first table, which is the minimum of its class.
    """
    _check_exhaustive(n, "exhaustive census", "use sample_census")
    return _rows(n, _blocks(n), lambda first, tables: first + _lowest(tables), dedup)


def sample_census(n: int, count: int, seed: int) -> list[CensusRow]:
    """Census over ``count`` tables drawn uniformly with replacement; counts are
    sample tallies, not totals.  The arguments are checked before the first draw."""
    _check_size(n)
    _check_decodable(n)
    if count < 0:
        raise DomainError(f"sample count must be non-negative, got {count}")
    return _rows(n, _sampled_blocks(n, count, seed), _least_code)


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
    for first, digits, full in _blocks(n):
        flags = _flag_sets(n, digits, full)
        tables = full
        for pos, val in wanted.items():
            held = tables & flags[pos]
            tables = held if val else tables ^ held
        if tables:
            return decode_magma(n, first + _lowest(tables))
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
