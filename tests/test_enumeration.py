import collections
import functools
import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import locsemi.enumeration as enumeration
from locsemi import (CapacityError, DomainError, FinitePartialMagma,
                     InvariantError, census, classify, decode_magma,
                     encode_magma, find_witness, format_census_table,
                     parse_magma, sample_census, scan_flags,
                     search_space_size, serialize_magma)
from locsemi.cli import run
from locsemi.enumeration import _decode_table

from orderly import _checker_flags, _flags_by_code, _representatives, _walk_flags


def test_search_space_sizes():
    assert search_space_size(1) == 2
    assert search_space_size(2) == 81
    assert search_space_size(3) == 262144


def test_sampling_is_seeded():
    a = list(enumeration._sampled_blocks(4, 20, seed=7))
    b = list(enumeration._sampled_blocks(4, 20, seed=7))
    c = list(enumeration._sampled_blocks(4, 20, seed=8))
    assert a == b and a != c


@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, search_space_size(n) - 1))))
def test_decode_encode_round_trip(nc):
    n, code = nc
    assert encode_magma(decode_magma(n, code)) == code


def test_decode_bounds():
    with pytest.raises(DomainError):
        decode_magma(2, 81)
    with pytest.raises(DomainError):
        decode_magma(5, 0)


# the library's walk on flat tables against the plain walk over every triple
# of tests/orderly.py
def test_kernel_matches_checkers_exhaustive_small():
    for n in (1, 2):
        for code in range(search_space_size(n)):
            m = decode_magma(n, code)
            assert _checker_flags(m) == _walk_flags(n, _decode_table(n, code)), (n, code)


def test_kernel_matches_checkers_stride_n3():
    for code in range(0, search_space_size(3), 1013):
        m = decode_magma(3, code)
        assert _checker_flags(m) == _walk_flags(3, _decode_table(3, code)), code


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, search_space_size(n) - 1))))
def test_kernel_matches_checkers_random(nc):
    n, code = nc
    assert _checker_flags(decode_magma(n, code)) == _walk_flags(n, _decode_table(n, code))


def _rows_by_pattern(rows):
    return {r.pattern: r for r in rows}


def test_census_totals_small():
    rows1 = census(1)
    assert sum(r.count for r in rows1) == 2
    rows2 = census(2)
    assert sum(r.count for r in rows2) == 81


def test_census_witness_regions_n2():
    pats = [tuple(ch != "-" for ch in r.pattern) for r in census(2)]
    # locality, strong, refined, partial, transitive
    assert any(p[0] and not p[3] for p in pats)          # locality, not partial
    assert any(p[3] and not p[0] for p in pats)          # partial, not locality
    assert any(p[1] and not p[2] for p in pats)          # strong, not refined
    assert any(p[0] and p[3] and not p[1] for p in pats)  # locality+partial, not strong


def test_census_respects_inclusion_chain():
    for n in (1, 2):
        for r in census(n):
            loc, strong, refined, partial, trans = (ch != "-" for ch in r.pattern)
            assert not refined or strong
            assert not strong or (loc and partial)
            assert not (trans and loc) or partial


def test_census_witnesses_match_their_pattern():
    from locsemi import parse_magma
    for r in census(2):
        flags = classify(parse_magma(r.witness)).flags()
        assert r.pattern == "".join(
            l if f else "-" for l, f in zip("LSRPT", flags))
        assert encode_magma(parse_magma(r.witness)) == r.witness_code


def test_census_dedup_counts_bounded_by_raw():
    raw = _rows_by_pattern(census(2))
    dedup = _rows_by_pattern(census(2, dedup=True))
    assert set(raw) == set(dedup)
    for pattern, row in dedup.items():
        assert row.count <= raw[pattern].count
    # isomorphism classes of the diagonal-relation pair structures collapse
    assert sum(r.count for r in dedup.values()) < 81


# (pattern, count, witness code) of every row of the n=3 census, raw and
# up to isomorphism
CENSUS_N3 = [
    ("-----", 202898, 70), ("----T", 51484, 6), ("---P-", 322, 206),
    ("---PT", 434, 2), ("L----", 4126, 72), ("L--P-", 1055, 68),
    ("LS-P-", 546, 69), ("LS-PT", 1002, 4), ("LSRP-", 6, 15873),
    ("LSRPT", 271, 0),
]
CENSUS_N3_DEDUP = [
    ("-----", 33909, 70), ("----T", 8687, 6), ("---P-", 57, 206),
    ("---PT", 80, 2), ("L----", 715, 72), ("L--P-", 184, 68),
    ("LS-P-", 95, 69), ("LS-PT", 182, 4), ("LSRP-", 1, 15873),
    ("LSRPT", 58, 0),
]


def _row_triples(rows):
    return [(r.pattern, r.count, r.witness_code) for r in rows]


def test_census_n3_rows_pinned():
    rows = census(3)
    assert _row_triples(rows) == CENSUS_N3
    class_totals = {
        name: sum(r.count for r in rows if r.pattern[i] != "-")
        for i, name in enumerate(("locality", "strong", "refined", "partial",
                                  "transitive"))}
    assert class_totals == {"locality": 7006, "strong": 1825, "refined": 277,
                            "partial": 3636, "transitive": 53191}


def test_census_n3_dedup_rows_pinned():
    rows = census(3, dedup=True)
    assert _row_triples(rows) == CENSUS_N3_DEDUP
    assert sum(r.count for r in rows) == 43968
    for r in rows:
        assert encode_magma(parse_magma(r.witness)) == r.witness_code


def _relabel_code(m, perm):
    """Code of m after sending its i-th label to its perm[i]-th label."""
    to = dict(zip(m.elements, (m.elements[i] for i in perm)))
    table = {(to[a], to[b]): to[c] for (a, b), c in m.table.items()}
    return encode_magma(FinitePartialMagma(m.elements, table))


@pytest.mark.parametrize("n, dedup", [
    pytest.param(1, True, id="1"), pytest.param(2, True, id="2"),
    pytest.param(1, False, id="1-raw"), pytest.param(2, False, id="2-raw")])
def test_census_dedup_matches_relabeling_brute_force(n, dedup):
    if dedup:
        perms = list(itertools.permutations(range(n)))
        classes = {}
        for code in range(search_space_size(n)):
            m = decode_magma(n, code)
            classes.setdefault(min(_relabel_code(m, p) for p in perms), m)
        structures = sorted(classes.items())
    else:
        structures = [(code, decode_magma(n, code)) for code in range(search_space_size(n))]
    tally = {}
    for code, m in structures:
        pattern = "".join(l if f else "-" for l, f in zip("LSRPT", classify(m).flags()))
        count, first = tally.get(pattern, (0, code))
        tally[pattern] = (count + 1, first)
    want = sorted((p, c, w) for p, (c, w) in tally.items())
    assert _row_triples(census(n, dedup=dedup)) == want


def test_census_capacity():
    with pytest.raises(CapacityError):
        census(4)


@pytest.mark.parametrize("call", [
    lambda: census(0),
    lambda: census(-1),
    lambda: find_witness({"commutative": True}, 2),
    lambda: decode_magma(2, search_space_size(2)),
    lambda: sample_census(0, 10, seed=1),
    lambda: sample_census(-1, 10, seed=1),
    lambda: sample_census(4, -5, seed=1),
    lambda: next(scan_flags(0)),
    lambda: next(scan_flags(-2)),
    lambda: find_witness({}, 0),
    lambda: find_witness({"locality": True}, -1),
    lambda: decode_magma(0, 0),
    lambda: decode_magma(-1, 0),
    lambda: sample_census(5, 10, seed=1),
    lambda: sample_census(1, -1, seed=1),
])
def test_census_and_scan_reject_bad_arguments(call):
    with pytest.raises(DomainError):
        call()


def test_sample_census_seeded():
    a = sample_census(4, 200, seed=3)
    assert a == sample_census(4, 200, seed=3)
    assert sum(r.count for r in a) == 200


def test_find_witness_patterns():
    found = find_witness({"locality": True, "partial": True, "strong": False}, 2)
    assert found is not None
    rep = classify(found)
    assert rep.locality.ok and rep.partial.ok and not rep.strong.ok

    assert find_witness({"refined": True, "locality": False}, 2) is None

    first = find_witness({}, 2)
    assert first == decode_magma(2, 0)
    assert first.table == {}

    with pytest.raises(DomainError):
        find_witness({"shiny": True}, 2)
    with pytest.raises(CapacityError):
        find_witness({}, 4)


_FLAG_NAMES = ("locality", "strong", "refined", "partial", "transitive")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_find_witness_is_first_match_small(n):
    if n < 3:
        flags = [classify(decode_magma(n, code)).flags() for code in range(search_space_size(n))]
    else:
        flags = _flags_by_code(n)
    # the first code of each full flag tuple; a partial pattern's first match
    # is the least of those it admits
    firsts = {}
    for code, f in enumerate(flags):
        firsts.setdefault(f, code)
    # all 243 partial patterns: each flag unspecified (None), required or forbidden
    for values in itertools.product((None, True, False), repeat=5):
        wanted = {name: v for name, v in zip(_FLAG_NAMES, values) if v is not None}
        first = min((code for f, code in firsts.items()
                     if all(v is None or f[i] == v for i, v in enumerate(values))), default=None)
        found = find_witness(wanted, n)
        assert (None if found is None else encode_magma(found)) == first, wanted


@pytest.mark.parametrize("flags", [
    "locality=yes,refined=yes,transitive=no",
    "partial=yes,locality=no,transitive=no",
    "strong=yes,transitive=no",
    "locality=yes,partial=no",
    "transitive=yes,partial=no",
    "refined=yes",
    "refined=yes,strong=no",
])
def test_find_witness_n3_matches_census_rows(flags):
    wanted = {k: v == "yes" for k, v in (kv.split("=") for kv in flags.split(","))}
    codes = [code for pattern, _, code in CENSUS_N3
             if all((pattern[_FLAG_NAMES.index(k)] != "-") == v for k, v in wanted.items())]
    found = find_witness(wanted, 3)
    assert (None if found is None else encode_magma(found)) == min(codes, default=None)


def test_format_census_table():
    text = format_census_table(census(2))
    assert "pattern=LSRPT count=16 code=0" in text
    assert text.splitlines()[0].startswith("pattern")


# ---------------------------------------------------------------------------
# the bit-sliced block kernel against the oracle of tests/orderly.py and orderly minima

@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_flags_match_table_flags_on_every_code(n):
    # the oracle's flags over the whole space, bit c for code c
    columns = [bytearray() for _ in _FLAG_NAMES]
    for flags in _flags_by_code(n):
        for column, f in zip(columns, flags):
            column.append(49 if f else 48)
    want = [int(bytes(column[::-1]), 2) for column in columns]
    covered = 0
    for first, digits, full in enumeration._blocks(n):
        got = enumeration._block_flags(n, digits, full)
        assert got == tuple(w >> first & full for w in want), (n, first)
        assert first == covered
        covered += full.bit_length()
    assert covered == search_space_size(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scan_flags_matches_table_flags(n):
    # the same codes in order, each with the oracle's flags
    want = enumerate(_flags_by_code(n))
    for got, expected in itertools.zip_longest(scan_flags(n), want):
        assert got == expected, n


def _per_table_rows(n, codes):
    """Census rows of sorted ``codes``, one _walk_flags call per code."""
    tally = {}
    for code in codes:
        flags = _walk_flags(n, _decode_table(n, code))
        pattern = "".join(l if f else "-" for l, f in zip("LSRPT", flags))
        tally.setdefault(pattern, [0, code])[0] += 1
    return [enumeration.CensusRow(p, count, code, serialize_magma(decode_magma(n, code)))
            for p, (count, code) in sorted(tally.items())]


def _digit_sets(n, codes):
    """The digit sets of a chunk of ``codes``, bit i for the i-th code, built per code."""
    digits = [[0] * (n + 1) for _ in range(n * n)]
    for i, code in enumerate(codes):
        for k, v in enumerate(_decode_table(n, code)):
            digits[k][v + 1] |= 1 << i
    return digits


def _drawn_codes(digits, full):
    """The codes of a chunk's tables in draw order, read back from its digit sets."""
    size = full.bit_length()
    codes = [0] * size
    for k, sets in enumerate(digits):
        for v, held in enumerate(sets):
            for i, bit in enumerate(f"{held:0{size}b}"[::-1]):
                if bit == "1":
                    codes[i] += v * len(sets) ** k
    return codes


def _sampled(n, count, seed):
    """The codes sample_census(n, count, seed) draws, in draw order."""
    return [code for _, digits, full in enumeration._sampled_blocks(n, count, seed)
            for code in _drawn_codes(digits, full)]


def _drawing(codes):
    """A stand-in for enumeration._draw whose chunks hold ``codes``, in order."""
    rest = iter(codes)
    return lambda n, size, rng: _digit_sets(n, itertools.islice(rest, size))


@settings(max_examples=40)
@given(st.lists(st.integers(0, search_space_size(4) - 1) | st.sampled_from(
           [0, 1, 2, 5 ** 16 - 1, 47301721, 2449563726]), max_size=40),
       st.sampled_from([1, 2, 3, 7, 4096]))
def test_sampled_batches_match_per_table_rows(codes, chunk):
    # duplicate codes (from the small pool), counts 0 and 1, and counts that
    # cross a chunk boundary at the narrow widths
    with mock.patch.object(enumeration, "_draw", _drawing(codes)), \
            mock.patch.object(enumeration, "_SAMPLE_CHUNK", chunk):
        got = sample_census(4, len(codes), seed=0)
    assert got == _per_table_rows(4, sorted(codes))


@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 8193])
def test_sample_census_matches_per_table_rows(count):
    codes = _sampled(4, count, 21)
    assert len(codes) == count
    assert sample_census(4, count, seed=21) == _per_table_rows(4, sorted(codes))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sampled_digit_sets_match_decoded_codes(n):
    # every table of a chunk holds exactly one digit per cell, so its sets are
    # the ones built per code from the codes they spell
    count = 2 * enumeration._SAMPLE_CHUNK + 5
    sizes = []
    for _, digits, full in enumeration._sampled_blocks(n, count, seed=n):
        sizes.append(full.bit_length())
        assert full == (1 << sizes[-1]) - 1
        assert digits == _digit_sets(n, _drawn_codes(digits, full)), n
    assert sizes == [enumeration._SAMPLE_CHUNK, enumeration._SAMPLE_CHUNK, 5]


def test_sampled_tables_are_uniform_n2():
    # a joint chi-square over all 81 tables of size 2, 200 draws expected
    # each; 124.8 is its 0.1% critical value at 80 degrees of freedom
    codes = _sampled(2, 81 * 200, seed=3)
    counts = collections.Counter(codes)
    assert set(counts) <= set(range(81))
    chi2 = sum((counts[code] - 200) ** 2 / 200 for code in range(81))
    assert chi2 < 124.8, chi2


def test_sampled_digits_are_uniform_per_cell_n4():
    # 20,000 tables over five chunks: each cell's five digits 4,000 times
    # each, up to a chi-square below 18.47, its 0.1% critical value at 4
    # degrees of freedom
    count = 20000
    tally = [[0] * 5 for _ in range(16)]
    for _, digits, _ in enumeration._sampled_blocks(4, count, seed=11):
        for k, sets in enumerate(digits):
            for v, held in enumerate(sets):
                tally[k][v] += held.bit_count()
    for k, counts in enumerate(tally):
        assert sum(counts) == count
        chi2 = sum((c - count / 5) ** 2 / (count / 5) for c in counts)
        assert chi2 < 18.47, (k, counts)


@settings(max_examples=60)
@given(st.lists(st.integers(0, search_space_size(4) - 1) | st.sampled_from(
           [0, 1, 5, 25, 5 ** 15, 5 ** 16 - 1]), min_size=1, max_size=12),
       st.integers(1, 2 ** 12 - 1), st.integers(0, 12))
# the least code drawn last: after duplicates, past the edge, and one cell from another
@example([7, 3, 3, 0], 2 ** 12 - 1, 2)
@example([125, 25, 5, 1, 0], 2 ** 12 - 1, 4)
@example([47301721 + 5 ** 15, 2449563726, 47301721], 2 ** 12 - 1, 1)
def test_least_code_reads_the_least_code_of_a_set(codes, mask, edge):
    # any nonempty set of a chunk's tables, duplicates and all; and a chunk
    # cut in two at ``edge``, whose least codes give the least of the whole
    tables = mask & (1 << len(codes)) - 1 or 1
    want = min(code for i, code in enumerate(codes) if tables >> i & 1)
    assert enumeration._least_code(_digit_sets(4, codes), tables) == want
    parts = [part for part in (codes[:edge], codes[edge:]) if part]
    assert min(enumeration._least_code(_digit_sets(4, part), (1 << len(part)) - 1)
               for part in parts) == min(codes)


def test_sample_census_draws_one_chunk_per_block():
    # each chunk is drawn as it is decided, so a sample never holds more than
    # one chunk of tables
    drawn = []
    draw = _drawing(range(10))

    def spy(n, size, rng):
        drawn.append(size)
        return draw(n, size, rng)

    seen = []
    flag_sets = enumeration._flag_sets

    def decide(n, digits, full):
        seen.append(sum(drawn))
        return flag_sets(n, digits, full)

    with mock.patch.object(enumeration, "_draw", spy), \
            mock.patch.object(enumeration, "_SAMPLE_CHUNK", 3), \
            mock.patch.object(enumeration, "_flag_sets", decide):
        got = sample_census(4, 10, seed=0)
    assert seen == [3, 6, 9, 10]
    assert got == _per_table_rows(4, range(10))


@functools.lru_cache(maxsize=None)
def _draw_orders(count):
    """Three draws at n=4 of ``count`` distinct codes whose least codes come late.

    The least half of the codes are 0, 1, 2, ..., which carry many
    patterns; the rest are random.  Drawn descending, each pattern's least
    code is its last; "repeated" draws the least half, descending, twice
    over; "least-last" shuffles the codes and draws code 0 last.
    """
    rng = random.Random(count)
    codes = list(range(count // 2))
    codes += rng.sample(range(count, search_space_size(4)), count - len(codes))
    descending = sorted(codes, reverse=True)
    least_last = codes[1:]
    rng.shuffle(least_last)
    orders = {"descending": descending, "repeated": descending[-(count // 2 + 1):] * 2,
              "least-last": least_last + [0]}
    return {name: (drawn, _per_table_rows(4, sorted(drawn))) for name, drawn in orders.items()}


@pytest.mark.parametrize("order", ["descending", "repeated", "least-last"])
@pytest.mark.parametrize("chunk, count", [(1, 300), (3, 300), (4096, 4101)])
def test_sampled_witnesses_are_least_codes_in_draw_order(order, chunk, count):
    # a chunk keeps its tables in draw order, so a pattern's lowest table in
    # a chunk need not hold its least code there; at width 3 the last chunk
    # of 300 codes is full, and at 4,096 the last of 4,101 holds 5 codes, so
    # code 0 drawn last is the last table of a later chunk
    codes, want = _draw_orders(count)[order]
    with mock.patch.object(enumeration, "_draw", _drawing(codes)), \
            mock.patch.object(enumeration, "_SAMPLE_CHUNK", chunk):
        got = sample_census(4, len(codes), seed=0)
    assert got == want


@pytest.mark.parametrize("n, error", [(0, DomainError), (4, CapacityError)])
def test_scan_flags_checks_the_size_on_first_next(n, error):
    flags = scan_flags(n)
    with pytest.raises(error):
        next(flags)


def test_sample_census_rejects_unlabelled_sizes_before_drawing(capsys):
    # tables at n=5 have no labels, so the size is rejected before the first
    # draw, not after deciding the whole sample
    drawn = []
    getrandbits = random.Random.getrandbits

    def spy(rng, k):
        drawn.append(k)
        return getrandbits(rng, k)

    with mock.patch.object(random.Random, "getrandbits", spy):
        with pytest.raises(DomainError, match=r"^carrier size must be 1\.\.4$"):
            sample_census(5, 10 ** 6, seed=1)
        assert run(["enumerate", "census", "--size", "5", "--sample", "1000000"]) == 2
        sample_census(1, 1, seed=1)
    # the spy sees the draws of the one table at n=1, and none before
    assert drawn == [1]
    captured = capsys.readouterr()
    assert captured.err == "error: carrier size must be 1..4\n"
    assert captured.out == ""


def test_burnside_dedup_counts_equal_orbit_minimum_counts():
    tally = {}
    for code, _, _ in _representatives(3):
        pattern = "".join(l if f else "-" for l, f in zip("LSRPT", _flags_by_code(3)[code]))
        tally.setdefault(pattern, [0, code])[0] += 1
    want = sorted((p, count, code) for p, (count, code) in tally.items())
    assert _row_triples(census(3, dedup=True)) == want


@pytest.mark.parametrize("corrupt, message", [
    (lambda f, full: (f[0], 0, full, f[3], f[4]), "refined tables that are not strong"),
    (lambda f, full: (0, full, 0, f[3], f[4]),
     "strong tables that are not both locality and partial"),
    (lambda f, full: (full, 0, 0, 0, full), "transitive locality tables that are not partial"),
])
def test_block_inclusion_checks_survive_optimize(monkeypatch, corrupt, message):
    # the checks are explicit raises, so `python -O` cannot strip them
    kernel = enumeration._block_flags
    monkeypatch.setattr(enumeration, "_block_flags",
                        lambda n, digits, full: corrupt(kernel(n, digits, full), full))
    for call in (lambda: census(2), lambda: census(2, dedup=True),
                 lambda: find_witness({}, 2), lambda: sample_census(2, 5, seed=1)):
        with pytest.raises(InvariantError, match=message):
            call()


# sample_census(4, 4000, seed) rows (pattern, count, witness code) for two seeds
SAMPLE4_ROWS = {
    2: [("-----", 3877, 18113375), ("----T", 123, 95552396)],
    13: [("-----", 3857, 64449927), ("----T", 143, 3960553140)],
}


@pytest.mark.parametrize("seed", sorted(SAMPLE4_ROWS))
def test_sample_census_n4_rows_pinned(seed):
    rows = sample_census(4, 4000, seed)
    assert _row_triples(rows) == SAMPLE4_ROWS[seed]
    assert rows == _per_table_rows(4, sorted(_sampled(4, 4000, seed)))
    for r in rows:
        assert r.witness == serialize_magma(decode_magma(4, r.witness_code))
