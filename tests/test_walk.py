"""The walk of locsemi.checks against the oracles of tests/orderly.py, which
share no code with it: every table with n <= 3, and labelled random tables.

These run last in the suite: the sweep walks all 262,227 tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locsemi import FinitePartialMagma, checks, classify

from orderly import (_iter_tables, _oracle_witnesses, _walks_by_code, oracle_report,
                     table_accessors)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_walk_names_the_oracle_witness_of_every_table(n):
    # the axiom and triple of every class's witness on every table with n <= 3,
    # against the plain walk over all triples per clause, decided by blocks
    assert _walks_by_code(n) == _oracle_witnesses(n)
    # whole reports, details and identities included, on a stride of the codes
    for code, t in _iter_tables(n):
        if code % 53:
            continue
        rel = lambda a, b: t[a * n + b] >= 0
        mul = lambda a, b: t[a * n + b]
        backend = checks._flat(n, t)
        got = checks._report(range(n), backend, rel, mul,
                             checks._table_sided(range(n), t, *backend[:2]))
        assert got == oracle_report(range(n), rel, mul), (n, code)


_POOL = tuple(f"{x}{k}" for x in "abxz" for k in (1, 2, 10)) + ("0", "9", "~", "é")


@settings(max_examples=150)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.permutations(_POOL).map(lambda labels: labels[:n]),
    st.lists(st.integers(0, n), min_size=n * n, max_size=n * n))))
def test_classify_of_labelled_tables_equals_the_oracle(case):
    # labels drawn in shuffled order, so a table's positions follow the
    # sorted labels, not the order they were drawn in
    labels, cells = case
    n = len(labels)
    m = FinitePartialMagma(labels, {(labels[k // n], labels[k % n]): labels[v - 1]
                                    for k, v in enumerate(cells) if v})
    assert classify(m) == oracle_report(*table_accessors(m))
