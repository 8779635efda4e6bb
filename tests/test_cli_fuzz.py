"""Exit-code contract under fuzzed argv and input files.

Every argv and every pair of input files must end in exit 0, 1 or 2 without
an exception escaping ``run``, and exit 1 (verdict false) may come only
from the check subcommands.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locsemi.cli import run

# subcommand prefixes that may report a false verdict with exit 1
CHECKS = {("complete",), ("ideal",), ("quiver", "free-ext"), ("enumerate", "find"),
          ("builtin", "coprime"), ("builtin", "totient")}

# "\udcff" is how Python decodes the argv byte 0xff, which is not UTF-8
LABELS = ("a", "b", "c", "0", "1", "e", "{}", "->", "x", "y", "f", "g", "\udcff")
# well-formed files and --set values share these, so subsets often fit the carrier
CORE = ("a", "b", "0", "{}")
FLAGS = ("locality", "strong", "refined", "partial", "transitive", "shiny")


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


_label_list = st.lists(st.sampled_from(LABELS), max_size=4).map(" ".join)
_line = st.one_of(
    _label_list.map(lambda s: "elements: " + s),
    st.tuples(*[st.sampled_from(LABELS)] * 3).map(lambda t: f"op: {t[0]} {t[1]} -> {t[2]}"),
    st.lists(st.sampled_from(LABELS), max_size=5).map(lambda ts: "op: " + " ".join(ts)),
    _label_list.map(lambda s: "vertices: " + s),
    st.tuples(*[st.sampled_from(LABELS)] * 3).map(lambda t: f"arrow: {t[0]} {t[1]} {t[2]}"),
    st.sampled_from(["", "# comment", "zero: 0", "elements:", "junk"]),
)


@st.composite
def _valid_lines(draw):
    """The lines of a well-formed magma or quiver file on up to three labels."""
    labels = draw(st.lists(st.sampled_from(CORE), min_size=1, max_size=3, unique=True))
    item = st.sampled_from(labels)
    if draw(st.integers(0, 2)):
        ops = draw(st.dictionaries(st.tuples(item, item), item, max_size=6))
        return ["elements: " + " ".join(labels)] + [
            f"op: {a} {b} -> {c}" for (a, b), c in ops.items()]
    arrows = draw(st.lists(st.tuples(item, item), max_size=3))
    return ["vertices: " + " ".join(labels)] + [
        f"arrow: {name} {s} {t}" for name, (s, t) in zip(("f", "g", "h"), arrows)]


# mostly valid, else valid plus a stray line or a few random lines; quivers
# get at most three arrows so path counts stay small
_lines = st.one_of(_valid_lines(), _valid_lines(),
                   st.tuples(_valid_lines(), _line).map(lambda t: t[0] + [t[1]]),
                   st.lists(_line, max_size=4))
# a "\udcff" label is written back as the byte 0xff, so such a file is not UTF-8
_file_bytes = st.one_of(
    _lines.map(lambda ls: ("\n".join(ls) + "\n").encode("utf-8", "surrogateescape")),
    st.binary(max_size=40))

_set = st.lists(st.sampled_from(CORE + ("", "x")), max_size=3).map(",".join)
_map = st.lists(st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS + ("",))),
                max_size=3).map(lambda kv: ",".join(f"{k}={v}" for k, v in kv))
_flags = st.lists(st.tuples(st.sampled_from(FLAGS), st.sampled_from(["yes", "no", "maybe"])),
                  max_size=3).map(lambda kv: ",".join(f"{k}={v}" for k, v in kv))
_size = _ints(-2, 3)
_bound = _ints(-3, 14)
_max_len = _ints(-3, 5)


def _opt(*args):
    return st.one_of(st.just([]), st.tuples(*args).map(list))


def _command(files):
    F, G = files
    return st.one_of(
        st.just(["classify", F]),
        st.tuples(st.sampled_from(["--left", "--right"]), _set).map(
            lambda t: ["polar", F, t[0], "--set", t[1]]),
        _opt(st.just("--zero"), st.sampled_from(LABELS)).map(lambda o: ["complete", F] + o),
        st.tuples(st.sampled_from(["--identity", "--zero"]), st.sampled_from(LABELS)).map(
            lambda t: ["adjoin", F, t[0], t[1]]),
        _set.map(lambda s: ["generate", F, "--set", s]),
        _set.map(lambda s: ["ideal", F, "--set", s]),
        _max_len.map(lambda k: ["quiver", "paths", F, "--max-len", k]),
        st.tuples(_map, _opt(st.just("--max-len"), _max_len)).map(
            lambda t: ["quiver", "free-ext", F, "--target", G, "--map", t[0]] + t[1]),
        st.tuples(_size, _opt(st.just("--jobs"), _ints(-3, 5)),
                  _opt(st.just("--dedup")),
                  _opt(st.just("--sample"), _ints(-3, 30), st.just("--seed"), _ints(0, 9))).map(
            lambda t: ["enumerate", "census", "--size", t[0]] + t[1] + t[2] + t[3]),
        st.tuples(_size, _flags).map(
            lambda t: ["enumerate", "find", "--size", t[0], "--flags", t[1]]),
        st.tuples(_bound, _opt(st.just("--check"), st.sampled_from(FLAGS))).map(
            lambda t: ["builtin", "coprime", "--bound", t[0]] + t[1]),
        st.tuples(_size, st.sampled_from(["union", "intersection", "xor"])).map(
            lambda t: ["builtin", "powerset", "--size", t[0], "--op", t[1]]),
        _bound.map(lambda b: ["builtin", "totient", "--bound", b]),
        st.sampled_from(["ex3_6", "ex4_3", "ex2_5_powerset", "ex2_17_quiver", "nope", ""]).map(
            lambda name: ["examples", name]),
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(directory, content):
    """A fresh file per example: truncating one in place is slow on some file systems."""
    fd, path = tempfile.mkstemp(dir=directory)
    with os.fdopen(fd, "wb") as fh:
        fh.write(content)
    return path


def _run_quietly(argv):
    # stdout encodes strictly, as a UTF-8 terminal does, so an unencodable label raises
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


def _check_exit(argv, code):
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert tuple(argv[:1]) in CHECKS or tuple(argv[:2]) in CHECKS, argv


@settings(max_examples=800)
@given(data=st.data(), f_bytes=_file_bytes, g_bytes=_file_bytes)
def test_grammar_argv_exit_codes(workdir, data, f_bytes, g_bytes):
    files = (_write(workdir, f_bytes), _write(workdir, g_bytes))
    argv = data.draw(_command(files))
    try:
        _check_exit(argv, _run_quietly(argv))
    finally:
        for path in files:
            os.remove(path)


_TOKENS = ("classify", "polar", "complete", "adjoin", "generate", "ideal", "quiver",
           "paths", "free-ext", "enumerate", "census", "find", "builtin", "coprime",
           "powerset", "totient", "examples", "--left", "--right", "--set", "--zero",
           "--identity", "--max-len", "--target", "--map", "--size", "--jobs", "--dedup",
           "--sample", "--seed", "--flags", "--bound", "--check", "--op", "union",
           "locality=yes", "ex3_6", "-1", "0", "1", "2", "a,b", "", "FILE")


@pytest.fixture(scope="module")
def magma_file(workdir):
    return _write(workdir, b"elements: a b\nop: a b -> a\n")


@settings(max_examples=1000)
@given(tokens=st.lists(st.sampled_from(_TOKENS), max_size=7))
@example(tokens=["adjoin", "FILE", "--identity", "\udcff"])
@example(tokens=["adjoin", "FILE", "--zero", "\udcff"])
@example(tokens=["complete", "FILE", "--zero", "\udcff"])
def test_free_form_argv_exit_codes(magma_file, tokens):
    argv = [magma_file if t == "FILE" else t for t in tokens]
    _check_exit(argv, _run_quietly(argv))
