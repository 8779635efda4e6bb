import os
import subprocess
import sys
from pathlib import Path

import pytest

from locsemi import (adjoin_identity, adjoin_zero, census, format_census_table,
                     full_relation_magma, parse_magma, parse_semigroup_with_zero,
                     serialize_magma)
from locsemi import cli
from locsemi.cli import run
from locsemi.fixtures import fixture_names, fixture_text


LOOP_QUIVER = "vertices: v\narrow: g v v\n"
# 8,191 paths up to length 12, and 8,191**2 composable pairs
TWO_LOOP_QUIVER = "vertices: v\narrow: g v v\narrow: h v v\n"
Z3_MAGMA = serialize_magma(full_relation_magma(
    ("0", "1", "2"), lambda a, b: str((int(a) + int(b)) % 3)))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def fixture_file(tmp_path, name):
    suffix = ".quiver" if name.endswith("quiver") else ".magma"
    return write(tmp_path, name + suffix, fixture_text(name))


def test_classify_exit_codes_and_report(tmp_path, capsys):
    assert run(["classify", fixture_file(tmp_path, "ex3_8")]) == 0
    out = capsys.readouterr().out
    assert "locality=yes" in out and "partial=no" in out
    assert out.splitlines()[0].startswith("CLASS ")


def test_classify_parse_error_exit_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.magma", "elements: a\nop: a a -> b\n")
    assert run(["classify", bad]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_2(tmp_path, capsys):
    assert run(["classify", str(tmp_path / "nope.magma")]) == 2


def test_usage_error_exit_2(capsys):
    assert run(["frobnicate"]) == 2


def test_polar(tmp_path, capsys):
    f = fixture_file(tmp_path, "ex3_8")
    assert run(["polar", f, "--left", "--set", "1"]) == 0
    assert "left_polar {1}: 0" in capsys.readouterr().out
    assert run(["polar", f, "--right", "--set", "0,1"]) == 0
    assert "right_polar {0,1}: 0" in capsys.readouterr().out
    assert run(["polar", f, "--left", "--set", ""]) == 0
    assert "left_polar {}: 0 1" in capsys.readouterr().out


def test_complete_failure(tmp_path, capsys):
    assert run(["complete", fixture_file(tmp_path, "ex4_3")]) == 1
    assert "NOT-ASSOCIATIVE (a,b,a) lhs=a rhs=0" in capsys.readouterr().out


def test_complete_success_emits_zero_header(tmp_path, capsys):
    empty = write(tmp_path, "empty.magma", "elements: a\n")
    assert run(["complete", empty]) == 0
    out = capsys.readouterr().out
    total = parse_semigroup_with_zero(out)
    assert total.zero == "0"
    assert total.magma.is_total()


def test_adjoin_output_reparses(tmp_path, capsys):
    f = fixture_file(tmp_path, "ex3_8")
    assert run(["adjoin", f, "--identity", "e"]) == 0
    m = parse_magma(capsys.readouterr().out)
    assert "e" in m.elements
    assert run(["adjoin", f, "--zero", "z"]) == 0
    m = parse_magma(capsys.readouterr().out)
    assert m.table[("z", "1")] == "z"


def test_cached_parser_keeps_no_state_between_runs(tmp_path, capsys):
    # the parser is built once per process; each run must parse afresh
    assert cli._build_parser() is cli._build_parser()
    assert run(["enumerate", "census", "--size", "2", "--dedup"]) == 0
    assert capsys.readouterr().out.startswith("census size=2 mode=dedup\n")
    assert run(["enumerate", "census", "--size", "2"]) == 0
    assert capsys.readouterr().out == (
        "census size=2 mode=raw\n" + format_census_table(census(2)) + "\n")

    f = fixture_file(tmp_path, "ex3_8")
    m = parse_magma(fixture_text("ex3_8"))
    assert run(["adjoin", f, "--identity", "e"]) == 0
    assert capsys.readouterr().out == serialize_magma(adjoin_identity(m, "e"))
    assert run(["adjoin", f, "--zero", "z"]) == 0
    assert capsys.readouterr().out == serialize_magma(adjoin_zero(m, "z"))

    assert run(["classify", f]) == 0
    report = capsys.readouterr().out
    assert report.startswith("CLASS ") and len(report.splitlines()) == 7
    for usage_error in (["adjoin", f, "--identity", "e", "--zero", "z"],
                        ["classify", f, "--set", "a"], ["frobnicate"]):
        assert run(usage_error) == 2
        assert capsys.readouterr().out == ""
        assert run(["classify", f]) == 0
        assert capsys.readouterr().out == report


def test_generate(tmp_path, capsys):
    f = fixture_file(tmp_path, "ex3_psg_not_lsg")
    assert run(["generate", f, "--set", "b"]) == 0
    assert "generated: a b" in capsys.readouterr().out


def test_ideal_exit_codes(tmp_path, capsys):
    from locsemi import bounded_magma, coprime_magma
    slice12 = write(tmp_path, "slice12.magma",
                    serialize_magma(bounded_magma(coprime_magma(), 12)))
    odds = ",".join(str(k) for k in range(1, 13, 2))
    assert run(["ideal", slice12, "--set", odds]) == 1
    out = capsys.readouterr().out
    assert "sub_locality_semigroup=yes" in out
    assert "left_ideal=no[witness: left-ideal (2,3)" in out
    assert "ideal=no" in out

    f = fixture_file(tmp_path, "ex3_8")
    assert run(["ideal", f, "--set", "0,1"]) == 0
    assert "ideal=yes" in capsys.readouterr().out


def test_set_names_a_label_that_holds_commas(tmp_path, capsys):
    f = fixture_file(tmp_path, "ex2_5_powerset")  # elements: {1,2} {1} {2} {}
    assert run(["polar", f, "--left", "--set", "{1,2}"]) == 0
    assert capsys.readouterr().out == "left_polar {{1,2}}: {1,2} {1} {2} {}\n"
    assert run(["ideal", f, "--set", "{1,2} {1}"]) == 0
    assert capsys.readouterr().out == (
        "sub_locality_semigroup=yes\nleft_ideal=yes\nright_ideal=yes\nideal=yes\n")
    # comma parts that are all labels keep their meaning; other pieces must be labels
    assert run(["generate", f, "--set", "{1},{2}, {}"]) == 0
    assert capsys.readouterr().out == "generated: {1} {2} {}\n"
    assert run(["polar", f, "--left", "--set", "{1,3}"]) == 2
    assert capsys.readouterr().err == "error: elements outside the carrier: ['3}', '{1']\n"


def test_quiver_paths(tmp_path, capsys):
    f = fixture_file(tmp_path, "ex2_17_quiver")
    assert run(["quiver", "paths", f, "--max-len", "2"]) == 0
    out = capsys.readouterr().out
    assert "total: 6" in out
    assert "path alpha*beta: x -> z length=2" in out


def test_quiver_free_ext(tmp_path, capsys):
    loop = write(tmp_path, "loop.quiver", LOOP_QUIVER)
    z3 = write(tmp_path, "z3.magma", Z3_MAGMA)
    assert run(["quiver", "free-ext", loop, "--target", z3,
                "--map", "g=1", "--max-len", "5"]) == 0
    out = capsys.readouterr().out
    assert "free_property=yes" in out
    assert "fbar g*g*g = 0" in out


def test_quiver_free_ext_bad_map_exit_2(tmp_path, capsys):
    f = fixture_file(tmp_path, "ex2_17_quiver")
    z3 = write(tmp_path, "z3.magma", serialize_magma(
        full_relation_magma(("0", "1", "2"),
                            lambda a, b: str((int(a) + int(b)) % 3))))
    assert run(["quiver", "free-ext", f, "--target", z3, "--map", "alpha=1"]) == 2


# Z/3 under addition, a refined target, with 1 and 2 named by labels that hold commas
_COMMA_LABELS = ("0", "{1,2}", "{2,1}")
Z3_COMMA_MAGMA = serialize_magma(full_relation_magma(
    _COMMA_LABELS, lambda a, b: _COMMA_LABELS[(_COMMA_LABELS.index(a) + _COMMA_LABELS.index(b)) % 3]))


@pytest.mark.parametrize("quiver_text, entries, want", [
    pytest.param(LOOP_QUIVER, "g={1,2}", ["fbar g = {1,2}", "fbar g*g = {2,1}"], id="one"),
    pytest.param(TWO_LOOP_QUIVER, "g={1,2} h=0", ["fbar g = {1,2}", "fbar h = 0"], id="two"),
    pytest.param(TWO_LOOP_QUIVER, "h=0,, g={2,1}", ["fbar g = {2,1}", "fbar h = 0"], id="mixed"),
])
def test_quiver_free_ext_map_values_may_hold_commas(quiver_text, entries, want, tmp_path, capsys):
    # a whitespace piece whose value is a target label is one entry, as with --set
    f = write(tmp_path, "q.quiver", quiver_text)
    z3 = write(tmp_path, "z3.magma", Z3_COMMA_MAGMA)
    assert run(["quiver", "free-ext", f, "--target", z3, "--map", entries, "--max-len", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:len(want)] == want
    assert out[-1] == "free_property=yes"


def test_enumerate_census(capsys):
    assert run(["enumerate", "census", "--size", "2", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "census size=2 mode=raw" in out
    assert "pattern=LSRPT count=16 code=0" in out


def test_enumerate_census_sampled(capsys):
    assert run(["enumerate", "census", "--size", "4",
                "--sample", "50", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "sampled census size=4 count=50 seed=1" in out


@pytest.mark.parametrize("size", ["1", "4"])
def test_enumerate_census_sample_zero_is_an_empty_sample(size, capsys):
    # an explicit --sample 0 is a sample of no tables, not "no --sample"
    assert run(["enumerate", "census", "--size", size, "--sample", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"sampled census size={size} count=0 seed=0"
    assert lines[-1].split() == ["total", "0"]


# byte-exact stdout of three census runs
CENSUS3_RAW_STDOUT = """\
census size=3 mode=raw
pattern       count       code
-----        202898         70
----T         51484          6
---P-           322        206
---PT           434          2
L----          4126         72
L--P-          1055         68
LS-P-           546         69
LS-PT          1002          4
LSRP-             6      15873
LSRPT           271          0
total        262144
pattern=----- count=202898 code=70
pattern=----T count=51484 code=6
pattern=---P- count=322 code=206
pattern=---PT count=434 code=2
pattern=L---- count=4126 code=72
pattern=L--P- count=1055 code=68
pattern=LS-P- count=546 code=69
pattern=LS-PT count=1002 code=4
pattern=LSRP- count=6 code=15873
pattern=LSRPT count=271 code=0
"""
CENSUS3_DEDUP_STDOUT = """\
census size=3 mode=dedup
pattern       count       code
-----         33909         70
----T          8687          6
---P-            57        206
---PT            80          2
L----           715         72
L--P-           184         68
LS-P-            95         69
LS-PT           182          4
LSRP-             1      15873
LSRPT            58          0
total         43968
pattern=----- count=33909 code=70
pattern=----T count=8687 code=6
pattern=---P- count=57 code=206
pattern=---PT count=80 code=2
pattern=L---- count=715 code=72
pattern=L--P- count=184 code=68
pattern=LS-P- count=95 code=69
pattern=LS-PT count=182 code=4
pattern=LSRP- count=1 code=15873
pattern=LSRPT count=58 code=0
"""
SAMPLE4_SEED5_STDOUT = """\
sampled census size=4 count=4000 seed=5
pattern       count       code
-----          3845   32649147
----T           154 1971493126
L----             1 145460318755
total          4000
pattern=----- count=3845 code=32649147
pattern=----T count=154 code=1971493126
pattern=L---- count=1 code=145460318755
"""


@pytest.mark.parametrize("argv, stdout", [
    pytest.param(["enumerate", "census", "--size", "3"], CENSUS3_RAW_STDOUT, id="census3-raw"),
    pytest.param(["enumerate", "census", "--size", "3", "--dedup"], CENSUS3_DEDUP_STDOUT,
                 id="census3-dedup"),
    pytest.param(["enumerate", "census", "--size", "4", "--sample", "4000", "--seed", "5"],
                 SAMPLE4_SEED5_STDOUT, id="sample4-seed5"),
])
def test_enumerate_census_stdout_pinned(argv, stdout, capsys):
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    ["enumerate", "census", "--size", "-1", "--jobs", "1"],
    ["enumerate", "census", "--size", "0", "--jobs", "1"],
    ["enumerate", "census", "--size", "3", "--jobs", "0"],
    ["enumerate", "census", "--size", "0", "--sample", "10"],
    ["enumerate", "census", "--size", "4", "--sample", "-5"],
    ["enumerate", "find", "--size", "0", "--flags", "locality=yes"],
    ["enumerate", "find", "--size", "-2", "--flags", "locality=yes"],
    ["builtin", "coprime", "--bound", "0"],
    ["builtin", "coprime", "--bound", "-3", "--check", "strong"],
    ["builtin", "powerset", "--size", "-2", "--op", "union"],
    ["quiver", "free-ext", "@loop", "--target", "@z3", "--map", "g=1", "--max-len", "-3"],
    ["enumerate", "census", "--size", "4", "--sample", "3", "--jobs", "0"],
    ["enumerate", "census", "--size", "3", "--sample", "10", "--dedup"],
    ["quiver", "paths", "@two-loops", "--max-len", "12"],
    ["enumerate", "census", "--size", "3", "--sample", "0", "--dedup"],
    # past the slice limit: refused before the slicer builds 10^11 elements
    ["builtin", "coprime", "--bound", "99999999999", "--check", "strong"],
    ["builtin", "totient", "--bound", "99999999999"],
])
def test_bad_census_and_scan_arguments_exit_2(argv, tmp_path, capsys):
    files = {"@loop": write(tmp_path, "loop.quiver", LOOP_QUIVER),
             "@two-loops": write(tmp_path, "two-loops.quiver", TWO_LOOP_QUIVER),
             "@z3": write(tmp_path, "z3.magma", Z3_MAGMA)}
    assert run([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    # an arrow named like x's trivial path, and one named like the composite a*b
    (["quiver", "paths", "@e_x", "--max-len", "1"], "path labels collide; rename arrows or vertices"),
    (["quiver", "paths", "@a*b", "--max-len", "2"], "path labels collide; rename arrows or vertices"),
    (["quiver", "free-ext", "@loop", "--target", "@z3", "--map", "g"],
     "map entry 'g' is not name=value"),
    (["enumerate", "find", "--size", "2", "--flags", "locality"],
     "flag entry 'locality' is not name=yes|no"),
    # a name that is no arrow, and a name given twice, are not dropped or overwritten
    (["quiver", "free-ext", "@loop", "--target", "@z3", "--map", "g=0,typo=1"],
     "map entry 'typo=1' names no arrow of the quiver"),
    (["quiver", "free-ext", "@loop", "--target", "@z3", "--map", "g=0,g=1"],
     "map entry 'g=1' names 'g' a second time"),
    (["quiver", "free-ext", "@loop", "--target", "@z3", "--map", "g=0 g=0"],
     "map entry 'g=0' names 'g' a second time"),
    (["enumerate", "find", "--size", "2", "--flags", "locality=yes,locality=no"],
     "flag entry 'locality=no' names 'locality' a second time"),
    # free-ext walks the same labels as paths: the arrow a*b meets the path a*b
    (["quiver", "free-ext", "@a*b", "--target", "@z3", "--map", "a=1,b=1,a*b=2"],
     "path labels collide; rename arrows or vertices"),
])
def test_malformed_input_errors_exit_2(argv, message, tmp_path, capsys):
    files = {"@e_x": write(tmp_path, "e_x.quiver", "vertices: x y\narrow: e_x x y\n"),
             "@a*b": write(tmp_path, "ab.quiver",
                           "vertices: x y z\narrow: a x y\narrow: b y z\narrow: a*b x z\n"),
             "@loop": write(tmp_path, "loop.quiver", LOOP_QUIVER),
             "@z3": write(tmp_path, "z3.magma", Z3_MAGMA)}
    assert run([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_non_utf8_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.magma"
    path.write_bytes(b"elements: \xff\xfe\n")
    assert run(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err


@pytest.mark.parametrize("argv", [["adjoin", "--identity"], ["adjoin", "--zero"],
                                  ["complete", "--zero"]])
def test_non_utf8_label_exit_2(argv, tmp_path, capsys):
    f = fixture_file(tmp_path, "ex3_8")
    assert run([argv[0], f, argv[1], "\udcff"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: bad label '\\udcff': labels are UTF-8 text\n"
    assert captured.out == ""


def test_enumerate_find(capsys):
    assert run(["enumerate", "find", "--size", "2",
                "--flags", "locality=yes,partial=no"]) == 0
    found = parse_magma(capsys.readouterr().out)
    assert len(found.elements) == 2
    assert run(["enumerate", "find", "--size", "2",
                "--flags", "refined=yes,locality=no"]) == 1
    assert "not found" in capsys.readouterr().out
    assert run(["enumerate", "find", "--size", "2", "--flags", "shiny=maybe"]) == 2


def test_builtin_coprime(capsys):
    assert run(["builtin", "coprime", "--bound", "12", "--check", "strong"]) == 1
    out = capsys.readouterr().out
    assert "strong=no[witness: strong-left (2,3),(3,4)] within bound 12" in out
    assert run(["builtin", "coprime", "--bound", "12", "--check", "partial"]) == 0
    assert run(["builtin", "coprime", "--bound", "12"]) == 0
    assert "CLASS bound=12" in capsys.readouterr().out
    for check, code, line in (
            ("locality", 0, "locality=yes"),
            ("refined", 1, "refined=no[witness: refined-left (2,3),(3,4)]"),
            ("transitive", 1, "transitive=no[witness: transitivity (2,3),(3,4)]")):
        assert run(["builtin", "coprime", "--bound", "30", "--check", check]) == code
        assert capsys.readouterr().out == f"{line} within bound 30\n"


SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.parametrize("module", ["locsemi", "locsemi.cli"])
def test_module_entry_points(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = lambda *argv: subprocess.run([sys.executable, "-m", module, *argv],
                                       capture_output=True, text=True, env=env)
    done = cmd("classify", "/nonexistent")
    assert done.returncode == 2 and done.stderr.startswith("error: ")
    done = cmd("builtin", "coprime", "--bound", "12", "--check", "strong")
    assert done.returncode == 1
    assert done.stdout == "strong=no[witness: strong-left (2,3),(3,4)] within bound 12\n"


@pytest.mark.parametrize("module", ["locsemi", "locsemi.cli"])
def test_module_entry_points_refuse_a_non_utf8_label(module, tmp_path):
    # stdout encodes strictly, so a label that reached it would raise, not exit 2
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")
    f = fixture_file(tmp_path, "ex3_8")
    for verb, flag in (("adjoin", "--identity"), ("complete", "--zero")):
        done = subprocess.run([sys.executable, "-m", module, verb, f, flag, b"\xff"],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 2, done.stderr
        assert done.stderr == "error: bad label '\\udcff': labels are UTF-8 text\n"


def test_builtin_powerset(capsys):
    assert run(["builtin", "powerset", "--size", "2", "--op", "union"]) == 0
    out = capsys.readouterr().out
    assert "left_identities: {}" in out
    assert run(["builtin", "powerset", "--size", "2", "--op", "intersection"]) == 0
    assert "left_zeros: {}" in capsys.readouterr().out
    # the power set of the empty set is a one-element structure
    assert run(["builtin", "powerset", "--size", "0", "--op", "union"]) == 0
    assert "CLASS locality=yes" in capsys.readouterr().out


def test_builtin_totient(capsys):
    assert run(["builtin", "totient", "--bound", "30"]) == 0
    assert "totient_hom=yes bound=30" in capsys.readouterr().out


def test_examples_ship_all_fixtures(tmp_path, capsys):
    for name in fixture_names():
        assert run(["examples", name]) == 0
        text = capsys.readouterr().out
        assert text == fixture_text(name)
    assert run(["examples", "ex_unknown"]) == 2
    assert "unknown fixture" in capsys.readouterr().err


def test_examples_round_trip_through_classify(tmp_path, capsys):
    f = write(tmp_path, "ps.magma", fixture_text("ex2_5_powerset"))
    assert run(["classify", f]) == 0
    out = capsys.readouterr().out
    assert "locality=yes" in out and "transitive=yes" in out
