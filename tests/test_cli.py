"""Command-line layer: artifact round-trips, determinism given a seed, exit
codes, and error surfacing. The entry point runs in-process, except where a
test needs a fresh interpreter; files land in a per-module temp directory.
The d=4 pipeline keeps these fast."""

import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from operator import add, mul

import mpmath as mp
import pytest

import siclift
from siclift import cli, exactify, numfield
from siclift.cli import main
from siclift.errors import FieldError, SicliftError
from siclift.exactify import (ExactFiducialCertificate, symmetry_structure,
                              verify_exact)
from siclift.fidsearch import Fiducial
from siclift.modring import dprime
from siclift.numfield import cyclotomic_polynomial, lift_element


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def fidfile(workdir):
    path = str(workdir / "d4.fid")
    rc = main(["search", "--dim", "4", "--digits", "210", "--attempts", "8",
               "--seed", "7", "--out", path])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def certfile(workdir, fidfile):
    path = str(workdir / "d4.cert")
    rc = main(["exactify", "--fiducial", fidfile, "--method", "2",
               "--out", path])
    assert rc == 0
    return path


def _stdout_json(capsys):
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# search / refine


def test_search_writes_loadable_fiducial(fidfile):
    fid = Fiducial.load(fidfile)
    assert fid.d == 4
    assert fid.precision == 210
    with mp.workdps(220):
        assert fid.error < mp.mpf(10) ** -200


def test_search_is_deterministic_given_seed(workdir, fidfile):
    again = str(workdir / "d4_again.fid")
    rc = main(["search", "--dim", "4", "--digits", "210", "--attempts", "8",
               "--seed", "7", "--out", again])
    assert rc == 0
    assert open(again).read() == open(fidfile).read()


def test_refine_reaches_requested_digits(workdir, fidfile):
    out = str(workdir / "d4_260.fid")
    rc = main(["refine", "--fiducial", fidfile, "--digits", "260",
               "--out", out])
    assert rc == 0
    fid = Fiducial.load(out)
    assert fid.precision == 260
    with mp.workdps(270):
        assert fid.error < mp.mpf(10) ** -250


def test_refine_reports_the_written_precision(workdir, fidfile, capsys):
    # a fiducial already past the target is written back unchanged, at its
    # own 210 digits, and the success line says so
    out = str(workdir / "d4_kept.fid")
    assert main(["refine", "--fiducial", fidfile, "--digits", "100",
                 "--out", out]) == 0
    assert Fiducial.load(out).precision == 210
    assert f"wrote {out}: d=4 digits=210 " in capsys.readouterr().out


_NON_POSITIVE = [
    ("search", ["--dim", "4", "--digits", "-5"], "--digits", "-5"),
    ("search", ["--dim", "4", "--attempts", "0"], "--attempts", "0"),
    ("refine", ["--fiducial", "FID", "--digits", "0"], "--digits", "0"),
    ("relation", ["--values", "VALUES", "--digits", "-1"], "--digits", "-1"),
    ("minpoly", ["--literal", "1.4142135623", "--digits", "0"],
     "--digits", "0"),
    ("minpoly", ["--literal", "1.4142135623", "--max-degree", "0"],
     "--max-degree", "0"),
    ("qpoly", ["--fiducial", "FID", "--digits", "-3"], "--digits", "-3"),
    ("exactify", ["--fiducial", "FID", "--digits", "0"], "--digits", "0"),
]


@pytest.mark.parametrize("command,args,flag,value", _NON_POSITIVE,
                         ids=[f"{c}{f}" for c, _, f, _ in _NON_POSITIVE])
def test_non_positive_flag_is_an_error(workdir, fidfile, capsys, command,
                                       args, flag, value):
    # search --digits -5 once wrote a 14-digit file and exited 0, relation
    # reported precision -1, refine --digits 0 asked for --digits and
    # minpoly --digits 0 ran at 21 digits
    values = workdir / "two_values.txt"
    values.write_text("1.4142135623\n2.8284271247\n")
    out = workdir / f"never_written_{command}"
    argv = [command] + [{"FID": fidfile, "VALUES": str(values)}.get(a, a)
                        for a in args] + ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"siclift {command}: error: {flag} must be "
                            f"positive, got {value}\n")
    assert not out.exists()


@pytest.mark.parametrize("raw", ["0", "-7", "many"])
def test_env_digits_must_be_a_positive_integer(monkeypatch, capsys, raw):
    monkeypatch.setenv("SICLIFT_DIGITS", raw)
    assert main(["minpoly", "--literal", "1.4142135623"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("siclift minpoly: error: SICLIFT_DIGITS must be "
                            f"a positive integer, got {raw!r}\n")


# ---------------------------------------------------------------------------
# structure inspection commands


def test_symmetry_output(fidfile, capsys):
    rc = main(["symmetry", "--fiducial", fidfile])
    assert rc == 0
    obj = _stdout_json(capsys)
    assert obj["format"] == "SIC-SYMMETRY v1"
    assert obj["config"]["d"] == 4
    assert obj["index_modulus"] == 8
    assert obj["image_order"] >= 3
    assert sum(obj["orbit_sizes"]) == 64
    assert 1 in obj["orbit_sizes"]


@pytest.mark.parametrize("d, symmetry, order, orbit_count", [
    (5, "fz", 24, 2), (12, "fa", 2304, 8), (21, "h2", 72, 20)],
    ids=["d5-fz", "d12-fa", "d21-h2"])
def test_orbits_by_dimension(capsys, d, symmetry, order, orbit_count):
    rc = main(["orbits", "--dim", str(d), "--symmetry", symmetry])
    assert rc == 0
    obj = _stdout_json(capsys)
    assert obj["format"] == "SIC-ORBITS v1"
    assert obj["group_order"] == order
    assert obj["orbit_count"] == len(obj["orbits"]) == orbit_count
    dp = obj["index_modulus"]
    seen = [tuple(q) for o in obj["orbits"] for q in o["indices"]]
    assert sorted(seen) == [(a, b) for a in range(dp) for b in range(dp)]
    assert all(o["size"] == len(o["indices"]) for o in obj["orbits"])


def test_orbits_h2_needs_d_3_mod_9(capsys):
    assert main(["orbits", "--dim", "5", "--symmetry", "h2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("siclift orbits: error:")
    assert "Traceback" not in err


def test_orbits_needs_exactly_one_source(capsys):
    assert main(["orbits"]) == 2
    assert main(["orbits", "--dim", "5", "--fiducial", "x.fid"]) == 2
    capsys.readouterr()


def test_qpoly_output(fidfile, capsys):
    rc = main(["qpoly", "--fiducial", fidfile, "--digits", "60"])
    assert rc == 0
    obj = _stdout_json(capsys)
    assert obj["format"] == "SIC-QPOLY v1"
    degrees = sorted(p["degree"] for p in obj["polynomials"])
    assert degrees[0] == 1
    triv = next(p for p in obj["polynomials"] if p["degree"] == 1)
    with mp.workdps(70):
        assert abs(mp.mpf(triv["coefficients"][0]) + 1) < mp.mpf(10) ** -50
        for p in obj["polynomials"]:
            for c in p["coefficients"]:
                mp.mpf(c)   # every coefficient is plain decimal text


def test_qpoly_cube_output(fidfile, capsys):
    # --cube builds each orbit's polynomial from the cubed overlaps: every
    # cubed value of the orbit is a root, and the degree is their count
    rc = main(["qpoly", "--fiducial", fidfile, "--digits", "60", "--cube"])
    assert rc == 0
    obj = _stdout_json(capsys)
    assert obj["config"]["cube"] is True
    fid = Fiducial.load(fidfile)
    orbit_of = {o[0]: o for o in symmetry_structure(fid).orbit_list}
    with mp.workdps(80):
        for p in obj["polynomials"]:
            assert p["cubed"] is True
            coeffs = [mp.mpf(c) for c in p["coefficients"]]
            cubes = [fid.table.chi(q) ** 3
                     for q in orbit_of[tuple(p["representative"])]]
            distinct = []
            for v in cubes:
                assert abs(mp.polyval(coeffs[::-1], v)) < mp.mpf(10) ** -45
                if all(abs(v - w) > mp.mpf(10) ** -45 for w in distinct):
                    distinct.append(v)
            assert p["degree"] == len(distinct) == len(coeffs) - 1


# ---------------------------------------------------------------------------
# relation / minpoly


def test_relation_finds_known_dependency(workdir, capsys):
    path = workdir / "vals.txt"
    with mp.workdps(170):
        path.write_text("\n".join(
            mp.nstr(v, 150) for v in (mp.sqrt(2), mp.sqrt(8), mp.sqrt(18)))
            + "\n")
    rc = main(["relation", "--values", str(path), "--digits", "140"])
    assert rc == 0
    obj = _stdout_json(capsys)
    assert obj["format"] == "SIC-RELATION v1"
    assert obj["found"] is True
    m = obj["relation"]
    # m0*x0 = m1*x1 + m2*x2 with x = (sqrt2, 2 sqrt2, 3 sqrt2)
    assert m[0] * 1 == m[1] * 2 + m[2] * 3


def test_relation_rejects_independent_values(workdir, capsys):
    path = workdir / "junk.txt"
    with mp.workdps(130):
        path.write_text("\n".join(
            mp.nstr(v, 120) for v in (mp.pi, mp.e, mp.sqrt(2))) + "\n")
    rc = main(["relation", "--values", str(path), "--digits", "110"])
    assert rc == 0
    obj = _stdout_json(capsys)
    assert obj["found"] is False
    assert obj["relation"] is None


def test_minpoly_literal_golden_ratio(capsys):
    with mp.workdps(115):
        text = mp.nstr((1 + mp.sqrt(5)) / 2, 105)
    rc = main(["minpoly", "--literal", text, "--max-degree", "4",
               "--digits", "100"])
    assert rc == 0
    obj = _stdout_json(capsys)
    assert obj["found"] is True
    assert obj["coefficients"] == [-1, -1, 1]
    assert obj["degree"] == 2


def test_minpoly_env_var_default(monkeypatch, capsys):
    monkeypatch.setenv("SICLIFT_DIGITS", "90")
    with mp.workdps(100):
        text = mp.nstr(mp.sqrt(3), 95)
    rc = main(["minpoly", "--literal", text, "--max-degree", "4"])
    assert rc == 0
    obj = _stdout_json(capsys)
    assert obj["config"]["digits"] == 90
    assert obj["coefficients"] == [-3, 0, 1]


def test_minpoly_needs_an_input(capsys):
    assert main(["minpoly", "--max-degree", "4"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exactify / verify / report


def test_exactify_writes_certificate(certfile):
    from siclift.exactify import ExactFiducialCertificate
    cert = ExactFiducialCertificate.load(certfile)
    assert cert.d == 4 and cert.method == 2


def test_verify_exact_passes(certfile, capsys):
    rc = main(["verify", "--cert", certfile, "--mode", "exact"])
    assert rc == 0
    obj = _stdout_json(capsys)
    assert obj["pass"] is True and obj["mode"] == "exact"


def test_verify_certified_passes(certfile, capsys):
    rc = main(["verify", "--cert", certfile, "--mode", "certified",
               "--digits", "80"])
    assert rc == 0
    obj = _stdout_json(capsys)
    assert obj["pass"] is True and obj["mode"] == "certified"


@pytest.mark.parametrize("digits", ["0", "-5"])
def test_verify_certified_digits_must_be_positive(certfile, capsys, digits):
    # 0 once ran silently at the default 120 digits, and -5 passed against
    # a threshold of 10^3
    rc = main(["verify", "--cert", certfile, "--mode", "certified",
               "--digits", digits])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "siclift verify: error: --digits must be positive" in captured.err
    from siclift.exactify import ExactFiducialCertificate, verify_certified
    with pytest.raises(SicliftError, match="not a positive integer"):
        verify_certified(ExactFiducialCertificate.load(certfile),
                         digits=int(digits))


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # the grammar is static, so a process builds it once, not per call
    assert main(["orbits", "--dim", "4"]) == 0
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["orbits", "--dim", "4"]) == 0
    assert built == []
    assert cli._build_parser() is cli._build_parser()
    capsys.readouterr()


def test_verify_flags_reset_between_calls(certfile, capsys):
    # one parser serves every call, and each call starts from the defaults
    assert main(["verify", "--cert", certfile, "--mode", "certified",
                 "--digits", "60"]) == 0
    assert _stdout_json(capsys)["digits"] == 60
    assert main(["verify", "--cert", certfile]) == 0
    assert _stdout_json(capsys)["mode"] == "exact"
    assert main(["verify", "--cert", certfile, "--mode", "certified"]) == 0
    assert _stdout_json(capsys)["digits"] == 120


def _tamper(obj):
    """One overlap coordinate of obj changed by 1/11."""
    key = sorted(k for k in obj["overlaps"] if k != "0,0")[0]
    obj["overlaps"][key][0] = str(Fraction(obj["overlaps"][key][0])
                                  + Fraction(1, 11))


def test_verify_tampered_certificate_fails(workdir, certfile, capsys):
    obj = json.load(open(certfile))
    _tamper(obj)
    bad = workdir / "tampered.cert"
    bad.write_text(json.dumps(obj))
    rc = main(["verify", "--cert", str(bad), "--mode", "certified",
               "--digits", "80"])
    assert rc == 1
    out = _stdout_json(capsys)
    assert out["pass"] is False
    assert "provably nonzero" in out["reason"]


def _malform(obj, how):
    imap, galois = obj["index_map"], obj["galois"]
    images = galois["images"]
    if how == "index_key_dropped":
        del imap["0,0"]
    elif how == "row_out_of_range":
        imap["0,1"][1] = 9
    elif how == "images_cut":
        del images[2:]
    elif how == "image_duplicated":
        images[1] = images[0]
    elif how == "image_changed":
        images[1][0] = str(Fraction(images[1][0]) + Fraction(1, 11))
    elif how == "galois_matrix_short":
        del galois["matrices"][1][3]
    elif how == "s_matrix_short":
        del obj["s_matrices"][0][3]
    elif how == "stabilizer_not_a_pair":
        obj["stabilizer"][0] = None
    elif how == "modulus_string":
        galois["modulus"] = str(galois["modulus"])
    elif how == "s_matrix_float":
        obj["s_matrices"][0][0] = 0.5
    elif how == "index_entry_float":
        imap["0,1"][0] = 1.0
    elif how == "minpoly_leaf_dropped":
        obj["tower"]["levels"][1]["minpoly"][1].pop()
    elif how == "minpoly_leaf_added":
        obj["tower"]["levels"][1]["minpoly"][1].append("0/1")
    elif how == "minpoly_sublist_cut":
        obj["tower"]["levels"][2]["minpoly"][1].pop()
    elif how == "candidates_string":
        galois["candidates"] = "x"
    elif how == "tau_zero_denominator":
        obj["tau"][0] = "1/0"
    elif how == "tower_precision_float":
        obj["tower"]["precision"] += 0.5
    elif how == "tower_precision_zero":
        obj["tower"]["precision"] = 0
    elif how == "tower_precision_negative":
        obj["tower"]["precision"] = -100
    # the cases below were not errors before: a d whose (Z/d')^2 was
    # enumerated until memory ran out, a precision that no embedding stores
    # (an OverflowError traceback), group data spelled with other
    # representatives of the same residues, an unused stored overlap and a
    # root index outside [0, degree) (all verified as a pass), a NaN or
    # infinite embedding (exit 1), and a tower without levels (exact
    # verification did not finish)
    elif how == "dimension_huge":
        obj["d"] = 10 ** 40
    elif how == "tower_precision_huge":
        obj["tower"]["precision"] = 10 ** 40
    elif how == "galois_modulus_doubled":
        galois["modulus"] *= 2
    elif how == "galois_entry_plus_modulus":
        galois["matrices"][1][0] += galois["modulus"]
    elif how == "galois_entry_minus_modulus":
        galois["matrices"][1][0] -= galois["modulus"]
    elif how == "s_matrix_entry_plus_modulus":
        obj["s_matrices"][1][1] += galois["modulus"]
    elif how == "stabilizer_shift_plus_d":
        obj["stabilizer"][0][0][0] += obj["d"]
    elif how == "root_index_past_degree":
        level = obj["tower"]["levels"][0]
        level["root_index"] = len(level["minpoly"])
    elif how == "root_index_negative":
        obj["tower"]["levels"][0]["root_index"] = -1
    elif how in ("embedding_nan", "embedding_inf"):
        obj["tower"]["levels"][0]["embedding"] = f"{how[10:]} 0"
    elif how == "overlap_key_extra":
        obj["overlaps"]["9,0"] = list(obj["overlaps"]["0,1"])
    elif how == "generator_rep_plus_modulus":
        obj["generator_rep"][0] += galois["modulus"]
    # the cases below were a traceback, a pass or a verdict that differed
    # between the commands: level counts that are no plain integers, a
    # missing generator index, a phase-level flag that the tower
    # contradicts, and an image one coefficient short (which only the rows
    # built from it noticed); counts not one apart were refused only
    # because the overlaps then had the wrong length
    elif how == "e0_levels_float":
        obj["e0_levels"] = float(obj["e0_levels"])
    elif how == "e0_levels_bool":
        obj["e0_levels"] = True
    elif how == "e1_levels_equal_e0":
        obj["e1_levels"] = obj["e0_levels"]
    elif how == "generator_rep_null":
        obj["generator_rep"] = None
    elif how == "tau_level_added_flipped":
        obj["tau_level_added"] = not obj["tau_level_added"]
    elif how == "image_coefficient_dropped":
        images[0].pop()
    elif how == "tower_without_levels":
        # a consistent certificate over Q: no embedding stores digits that
        # could refuse the huge precision, and exact verification once
        # computed at that precision
        obj["tower"].update(levels=[], precision=10 ** 7)
        obj.update(e0_levels=0, e1_levels=0, tau=["1/1"],
                   tau_level_added=False)
        obj["overlaps"] = {k: ["1/1"] for k in obj["overlaps"]}
        galois.update(matrices=galois["matrices"][:1], images=[[]])
        for entry in imap.values():
            entry[1] = 0
    # the cases below were a pass in certified mode, and all but the first
    # in exact mode too: a generator index that is no orbit representative,
    # a representative or group element listed twice, and a stored rational
    # in a second spelling of its value
    elif how == "generator_rep_not_a_rep":
        obj["generator_rep"] = next([a, b] for a in range(galois["modulus"])
                                    for b in range(galois["modulus"])
                                    if [a, b] not in obj["orbit_reps"])
    elif how == "orbit_rep_repeated":
        obj["orbit_reps"].append(obj["orbit_reps"][-1])
    elif how == "s_matrix_repeated":
        obj["s_matrices"].append(obj["s_matrices"][0])
    elif how == "stabilizer_matrix_identity":
        # the identity is listed already, so it is now listed twice
        assert [[0, 0], [1, 0, 0, 1]] in obj["stabilizer"]
        next(e for e in obj["stabilizer"] if e[1] != [1, 0, 0, 1])[1] = \
            [1, 0, 0, 1]
    elif how == "minpoly_leaf_respelled":
        coeff = next(c for c in obj["tower"]["levels"][1]["minpoly"]
                     if "0/1" in c)
        coeff[coeff.index("0/1")] = "0/11"
    elif how == "tau_respelled":
        obj["tau"][obj["tau"].index("0")] = "0/1"
    elif how == "overlap_respelled":
        # the lattice overlap 1, written 1/1
        obj["overlaps"]["0,0"][0] += "/1"
    elif how == "image_respelled":
        images[0][0] = " " + images[0][0]
    # the cases below were a pass in both modes: a level tag is written as
    # the writer gives its position, a for the coefficient level, t for the
    # overlap level and tau for an added level
    elif how.startswith("level_tag_"):
        k = ("a", "t", "tau").index(how[10:])
        obj["tower"]["levels"][k]["tag"] = "zz"
    elif how == "level_tags_swapped":
        levels = obj["tower"]["levels"]
        levels[1]["tag"], levels[2]["tag"] = levels[2]["tag"], levels[1]["tag"]


@pytest.mark.parametrize("how", ["index_key_dropped", "row_out_of_range",
                                 "images_cut", "image_duplicated",
                                 "image_changed", "galois_matrix_short",
                                 "s_matrix_short", "stabilizer_not_a_pair",
                                 "modulus_string", "s_matrix_float",
                                 "index_entry_float", "minpoly_leaf_dropped",
                                 "minpoly_leaf_added", "minpoly_sublist_cut",
                                 "candidates_string", "tau_zero_denominator",
                                 "tower_precision_float",
                                 "tower_precision_zero",
                                 "tower_precision_negative",
                                 "dimension_huge", "tower_precision_huge",
                                 "galois_modulus_doubled",
                                 "galois_entry_plus_modulus",
                                 "galois_entry_minus_modulus",
                                 "s_matrix_entry_plus_modulus",
                                 "stabilizer_shift_plus_d",
                                 "overlap_key_extra",
                                 "generator_rep_plus_modulus",
                                 "root_index_past_degree",
                                 "root_index_negative", "embedding_nan",
                                 "embedding_inf", "tower_without_levels"])
def test_verify_malformed_certificate_is_an_error(workdir, certfile, capsys,
                                                  how):
    obj = json.load(open(certfile))
    _malform(obj, how)
    bad = workdir / f"malformed_{how}.cert"
    bad.write_text(json.dumps(obj))
    assert main(["verify", "--cert", str(bad), "--mode", "exact"]) == 2
    err = capsys.readouterr().err
    assert "siclift verify: error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["verify", "--mode", "exact"],
                                     ["verify", "--mode", "certified",
                                      "--digits", "80"],
                                     ["report"]])
@pytest.mark.parametrize("how", ["e0_levels_float", "e0_levels_bool",
                                 "e1_levels_equal_e0", "generator_rep_null",
                                 "tau_level_added_flipped", "images_cut",
                                 "image_coefficient_dropped",
                                 "generator_rep_not_a_rep",
                                 "orbit_rep_repeated", "s_matrix_repeated",
                                 "stabilizer_matrix_identity",
                                 "minpoly_leaf_respelled", "tau_respelled",
                                 "overlap_respelled", "image_respelled",
                                 "level_tag_a", "level_tag_t",
                                 "level_tag_tau", "level_tags_swapped"])
def test_malformed_galois_data_is_an_error_for_every_command(
        workdir, certfile, capsys, how, command):
    # the loader refuses these, so every command that reads the file
    # exits 2 with one message line
    obj = json.load(open(certfile))
    _malform(obj, how)
    bad = workdir / f"malformed_{how}.cert"
    bad.write_text(json.dumps(obj))
    assert main([command[0], "--cert", str(bad), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"siclift {command[0]}: error:")
    assert err.count("\n") == 1
    if how == "image_coefficient_dropped":
        assert "Galois image 0: need 8 coefficients, got 7" in err


# every top-level certificate field, and five ways to break each
_FIELDS = ("format", "d", "method", "tower", "e0_levels", "e1_levels", "tau",
           "tau_level_added", "generator_rep", "orbit_reps", "overlaps",
           "index_map", "galois", "s_matrices", "stabilizer", "conjectures",
           "verification")
_MUTATIONS = {"int": 7, "string": "x", "list": [1], "mapping": {"a": 1}}


def _written(workdir, obj, stem) -> str:
    path = workdir / f"{stem}.cert"
    path.write_text(json.dumps(obj))
    return str(path)


# each command that reads a certificate: the words before --cert and after
_COMMANDS = {"exact": (["verify"], ["--mode", "exact"]),
             "certified": (["verify"], ["--mode", "certified", "--digits",
                                        "80"]),
             "report": (["report"], [])}


def _run(path, command, capsys):
    head, tail = _COMMANDS[command]
    rc = main(head + ["--cert", path] + tail)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return rc, out, err


@pytest.mark.parametrize("mutation", ["dropped", *_MUTATIONS])
@pytest.mark.parametrize("key", _FIELDS)
def test_field_mutation_is_a_failure_or_an_error(workdir, certfile, capsys,
                                                 key, mutation):
    # only the informational conjectures may hold any mapping and still
    # pass. The writer no longer writes verification, and the loader skips
    # it as a legacy key: set to a stored pass on a tampered file, then
    # mutated, it leaves verify failing and report unchanged
    obj = json.load(open(certfile))
    if key == "verification":
        _tamper(obj)
        plain = _run(_written(workdir, obj, "tampered"), "report", capsys)
        obj[key] = {"mode": "exact", "pass": True}
    if mutation == "dropped":
        del obj[key]
    else:
        obj[key] = _MUTATIONS[mutation]
    bad = _written(workdir, obj, f"mutated_{key}_{mutation}")
    allowed = {0, 1, 2} if (key, mutation) == ("conjectures", "mapping") \
        else {1, 2}
    for command in ("exact", "certified", "report"):
        got = _run(bad, command, capsys)
        if key != "verification":
            assert got[0] in allowed, (command, got)
        elif command == "report":
            assert got == plain
        else:
            assert got[0] == 1, (command, got)


# what the writer wrote before the alignment scores and the verification
# report left the format: a stored verdict, and the scores as mpmath text
_LEGACY = {"verification": {"mode": "exact", "pass": True, "checks": {},
                            "offending": None},
           "score": "1.414213562", "runner_up": "1.0e+32",
           "separation": "7.071067812e+31"}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize("tampered", [False, True])
def test_legacy_keys_change_nothing(workdir, certfile, capsys, command,
                                    tampered):
    # a file in the format before the change carries the four keys; it
    # loads, and every command answers as it does on the file without
    # them, down to the report's text and a stored pass on a tampered file
    obj = json.load(open(certfile))
    assert not set(_LEGACY) & (set(obj) | set(obj["galois"]))
    if tampered:
        _tamper(obj)
    plain = _run(_written(workdir, obj, f"plain_{tampered}"), command, capsys)
    obj["verification"] = _LEGACY["verification"]
    obj["galois"].update((k, _LEGACY[k])
                         for k in ("score", "runner_up", "separation"))
    legacy = _run(_written(workdir, obj, f"legacy_{tampered}"), command,
                  capsys)
    assert legacy == plain
    assert plain[0] == (1 if tampered and command != "report" else 0)


def _respelled_key(mapping, spell):
    """mapping with its first key "a,b" spelled by spell(a, b)."""
    key = next(iter(mapping))
    return {(spell(*key.split(",")) if k == key else k): v
            for k, v in mapping.items()}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize("field", ["index_map", "overlaps"])
@pytest.mark.parametrize("spell", ["{},+{}", " {},{}", "{},0{}", "{}, {}"])
def test_respelled_index_keys_are_refused(workdir, certfile, capsys, command,
                                          field, spell):
    # int() reads each of these as the index the writer writes as "a,b";
    # only that spelling is a key
    obj = json.load(open(certfile))
    obj[field] = _respelled_key(obj[field], spell.format)
    rc, _out, err = _run(_written(workdir, obj, "respelled"), command,
                         capsys)
    assert rc == 2
    assert "is not written as" in err


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize("part", ["certificate", "galois", "tower",
                                  "tower level"])
def test_unknown_keys_are_refused(workdir, certfile, capsys, command, part):
    # the message names the key by its path in the file
    obj = json.load(open(certfile))
    doc, path = {"certificate": (obj, "certificate"),
                 "galois": (obj["galois"], "certificate.galois"),
                 "tower": (obj["tower"], "certificate.tower"),
                 "tower level": (obj["tower"]["levels"][1],
                                 "certificate.tower.levels[1]")}[part]
    doc["foo"] = 1
    rc, _out, err = _run(_written(workdir, obj, "unknown_key"), command,
                         capsys)
    assert rc == 2
    assert f"{path}.foo is not written as the writer writes it" in err


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize("key, junk", [("method", '"junk"'),
                                       ("tau", '["0"]')])
def test_repeated_keys_are_refused(workdir, certfile, capsys, command, key,
                                   junk):
    # a key written twice in one object, junk first: json keeps the last
    # value, so the file read as the writer's until the loader saw pairs
    text = open(certfile).read()
    line = f'\n "{key}": '
    assert text.count(line) == 1
    bad = workdir / "repeated_key.cert"
    bad.write_text(text.replace(line, f"{line}{junk},{line}"))
    rc, _out, err = _run(str(bad), command, capsys)
    assert rc == 2
    assert f"the key '{key}' is written twice in one object" in err


class _DigitsOnly(type(Fraction)):
    def __instancecheck__(cls, x):
        return isinstance(x, Fraction)


class _FractionOfDigits(Fraction, metaclass=_DigitsOnly):
    """Fraction for numfield, failing the test when it is handed text with
    an exponent, an underscore or a space."""

    def __new__(cls, *args):
        assert not any(isinstance(a, str) and set(a) & set("eE_ ")
                       for a in args), args
        return Fraction(*args)


def test_parse_rational_hands_fraction_digits_alone(monkeypatch):
    monkeypatch.setattr(numfield, "Fraction", _FractionOfDigits)
    assert numfield.parse_rational("-3/4") == Fraction(-3, 4)
    for s in ("1e5", "1E5", "1_0", " 5", "5 ", "1e999999999", "+5", "1.5",
              "6/8 ", 5, None):
        with pytest.raises(FieldError, match="is not a rational"):
            numfield.parse_rational(s)


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize("where", ["overlap", "tau", "minpoly"])
def test_exponent_coordinate_is_refused_unparsed(workdir, certfile, capsys,
                                                 monkeypatch, command, where):
    # 11 characters that Fraction would expand to a billion digits
    monkeypatch.setattr(numfield, "Fraction", _FractionOfDigits)
    obj = json.load(open(certfile))
    leaf = {"overlap": obj["overlaps"]["0,1"],
            "tau": obj["tau"],
            "minpoly": obj["tower"]["levels"][0]["minpoly"]}[where]
    leaf[0] = "1e999999999"
    rc, _out, err = _run(_written(workdir, obj, "exponent"), command, capsys)
    assert rc == 2
    assert "'1e999999999' is not a rational" in err


@pytest.mark.parametrize("mode", ["exact", "certified"])
@pytest.mark.parametrize("path", [("d",), ("e0_levels",),
                                  ("galois", "candidates"),
                                  ("s_matrices", 0, 0),
                                  ("tower", "levels", 1, "root_index")])
@pytest.mark.parametrize("spell", [float, lambda _v: True])
def test_integer_in_another_type_is_refused(workdir, certfile, capsys, mode,
                                            path, spell):
    # the loader compares with ==, under which 1 == 1.0 == true, so each
    # integer the writer writes is type-checked first
    obj = json.load(open(certfile))
    *outer, last = path
    node = reduce(lambda n, k: n[k], outer, obj)
    assert type(node[last]) is int
    node[last] = spell(node[last])
    rc, _out, err = _run(_written(workdir, obj, "typed"), mode, capsys)
    assert rc == 2, err


def test_conjectures_stay_free_form(workdir, certfile, capsys):
    obj = json.load(open(certfile))
    obj["conjectures"]["foo"] = {"bar": [1]}
    path = _written(workdir, obj, "free_conjectures")
    assert [_run(path, c, capsys)[0] for c in sorted(_COMMANDS)] == [0, 0, 0]


@pytest.mark.parametrize("mode", ["exact", "certified"])
def test_verify_rejects_another_primitive_root_as_tau(workdir, certfile,
                                                      capsys, mode):
    # tau^3 is a primitive root of the same order, so only its embedding
    # (or the conjugation it implies) tells it from the phase
    from siclift.exactify import ExactFiducialCertificate
    obj = json.load(open(certfile))
    tau = ExactFiducialCertificate.load(certfile).tau
    obj["tau"] = [str(c) for c in (tau ** 3).coefficients]
    bad = workdir / "tau_cubed.cert"
    bad.write_text(json.dumps(obj))
    rc = main(["verify", "--cert", str(bad), "--mode", mode,
               "--digits", "80"])
    assert rc == 1
    assert _stdout_json(capsys)["pass"] is False


def _orbit_negated(certfile, path):
    """The certificate with the stored overlap of its 12-index orbit
    negated, written to path."""
    obj = json.load(open(certfile))
    sizes = [0] * len(obj["orbit_reps"])
    for pos, _row in obj["index_map"].values():
        sizes[pos] += 1
    rep = obj["orbit_reps"][sizes.index(12)]
    key = f"{rep[0]},{rep[1]}"
    obj["overlaps"][key] = [str(-Fraction(s)) for s in obj["overlaps"][key]]
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("mode", ["exact", "certified"])
def test_verify_rejects_orbit_negated(workdir, certfile, capsys, mode):
    # negating the stored overlap of the 12-index orbit negates the orbit
    # everywhere, inside the operator's period and outside it; conjugation,
    # equiangularity, transport, symmetry and stabilizer shifts all still
    # hold, and only the projector identity sees the edit
    bad = _orbit_negated(certfile, workdir / f"orbit_negated_{mode}.cert")
    rc = main(["verify", "--cert", str(bad), "--mode", mode,
               "--digits", "80"])
    assert rc == 1
    out = _stdout_json(capsys)
    assert out["pass"] is False
    assert "not idempotent" in (out.get("offending") or out["reason"])


def _full_scan_report(cert):
    """verify_exact's report as the whole tower gives it: every overlap
    lifted into the tower and conjugated by the tower's map, every entry of
    A^2 - A taken and the first nonzero one, in row-major order, named."""
    tower, d = cert.tower, cert.d
    chi = {q: lift_element(tower, x) for q, x in cert.all_overlaps().items()}
    powers = exactify._powers(cert.tau, tower.one(), 2 * d)
    try:
        conj = exactify._conjugation_map(cert, powers[dprime(d) - 1])
    except FieldError as exc:
        return {"mode": "exact", "pass": False,
                "checks": {"conjugation_closed": False},
                "offending": f"conjugation map: {exc}"}
    checks = {"conjugation_closed": True}

    def order(powers):
        return "tau is not a primitive root of the expected order", reduce(
            add, map(mul, cyclotomic_polynomial(dprime(d)), powers))

    for name, message, residue in exactify._residues(
            chi, d, tower.one(), conj, lambda x: x, conj, powers, order):
        checks[name] = residue.is_zero()
        if not checks[name]:
            return {"mode": "exact", "pass": False, "checks": checks,
                    "offending": message}
    group, offending = exactify._group_data_checks(cert)
    return {"mode": "exact", "pass": offending is None,
            "checks": {**checks, **group}, "offending": offending}


def test_verify_exact_report_equals_the_full_scan(workdir, certfile):
    # verify_exact takes the overlap identities in the overlap field and
    # only the upper triangle of A^2 - A. The saved file, its tampered
    # copies (test_verify_tampered_certificate_fails's edit and the
    # benchmark's) and each orbit's overlap negated, the 12-index one as in
    # test_verify_rejects_orbit_negated, give the report of the full-tower,
    # full-square checklist, key for key and in order
    base = json.load(open(certfile))
    edits = {"good": lambda obj: None}

    def bump(obj, key, k, by):
        obj["overlaps"][key][k] = str(Fraction(obj["overlaps"][key][k]) + by)

    first = sorted(k for k in base["overlaps"] if k != "0,0")[0]
    edits["tampered"] = lambda obj: bump(obj, first, 0, Fraction(1, 11))
    nonzero = [(key, k) for key, coeffs in base["overlaps"].items()
               for k, c in enumerate(coeffs) if Fraction(c) != 0]
    # the benchmark's tamper, drawn with this file's search seed
    edits["unit_tamper"] = lambda obj: bump(
        obj, *random.Random(7).choice(nonzero), 1)
    for key in base["overlaps"]:
        edits[f"negated_{key}"] = lambda obj, key=key: obj["overlaps"].update(
            {key: [str(-Fraction(c)) for c in obj["overlaps"][key]]})
    path = workdir / "full_scan.cert"
    seen = {}
    for name, edit in edits.items():
        obj = json.loads(json.dumps(base))
        edit(obj)
        path.write_text(json.dumps(obj))
        got = verify_exact(ExactFiducialCertificate.load(str(path)))
        want = _full_scan_report(ExactFiducialCertificate.load(str(path)))
        assert list(got["checks"].items()) == list(want["checks"].items())
        assert got == want, name
        seen[name] = [check for check, ok in got["checks"].items() if not ok]
    assert seen.pop("good") == []
    assert {check for failed in seen.values() for check in failed} == {
        "conjugation_closed", "lattice_overlaps_are_one", "equiangularity",
        "idempotent"}


@pytest.mark.parametrize("mode", ["exact", "certified"])
@pytest.mark.parametrize("field", ["galois_matrix", "s_matrix",
                                   "stabilizer_shift"])
def test_verify_checks_group_data(workdir, certfile, capsys, field, mode):
    # the overlaps stay intact, so only the exact group-data checks can see
    # a Galois row's matrix, a symmetry matrix or a stabilizer shift replaced
    obj = json.load(open(certfile))
    if field == "galois_matrix":
        obj["galois"]["matrices"][1] = [1, 0, 0, 1]
    elif field == "s_matrix":
        obj["s_matrices"][-1] = [1, 1, 0, 1]
    else:
        assert obj["stabilizer"][0][0] == [0, 0]
        obj["stabilizer"][0][0] = [1, 0]
    bad = workdir / f"group_{field}.cert"
    bad.write_text(json.dumps(obj))
    rc = main(["verify", "--cert", str(bad), "--mode", mode,
               "--digits", "80"])
    assert rc == 1
    assert _stdout_json(capsys)["pass"] is False


@pytest.mark.parametrize("mode", ["exact", "certified"])
def test_group_data_mutations_are_refused(workdir, certfile, capsys, mode):
    # by rule: each stabilizer element's shift set to (1, 0) and to (0, 1)
    # and its matrix to the identity, a shear and -I, and each symmetry
    # matrix set to the shear and to -I; an edit that leaves the entry as
    # it was is no mutation and is skipped
    base = json.load(open(certfile))
    m = base["galois"]["modulus"]
    mats = ([1, 0, 0, 1], [1, 1, 0, 1], [m - 1, 0, 0, m - 1])
    edits = [(["stabilizer", i], 0, value)
             for i in range(len(base["stabilizer"]))
             for value in ([1, 0], [0, 1])]
    edits += [(["stabilizer", i], 1, M)
              for i in range(len(base["stabilizer"])) for M in mats]
    edits += [(["s_matrices"], i, M)
              for i in range(len(base["s_matrices"])) for M in mats[1:]]
    bad = workdir / f"group_mutation_{mode}.cert"
    passed = []
    for path, slot, value in edits:
        obj = json.load(open(certfile))
        entry = obj
        for key in path:
            entry = entry[key]
        if entry[slot] == value:
            continue
        entry[slot] = value
        bad.write_text(json.dumps(obj))
        rc = main(["verify", "--cert", str(bad), "--mode", mode,
                   "--digits", "80"])
        if rc not in (1, 2):
            passed.append((path, slot, value, rc))
    assert passed == []
    assert "Traceback" not in capsys.readouterr().err


def _second_spellings(base):
    """By rule, files that each verifier once passed though they do not
    re-serialize to the file they came from: each stabilizer entry dropped
    (the rest still generate the symmetry matrices); the index (0, 0),
    whose overlap 1 every Galois row fixes, given each row but its own; and
    each tower embedding part with a digit appended, a 0 to every part and
    a 1 to every nonzero one, at or below the stated precision."""
    out = []

    def mutated(name, edit):
        obj = json.loads(json.dumps(base))
        edit(obj)
        out.append((name, obj))

    for i in range(len(base["stabilizer"])):
        mutated(f"stabilizer_{i}_dropped",
                lambda obj, i=i: obj["stabilizer"].pop(i))
    own = base["index_map"]["0,0"][1]
    for row in range(len(base["galois"]["images"])):
        if row != own:
            mutated(f"index_0_0_row_{row}",
                    lambda obj, row=row: obj["index_map"]["0,0"].__setitem__(
                        1, row))
    for k, level in enumerate(base["tower"]["levels"]):
        parts = level["embedding"].split()
        for p, part in enumerate(parts):
            mant, e, exp = part.partition("e")
            for digit in "01" if float(part) else "0":
                longer = parts[:p] + [mant + digit + e + exp] + parts[p + 1:]
                mutated(f"level_{k}_part_{p}_plus_{digit}",
                        lambda obj, k=k, longer=longer:
                        obj["tower"]["levels"][k].__setitem__(
                            "embedding", " ".join(longer)))
    return out


@pytest.mark.parametrize("command", [["verify", "--mode", "exact"],
                                     ["verify", "--mode", "certified",
                                      "--digits", "80"],
                                     ["report"]])
def test_second_spellings_are_refused(workdir, certfile, capsys, command):
    # a dropped stabilizer entry fails the exact group checks (exit 1); a
    # moved identity row and a longer embedding are refused at load (exit
    # 2), so report, which verifies nothing, exits 0 only on the first
    base = json.load(open(certfile))
    bad = workdir / f"second_spelling_{command[-1]}.cert"
    mutations = _second_spellings(base)
    assert len(mutations) >= len(base["stabilizer"]) + 3
    wrong = []
    for name, obj in mutations:
        bad.write_text(json.dumps(obj))
        rc = main([command[0], "--cert", str(bad), *command[1:]])
        if name.startswith("stabilizer"):
            expected = 0 if command[0] == "report" else 1
        else:
            expected = 2
        if rc != expected:
            wrong.append((name, rc))
    assert wrong == []
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["exact", "certified"])
def test_verify_checks_the_generator_overlap(workdir, certfile, capsys,
                                             mode):
    # generator_rep moved to another orbit representative, whose overlap
    # is not the overlap field's generator: certified mode, which never
    # reads the index, once passed it
    obj = json.load(open(certfile))
    gen = obj["generator_rep"]
    for rep in obj["orbit_reps"]:
        if rep == gen:
            continue
        obj["generator_rep"] = rep
        bad = workdir / f"generator_{mode}.cert"
        bad.write_text(json.dumps(obj))
        rc = main(["verify", "--cert", str(bad), "--mode", mode,
                   "--digits", "80"])
        assert rc == 1, rep
        out = _stdout_json(capsys)
        assert out["pass"] is False
        if mode == "certified":
            assert out["group_checks"] == {"generator_overlap": False}


def test_verify_missing_file_is_an_error(capsys):
    assert main(["verify", "--cert", "no-such-file.cert"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify", "--mode", "exact"],
                                     ["verify", "--mode", "certified"],
                                     ["report"]])
@pytest.mark.parametrize("text", ["[]", '"abc"', "42", "null"])
def test_certificate_json_that_is_no_object_is_an_error(workdir, capsys,
                                                        text, command):
    # valid JSON, but no object: refused as a file, not a traceback
    bad = workdir / "not_an_object.cert"
    bad.write_text(text)
    assert main([command[0], "--cert", str(bad), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err == f"siclift {command[0]}: error: not a certificate file\n"


_BAD_FIDUCIALS = {
    "header_without_dim": "SIC-FIDUCIAL v1 prec=30 symmetry=fz seed=none\n"
                          + "0.5 0.0\n" * 4,
    "header_without_prec": "SIC-FIDUCIAL v1 d=4 symmetry=fz seed=none\n"
                           + "0.5 0.0\n" * 4,
    "zero_vector": "SIC-FIDUCIAL v1 d=4 prec=30 symmetry=fz seed=none\n"
                   + "0.0 0.0\n" * 4,
    "nan_entry": "SIC-FIDUCIAL v1 d=4 prec=1 symmetry=fz seed=none\n"
                 + "nan 0.0\n" + "0.5 0.0\n" * 3,
    # a precision no entry stores, refused before parsing at 10^40 digits
    "huge_prec": f"SIC-FIDUCIAL v1 d=4 prec={10 ** 40} symmetry=fz "
                 "seed=none\n" + "0.5 0.0\n" * 4,
}


@pytest.mark.parametrize("command", ["refine", "symmetry", "qpoly",
                                     "exactify"])
@pytest.mark.parametrize("how", sorted(_BAD_FIDUCIALS))
def test_malformed_fiducial_is_an_error(workdir, capsys, how, command):
    # exit 1 means "verification failed"; a file that cannot be read is 2
    bad = workdir / f"malformed_{how}.fid"
    bad.write_text(_BAD_FIDUCIALS[how])
    # refine refuses a missing --digits before it loads the file
    digits = ["--digits", "40"] if command == "refine" else []
    assert main([command, "--fiducial", str(bad)] + digits) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"siclift {command}: error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_report_is_a_pure_function_of_the_certificate(certfile, capsys):
    rc = main(["report", "--cert", certfile])
    assert rc == 0
    first = capsys.readouterr().out
    rc = main(["report", "--cert", certfile])
    assert rc == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("SIC-REPORT v1\n")
    assert "dimension: 4" in first


def test_report_labels_stored_claims(certfile, capsys):
    # the report echoes five stored claims, each labelled as such, and no
    # score or verdict, which the file no longer stores
    assert main(["report", "--cert", certfile]) == 0
    text = capsys.readouterr().out
    labelled = [line.split(" (stored")[0] for line in text.splitlines()
                if "(stored, not re-checked)" in line]
    assert labelled == ["method", "coefficient field degree over the "
                        "rationals", "overlap field degree over the "
                        "rationals", "alignment candidates", "conjectures"]
    assert "method (stored, not re-checked): 2\n" in text
    assert "score" not in text and "verification" not in text


def test_report_to_file(workdir, certfile, capsys):
    out = workdir / "report.txt"
    rc = main(["report", "--cert", certfile, "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    assert out.read_text().startswith("SIC-REPORT v1\n")


# ---------------------------------------------------------------------------
# cold start: checking a certificate, and every command but the seed
# search, loads neither numpy nor scipy

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(siclift.__file__)))

_CHECK_IN_FRESH_INTERPRETER = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import siclift, siclift.cli

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("numpy", "scipy")
                  or m == "concurrent.futures.process")

after_import = loaded()
codes = []
for argv in (["verify", "--cert", sys.argv[2], "--mode", "exact"],
             ["verify", "--cert", sys.argv[2], "--mode", "certified",
              "--digits", "80"],
             ["report", "--cert", sys.argv[2]],
             ["symmetry", "--fiducial", sys.argv[3]],
             ["qpoly", "--fiducial", sys.argv[3]],
             ["orbits", "--dim", "21"],
             ["exactify", "--fiducial", sys.argv[3]]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(siclift.cli.main(argv))
print(json.dumps({"after_import": after_import, "codes": codes,
                  "after_checks": loaded()}))
"""

_SEARCH_IN_FRESH_INTERPRETER = """
import sys
sys.path.insert(0, sys.argv[1])
from siclift.fidsearch import seed_search
seed_search(4, "fz", attempts=8, seed=7).save(sys.argv[2])
"""


def _fresh_python(script, *args):
    got = subprocess.run([sys.executable, "-c", script, _SRC, *args],
                         capture_output=True, text=True, timeout=300)
    assert got.returncode == 0, got.stderr
    return got.stdout


def test_checking_loads_no_numpy_scipy_or_process_pool(certfile, fidfile):
    obj = json.loads(_fresh_python(_CHECK_IN_FRESH_INTERPRETER, certfile,
                                   fidfile))
    assert obj["codes"] == [0] * 7
    assert obj["after_import"] == []
    assert obj["after_checks"] == []


def test_cold_seed_search_matches_in_process(workdir):
    from siclift.fidsearch import seed_search
    cold, warm = workdir / "cold_seed.fid", workdir / "warm_seed.fid"
    _fresh_python(_SEARCH_IN_FRESH_INTERPRETER, str(cold))
    seed_search(4, "fz", attempts=8, seed=7).save(str(warm))
    assert cold.read_text() == warm.read_text()
