"""End-to-end CLI tests: flag handling, JSON schemas, exit codes."""

import json
import math
import os
import re
import subprocess
import sys

import pytest

from tstar import acceptance, bounds, cli, core, search, shifting
from tstar.cli import main
from tstar.core import (Family, GroundSet, elements_of, enumerate_block, parse_family,
                        read_family, write_family)
from tstar.shifting import is_shifted
from tstar.verify import is_full_t_star, is_t_intersecting


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_bound_block(capsys, monkeypatch):
    monkeypatch.setattr(bounds, "delsarte_bound", None)   # plain bound runs no LP
    code, data = run_json(capsys, "bound", "--n", "8,10", "--k", "4,4", "--t", "2")
    assert code == 0
    assert data["value"] == "3150"
    assert data["optimal_distributions"] == [[2, 0]]
    assert data["hypotheses"]["block_star"] is False


def test_bound_union(capsys):
    code, data = run_json(capsys, "bound", "--n", "6,6",
                          "--profiles", "2,2;3,2", "--t", "1")
    assert code == 0
    assert data["value"] == "225"
    assert data["optimal_distributions"] == [[1, 0]]
    assert data["hypotheses"]["t_le_c"] is True


def test_bound_ratio(capsys):
    code, data = run_json(capsys, "bound", "--n", "4,4", "--k", "2,2", "--ratio")
    assert code == 0
    assert data == {"ratio": "1/2", "value": "18", "space": "36",
                    "hypotheses": {"ratio_bound": True}}


def test_bound_lp(capsys):
    code, data = run_json(capsys, "bound", "--n", "7,7", "--k", "3,3", "--t", "2", "--lp")
    assert code == 0
    assert data == {"lp": "2975/11", "value": "270"}
    # 16 parts of (2, 1): a closed-form plain bound, but 2^16 distance
    # classes, far above the LP's cap
    n, k = ",".join(["2"] * 16), ",".join(["1"] * 16)
    code, data = run_json(capsys, "bound", "--n", n, "--k", k, "--t", "1")
    assert (code, data["value"]) == (0, "32768")
    code, _ = run(capsys, "bound", "--n", n, "--k", k, "--t", "1", "--lp")
    assert code == 3


def test_bound_table_format(capsys):
    code, out = run(capsys, "bound", "--n", "5", "--k", "2", "--t", "1",
                    "--format", "table")
    assert code == 0
    assert "value: 4" in out
    assert "hypotheses.ratio_bound: true" in out


def test_bound_flag_conflicts(capsys):
    code, _ = run(capsys, "bound", "--n", "5", "--k", "2")
    assert code == 2
    code, _ = run(capsys, "bound", "--n", "6,6", "--profiles", "2,2", "--t", "1", "--ratio")
    assert code == 2
    code, _ = run(capsys, "bound", "--n", "6,6", "--profiles", "2,2", "--t", "1", "--lp")
    assert code == 2
    assert main(["bound", "--n", "4,4", "--k", "2,2", "--ratio", "--t", "2"]) == 2
    assert "t=1 only" in capsys.readouterr().err


def test_bound_union_t_above_c_exits_2(capsys):
    code = main(["bound", "--n", "8,8", "--profiles", "2,2;3,2", "--t", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "t=3" in err and "c=2" in err
    assert "strict" not in err   # a library keyword the CLI has no flag for


def test_bound_length_mismatch_exits_2(capsys):
    code, _ = run(capsys, "bound", "--n", "8", "--k", "4,4", "--t", "2")
    assert code == 2


def test_malformed_vector_usage_error(capsys):
    # argparse refuses these before any subcommand runs
    for argv in (["bound", "--n", "8,x", "--k", "4", "--t", "1"],
                 ["bound", "--n", "5", "--k", "2", "--profiles", "2;3", "--t", "1"],
                 ["bound", "--n", "5", "--t", "1"],
                 ["bound", "--n", "5", "--k", "2", "--t", "1", "--enum-cap", "5"],
                 ["bound", "--n", "5", "--k", "2", "--t", "1", "--lp", "--ratio"],
                 ["enumerate", "--n", "4,4", "--k", "2,2", "--profiles", "2,2"],
                 ["enumerate", "--n", "4,4"],
                 ["search", "--n", "4,4", "--k", "4", "--quota", "1,1", "--shifted"],
                 # each verify mode takes only the inputs it reads, and needs them
                 ["verify", "cross", "a.fam", "--t", "1"],
                 ["verify", "star", "a.fam", "--t", "1"],
                 ["verify", "prefix", "a.fam", "b.fam", "--t", "1", "--r", "2"],
                 ["verify", "t-intersecting", "a.fam", "b.fam", "--t", "1"],
                 ["verify", "t-intersecting", "a.fam", "--t", "1", "--r", "9", "--i", "3"],
                 ["repro", "--format", "json"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
    # the argument types say what they expected
    for argv, expected in ((["bound", "--n", "5", "--profiles", "2;x", "--t", "1"],
                            "expected profiles like"),
                           (["kneser", "--params", "5-2"], "expected pairs like"),
                           (["kneser", "--params", "5:2", "--enum-cap", "x"],
                            "expected an integer"),
                           (["kneser", "--params", "5:2", "--enum-cap", "0"],
                            "expected a positive integer")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        assert expected in capsys.readouterr().err, argv


def test_search_block(tmp_path, capsys):
    out_file = tmp_path / "w.fam"
    code, data = run_json(capsys, "search", "--n", "5", "--k", "2",
                          "--t", "1", "--witness-out", str(out_file))
    assert code == 0
    assert data["max_size"] == "4"
    assert data["gap"] == "0"
    assert data["witness_center"] == [1]
    assert data["consistent"] is True
    assert (data["lp_bound"], data["nodes_explored"]) == ("4", "0")
    witness = read_family(str(out_file))
    assert len(witness.members) == 4
    assert is_t_intersecting(witness, 1)
    # the table prints a null value as "-"
    code, out = run(capsys, "search", "--n", "5", "--k", "2", "--t", "1",
                    "--format", "table")
    assert code == 0
    assert "witness_file: -" in out.splitlines()


def test_search_shifted(tmp_path, capsys):
    out_file = tmp_path / "w.fam"
    code, data = run_json(capsys, "search", "--n", "4,4", "--k", "2,2",
                          "--t", "1", "--shifted", "--witness-out", str(out_file))
    assert code == 0
    assert data["max_size"] == "18"
    witness = read_family(str(out_file))
    assert is_shifted(witness)
    assert is_t_intersecting(witness, 1)


def test_search_shifted_prints_the_search_report(tmp_path, capsys):
    argv = ("search", "--n", "4,4", "--k", "2,2", "--t", "1")
    _, plain = run_json(capsys, *argv)
    out_file = tmp_path / "w.fam"
    code, data = run_json(capsys, *argv, "--shifted", "--witness-out", str(out_file))
    assert code == 0
    assert list(data) == list(plain)
    assert data["consistent"] is True
    space = enumerate_block(GroundSet((4, 4)), (2, 2))
    center = is_full_t_star(read_family(str(out_file)), space, 1)
    assert center is not None and data["witness_center"] == list(elements_of(center))


def test_search_quota(capsys):
    code, data = run_json(capsys, "search", "--n", "4,4", "--k", "4",
                          "--quota", "1,1")
    assert code == 0
    assert data["max_size"] == "34"
    assert data["star_size"] == "34"
    assert data["verdict"] == "trivial"
    assert data["hypotheses"]["applies"] is True
    # any t: at t = 2 the best star, on {1,5}, has 15 members, and the 17
    # members meeting {1,2,5,6} in at least 3 elements beat it
    code, data = run_json(capsys, "search", "--n", "4,4", "--k", "4",
                          "--quota", "1,1", "--t", "2")
    assert code == 0
    assert (data["max_size"], data["star_size"], data["star_center"]) == ("17", "15", [1, 5])
    assert (data["verdict"], data["witness_center"]) == ("non-trivial", None)


def test_search_quota_flag_conflicts(capsys):
    code, _ = run(capsys, "search", "--n", "4,4", "--k", "4",
                  "--quota", "1,1", "--t", "-1")
    assert code == 2
    code, _ = run(capsys, "search", "--n", "4,4", "--k", "2,2",
                  "--quota", "1,1")
    assert code == 2
    code, _ = run(capsys, "search", "--n", "3,3", "--k", "7",
                  "--quota", "1,1")
    assert code == 2
    assert main(["search", "--n", "4,4", "--k", "2,2"]) == 2
    assert "need --t" in capsys.readouterr().err


def test_search_cap_exit_3(capsys):
    code, _ = run(capsys, "search", "--n", "4,4", "--k", "2,2", "--t", "1",
                  "--search-cap", "10")
    assert code == 3


def test_search_shifted_checks_the_cap_before_enumerating(capsys, monkeypatch):
    def refuse(*pools):
        raise AssertionError("enumerated an over-cap block")

    monkeypatch.setattr(core, "product", refuse)
    # 853,776 members against the default search cap of 50,000
    code, _ = run(capsys, "search", "--n", "12,12", "--k", "6,6", "--t", "1", "--shifted")
    assert code == 3
    code, _ = run(capsys, "search", "--n", "4,4", "--k", "2,2", "--t", "1", "--shifted",
                  "--search-cap", "10")
    assert code == 3


def test_search_quota_checks_the_cap_before_enumerating(capsys, monkeypatch):
    def refuse(*pools):
        raise AssertionError("enumerated an over-cap quota family")

    monkeypatch.setattr(core, "product", refuse)
    # the quota family's 100 members are counted, not enumerated
    assert main(["search", "--n", "5,5", "--k", "3", "--quota", "1,1",
                 "--search-cap", "10"]) == 3
    assert "quota family has 100 members, cap is 10" in capsys.readouterr().err


def test_shift_stdout_reparses(tmp_path, capsys):
    g = GroundSet((4,))
    path = tmp_path / "in.fam"
    write_family(Family.from_iterables(g, [[2, 3]]), str(path))
    code, out = run(capsys, "shift", str(path), "--all")
    assert code == 0
    assert out.endswith("# steps: 2\n")
    closed = parse_family(out)
    assert closed.members == Family.from_iterables(g, [[1, 2]]).members


def test_shift_on_a_huge_ground_set(tmp_path, capsys):
    # the moves of the whole 10^11-element part would not fit in memory
    path = tmp_path / "in.fam"
    path.write_text("ground: 100000000000\n2,3\n3,5\n", encoding="ascii")
    code, out = run(capsys, "shift", str(path), "--all")
    assert code == 0
    assert out == "ground: 100000000000\n1,2\n1,3\n# steps: 4\n"


def test_shift_part_out_file(tmp_path, capsys):
    g = GroundSet((3, 3))
    path = tmp_path / "in.fam"
    out_path = tmp_path / "out.fam"
    write_family(Family.from_iterables(g, [[2, 5]]), str(path))
    code, data = run_json(capsys, "shift", str(path), "--part", "2",
                          "--out", str(out_path))
    assert code == 0
    assert data["out"] == str(out_path)
    closed = read_family(str(out_path))
    assert closed.members == Family.from_iterables(g, [[2, 4]]).members
    code, _ = run(capsys, "shift", str(path), "--part", "3")
    assert code == 2


def test_verify_exit_codes(tmp_path, capsys):
    g = GroundSet((5,))
    fam = tmp_path / "fam.fam"
    write_family(Family.from_iterables(g, [[1, 2], [1, 3], [2, 3]]), str(fam))
    code, data = run_json(capsys, "verify", "t-intersecting", str(fam), "--t", "1")
    assert code == 0 and data["holds"] is True
    code, data = run_json(capsys, "verify", "t-intersecting", str(fam), "--t", "2")
    assert code == 1 and data["holds"] is False


def test_verify_cross_and_star(tmp_path, capsys):
    g = GroundSet((5,))
    a = tmp_path / "a.fam"
    b = tmp_path / "b.fam"
    space = tmp_path / "space.fam"
    star = tmp_path / "star.fam"
    write_family(Family.from_iterables(g, [[1, 2], [1, 3]]), str(a))
    write_family(Family.from_iterables(g, [[1, 4], [1, 5]]), str(b))
    code, _ = run(capsys, "verify", "cross", str(a), str(b), "--t", "1")
    assert code == 0
    full = [[x, y] for x in range(1, 6) for y in range(x + 1, 6)]
    write_family(Family.from_iterables(g, full), str(space))
    write_family(Family.from_iterables(g, [m for m in full if 1 in m]), str(star))
    code, data = run_json(capsys, "verify", "star", str(star),
                          "--space", str(space), "--t", "1")
    assert code == 0
    assert data["center"] == [1]


def test_verify_refuses_two_grounds(tmp_path, capsys):
    # the star at 1 of the (3,3) block (1,1), and the same masks on ground 6
    split, whole = GroundSet((3, 3)), GroundSet((6,))
    space = enumerate_block(split, (1, 1))
    star, space_file = tmp_path / "star.fam", tmp_path / "space.fam"
    write_family(Family(split, frozenset(m for m in space.members if m & 1)), str(star))
    write_family(Family(whole, space.members), str(space_file))
    for argv in (("star", str(star), "--space", str(space_file)),
                 ("cross", str(star), str(space_file))):
        code, out = run(capsys, "verify", *argv, "--t", "1")
        assert (code, out) == (2, ""), argv


def test_verify_prefix_hypothesis_exit_2(tmp_path, capsys):
    g = GroundSet((6,))
    a = tmp_path / "a.fam"
    b = tmp_path / "b.fam"
    # {2,3} is not shifted, so the window check must refuse to run
    write_family(Family.from_iterables(g, [[2, 3]]), str(a))
    write_family(Family.from_iterables(g, [[1, 2]]), str(b))
    code, _ = run(capsys, "verify", "prefix", str(a), str(b),
                  "--t", "1", "--r", "2", "--s", "2")
    assert code == 2
    parts = ["--t", "1", "--profile-a", "2", "--profile-b", "2"]
    code, data = run_json(capsys, "verify", "prefix-parts", str(b), str(b), *parts)
    assert (code, data) == (0, {"holds": True})
    code, _ = run(capsys, "verify", "prefix-parts", str(a), str(b), *parts)
    assert code == 2


def _star_shift_files(tmp_path, sizes, k, members):
    g = GroundSet(sizes)
    space = tmp_path / "space.fam"
    fam = tmp_path / "fam.fam"
    write_family(enumerate_block(g, k), str(space))
    write_family(Family.from_iterables(g, members), str(fam))
    return str(fam), str(space)


def test_verify_star_shift(tmp_path, capsys):
    # ground 9, k=2, t=1: 9 > 2(t+1)*2, so the hypothesis holds
    star = [[1, x] for x in range(2, 10)]
    fam, space = _star_shift_files(tmp_path, (9,), (2,), star)
    code, data = run_json(capsys, "verify", "star-shift", fam, "--space", space,
                          "--t", "1", "--i", "1", "--j", "2")
    assert code == 0 and data["holds"] is True
    # {2,9} compresses to {1,9}, so the image is the star at 1, but the
    # family itself is no full star
    mixed = [[1, x] for x in range(2, 9)] + [[2, 9]]
    fam, space = _star_shift_files(tmp_path, (9,), (2,), mixed)
    code, data = run_json(capsys, "verify", "star-shift", fam, "--space", space,
                          "--t", "1", "--i", "1", "--j", "2")
    assert code == 1 and data["holds"] is False


def test_verify_star_shift_refusals(tmp_path, capsys):
    star = [[1, x] + [6, 7] for x in range(2, 6)]
    fam, space = _star_shift_files(tmp_path, (5, 5), (2, 2), star)
    base = ["verify", "star-shift", fam, "--space", space, "--t", "1"]
    # 5 is not above 2(t+1)*2: the hypothesis fails
    assert main(base + ["--i", "1", "--j", "2"]) == 2
    assert "star_preservation_hypothesis fails" in capsys.readouterr().err
    # elements of two parts, and elements outside the ground set
    for i, j in (("1", "6"), ("0", "2"), ("1", "11")):
        assert main(base + ["--i", i, "--j", j]) == 2
        assert "star_preservation_hypothesis" not in capsys.readouterr().err


def _tstar(*argv, stdout):
    # unbuffered, so each line reaches the pipe as it is printed
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONUNBUFFERED="1")
    return subprocess.Popen([sys.executable, "-m", "tstar.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_stdout_closed_after_first_byte_is_quiet():
    # criterion 1's line is out before criterion 7 runs (about 0.4 s),
    # so the reader is gone when the second line is written
    proc = _tstar("repro", "--only", "1", "--only", "7", stdout=subprocess.PIPE)
    assert proc.stdout.read(1) == b"c"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 141
    assert err == ""


def test_stdout_closed_before_output_is_quiet():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _tstar("bound", "--n", "8,10", "--k", "4,4", "--t", "2", stdout=write_end)
    finally:
        os.close(write_end)
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert err == ""


def test_cli_import_leaves_networkx_out():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import sys, tstar.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "False\n"


# A subcommand that needs neither a closed-form bound nor a search loads
# none of these.  `fractions`, with the `decimal` it imports, comes only
# with a reported ratio: a star bound or a quota search loads neither.
# No subcommand loads `dataclasses`: every record is a core._Frozen.
NO_RATIO = ("dataclasses", "fractions", "decimal")
NO_BOUNDS = ("tstar.bounds", "tstar.search", "tstar.acceptance", *NO_RATIO)


@pytest.mark.parametrize("argv, unloaded", [
    (["kneser", "--params", "5:2"], NO_BOUNDS),
    (["enumerate", "--n", "3,3", "--k", "1,1"], NO_BOUNDS),
    (["shift", "FAMILY", "--all"], NO_BOUNDS),
    (["verify", "t-intersecting", "FAMILY", "--t", "1"], NO_BOUNDS),
    (["bound", "--n", "8,10", "--k", "4,4", "--t", "2"],
     ("tstar.search", "tstar.kneser", *NO_RATIO)),
    (["search", "--n", "5,5", "--k", "2,2", "--t", "1"],
     ("tstar.kneser", "tstar.acceptance", *NO_RATIO)),
    (["search", "--n", "5,5", "--k", "3", "--quota", "1,1"],
     ("tstar.kneser", "tstar.acceptance", *NO_RATIO)),
    (["repro", "--only", "10"], ("dataclasses",)),
], ids=["kneser", "enumerate", "shift", "verify", "bound", "search", "search-quota", "repro"])
def test_cli_call_loads_only_what_its_subcommand_runs(tmp_path, argv, unloaded):
    family = str(tmp_path / "f.fam")
    write_family(enumerate_block(GroundSet((3, 3)), (1, 1)), family)
    argv = [family if a == "FAMILY" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import contextlib, io, sys, tstar.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = tstar.cli.main(sys.argv[1:])\n"
            "print(code, *sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert out[0] in ("0", "1")
    loaded = set(out[1:])
    assert "networkx" not in loaded
    assert not loaded & set(unloaded), sorted(loaded & set(unloaded))


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_bound_prints_a_star_of_any_number_of_digits(capsys, fmt):
    limit = sys.get_int_max_str_digits()
    try:
        code, out = run(capsys, "bound", "--n", "16000", "--k", "8000", "--t", "1",
                        "--format", fmt)
        sys.set_int_max_str_digits(0)
        expected = str(math.comb(16000 - 1, 8000 - 1))
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert len(expected) > 4300
    value = json.loads(out)["value"] if fmt == "json" else out.splitlines()[0]
    assert value == (expected if fmt == "json" else f"value: {expected}")


def test_kneser_cli(capsys):
    code, data = run_json(capsys, "kneser", "--params", "5:2,7:3")
    assert code == 0
    assert data == {"connected": True, "vertices": "350"}
    code, data = run_json(capsys, "kneser", "--params", "4:2")
    assert code == 0
    assert data["connected"] is False


def test_enumerate_stdout(capsys):
    code, out = run(capsys, "enumerate", "--n", "4,4", "--k", "2,2")
    assert code == 0
    fam = parse_family(out)
    assert len(fam.members) == 36
    code, out = run(capsys, "enumerate", "--n", "4,4", "--profiles", "2,2;1,2")
    assert code == 0
    assert len(parse_family(out).members) == 36 + 24


def test_enumerate_quota_and_errors(tmp_path, capsys):
    out_file = tmp_path / "q.fam"
    code, data = run_json(capsys, "enumerate", "--n", "4,4", "--k", "4",
                          "--quota", "1,1", "--out", str(out_file))
    assert code == 0
    assert data["size"] == "68"
    assert len(read_family(str(out_file)).members) == 68
    code, _ = run(capsys, "enumerate", "--n", "4,4", "--k", "2,2",
                  "--enum-cap", "10")
    assert code == 3
    code, _ = run(capsys, "enumerate", "--n", "3,3", "--k", "7", "--quota", "1,1")
    assert code == 2


def test_enumerate_refused_out_leaves_no_file(tmp_path, capsys):
    out_file = tmp_path / "x.fam"
    assert main(["enumerate", "--n", "3", "--k", "0", "--out", str(out_file)]) == 2
    assert "empty set cannot be written" in capsys.readouterr().err
    assert not out_file.exists()


def test_non_ascii_family_file_exit_2(tmp_path, capsys):
    path = tmp_path / "u.fam"
    path.write_bytes("ground: 5\n# caf\u00e9\n1,2\n".encode("utf-8"))
    for argv in (["verify", "t-intersecting", str(path), "--t", "1"],
                 ["shift", str(path), "--all"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: byte 15 (0xc3) is not ASCII" in captured.err


def test_missing_file_exit_2(capsys):
    code, _ = run(capsys, "verify", "t-intersecting", "/nonexistent.fam",
                  "--t", "1")
    assert code == 2


def test_repro_subset(capsys):
    code, out = run(capsys, "repro", "--only", "10", "--only", "9")
    assert code == 0
    # each line shows the criterion's time against its budget
    assert re.fullmatch(r"criterion  9: PASS  .+ \(\d+\.\d s of 5 s\)\n"
                        r"criterion 10: PASS  .+ \(\d+\.\d s of 10 s\)\n", out)
    for bad in ("0", "11", "99"):
        code, out = run(capsys, "repro", "--only", "10", "--only", bad)
        assert (code, out) == (2, "")


@pytest.mark.parametrize("error", [core.InvariantError, core.HypothesisViolationError])
def test_repro_criterion_that_raises_fails_and_the_gate_goes_on(capsys, monkeypatch, error):
    def body():
        yield "a failed check"
        raise error("the check broke")

    checks = list(acceptance.ACCEPTANCE_CHECKS)
    c = checks[8]
    checks[8] = acceptance.Criterion(c.number, c.slug, c.label, c.budget, body)
    monkeypatch.setattr(acceptance, "ACCEPTANCE_CHECKS", checks)
    code, out = run(capsys, "repro", "--only", "9", "--only", "10")
    assert code == 1
    assert re.fullmatch(r"criterion  9: FAIL  .+ \(\d+\.\d s of 5 s\)\n"
                        r"    a failed check\n"
                        rf"    raised {error.__name__}: the check broke\n"
                        r"criterion 10: PASS  .+ \(\d+\.\d s of 10 s\)\n", out)


def test_repro_fail_keeps_max_notes_then_the_budget_note(capsys, monkeypatch):
    def body():
        for i in range(7):
            yield f"note {i}"

    checks = [acceptance.Criterion(10, "noisy", "seven notes", 0.0, body)]
    monkeypatch.setattr(acceptance, "ACCEPTANCE_CHECKS", checks)
    code, out = run(capsys, "repro", "--only", "10")
    assert code == 1
    lines = out.splitlines()
    assert re.fullmatch(r"criterion 10: FAIL  seven notes \(\d+\.\d s of 0 s\)", lines[0])
    assert lines[1:-1] == [f"    note {i}" for i in range(acceptance.MAX_NOTES)]
    assert re.fullmatch(r"    runtime \d+\.\ds exceeds the 0s budget", lines[-1])


def _refuse(*args, **kwargs):
    raise AssertionError("did the work before checking the output path")


@pytest.mark.parametrize("where", ["missing directory", "directory", "empty"])
def test_output_path_is_checked_before_the_work(tmp_path, capsys, monkeypatch, where):
    monkeypatch.setattr(search, "check_block_maximum", _refuse)
    monkeypatch.setattr(cli, "enumerate_block", _refuse)
    monkeypatch.setattr(shifting, "shift_closure", _refuse)
    family = tmp_path / "in.fam"
    write_family(Family.from_iterables(GroundSet((4,)), [[2, 3]]), str(family))
    out = {"missing directory": str(tmp_path / "missing" / "x.fam"),
           "directory": str(tmp_path), "empty": ""}[where]
    for argv in (["search", "--n", "6,6", "--k", "2,2", "--t", "1", "--witness-out", out],
                 ["enumerate", "--n", "4,4", "--k", "2,2", "--out", out],
                 ["shift", str(family), "--all", "--out", out]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out!r}: "), argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.fam"]
