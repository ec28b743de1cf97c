"""End-to-end CLI runs: exit codes, file outputs, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from types import SimpleNamespace

from lcsq import f2core, fpgroups, graphiso, graphs, qcert, reps
from lcsq.cli import EXIT_INTERNAL, _dump, _parser, main
from oracles import enumerated_rep
from test_fpgroups import standard_numbering
from test_qcert import corrupt_swap_columns

EX_SYS = "11100;10011|01\n"
K33_G = "6\n" + "".join(f"{a} {b}\n" for a in (1, 2, 3) for b in (4, 5, 6))
K34_G = "7\n" + "".join(f"{a} {b}\n" for a in (1, 2, 3, 4) for b in (5, 6, 7))
K35_G = "8\n" + "".join(f"{a} {b}\n" for a in (1, 2, 3) for b in (4, 5, 6, 7, 8))


@pytest.fixture()
def files(tmp_path):
    (tmp_path / "ex.sys").write_text(EX_SYS)
    (tmp_path / "k33.g").write_text(K33_G)
    (tmp_path / "k34.g").write_text(K34_G)
    (tmp_path / "k35.g").write_text(K35_G)
    (tmp_path / "bad.sys").write_text("111;11|00\n")
    return tmp_path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def _graph_json(n, edges):
    return json.dumps({"vertices": [{"id": v} for v in range(n)],
                       "edges": [{"u": u, "v": v} for u, v in edges]})


def test_build_demo_system(files, capsys):
    out = files / "fig1.json"
    assert run("build", "--system", files / "ex.sys", "--construction", "Gstar",
               "--out", out) == 0
    assert "vertices: 8, edges: 20" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 8
    assert len(data["edges"]) == 20


def test_build_full_decolor(files, capsys):
    out = files / "gpp.json"
    assert run("build", "--graph", files / "k33.g", "--b", "100000",
               "--construction", "Gstar", "--decolor", "full", "--out", out) == 0
    assert "vertices: 426" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert all("color" not in v for v in data["vertices"])


def test_build_parse_error_exit_2(files, capsys):
    assert run("build", "--system", files / "bad.sys", "--construction", "G") == 2
    assert "row length mismatch" in capsys.readouterr().err


def test_build_requires_input(files):
    assert run("build", "--construction", "G") == 2


def test_build_deterministic(files):
    out1, out2 = files / "a.json", files / "b.json"
    run("build", "--graph", files / "k33.g", "--construction", "Gstar",
        "--decolor", "full", "--out", out1)
    run("build", "--graph", files / "k33.g", "--construction", "Gstar",
        "--decolor", "full", "--out", out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_build_c0_is_taken_as_given(files, capsys):
    # --c0 names an edge color of the graph, or the run is a usage error
    default, given = files / "default.json", files / "given.json"
    build = ("build", "--graph", files / "k33.g", "--decolor", "full")
    assert run(*build, "--out", default) == 0
    assert run(*build, "--c0", "shared:-1", "--out", given) == 0
    assert given.read_bytes() == default.read_bytes()
    capsys.readouterr()
    assert run(*build, "--c0", "shared:x") == 2
    assert "c0 shared:x is not an edge color" in capsys.readouterr().err
    # without a decoloring nothing reads --c0: a usage error before any read
    assert run("build", "--graph", files / "missing.g", "--c0", "shared:-1") == 2
    assert capsys.readouterr().err == "error: --c0 needs --decolor vertices or full\n"


# sha256 of graph JSONs and an `aut` report, measured with the stdlib
# encoder before `graphs.dump_json` wrote them, from the relative paths below;
# the `aut` report's digest was re-derived when reports stopped echoing a
# tolerance: the older report with its "tol" member deleted
GPP35_SHA256 = "aaa3d61e97e9b885e885af7c6f1a893c8b9b9c9adcf55b8fa53736ee9eab02c1"
AUT_GPP34_SHA256 = "4936920dd809714595f1769b28a1791ee5d6ff11a0f3eb43a788f7f63e84bc37"


def test_build_full_decolor_k35_is_pinned(files, monkeypatch):
    monkeypatch.chdir(files)
    assert run("build", "--graph", "k35.g", "--decolor", "full",
               "--out", "gpp35.json") == 0
    assert hashlib.sha256((files / "gpp35.json").read_bytes()).hexdigest() == GPP35_SHA256


# sha256 of the DOT source of the K3,3 G'' of b = e1, measured while graph
# files were written by encoding a dict per record
GPP33_DOT_SHA256 = "2841ebed1cfdd84745e32d44fef613e2424c34b3cd66c168f3a074267b62837a"


def test_build_full_decolor_dot_is_pinned(files):
    dot = files / "gpp33.dot"
    assert run("build", "--graph", files / "k33.g", "--b", "100000",
               "--decolor", "full", "--dot", dot) == 0
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == GPP33_DOT_SHA256


def test_aut_json_on_k34_gpp_is_pinned(files, monkeypatch):
    monkeypatch.chdir(files)
    assert run("build", "--graph", "k34.g", "--decolor", "full",
               "--out", "gpp34.json") == 0
    assert run("aut", "gpp34.json", "--json", "aut.json") == 0
    assert hashlib.sha256((files / "aut.json").read_bytes()).hexdigest() == AUT_GPP34_SHA256


# sha256 of the `iso --map-out` map from the K3,3 G'' to a relabelling of
# itself, and of `aut --json` reports on graphs whose trees have equal-code
# siblings, measured while core maps were extended by one tree walk each
ISO_GPP33_RELABELLED_SHA256 = (
    "4ce830a8057d559a51189343da93656985751d045facd29063a834608a5e9661")
AUT_SIBLINGS_SHA256 = {
    # a triangle with three equal leaves on one vertex, two equal paths on another
    "siblings": (_graph_json(10, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (0, 5),
                                  (1, 6), (6, 7), (1, 8), (8, 9)]),
                 "41814419388d717d0c0b52fa4c52c54742759ecb36a8a8090bee10c4937f0945"),
    # a triangle with two equal leaves and two equal paths on every vertex
    "triangle-siblings": (_graph_json(21, [(0, 1), (0, 2), (1, 2)] + [
        e for r in range(3) for a in range(3 + 6 * r, 9 + 6 * r, 3)
        for e in ((r, a), (r, a + 1), (a + 1, a + 2))]),
        "8cf8f2c9939460642821b982051c8d4539a8fe85673a59df04f5bb594514a599"),
}


def test_iso_map_of_a_relabelled_gpp33_is_pinned(files, monkeypatch):
    monkeypatch.chdir(files)
    assert run("build", "--graph", "k33.g", "--decolor", "full",
               "--out", "gpp33.json") == 0
    data = json.loads((files / "gpp33.json").read_text())
    n = len(data["vertices"])
    perm = [(5 * v + 1) % n for v in range(n)]  # 5 is prime to n = 426
    data["vertices"] = [dict(d, id=perm[d["id"]]) for d in data["vertices"]]
    data["edges"] = [dict(d, u=perm[d["u"]], v=perm[d["v"]]) for d in data["edges"]]
    (files / "relabelled.json").write_text(json.dumps(data))
    assert run("iso", "gpp33.json", "relabelled.json", "--map-out", "map.json") == 0
    assert hashlib.sha256((files / "map.json").read_bytes()).hexdigest() == \
        ISO_GPP33_RELABELLED_SHA256


@pytest.mark.parametrize("name", sorted(AUT_SIBLINGS_SHA256))
def test_aut_json_with_sibling_swaps_is_pinned(files, monkeypatch, name):
    text, digest = AUT_SIBLINGS_SHA256[name]
    monkeypatch.chdir(files)
    (files / "g.json").write_text(text)
    assert run("aut", "g.json", "--json", "aut.json") == 0
    assert hashlib.sha256((files / "aut.json").read_bytes()).hexdigest() == digest


# sha256 of `aut --json` on the colored G*(K3,4) of b = 0, whose 34 edge
# colors give replayed splits many weights, and on the K3,3 G''; and of the
# `iso --json` report and `--map-out` map of that G'' against itself, which
# hold the map at depth 1 and at depth 0.  Measured while both graphs of a
# search were refined side by side in one partition and maps were written
# from dicts of (vertex, image) pairs.
SEARCH_OUTPUT_SHA256 = {
    "aut-gstar34": "74d41c9abf22ff5cbb8785c04576355931de16a3cde37b1cf92de02797141fdc",
    "aut-gpp33": "efc60be59d3dd8dce8b22838bfefd14d731e875b69b26c529010eb9b384b939b",
    "iso-gpp33-self": "943ccd30cf9b60827d3b2d556e92a22f9d9b165fdd8774a5e0d3ac19d9e0d26e",
    "iso-gpp33-self-map": "b3dec99941b67b1a4a4738ab7bb19e4ccc804889f18da19ed83cd5737541fd39",
}


def test_search_outputs_are_pinned(files, monkeypatch):
    monkeypatch.chdir(files)
    assert run("build", "--graph", "k34.g", "--out", "gs34.json") == 0
    assert run("build", "--graph", "k33.g", "--decolor", "full", "--out", "gpp33.json") == 0
    assert run("aut", "gs34.json", "--json", "aut-gstar34.json") == 0
    assert run("aut", "gpp33.json", "--json", "aut-gpp33.json") == 0
    assert run("iso", "gpp33.json", "gpp33.json", "--json", "iso-gpp33-self.json",
               "--map-out", "iso-gpp33-self-map.json") == 0
    digests = {name: hashlib.sha256((files / f"{name}.json").read_bytes()).hexdigest()
               for name in SEARCH_OUTPUT_SHA256}
    assert digests == SEARCH_OUTPUT_SHA256


# sha256 of G(M, b) files, whose intra and inter colors are products of the
# block labels: measured on `build --construction G` while each label was a
# SignVector object rendered on output
G_BUILD_SHA256 = {
    "ex.sys": ("--system",
               "779d80d7c9dc33a6aeeac254233e9cfb01ab0f423c2a7873ee45093701383d13",
               "5283c26183056797b97201553608c2b15b15c0fbfeb8e9741aa45b74d03d6b58"),
    "k34.g": ("--graph",
              "5ed105a9de6759baa738286ae9746faae2d1c2db0da0a3fd8fbea3a0300bca23",
              "e9c4364431c8a346f63af4bd3de405bdb2a4e104f756cfb0c6462a81c7355344"),
}


@pytest.mark.parametrize("source", sorted(G_BUILD_SHA256))
def test_build_G_is_pinned(files, source):
    flag, json_digest, dot_digest = G_BUILD_SHA256[source]
    out, dot = files / "g.json", files / "g.dot"
    assert run("build", flag, files / source, "--construction", "G",
               "--out", out, "--dot", dot) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == json_digest
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == dot_digest


def test_solve(files, capsys):
    assert run("solve", "--system", files / "ex.sys") == 0
    assert "solution:" in capsys.readouterr().out
    # K3,3 with b = e1 has no solution
    assert run("solve", "--graph", files / "k33.g", "--b", "100000") == 1


def test_solve_warns_of_a_disconnected_graph_in_one_line(files):
    # the library's UserWarning reaches the user as one line, not as
    # Python's warning format with a source line
    (files / "two.g").write_text("4\n1 2\n3 4\n")
    proc = _cli("-m", "lcsq.cli", "solve", "--graph", "two.g", cwd=files)
    assert proc.returncode == 0
    assert proc.stderr == ("warning: graph is disconnected; downstream constructions "
                           "assume a connected graph\n")
    assert proc.stdout == "solution: 00\n"


def test_group_k33(files, capsys):
    report = files / "g.json"
    assert run("group", "--graph", files / "k33.g", "--homogeneous",
               "--json", report) == 0
    assert "order: 16, abelian: True" in capsys.readouterr().out
    data = json.loads(report.read_text())
    assert data["order"] == 16 and data["abelian"] is True
    assert data["abelianized_order"] == 16


def test_group_k34(files, capsys):
    assert run("group", "--graph", files / "k34.g", "--homogeneous") == 0
    assert "order: 256, abelian: False" in capsys.readouterr().out


def test_group_gamma_word(files, capsys):
    report = files / "gamma.json"
    assert run("group", "--graph", files / "k33.g", "--b", "100000",
               "--word", "gamma", "--json", report) == 0
    assert "!= identity" in capsys.readouterr().out
    assert json.loads(report.read_text())["word_is_identity"] is False


def test_group_cap_exit_3(files):
    assert run("group", "--graph", files / "k34.g", "--homogeneous",
               "--cap", "10") == 3


K44_G = "8\n" + "".join(f"{a} {b}\n" for a in (1, 2, 3, 4) for b in (5, 6, 7, 8))

# `lcsq group --json` reports with the path-dependent `config` member
# dropped, each as the trivial-subgroup enumeration wrote it, except that
# "k33-solvable" gives the abelianized order of Gamma(M, b), 32, not
# Gamma_0's 16
GROUP_REPORTS = {
    "k34-homogeneous": (["--graph", "k34.g", "--homogeneous"], 0, {
        "abelian": False, "abelianized_order": 64, "cap": 1000000,
        "homogeneous": True, "order": 256, "status": "complete"}),
    "k35-homogeneous": (["--graph", "k35.g", "--homogeneous"], 0, {
        "abelian": False, "abelianized_order": 256, "cap": 1000000,
        "homogeneous": True, "order": 8192, "status": "complete"}),
    "k33-gamma": (["--graph", "k33.g", "--b", "100000", "--word", "gamma"], 0, {
        "abelian": False, "abelianized_order": 16, "cap": 1000000,
        "homogeneous": False, "order": 32, "status": "complete",
        "word": "gamma", "word_is_identity": False}),
    # |b| even, so Gamma(M, b) is Gamma_0 x <gamma>: abelian of order 32, and
    # its abelianization has order 32 as well
    "k33-solvable": (["--graph", "k33.g", "--b", "110000"], 0, {
        "abelian": True, "abelianized_order": 32, "cap": 1000000,
        "homogeneous": False, "order": 32, "status": "complete"}),
    "k44-capped": (["--graph", "k44.g", "--homogeneous", "--cap", "1000"], 3, {
        "abelianized_order": 512, "cap": 1000, "homogeneous": True,
        "order": None, "status": "capped"}),
    # the cap is below the order 8 of a K3,4 star subgroup
    "k34-cap-5": (["--graph", "k34.g", "--homogeneous", "--cap", "5"], 3, {
        "abelianized_order": 64, "cap": 5, "homogeneous": True,
        "order": None, "status": "capped"}),
}

# K3,5 words: x1..x5 are the edges at vertex 1, a star of five commuting
# involutions; x6 and x7 are edges at vertex 2 that meet x1 and miss it
K35_WORDS = {
    "x1 x2": False,             # in the star subgroup, not 1
    "x1 x2 x3 x4 x5": True,     # the star's product relator
    "x1 x6": False,             # outside the star subgroup
    "x1 x6 x1 x6": True,        # commutator of edges sharing vertex 4
    "x1 x7 x1 x7": False,       # a nontrivial commutator: even letter parities
}
for _word, _trivial in K35_WORDS.items():
    GROUP_REPORTS[f"k35-word-{_word}"] = (
        ["--graph", "k35.g", "--homogeneous", "--word", _word], 0,
        dict(GROUP_REPORTS["k35-homogeneous"][2], word=_word, word_is_identity=_trivial))


@pytest.mark.parametrize("name", sorted(GROUP_REPORTS))
def test_group_reports_are_pinned(files, monkeypatch, name):
    args, code, expected = GROUP_REPORTS[name]
    monkeypatch.chdir(files)
    (files / "k44.g").write_text(K44_G)
    assert run("group", *args, "--json", "g.json") == code
    text = (files / "g.json").read_text()
    data = json.loads(text)
    data.pop("config")
    assert data == expected
    assert text == _dump(dict(expected, config=json.loads(text)["config"]))


# sha256 of `solve --json` and `group --json` reports with their `config`
# echo, run from the directory holding the input files; measured before
# `RunConfig` was built from the parser's namespace
JSON_REPORT_SHA256 = {
    "solve-solvable": (["solve", "--system", "ex.sys"], 0,
                       "506cd66727024e46d0ee711638ece3c1b8d6d46f283d1ce880fe8a5738215d6e"),
    "solve-unsolvable": (["solve", "--graph", "k33.g", "--b", "100000"], 1,
                         "eb54e0fcf0cbe53ae31988ececb92acffdd42f29bd62024a92d4fdcb2ed30f81"),
    "group-word": (["group", "--graph", "k33.g", "--b", "100000", "--word", "gamma"], 0,
                   "c0a1b424504b57c7cc5b282c81053ff383333742bb8ce1120f72a390f4346bc9"),
    "group-capped": (["group", "--graph", "k34.g", "--homogeneous", "--cap", "10"], 3,
                     "7c17010ad03f5d0c3c2e3e6f6278aed254d89007aa4cdd206c4a8273e844dcd0"),
}


@pytest.mark.parametrize("name", sorted(JSON_REPORT_SHA256))
def test_json_reports_with_their_config_are_pinned(files, monkeypatch, name):
    argv, code, digest = JSON_REPORT_SHA256[name]
    monkeypatch.chdir(files)
    assert run(*argv, "--json", "r.json") == code
    assert hashlib.sha256((files / "r.json").read_bytes()).hexdigest() == digest


# sha256 of reports whose `config` echo no other pin covers: a `cert`
# report without `lift`, one that echoes `cap`, and the `iso` report of the
# non-isomorphic K3,3 G'' pair of b = 0 and b = e1, which has no `map_out`;
# run from the directory holding the input files, and measured while each
# dest was declared twice, once in the parser and once as a field
ECHO_SHAPE_SHA256 = {
    "cert-qiso-unlifted": (["cert", "qiso", "--graph", "k33.g", "--b1", "000000",
                            "--b2", "100000", "--rep", "pauli", "--report", "report.json"], 0,
                           "4dc05bf28905769ad86710d596a0b7e3e84f9c965f78b7a903866f82788826ee"),
    "cert-qut-cap": (["cert", "qut", "--graph", "k34.g", "--rep", "regular",
                      "--cap", "1000000", "--report", "report.json"], 0,
                     "b4e1f63dffa97231241c7f592969297d3a4b36eea9c95548b37703ff33de88db"),
    "iso-gpp33-non-isomorphic": (["iso", "gpp0.json", "gpp1.json", "--json", "report.json"], 1,
                                 "4bdfd242eca73daecf0b1dec7c1919a091141e29dc59f21aa2297b9475075481"),
}


@pytest.mark.parametrize("name", sorted(ECHO_SHAPE_SHA256))
def test_reports_of_every_echo_shape_are_pinned(files, monkeypatch, name):
    argv, code, digest = ECHO_SHAPE_SHA256[name]
    monkeypatch.chdir(files)
    assert run("build", "--graph", "k33.g", "--decolor", "full", "--out", "gpp0.json") == 0
    assert run("build", "--graph", "k33.g", "--b", "100000", "--decolor", "full",
               "--out", "gpp1.json") == 0
    assert run(*argv) == code
    assert hashlib.sha256((files / "report.json").read_bytes()).hexdigest() == digest


# each report-writing command with every optional flag it takes, and the
# dests those flags set
ECHO_KEYS = {
    "solve": (["solve", "--graph", "k33.g", "--b", "000000", "--json", "r.json"],
              {"graph_path", "b", "json_out"}),
    "group": (["group", "--graph", "k33.g", "--b", "000000", "--homogeneous",
               "--cap", "1000", "--word", "x1", "--json", "r.json"],
              {"graph_path", "b", "homogeneous", "cap", "word", "json_out"}),
    "cert": (["cert", "qiso", "--graph", "k33.g", "--construction", "Gstar",
              "--b1", "000000", "--b2", "000000", "--rep", "regular", "--lift",
              "--cap", "1000", "--out", "c.json", "--report", "r.json"],
             {"graph_path", "construction", "b1", "b2", "rep", "lift", "cap", "out",
              "report"}),
    "iso": (["iso", "g.json", "g.json", "--map-out", "m.json", "--json", "r.json"],
            {"map_out", "json_out"}),
    "aut": (["aut", "g.json", "--json", "r.json"], {"json_out"}),
}


@pytest.mark.parametrize("name", sorted(ECHO_KEYS))
def test_report_config_echoes_exactly_the_given_flags(files, monkeypatch, name):
    # a command's function and its graph paths are parsed too, but they are
    # no flags, and no report echoes them
    argv, dests = ECHO_KEYS[name]
    monkeypatch.chdir(files)
    assert run("build", "--graph", "k33.g", "--out", "g.json") == 0
    assert run(*argv) == 0
    config = json.loads((files / "r.json").read_text())["config"]
    assert set(config) == dests | {"subcommand", "decolor"}
    assert config["decolor"] == "none"


# a run of each command with every JSON file it can write; graph files
# (build --out) end without a newline, reports and maps with one
WRITTEN = [
    (["build", "--graph", "k33.g", "--decolor", "full", "--out", "g0.json"], 0, ["g0.json"]),
    (["build", "--graph", "k33.g", "--b", "100000", "--construction", "Gstar",
      "--out", "g1.json"], 0, ["g1.json"]),
    (["solve", "--graph", "k33.g", "--b", "100000", "--json", "solve.json"], 1, ["solve.json"]),
    (["group", "--graph", "k33.g", "--b", "100000", "--word", "gamma",
      "--json", "group.json"], 0, ["group.json"]),
    (["cert", "qut", "--graph", "k34.g", "--rep", "regular", "--lift",
      "--out", "qut.json", "--report", "qut-report.json"], 0, ["qut.json", "qut-report.json"]),
    (["cert", "qiso", "--graph", "k33.g", "--b1", "000000", "--b2", "100000",
      "--rep", "pauli", "--out", "qiso.json", "--report", "qiso-report.json"], 0,
     ["qiso.json", "qiso-report.json"]),
    (["iso", "g0.json", "g0.json", "--map-out", "map.json", "--json", "iso.json"], 0,
     ["map.json", "iso.json"]),
    (["aut", "g0.json", "--json", "aut.json"], 0, ["aut.json"]),
]


def test_every_written_file_is_the_stdlib_text_of_itself(files, monkeypatch):
    monkeypatch.chdir(files)
    for argv, code, paths in WRITTEN:
        assert run(*argv) == code
        for path in paths:
            text = (files / path).read_text()
            end = "" if argv[0] == "build" else "\n"
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + end, path


def test_group_empty_word_is_the_identity(files, capsys):
    report = files / "w.json"
    assert run("group", "--graph", files / "k34.g", "--word", "", "--json", report) == 0
    assert "word '' = identity" in capsys.readouterr().out
    data = json.loads(report.read_text())
    assert data["word"] == "" and data["word_is_identity"] is True


def test_group_unknown_word_generator_exit_2(files, monkeypatch, capsys):
    # the word is read before the enumeration, which must not start
    def no_enumeration(*args):
        raise AssertionError("star_cosets called")
    monkeypatch.setattr(fpgroups, "star_cosets", no_enumeration)
    for flags, word, name in ([], "x1 y9", "y9"), (["--homogeneous"], "gamma", "gamma"):
        assert run("group", "--graph", files / "k33.g", *flags, "--word", word) == 2
        assert capsys.readouterr().err == \
            f"error: unknown generator {name!r} in word {word!r}\n"


CAP_COMMANDS = {
    "group": ["group", "--graph", "k34.g", "--homogeneous"],
    "cert": ["cert", "qut", "--graph", "k34.g", "--rep", "regular"],
}


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
@pytest.mark.parametrize("command", sorted(CAP_COMMANDS))
def test_invalid_cap_exit_2(files, monkeypatch, capsys, command, raw):
    # --cap is the one way to set the cap: argparse rejects a non-integer,
    # and todd_coxeter a cap below 1, before any enumeration
    monkeypatch.chdir(files)
    assert run(*CAP_COMMANDS[command], "--cap", raw) == 2
    err = capsys.readouterr().err
    assert ("invalid int value" if raw == "abc" else "cap must be at least 1") in err


@pytest.mark.parametrize("argv", [["group"], ["cert", "qut", "--rep", "regular"], ["build"]])
def test_empty_constraint_row_exit_2(files, capsys, argv):
    # the second constraint touches no variable: its relator would be empty,
    # and its block of the graph constructions has no vertex
    (files / "empty.sys").write_text("110;000|00\n")
    assert run(*argv, "--system", files / "empty.sys") == 2
    assert capsys.readouterr().err == "error: constraint 1 touches no variable\n"


@pytest.mark.parametrize("command", ["solve", "group", "build"])
def test_negative_vertex_count_exit_2(files, monkeypatch, capsys, command):
    (files / "negative.g").write_text("-3\n")
    monkeypatch.chdir(files)
    assert run(command, "--graph", "negative.g") == 2
    assert capsys.readouterr().err == "error: line 1, column 1: vertex count -3 is negative\n"


def test_group_json_without_cap_reports_the_default(files, monkeypatch):
    monkeypatch.chdir(files)
    assert run("group", "--graph", "k33.g", "--json", "g.json") == 0
    data = json.loads((files / "g.json").read_text())
    assert data["cap"] == 1000000 and "cap" not in data["config"]


def test_tol_flag_is_unknown(files):
    # verification is exact, so there is no tolerance to set
    assert run("cert", "qut", "--graph", files / "k33.g", "--rep", "regular",
               "--tol", "0") == 2


def test_cert_qiso_pauli(files, capsys):
    report = files / "report.json"
    assert run("cert", "qiso", "--graph", files / "k33.g", "--b1", "000000",
               "--b2", "100000", "--rep", "pauli", "--report", report) == 0
    assert "certificate passes" in capsys.readouterr().out
    data = json.loads(report.read_text())
    assert data["verification"]["passed"] is True


def test_cert_qiso_pauli_with_lift(files, capsys):
    report = files / "lifted.json"
    assert run("cert", "qiso", "--graph", files / "k33.g", "--b1", "000000",
               "--b2", "100000", "--rep", "pauli", "--lift",
               "--report", report) == 0
    out = capsys.readouterr().out
    assert "lifted certificate over 426-vertex graphs passes" in out
    data = json.loads(report.read_text())
    assert data["lifted_verification"]["passed"] is True


def test_cert_qut_regular_k33(files, capsys):
    assert run("cert", "qut", "--graph", files / "k33.g", "--rep", "regular") == 0
    out = capsys.readouterr().out
    assert "witness: none" in out


def test_cert_qut_regular_k34_witness(files, capsys):
    cert_out = files / "cert.json"
    assert run("cert", "qut", "--graph", files / "k34.g", "--rep", "regular",
               "--out", cert_out) == 0
    assert "witness: found" in capsys.readouterr().out
    data = json.loads(cert_out.read_text())
    assert data["backend"] == "group_algebra"


# the regular-rep certificate lists group elements by their numbers in
# `fpgroups.regular_table`, so its digest pins the standardized numbering
# (breadth-first from the identity), which no enumerator chooses; derived
# from the certificate numbered by the trivial-subgroup enumeration by
# `test_k34_regular_pin_is_the_enumerated_certificate_renumbered`
K34_REGULAR_CERT_SHA256 = (
    "db03bf73b07337cb23312dcc7d6d59ea691eb0c5469a0c9c4f43d8c207e172af")
# the same certificate numbered by the trivial-subgroup enumeration: the
# starting point of that derivation
K34_ENUMERATED_CERT_SHA256 = (
    "6aac99ced985bcece3183d8f2d18062daddad70d4934150b5339648e74386540")
# the Pauli certificate's [re, im] floats, as written when the dense backend
# was a numpy complex128 matrix (`--out` echoes no config, so this digest
# does not depend on the paths)
K33_PAULI_CERT_SHA256 = (
    "1c272c3d4cdf01700c2bed5ae9f5bc39d81afa0e57a0e88db0d483a7935f15bc")


# K3,5's regular certificate: |S| = 16 and k = 512 star cosets, where K3,4
# has 8 and 32; measured while `regular_table` built all 8192 elements'
# columns and renumbered them
K35_REGULAR_CERT_SHA256 = (
    "79726da330f75fbc66d55be20b2c08bf88423240f12647b1b9bfe2eba8317f35")


def test_cert_qut_regular_k35_out_is_pinned(files, monkeypatch):
    monkeypatch.chdir(files)
    assert run("cert", "qut", "--graph", "k35.g", "--rep", "regular", "--out", "c.json") == 0
    assert hashlib.sha256((files / "c.json").read_bytes()).hexdigest() == \
        K35_REGULAR_CERT_SHA256


@pytest.mark.parametrize("out, sizes", [((), [512]), (("--out", "c.json"), [512, 8192])])
def test_k35_regular_cert_walks_the_elements_only_to_write_them(files, monkeypatch,
                                                                 out, sizes):
    # the breadth-first tree of the 512 star cosets serves both the lift and
    # the group algebra's words; the 8192 elements get one tree, which numbers
    # them, and only when a certificate is written
    sizes_seen = []
    tree = fpgroups.spanning_tree

    def counting(columns):
        sizes_seen.append(len(columns[0]))
        return tree(columns)

    monkeypatch.setattr(fpgroups, "spanning_tree", counting)
    monkeypatch.chdir(files)
    assert run("cert", "qut", "--graph", "k35.g", "--rep", "regular", *out) == 0
    assert sizes_seen == sizes


def test_fixture_certificates_are_the_ones_the_cli_writes(files, monkeypatch, exact_cert34):
    # the tests' shared K3,4 certificate, from `regular_table` as every
    # fixture certificate is, is the one `cert qut --rep regular --out`
    # writes for its graph, three-vertex side first; k34.g lists the
    # four-vertex side first, and the same pipeline on that system writes
    # the K34_REGULAR_CERT_SHA256 certificate
    (files / "k34_3.g").write_text(
        "7\n" + "".join(f"{a} {b}\n" for a in (1, 2, 3) for b in (4, 5, 6, 7)))
    monkeypatch.chdir(files)
    assert run("cert", "qut", "--graph", "k34_3.g", "--rep", "regular", "--out", "c.json") == 0
    assert (files / "c.json").read_text() == _dump(exact_cert34.to_json_dict())

    sys_ = f2core.incidence_system(f2core.complete_bipartite(4, 3), (0,) * 7)
    G = graphs.build_Gstar(sys_)
    table = fpgroups.regular_table(fpgroups.solution_presentation(sys_, homogeneous=True))
    cert = qcert.build_magic_unitary(G, G, reps.group_algebra_rep(table))
    assert hashlib.sha256(_dump(cert.to_json_dict()).encode()).hexdigest() == \
        K34_REGULAR_CERT_SHA256


def test_cert_qiso_pauli_out_is_pinned(files, monkeypatch):
    monkeypatch.chdir(files)
    assert run("cert", "qiso", "--graph", "k33.g", "--b1", "000000", "--b2", "100000",
               "--rep", "pauli", "--out", "c.json") == 0
    assert hashlib.sha256((files / "c.json").read_bytes()).hexdigest() == \
        K33_PAULI_CERT_SHA256


def test_cert_qut_regular_k34_out_is_pinned(files):
    cert_out = files / "cert.json"
    assert run("cert", "qut", "--graph", files / "k34.g", "--rep", "regular",
               "--out", cert_out) == 0
    assert hashlib.sha256(cert_out.read_bytes()).hexdigest() == K34_REGULAR_CERT_SHA256


# the report on G(M_K34, 0), whose block families read the labels of the
# G construction; measured while each label was a VertexLabel object
K34_G_REGULAR_REPORT_SHA256 = (
    "f4d061aa1dfebc1b7ef4a8e1f188b70897918025110c0e1ee43dbca849779948")


def test_cert_qut_regular_k34_G_is_pinned(files, monkeypatch):
    # G and G* hold the same blocks, so the certificate is the G* one
    monkeypatch.chdir(files)
    assert run("cert", "qut", "--graph", "k34.g", "--construction", "G",
               "--rep", "regular", "--out", "cert.json", "--report", "report.json") == 0
    assert hashlib.sha256((files / "cert.json").read_bytes()).hexdigest() == \
        K34_REGULAR_CERT_SHA256
    assert hashlib.sha256((files / "report.json").read_bytes()).hexdigest() == \
        K34_G_REGULAR_REPORT_SHA256


# both lifted cert jobs and the sha256 of their reports, run from the
# directory holding the graph files so that the echoed paths are relative;
# derived from the reports written before verification became exact, with
# their "tol" members deleted
LIFTED_JOBS = {
    "qut-k34-regular": (
        ["cert", "qut", "--graph", "k34.g", "--rep", "regular"],
        "f75f47a8ac4177b3c97001aa4c66e4192f67d4331c65cc1f3512d2bb97670dde"),
    "qiso-k33-pauli": (
        ["cert", "qiso", "--graph", "k33.g", "--b1", "000000", "--b2", "100000",
         "--rep", "pauli"],
        "199c3abad3165da3dadca92897194609dd826678bb5445ef80130c8e5c7474f6"),
}


@pytest.mark.parametrize("job", sorted(LIFTED_JOBS))
def test_lifted_cert_report_is_pinned(files, monkeypatch, job):
    argv, digest = LIFTED_JOBS[job]
    monkeypatch.chdir(files)
    assert run(*argv, "--lift", "--report", "report.json") == 0
    assert hashlib.sha256((files / "report.json").read_bytes()).hexdigest() == digest


def test_no_tolerance_in_any_report(files, monkeypatch):
    monkeypatch.chdir(files)
    assert run(*LIFTED_JOBS["qiso-k33-pauli"][0], "--lift", "--report", "report.json") == 0
    assert '"tol"' not in (files / "report.json").read_text()


def test_k34_regular_pin_is_the_enumerated_certificate_renumbered(files, monkeypatch):
    # the certificate `cert --rep regular` writes over the group algebra of
    # the trivial-subgroup enumeration (`oracles.enumerated_rep`), with each
    # support element g renumbered to its standardized number and each
    # support re-sorted, is the one it writes over the star coordinates; the
    # lifted report depends on no numbering and is the same
    job, report_digest = LIFTED_JOBS["qut-k34-regular"]
    monkeypatch.chdir(files)
    enumerated = []

    def trivial_subgroup_table(P, cap):
        enumerated.append(fpgroups.todd_coxeter(P, [], cap))
        return enumerated[-1]

    with monkeypatch.context() as patch:
        patch.setattr(fpgroups, "regular_table", trivial_subgroup_table)
        patch.setattr(reps, "group_algebra_rep", enumerated_rep)
        assert run(*job, "--out", "cert.json") == 0
        assert run(*job, "--lift", "--report", "report.json") == 0
    old_cert = (files / "cert.json").read_text()
    old_report = (files / "report.json").read_bytes()
    assert hashlib.sha256(old_cert.encode()).hexdigest() == K34_ENUMERATED_CERT_SHA256

    number = standard_numbering(enumerated[0])
    data = json.loads(old_cert)
    assert _dump(data) == old_cert
    data["elements"] = [sorted([number[g], num, exp] for g, num, exp in support)
                        for support in data["elements"]]
    derived = _dump(data).encode()

    assert run(*job, "--out", "cert.json") == 0
    assert (files / "cert.json").read_bytes() == derived
    assert hashlib.sha256(derived).hexdigest() == K34_REGULAR_CERT_SHA256
    assert run(*job, "--lift", "--report", "report.json") == 0
    assert (files / "report.json").read_bytes() == old_report
    assert hashlib.sha256(old_report).hexdigest() == report_digest


def _cli(*argv, cwd, optimize=False):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cmd = [sys.executable, *(["-O"] if optimize else []), *argv]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)


def test_cli_imports_no_numpy(files):
    probe = _cli("-c", "import lcsq.cli, sys; print('numpy' in sys.modules)", cwd=files)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"


def test_lifted_pauli_job_under_python_O(files, monkeypatch):
    # the checks are explicit raises, not asserts, so -O changes nothing
    argv, digest = LIFTED_JOBS["qiso-k33-pauli"]
    proc = _cli("-m", "lcsq.cli", *argv, "--lift", "--report", "report.json",
                cwd=files, optimize=True)
    assert proc.returncode == 0, proc.stderr
    assert "lifted certificate over 426-vertex graphs passes" in proc.stdout
    assert hashlib.sha256((files / "report.json").read_bytes()).hexdigest() == digest


def test_lifted_regular_k34_job_under_python_O(files):
    # the group-algebra lift, its witness search and its intertwining
    # signatures run no assert either
    argv, digest = LIFTED_JOBS["qut-k34-regular"]
    proc = _cli("-m", "lcsq.cli", *argv, "--lift", "--report", "report.json",
                cwd=files, optimize=True)
    assert proc.returncode == 0, proc.stderr
    assert "witness: found; lifted certificate over 2272-vertex graphs passes" in proc.stdout
    assert hashlib.sha256((files / "report.json").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("lift, calls", [(False, 1), (True, 2)])
def test_cert_verifies_each_certificate_once(files, monkeypatch, lift, calls):
    verified = []
    verify = qcert.verify_cert

    def counting(cert):
        verified.append(cert)
        return verify(cert)

    monkeypatch.setattr(qcert, "verify_cert", counting)
    argv = ["cert", "qut", "--graph", files / "k33.g", "--rep", "regular"]
    assert run(*argv, *(["--lift"] if lift else [])) == 0
    assert len(verified) == len({id(cert) for cert in verified}) == calls


# sha256 of the whole report of each lifted job whose certificate has its
# columns 0 and 1 swapped, measured before the sign-folded sum memo
FAILING_REPORT_SHA256 = {
    "qut-k34-regular": "b40db788b5679b70e02306f0dd5d035340a19524e4209a3d1d52076db7ff8adc",
    "qiso-k33-pauli": "57920535c965939f9a80fa71bb1dd796c2586dc56a7e7af9dd16422c98358c88",
}


@pytest.mark.parametrize("job", sorted(LIFTED_JOBS))
def test_failing_source_is_not_lifted_and_exits_1(files, monkeypatch, capsys, job):
    build = qcert.build_magic_unitary
    monkeypatch.setattr(qcert, "build_magic_unitary",
                        lambda *args: corrupt_swap_columns(build(*args), 0, 1))
    monkeypatch.chdir(files)
    assert run(*LIFTED_JOBS[job][0], "--lift", "--report", "report.json") == 1
    out = capsys.readouterr().out
    assert "certificate FAILS" in out and "lifted" not in out
    data = json.loads((files / "report.json").read_text())
    assert data["verification"]["passed"] is False
    assert not any(key.startswith("lifted") for key in data)
    assert hashlib.sha256((files / "report.json").read_bytes()).hexdigest() == \
        FAILING_REPORT_SHA256[job]


def test_cert_cap_exit_3(files):
    assert run("cert", "qut", "--graph", files / "k34.g", "--rep", "regular",
               "--cap", "10") == 3


# K3,4's star route completes from cap 336 and K3,5's from 9536, so the
# caps on either side of those give the same exit code on both commands;
# 423 and 10543 capped out while every commutator relator was scanned
@pytest.mark.parametrize("graph, cap, code", [
    ("k34.g", 335, 3), ("k34.g", 336, 0), ("k34.g", 423, 0), ("k34.g", 424, 0),
    ("k34.g", 10 ** 6, 0), ("k35.g", 9535, 3), ("k35.g", 9536, 0), ("k35.g", 10543, 0),
    ("k35.g", 10544, 0)])
def test_cert_and_group_cap_out_together(files, graph, cap, code):
    assert run("group", "--graph", files / graph, "--homogeneous", "--cap", cap) == code
    assert run("cert", "qut", "--graph", files / graph, "--rep", "regular",
               "--cap", cap) == code


# one wrong entry of the lift from the cosets of the star to the group
ONE_WRONG_SIGMA = """
import sys
import lcsq.fpgroups as fp
from lcsq.cli import main

sigma = fp._sigma


def one_wrong(*args):
    s = sigma(*args)
    s[-1][0] ^= 1
    return s


fp._sigma = one_wrong
sys.exit(main(["cert", "qut", "--graph", "k34.g", "--rep", "regular"]))
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_wrong_regular_table_exits_internal(files, optimize):
    # the relator check of `regular_table` is an explicit raise, so -O keeps it
    proc = _cli("-c", ONE_WRONG_SIGMA, cwd=files, optimize=optimize)
    assert proc.returncode == EXIT_INTERNAL, proc.stderr
    assert proc.stderr.startswith("internal error: relator")
    assert "Traceback" not in proc.stderr


# a lift of every coset t to (0, t) alone: every relator still fixes every
# element, but the action is not transitive
ALL_ZERO_SIGMA = """
import sys
import lcsq.fpgroups as fp
from lcsq.cli import main

fp._sigma = lambda T, S, tree: [[0] * T.num_cosets for _ in T.columns]
sys.exit(main(["cert", "qut", "--graph", "k34.g", "--rep", "regular"]))
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_intransitive_regular_table_exits_internal(files, optimize):
    # the star letter check of `regular_table` is an explicit raise too
    proc = _cli("-c", ALL_ZERO_SIGMA, cwd=files, optimize=optimize)
    assert proc.returncode == EXIT_INTERNAL, proc.stderr
    assert proc.stderr.startswith("internal error: star letter x1")
    assert "Traceback" not in proc.stderr


# K3,4's last constraint relator left out of the star enumeration too, and
# checked first among the relators left out
ONE_MORE_OMITTED = """
import sys
import lcsq.fpgroups as fp
from lcsq.cli import main

scan_relators = fp._scan_relators


def one_more_omitted(P):
    scanned, omitted = scan_relators(P)
    return tuple(w for w in scanned if w != P.relators[-1]), (P.relators[-1], *omitted)


fp._scan_relators = one_more_omitted
sys.exit(main(["group", "--graph", "k34.g", "--homogeneous"]))
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_unimplied_omitted_relator_exits_internal(files, optimize):
    # the check of the relators `star_cosets` leaves out is an explicit
    # raise, so -O keeps it
    proc = _cli("-c", ONE_MORE_OMITTED, cwd=files, optimize=optimize)
    assert proc.returncode == EXIT_INTERNAL, proc.stderr
    assert proc.stderr.startswith("internal error: relator (2, 5, 8, 11) moves a coset")
    assert "Traceback" not in proc.stderr


def test_cert_infinite_group_caps(files, capsys):
    # the demo system's homogeneous solution group is infinite (it contains
    # a free product of two involutions), so enumeration must cap out
    assert run("cert", "qut", "--system", files / "ex.sys", "--rep", "regular",
               "--cap", "2000") == 3
    assert "exceeded cap" in capsys.readouterr().out


def test_cert_pauli_usage_errors(files, capsys):
    assert run("cert", "qiso", "--graph", files / "k34.g", "--b1", "0000000",
               "--b2", "1000000", "--rep", "pauli") == 2
    assert run("cert", "qiso", "--graph", files / "k33.g", "--b1", "000000",
               "--b2", "110000", "--rep", "pauli") == 2
    assert run("cert", "qiso", "--graph", files / "k33.g", "--rep", "pauli") == 2
    # --rep pauli enumerates no group, so a --cap is a usage error before any read
    capsys.readouterr()
    assert run("cert", "qiso", "--graph", files / "missing.g", "--b1", "000000",
               "--b2", "100000", "--rep", "pauli", "--cap", "0") == 2
    assert capsys.readouterr().err == (
        "error: --cap needs --rep regular: --rep pauli enumerates no group\n")


def test_cert_pauli_names_the_edge_order(files, capsys):
    # K3,3 with its edges listed backward has another incidence matrix: the
    # magic square is laid out on the canonical edge order alone
    (files / "k33_reversed.g").write_text("6\n" + "".join(reversed(K33_G.splitlines(True)[1:])))
    assert run("cert", "qiso", "--graph", files / "k33_reversed.g", "--b1", "000000",
               "--b2", "100000", "--rep", "pauli") == 2
    assert capsys.readouterr().err == (
        "error: --rep pauli is only defined for the K3,3 incidence system with edges "
        "1 4, 1 5, 1 6, 2 4, 2 5, 2 6, 3 4, 3 5, 3 6 in this order\n")


@pytest.mark.parametrize("argv, vertices", [
    (["--graph", "k33.g", "--b1", "000000", "--b2", "111000", "--rep", "pauli"], 426),
    (["--graph", "k34.g", "--b1", "0000000", "--b2", "1100000", "--rep", "regular"], 2272),
], ids=["pauli-weight-3", "regular-weight-2"])
def test_cert_qiso_flips_signs_onto_b1_plus_b2(files, monkeypatch, capsys, argv, vertices):
    # one rule for both representations: any b1 + b2 that sign flips reach
    # from the representation's own b gives a certificate that lifts
    monkeypatch.chdir(files)
    assert run("cert", "qiso", *argv, "--lift") == 0
    assert capsys.readouterr().out == (
        "certificate passes (max residual 0); "
        f"lifted certificate over {vertices}-vertex graphs passes\n")


def test_cert_regular_b_miss_exits_before_enumerating(files, monkeypatch, capsys):
    # every column of K3,4's M has two 1s, so an odd-weight b1 + b2 is no M x:
    # a usage error found before any coset is enumerated
    def never(*args, **kwargs):
        raise AssertionError("regular_table was called")

    monkeypatch.setattr(fpgroups, "regular_table", never)
    assert run("cert", "qiso", "--graph", files / "k34.g", "--b1", "0000000",
               "--b2", "1000000", "--rep", "regular", "--lift") == 2
    assert capsys.readouterr().err == (
        "error: --rep regular needs b1+b2 in the column space of M\n")


@pytest.mark.parametrize("kind, flags, message", [
    ("qut", ["--b", "000000", "--b1", "100000"],
     "--b and --b1 are mutually exclusive: each sets the row graph's b"),
    ("qut", ["--b2", "100000"], "qut takes no --b2: its column graph is its row graph"),
    ("qiso", ["--b1", "000000"], "qiso needs --b2"),
], ids=["b-with-b1", "qut-b2", "qiso-without-b2"])
def test_cert_flag_conflicts_come_before_the_read(files, capsys, kind, flags, message):
    # flags that can never work together are a usage error before any read,
    # so a missing graph file is not what the run reports
    assert run("cert", kind, "--graph", files / "missing.g", *flags, "--rep", "regular") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("b2", ["zz", "111111"])
def test_cert_qut_rejects_b2(files, capsys, b2):
    # qut's column graph is its row graph: a --b2, well-formed or not, is
    # a usage error, not silently dropped
    assert run("cert", "qut", "--graph", files / "k33.g", "--b2", b2,
               "--rep", "regular") == 2
    assert capsys.readouterr().err == (
        "error: qut takes no --b2: its column graph is its row graph\n")


@pytest.mark.parametrize("inputs", [["--graph", "k33.g", "--construction", "G"],
                                    ["--system", "path.sys"],
                                    ["--graph", "k34.g", "--construction", "G", "--cap", "10"]],
                         ids=["construction-G", "system", "construction-G-capped"])
def test_lift_without_shared_color_names_the_cause(files, monkeypatch, capsys, inputs):
    # the lift keeps G*'s shared:-1 edges and cert has no --c0; G(M, b), the
    # default construction of a --system input, has no such color.  No such
    # run can lift, so it is a usage error before any work: the capped one
    # never reaches the enumeration that would exit 3
    (files / "path.sys").write_text("110;011|00\n")
    monkeypatch.chdir(files)
    assert run("cert", "qut", *inputs, "--rep", "regular", "--lift") == 2
    assert capsys.readouterr().err == (
        "error: --lift needs G*'s shared:-1 edge color (--construction Gstar), "
        "and this graph has none\n")
    assert run("cert", "qut", "--system", "path.sys", "--construction", "Gstar",
               "--rep", "regular", "--lift") == 0


@pytest.mark.parametrize("kind, flags", [("qut", ["--b1", ""]),
                                         ("qiso", ["--b1", "000000", "--b2", ""])])
def test_cert_empty_bits_are_malformed(files, capsys, kind, flags):
    # an empty bit string is given, and malformed: not the system's own b,
    # and not a missing --b2
    assert run("cert", kind, "--graph", files / "k33.g", *flags,
               "--rep", "regular") == 2
    assert capsys.readouterr().err == (
        f"error: {flags[-2]} must be a 6-bit string, got ''\n")


# an empty string given to a flag is given: a color the graph lacks, a
# second input, or a path that cannot be read or written
EMPTY_VALUES = {
    "c0": (["build", "--graph", "k33.g", "--decolor", "full", "--c0", ""],
           "is not an edge color"),
    "system": (["build", "--system", "", "--graph", "k33.g"], "mutually exclusive"),
    "graph": (["build", "--graph", ""], "No such file"),
    "build-out": (["build", "--graph", "k33.g", "--out", ""], "No such file"),
    "build-dot": (["build", "--graph", "k33.g", "--dot", ""], "No such file"),
    "solve-json": (["solve", "--graph", "k33.g", "--json", ""], "No such file"),
    "group-json": (["group", "--graph", "k33.g", "--json", ""], "No such file"),
    "cert-out": (["cert", "qut", "--graph", "k33.g", "--rep", "regular", "--out", ""],
                 "No such file"),
    "cert-report": (["cert", "qut", "--graph", "k33.g", "--rep", "regular",
                     "--report", ""], "No such file"),
    "iso-json": (["iso", "g.json", "g.json", "--json", ""], "No such file"),
    "iso-map-out": (["iso", "g.json", "g.json", "--map-out", ""], "No such file"),
    "aut-json": (["aut", "g.json", "--json", ""], "No such file"),
}


@pytest.mark.parametrize("name", sorted(EMPTY_VALUES))
def test_empty_flag_values_exit_2(files, monkeypatch, capsys, name):
    monkeypatch.chdir(files)
    assert run("build", "--graph", "k33.g", "--out", "g.json") == 0
    capsys.readouterr()
    argv, message = EMPTY_VALUES[name]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv", [["cert", "qut", "--graph", "k33.g", "--rep", "dense"],
                                  ["build", "--graph", "k33.g", "--construction", "H"]],
                         ids=["rep-dense", "construction-H"])
def test_argparse_rejects_unknown_choices(files, monkeypatch, argv):
    monkeypatch.chdir(files)
    assert run(*argv) == 2


def test_qut_and_qiso_with_equal_b_verify_one_relation_set(files, monkeypatch):
    # a certificate is checked against the relation set its graphs define,
    # whichever kind of run built it
    monkeypatch.chdir(files)
    assert run("cert", "qut", "--graph", "k34.g", "--rep", "regular",
               "--report", "qut.json") == 0
    assert run("cert", "qiso", "--graph", "k34.g", "--b1", "0000000", "--b2", "0000000",
               "--rep", "regular", "--report", "qiso.json") == 0
    qut, qiso = (json.loads((files / name).read_text()) for name in ("qut.json", "qiso.json"))
    assert qut["verification"] == qiso["verification"]
    assert qut["verification"]["passed"]


def test_iso_and_aut(files, capsys):
    a, b = files / "a.json", files / "b.json"
    run("build", "--graph", files / "k33.g", "--construction", "Gstar", "--out", a)
    run("build", "--graph", files / "k33.g", "--b", "100000",
        "--construction", "Gstar", "--out", b)
    mapping = files / "map.json"
    assert run("iso", a, a, "--map-out", mapping) == 0
    assert "isomorphic" in capsys.readouterr().out
    assert json.loads(mapping.read_text())["0"] == 0
    assert run("iso", a, b) == 1
    assert "non-isomorphic" in capsys.readouterr().out
    report = files / "aut.json"
    assert run("aut", a, "--json", report) == 0
    assert json.loads(report.read_text())["order"] == 16


def test_iso_of_graphs_with_unequal_counts(files, monkeypatch, capsys):
    # unequal vertex, edge or color counts are told apart by the search itself
    monkeypatch.chdir(files)
    assert run("build", "--graph", "k33.g", "--out", "gs33.json") == 0
    assert run("build", "--graph", "k33.g", "--decolor", "full", "--out", "gpp33.json") == 0
    assert run("build", "--graph", "k34.g", "--decolor", "full", "--out", "gpp34.json") == 0
    data = json.loads((files / "gpp33.json").read_text())
    data["edges"][0]["color"] = "plain:0"
    (files / "recolored.json").write_text(json.dumps(data))
    capsys.readouterr()
    for pair in (("gs33.json", "gpp33.json"), ("gpp33.json", "gpp34.json"),
                 ("gpp33.json", "recolored.json")):
        assert run("iso", *pair, "--json", "r.json", "--map-out", "m.json") == 1
        assert capsys.readouterr().out == "non-isomorphic\n"
        report = json.loads((files / "r.json").read_text())
        assert report["isomorphic"] is False and report["mapping"] is None
        assert not (files / "m.json").exists()


# graphs with little or no 2-core, and their automorphism group orders
LITTLE_CORE = {
    "empty": (_graph_json(0, []), 1),
    "path3": (_graph_json(3, [(0, 1), (1, 2)]), 2),
    "star13": (_graph_json(4, [(0, 1), (0, 2), (0, 3)]), 6),
    "triangle-pendants": (_graph_json(6, [(0, 1), (0, 2), (1, 2),
                                          (0, 3), (1, 4), (2, 5)]), 6),
}


@pytest.mark.parametrize("name", sorted(LITTLE_CORE))
def test_aut_on_little_or_no_core(files, capsys, name):
    text, order = LITTLE_CORE[name]
    path, report = files / f"{name}.json", files / "aut.json"
    path.write_text(text)
    assert run("aut", path, "--json", report) == 0
    assert capsys.readouterr().out == f"automorphism group order: {order}\n"
    assert json.loads(report.read_text())["order"] == order


def test_iso_of_forests(files, capsys):
    # a path with an edge beside it, and a star with a vertex beside it
    a, b, c = files / "a.json", files / "b.json", files / "c.json"
    a.write_text(_graph_json(5, [(0, 1), (1, 2), (3, 4)]))
    b.write_text(_graph_json(5, [(0, 1), (0, 2), (0, 3)]))
    c.write_text(_graph_json(5, [(4, 3), (3, 1), (0, 2)]))
    assert run("iso", a, b) == 1
    assert capsys.readouterr().out == "non-isomorphic\n"
    assert run("iso", a, c) == 0
    assert run("iso", a, files / "missing.json") == 2
    b.write_text("{")
    assert run("iso", a, b) == 2


def test_unknown_flag_exit_2(files):
    assert run("group", "--graph", files / "k33.g", "--no-such-flag") == 2


def test_malformed_graph_json_exit_2(files, capsys):
    bad = files / "broken.json"
    bad.write_text('{"vertices": [{"id": 0}]}')  # no "edges"
    assert run("aut", bad) == 2
    assert "error:" in capsys.readouterr().err
    bad.write_text("not json at all")
    assert run("aut", bad) == 2


# documents that depart from the graph file format in one field each
MALFORMED_GRAPHS = {
    "color-int": {"vertices": [{"id": 0, "color": 5}], "edges": []},
    "label-int": {"vertices": [{"id": 0, "label": 3}], "edges": []},
    "id-string": {"vertices": [{"id": "0"}, {"id": 1}], "edges": []},
    "u-string": {"vertices": [{"id": 0}, {"id": 1}], "edges": [{"u": "0", "v": 1}]},
    "u-float": {"vertices": [{"id": 0}, {"id": 1}], "edges": [{"u": 0.0, "v": 1}]},
    "vertices-not-objects": {"vertices": [0, 1], "edges": []},
    "top-level-list": [],
    "color-shared-x": {"vertices": [{"id": 0}, {"id": 1}],
                       "edges": [{"u": 0, "v": 1, "color": "shared:x"}]},
    "color-v-01": {"vertices": [{"id": 0, "color": "v:01"}], "edges": []},
}


@pytest.mark.parametrize("command", ["iso", "aut"])
@pytest.mark.parametrize("name", sorted(MALFORMED_GRAPHS))
def test_malformed_graph_documents_exit_2(files, capsys, command, name):
    good, bad = files / "good.json", files / "bad.json"
    good.write_text('{"vertices": [{"id": 0}], "edges": []}')
    bad.write_text(json.dumps(MALFORMED_GRAPHS[name]))
    assert run(command, *([good] if command == "iso" else []), bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


# documents nested past the JSON decoder's recursion limit
NESTED_GRAPHS = {
    "open-brackets": "[" * 100000,
    "deep-meta": '{"vertices": [{"id": 0}], "edges": [], "meta": '
                 + "[" * 50000 + "]" * 50000 + "}",
}


@pytest.mark.parametrize("command", ["iso", "aut"])
@pytest.mark.parametrize("name", sorted(NESTED_GRAPHS))
def test_deeply_nested_graph_documents_exit_2(files, capsys, command, name):
    good, bad = files / "good.json", files / "bad.json"
    good.write_text('{"vertices": [{"id": 0}], "edges": []}')
    bad.write_text(NESTED_GRAPHS[name])
    assert run(command, *([good] if command == "iso" else []), bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


# documents that lack a required field, and the message each one gets
MISSING_FIELDS = {
    "vertices": {"edges": []},
    "id": {"vertices": [{"id": 0}, {"label": "a"}], "edges": []},
    "v": {"vertices": [{"id": 0}, {"id": 1}], "edges": [{"u": 0}]},
}


@pytest.mark.parametrize("field", sorted(MISSING_FIELDS))
def test_missing_graph_fields_exit_2(files, capsys, field):
    bad = files / "bad.json"
    bad.write_text(json.dumps(MISSING_FIELDS[field]))
    assert run("aut", bad) == 2
    assert capsys.readouterr().err == f"error: missing field '{field}'\n"


# graph documents with one bad edge each, and the message each one gets
BAD_EDGES = {
    "loop": ([{"u": 1, "v": 1}], "loop at vertex 1"),
    "out-of-range": ([{"u": 0, "v": 2}], "bad edge endpoints (0, 2)"),
    "negative": ([{"u": -1, "v": 1}], "bad edge endpoints (-1, 1)"),
    "duplicate": ([{"u": 0, "v": 1}, {"u": 1, "v": 0}], "duplicate edge (0, 1)"),
}


@pytest.mark.parametrize("command", ["iso", "aut"])
@pytest.mark.parametrize("name", sorted(BAD_EDGES))
def test_bad_graph_edges_exit_2(files, capsys, command, name):
    edges, message = BAD_EDGES[name]
    good, bad = files / "good.json", files / "bad.json"
    good.write_text('{"vertices": [{"id": 0}], "edges": []}')
    bad.write_text(json.dumps({"vertices": [{"id": 0}, {"id": 1}], "edges": edges}))
    assert run(command, *([good] if command == "iso" else []), bad) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_key_error_in_the_library_exits_internal(files, monkeypatch, capsys):
    # a lookup bug is not a usage error
    def broken(*args):
        raise KeyError("orig:0")

    monkeypatch.setattr(qcert, "decolor_full", broken)
    assert run("cert", "qut", "--graph", files / "k33.g", "--rep", "regular",
               "--lift") == EXIT_INTERNAL
    assert capsys.readouterr().err.startswith("internal error: KeyError: 'orig:0'\n")


# each command with a directory where it reads or writes a file
DIRECTORY_PATHS = {
    "build-out": ["build", "--system", "ex.sys", "--out", "d"],
    "aut": ["aut", "d"],
    "cert-report": ["cert", "qut", "--graph", "k33.g", "--rep", "regular", "--report", "d"],
}


@pytest.mark.parametrize("name", sorted(DIRECTORY_PATHS))
def test_filesystem_errors_exit_2(files, monkeypatch, capsys, name):
    # exit 1 would read as a verified negative
    monkeypatch.chdir(files)
    (files / "d").mkdir()
    assert run(*DIRECTORY_PATHS[name]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err


def test_unexpected_exception_exits_internal(files, monkeypatch, capsys):
    def broken(G):
        raise TypeError("unsupported operand")

    a = files / "a.json"
    assert run("build", "--graph", files / "k33.g", "--out", a) == 0
    monkeypatch.setattr(graphiso, "automorphism_group", broken)
    assert run("aut", a) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error: TypeError: unsupported operand\n")
    assert "Traceback" in err  # a bug: the report names where it happened


def test_failed_self_check_exits_internal(files, monkeypatch, capsys):
    def broken(G):
        raise RuntimeError("search produced an invalid mapping")

    a = files / "a.json"
    assert run("build", "--graph", files / "k33.g", "--out", a) == 0
    monkeypatch.setattr(graphiso, "automorphism_group", broken)
    assert run("aut", a) == EXIT_INTERNAL == 4
    assert "internal error: search produced an invalid mapping" in capsys.readouterr().err


def test_certificate_error_exits_internal(files, monkeypatch, capsys):
    # every certificate input of `cert` is built by the CLI, so a failed
    # certificate precondition is a bug, not a usage error
    def broken(*args):
        raise qcert.CertificateError("entries for edges (0, 5)/(0, 5) do not commute")

    monkeypatch.setattr(qcert, "lift_cert", broken)
    assert run("cert", "qut", "--graph", files / "k33.g", "--rep", "regular",
               "--lift") == EXIT_INTERNAL
    assert "internal error: entries for edges" in capsys.readouterr().err


def test_failed_magic_square_exits_internal(files, monkeypatch, capsys):
    failing = SimpleNamespace(passed=False, worst=("involution:x1", 2.0))
    monkeypatch.setattr(reps, "verify_representation", lambda *args, **kw: failing)
    assert run("cert", "qiso", "--graph", files / "k33.g", "--b1", "000000",
               "--b2", "100000", "--rep", "pauli") == 4
    assert "internal error: magic square failed verification" in capsys.readouterr().err


def test_regular_k33_lift_under_python_O_matches_in_process(files, monkeypatch, capsys):
    # the abelian shortcut of the witness search is no assert either: -O
    # reports no witness and writes the bytes of an in-process run
    argv = ["cert", "qut", "--graph", "k33.g", "--rep", "regular", "--lift",
            "--report", "r.json"]
    monkeypatch.chdir(files)
    assert run(*argv) == 0
    assert "witness: none" in capsys.readouterr().out
    in_process = (files / "r.json").read_bytes()
    (files / "r.json").unlink()
    proc = _cli("-m", "lcsq.cli", *argv, cwd=files, optimize=True)
    assert proc.returncode == 0, proc.stderr
    assert "witness: none" in proc.stdout
    data = json.loads((files / "r.json").read_text())
    assert data["noncommuting_witness"] is None
    assert data["lifted_noncommuting_witness"] is False
    assert (files / "r.json").read_bytes() == in_process


# ---------------------------------------------------------------------------
# the parser is built once per process


def test_parser_is_built_once():
    assert _parser() is _parser()


def test_usage_error_leaves_the_parser_as_a_fresh_process_finds_it(files, monkeypatch,
                                                                    capsys):
    monkeypatch.chdir(files)
    argv = ["group", "--graph", "k34.g", "--word", "x1 x5"]
    assert run("cert", "qut", "--graph", "k33.g", "--rep", "dense") == 2
    assert run("group", "--graph", "k33.g", "--cap", "many") == 2
    capsys.readouterr()
    assert run(*argv) == 0
    out = capsys.readouterr()
    proc = _cli("-m", "lcsq.cli", *argv, cwd=files)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.out, out.err)


HELP_ARGV = [[], ["solve"], ["build"], ["group"], ["cert"], ["iso"], ["aut"]]


@pytest.mark.parametrize("argv", HELP_ARGV, ids=["lcsq", *(a[0] for a in HELP_ARGV[1:])])
def test_help_exits_0_with_the_bytes_of_a_fresh_process(files, monkeypatch, capsys, argv):
    # argparse wraps help to the terminal width, read from COLUMNS first
    monkeypatch.setenv("COLUMNS", "80")
    outs = []
    for _ in range(2):
        assert run(*argv, "--help") == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
    assert outs[0].out.startswith(f"usage: {' '.join(['lcsq', *argv])}")
    assert outs[0].err == ""
    proc = _cli("-m", "lcsq.cli", *argv, "--help", cwd=files)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, outs[0].out, "")
