"""The three workloads: input files built from the seed, and the CLI jobs
run on them, each with the verdict its oracle expects.

Seed 0 uses the canonical inputs of the test suite.  Any other seed
permutes the edge order of H for the `group` and `--rep regular` jobs and
relabels the vertices of the `iso`/`aut` input JSONs; neither changes a
verdict.  The Pauli job stays on the canonical K3,3 file because
`--rep pauli` accepts only that incidence matrix.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from oracle import (GraphFile, abelian_order, check_isomorphism, expect,
                    load_json, stdout_has)

# Half of the 2*10^5 cap first used for K4,4: at that cap this job alone
# takes 11-15 s on a 2-vCPU VM, and every run makes at least two passes.
CAP_K44 = 100000


@dataclass
class Job:
    """One CLI invocation and the oracle for its outputs."""

    name: str
    argv: list[str]
    exit_code: int
    outputs: tuple[str, ...]
    check: Callable[[str, dict[str, bytes]], None]

    @property
    def command(self) -> str:
        return self.argv[0]


def _rng(seed: int, name: str) -> random.Random | None:
    return random.Random(f"{seed}/{name}") if seed else None


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _bipartite(workdir: str, p: int, q: int, rng: random.Random | None) -> str:
    """K_{p,q} in the graph file format; left side 1..p, right p+1..p+q."""
    edges = [(a, b) for a in range(1, p + 1) for b in range(p + 1, p + q + 1)]
    if rng is not None:
        rng.shuffle(edges)
    tag = "canon" if rng is None else "perm"
    text = f"{p + q}\n" + "".join(f"{a} {b}\n" for a, b in edges)
    return _write(os.path.join(workdir, f"k{p}{q}_{tag}.g"), text)


def _relabel(text: str, rng: random.Random) -> str:
    data = json.loads(text)
    perm = list(range(len(data["vertices"])))
    rng.shuffle(perm)
    data["vertices"] = [dict(v, id=perm[v["id"]]) for v in data["vertices"]]
    data["edges"] = [dict(e, u=perm[e["u"]], v=perm[e["v"]]) for e in data["edges"]]
    rng.shuffle(data["vertices"])
    rng.shuffle(data["edges"])
    return json.dumps(data, sort_keys=True, indent=1)


def _build_json(main, workdir: str, name: str, graph: str, seed: int,
                b: str | None = None, decolor: str = "none") -> str:
    """A G* (decolor none) or G'' (decolor full) JSON built by `lcsq build`."""
    path = os.path.join(workdir, name + ".json")
    argv = ["build", "--graph", graph, "--decolor", decolor, "--out", path]
    if b is not None:
        argv += ["--b", b]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"input build {argv} exited {rc}")
    rng = _rng(seed, name)
    if rng is not None:
        with open(path, encoding="utf-8") as fh:
            text = _relabel(fh.read(), rng)
        _write(path, text)
    return path


def _out(workdir: str, job: str) -> str:
    return os.path.join(workdir, "out", f"{job}.json")


# ---------------------------------------------------------------------------
# Oracles


def _group_check(report: str, order: int | None, abelian: bool | None,
                 ab_order: int, word: bool | None = None):
    def check(stdout: str, outputs: dict[str, bytes]) -> None:
        data = load_json(outputs[report])
        expect(data["order"] == order, f"order {data['order']}, expected {order}")
        expect(data["status"] == ("complete" if order else "capped"),
               f"status {data['status']}")
        expect(data["abelianized_order"] == ab_order,
               f"abelianized order {data['abelianized_order']}, expected {ab_order}")
        expect(data.get("abelian") == abelian,
               f"abelian {data.get('abelian')}, expected {abelian}")
        if word is not None:
            expect(data["word_is_identity"] is word,
                   f"word_is_identity {data['word_is_identity']}, expected {word}")
    return check


def _cert_stdout_check(witness: bool | None, lifted: int | None = None):
    def check(stdout: str, outputs: dict[str, bytes]) -> None:
        stdout_has(stdout, r"^certificate passes \(max residual 0\)")
        if witness is not None:
            stdout_has(stdout, r"witness: found" if witness else r"witness: none")
        if lifted is not None:
            stdout_has(stdout, rf"lifted certificate over {lifted}-vertex graphs passes")
    return check


def _cert_report_check(report: str, exact: bool, witness: bool | None, lifted: bool):
    def check(stdout: str, outputs: dict[str, bytes]) -> None:
        data = load_json(outputs[report])
        sections = ["verification"] + (["lifted_verification"] if lifted else [])
        for section in sections:
            v = data[section]
            expect(v["passed"] is True, f"{section} does not pass")
            if exact:
                expect(v["max_residual"] == 0, f"{section} residual {v['max_residual']}")
        if witness is not None:
            expect((data["noncommuting_witness"] is not None) is witness,
                   f"witness {data['noncommuting_witness']}, expected {witness}")
            if lifted:
                expect(data["lifted_noncommuting_witness"] is witness,
                       "lifted witness disagrees")
    return check


def _iso_check(graph: _Inputs, report: str, isomorphic: bool, g1: str, g2: str,
               map_out: str | None = None):
    def check(stdout: str, outputs: dict[str, bytes]) -> None:
        data = load_json(outputs[report])
        expect(data["isomorphic"] is isomorphic,
               f"isomorphic {data['isomorphic']}, expected {isomorphic}")
        if isomorphic:
            mapping = load_json(outputs[map_out])
            expect(mapping == data["mapping"], "--map-out and --json disagree")
            check_isomorphism(graph(g1), graph(g2), mapping)
    return check


def _aut_check(graph: _Inputs, report: str, order: int, path: str):
    def check(stdout: str, outputs: dict[str, bytes]) -> None:
        data = load_json(outputs[report])
        expect(data["order"] == order, f"order {data['order']}, expected {order}")
        expect(order == 1 or data["generators"], "no generators for a nontrivial group")
        g = graph(path)
        for gen in data["generators"]:
            check_isomorphism(g, g, gen)
    return check


def _build_check(path: str, vertices: int, edges: int):
    def check(stdout: str, outputs: dict[str, bytes]) -> None:
        stdout_has(stdout, rf"^vertices: {vertices}, edges: {edges}$")
        data = load_json(outputs[path])
        expect(len(data["vertices"]) == vertices, "vertex count in --out")
        expect(len(data["edges"]) == edges, "edge count in --out")
        expect(all("color" not in v for v in data["vertices"]), "vertex colors left")
        expect(all("color" not in e for e in data["edges"]), "edge colors left")
    return check


class _Inputs:
    """Input graphs never change during a run, so each is parsed once."""

    def __init__(self):
        self._parsed: dict[str, GraphFile] = {}

    def __call__(self, path: str) -> GraphFile:
        if path not in self._parsed:
            with open(path, "rb") as fh:
                self._parsed[path] = GraphFile(load_json(fh.read()))
        return self._parsed[path]


# ---------------------------------------------------------------------------
# Job lists


def _enumerate(main, d: str, seed: int) -> list[Job]:
    """Todd-Coxeter does about 90% of the work, graphiso none: complete and
    capped enumeration, and the second enumeration is_abelian repeats."""
    k33 = _bipartite(d, 3, 3, _rng(seed, "k33"))
    k34 = _bipartite(d, 3, 4, _rng(seed, "k34"))
    k35 = _bipartite(d, 3, 5, _rng(seed, "k35"))
    k44 = _bipartite(d, 4, 4, _rng(seed, "k44"))
    r = {n: _out(d, n) for n in ("gamma33", "group34", "group35", "capped44")}
    return [
        # Gamma(M, e1) for K3,3: order 32, gamma central and nontrivial
        Job("group-k33-gamma", ["group", "--graph", k33, "--b", "100000",
                                "--word", "gamma", "--json", r["gamma33"]], 0,
            (r["gamma33"],), _group_check(r["gamma33"], 32, False,
                                          abelian_order(3, 3), word=False)),
        Job("group-k34", ["group", "--graph", k34, "--homogeneous",
                          "--json", r["group34"]], 0, (r["group34"],),
            _group_check(r["group34"], 256, False, abelian_order(3, 4))),
        Job("group-k35", ["group", "--graph", k35, "--homogeneous",
                          "--json", r["group35"]], 0, (r["group35"],),
            _group_check(r["group35"], 8192, False, abelian_order(3, 5))),
        Job("cert-qut-k35", ["cert", "qut", "--graph", k35, "--rep", "regular"], 0,
            (), _cert_stdout_check(witness=True)),
        # capped: an enumerator that completes K4,4 under this cap changes
        # the expected verdict, so this job must be updated with it
        Job("group-k44-capped", ["group", "--graph", k44, "--homogeneous",
                                 "--cap", str(CAP_K44), "--json", r["capped44"]], 3,
            (r["capped44"],), _group_check(r["capped44"], None, None,
                                           abelian_order(4, 4))),
    ]


def _isomorphism(main, d: str, seed: int) -> list[Job]:
    """Refinement and search do over 95% of the work, fpgroups and qcert
    none.  An exhaustive negative proof, a fast positive search and
    stabilizer-chain aut side by side, so pruning that helps one and hurts
    another shows."""
    graph = _Inputs()
    k33 = _bipartite(d, 3, 3, None)
    k34 = _bipartite(d, 3, 4, None)
    gpp0 = _build_json(main, d, "gpp33_0", k33, seed, decolor="full")
    gpp1 = _build_json(main, d, "gpp33_e1", k33, seed, b="100000", decolor="full")
    gpp34 = _build_json(main, d, "gpp34_0", k34, seed, decolor="full")
    gs0 = _build_json(main, d, "gstar33_0", k33, seed)
    gs1 = _build_json(main, d, "gstar33_e1", k33, seed, b="100000")
    gs34 = _build_json(main, d, "gstar34_0", k34, seed)
    o = {n: _out(d, n) for n in ("noniso33", "self33", "selfmap33", "autgpp33",
                                 "autgpp34", "nonisostar33", "autstar34")}
    return [
        Job("iso-gpp33-noniso", ["iso", gpp0, gpp1, "--json", o["noniso33"]], 1,
            (o["noniso33"],), _iso_check(graph, o["noniso33"], False, gpp0, gpp1)),
        Job("iso-gpp33-self", ["iso", gpp0, gpp0, "--map-out", o["selfmap33"],
                               "--json", o["self33"]], 0,
            (o["self33"], o["selfmap33"]),
            _iso_check(graph, o["self33"], True, gpp0, gpp0, o["selfmap33"])),
        Job("aut-gpp33", ["aut", gpp0, "--json", o["autgpp33"]], 0, (o["autgpp33"],),
            _aut_check(graph, o["autgpp33"], abelian_order(3, 3), gpp0)),
        Job("aut-gpp34", ["aut", gpp34, "--json", o["autgpp34"]], 0, (o["autgpp34"],),
            _aut_check(graph, o["autgpp34"], abelian_order(3, 4), gpp34)),
        Job("iso-gstar33-noniso", ["iso", gs0, gs1, "--json", o["nonisostar33"]], 1,
            (o["nonisostar33"],), _iso_check(graph, o["nonisostar33"], False, gs0, gs1)),
        Job("aut-gstar34", ["aut", gs34, "--json", o["autstar34"]], 0,
            (o["autstar34"],), _aut_check(graph, o["autstar34"], abelian_order(3, 4), gs34)),
    ]


def _certify(main, d: str, seed: int) -> list[Job]:
    """Certificate verification dominates, with the dense (Pauli) and exact
    (group-algebra) backends side by side; decoloring and serialization
    ride along, and enumeration takes under 0.1 s per pass."""
    k33_canon = _bipartite(d, 3, 3, None)
    k35_canon = _bipartite(d, 3, 5, None)
    k33 = _bipartite(d, 3, 3, _rng(seed, "k33"))
    k34 = _bipartite(d, 3, 4, _rng(seed, "k34"))
    o = {n: _out(d, n) for n in ("qiso33", "qut34", "qut34cert", "gpp35")}
    return [
        Job("cert-qiso-pauli-k33", ["cert", "qiso", "--graph", k33_canon,
                                    "--b1", "000000", "--b2", "100000",
                                    "--rep", "pauli", "--lift", "--report", o["qiso33"]],
            0, (o["qiso33"],),
            _cert_report_check(o["qiso33"], exact=False, witness=None, lifted=True)),
        Job("cert-qut-k34", ["cert", "qut", "--graph", k34, "--rep", "regular",
                             "--lift", "--report", o["qut34"], "--out", o["qut34cert"]],
            0, (o["qut34"], o["qut34cert"]),
            _cert_report_check(o["qut34"], exact=True, witness=True, lifted=True)),
        Job("cert-qut-k33", ["cert", "qut", "--graph", k33, "--rep", "regular",
                             "--lift"], 0, (),
            _cert_stdout_check(witness=False, lifted=426)),
        Job("build-gpp-k35", ["build", "--graph", k35_canon, "--decolor", "full",
                              "--out", o["gpp35"]], 0, (o["gpp35"],),
            _build_check(o["gpp35"], 10086, 10888)),
    ]


WORKLOADS = {"enumerate": _enumerate, "isomorphism": _isomorphism,
             "certify": _certify}


def make_jobs(workload: str, main, workdir: str, seed: int) -> list[Job]:
    """Write the workload's inputs under `workdir` and return its jobs."""
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    return WORKLOADS[workload](main, workdir, seed)


def check_job(job: Job, rc: int, stdout: str, outputs: dict[str, bytes]) -> None:
    """Raise Mismatch unless the job's exit code and outputs match its oracle."""
    expect(rc == job.exit_code, f"exit code {rc}, expected {job.exit_code}")
    job.check(stdout, outputs)
