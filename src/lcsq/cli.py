"""Command-line surface: build graphs, enumerate solution groups, build and
verify certificates, and decide classical isomorphism.

Exit codes: 0 success / verified positive; 1 verified negative
(unsolvable, non-isomorphic, certificate failure); 2 usage, parse or
file error (a path that cannot be read or written); 3 enumeration cap
hit; 4 internal error (a self-check inside the library failed, a
certificate precondition failed on inputs the CLI built itself, or any
other exception escaped: a bug, not a verdict).  Certificates are verified in exact
arithmetic on both backends, so "passes" means that every residual is
literally zero; there is no tolerance to set.  All reports and graph
files are written by `graphs.dump_json` (sorted keys, one space of indent),
so identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import dataclass, asdict

from . import f2core, fpgroups, graphs, decolor, reps, qcert, graphiso

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


@dataclass
class RunConfig:
    """Validated flags for one run; echoed into every JSON report."""

    subcommand: str
    system_path: str | None = None
    graph_path: str | None = None
    b: str | None = None
    b1: str | None = None
    b2: str | None = None
    construction: str | None = None
    decolor: str = "none"
    c0: str | None = None
    homogeneous: bool = False
    word: str | None = None
    rep: str | None = None
    lift: bool = False
    cap: int | None = None
    out: str | None = None
    dot: str | None = None
    report: str | None = None
    map_out: str | None = None
    json_out: str | None = None

    def echo(self) -> dict:
        return {k: v for k, v in asdict(self).items()
                if v is not None and v is not False}


class UsageError(ValueError):
    pass


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _dump(data: dict) -> str:
    """A report as written to disk: `graphs.dump_json` plus a newline."""
    return graphs.dump_json(data) + "\n"


def _parse_bits(text: str, length: int, what: str) -> tuple[int, ...]:
    if set(text) - {"0", "1"} or len(text) != length:
        raise UsageError(f"{what} must be a {length}-bit string, got {text!r}")
    return tuple(int(c) for c in text)


def _load_system(cfg: RunConfig) -> f2core.LinearSystem:
    """A linear system from either a system file or a graph file plus b."""
    if cfg.system_path is not None:
        sys_ = f2core.parse_system(_read(cfg.system_path))
        if cfg.b is not None:
            sys_ = sys_.with_b(_parse_bits(cfg.b, sys_.num_constraints, "--b"))
        return sys_
    H = f2core.parse_graph(_read(cfg.graph_path))
    b = (_parse_bits(cfg.b, H.num_vertices, "--b") if cfg.b is not None
         else (0,) * H.num_vertices)
    return f2core.incidence_system(H, b)


def _build_graph(cfg: RunConfig, sys_: f2core.LinearSystem) -> graphs.ColoredGraph:
    construction = cfg.construction or ("Gstar" if cfg.graph_path is not None else "G")
    return graphs.build_G(sys_) if construction == "G" else graphs.build_Gstar(sys_)


def _cap(cfg: RunConfig) -> int:
    """--cap, or fpgroups.DEFAULT_COSET_CAP: a count of group elements (see
    `fpgroups.star_cosets`); `fpgroups.todd_coxeter` rejects one below 1."""
    return fpgroups.DEFAULT_COSET_CAP if cfg.cap is None else cfg.cap


def _pick_c0(cfg: RunConfig, G: graphs.ColoredGraph) -> str:
    """--c0 as given (`decolor.canonical_assignment` rejects one that is not
    an edge color of G), else shared:-1."""
    if cfg.c0 is not None:
        return cfg.c0
    if "shared:-1" in G.edge_palette():
        return "shared:-1"
    raise UsageError("no shared:-1 edge color present; specify --c0 explicitly")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_solve(cfg: RunConfig) -> int:
    sys_ = _load_system(cfg)
    x = f2core.solve_f2(sys_)
    result = {
        "config": cfg.echo(),
        "solvable": x is not None,
        "solution": "".join(str(v) for v in x) if x is not None else None,
        "rank": f2core.rank_f2(sys_.M),
    }
    if cfg.json_out is not None:
        _write(cfg.json_out, _dump(result))
    if x is None:
        print("no solution")
        return EXIT_NEGATIVE
    print(f"solution: {result['solution']}")
    return EXIT_OK


def cmd_build(cfg: RunConfig) -> int:
    sys_ = _load_system(cfg)
    G = _build_graph(cfg, sys_)
    stage = G
    if cfg.decolor in ("vertices", "full"):
        c0 = _pick_c0(cfg, G)
        pa = decolor.canonical_assignment(G, c0)
        stage = decolor.decolor_vertices(G, pa)
        if cfg.decolor == "full":
            stage = decolor.decolor_edges(stage, pa)
    if cfg.out is not None:
        _write(cfg.out, graphs.serialize(stage, "json"))
    if cfg.dot is not None:
        _write(cfg.dot, graphs.serialize(stage, "dot"))
    print(f"vertices: {stage.num_vertices}, edges: {stage.num_edges}")
    return EXIT_OK


def cmd_group(cfg: RunConfig) -> int:
    sys_ = _load_system(cfg)
    homogeneous = cfg.homogeneous or all(v == 0 for v in sys_.b)
    P = fpgroups.solution_presentation(sys_, homogeneous=homogeneous)
    cap = _cap(cfg)
    S, table = fpgroups.star_cosets(P, cap)
    order = table.num_cosets * S.order if table.is_complete else None
    result: dict = {
        "config": cfg.echo(),
        "homogeneous": homogeneous,
        "abelianized_order": S.abelianized_order,
        "cap": cap,
        "status": table.status,
        "order": order,
    }
    lines = []
    if table.is_complete:
        # the abelianization is the largest abelian quotient
        abelian = order == S.abelianized_order
        result["abelian"] = abelian
        lines.append(f"order: {order}, abelian: {abelian}")
    else:
        lines.append(f"order: exceeds cap {cap}")
    if cfg.word is not None:  # the empty word is the identity
        word = P.word_from_names(cfg.word)
        trivial = fpgroups.word_is_identity(table, S, word) if table.is_complete else None
        result["word"] = cfg.word
        result["word_is_identity"] = trivial
        if trivial is None:
            lines.append(f"word {cfg.word!r}: unknown (cap)")
        else:
            lines.append(f"word {cfg.word!r} "
                         + ("= identity" if trivial else "!= identity"))
    if cfg.json_out is not None:
        _write(cfg.json_out, _dump(result))
    print("; ".join(lines))
    return EXIT_OK if table.is_complete else EXIT_CAP


def cmd_cert(cfg: RunConfig) -> int:
    sys_ = _load_system(cfg)
    m = sys_.num_constraints
    b1 = _parse_bits(cfg.b1, m, "--b1") if cfg.b1 is not None else sys_.b
    if cfg.subcommand == "qut":
        if cfg.b2 is not None:
            raise UsageError("qut takes no --b2: its column graph is its row graph")
        b2 = b1
    else:
        if cfg.b2 is None:
            raise UsageError("qiso needs --b2")
        b2 = _parse_bits(cfg.b2, m, "--b2")
    sys1, sys2 = sys_.with_b(b1), sys_.with_b(b2)
    G1 = _build_graph(cfg, sys1)
    G2 = _build_graph(cfg, sys2) if b2 != b1 else G1

    xor_b = tuple(x ^ y for x, y in zip(b1, b2))
    if cfg.rep == "pauli":
        if sys_.M != f2core.incidence_system(
                f2core.complete_bipartite(3, 3), (0,) * 6).M:
            raise UsageError("--rep pauli is only defined for the K3,3 incidence system")
        if sum(xor_b) != 1:
            raise UsageError("--rep pauli needs b1+b2 with exactly one 1")
        R = reps.pauli_magic_square_rep(xor_b.index(1))
    else:  # regular
        if any(xor_b):
            raise UsageError("--rep regular represents the homogeneous group; "
                             "b1 and b2 must agree")
        P = fpgroups.solution_presentation(sys_.with_b(xor_b), homogeneous=True)
        cap = _cap(cfg)
        table = fpgroups.regular_table(P, cap)
        if table is None:
            print(f"coset enumeration exceeded cap {cap}")
            return EXIT_CAP
        R = reps.group_algebra_rep(table)

    mode = "qut" if cfg.subcommand == "qut" else "iso"
    cert = qcert.build_magic_unitary(G1, G2, R)
    report = qcert.verify_cert(cert)
    result: dict = {"config": cfg.echo(), "mode": mode,
                    "verification": report.to_json_dict()}
    lines = [f"certificate {'passes' if report.passed else 'FAILS'} "
             f"(max residual {report.max_residual:.3g})"]

    if mode == "qut":
        witness = qcert.noncommuting_witness(cert)
        result["noncommuting_witness"] = (
            None if witness is None else
            {"entry_a": list(witness[0]), "entry_b": list(witness[1]),
             "commutator_norm": witness[2]})
        lines.append("quantum symmetry witness: "
                     + ("found" if witness else "none (all entries commute)"))

    passed = report.passed
    # a failing source is not lifted: the run is a verified negative either way
    if cfg.lift and passed:
        pa = decolor.canonical_assignment(G1, _pick_c0(cfg, G1))
        lifted = qcert.lift_cert(cert, report, pa)
        lift_report = qcert.verify_cert(lifted)
        result["lifted_verification"] = lift_report.to_json_dict()
        lines.append(f"lifted certificate over {lifted.row_graph.num_vertices}-vertex graphs "
                     f"{'passes' if lift_report.passed else 'FAILS'}")
        passed = passed and lift_report.passed
        if mode == "qut":
            lifted_witness = qcert.noncommuting_witness(lifted)
            result["lifted_noncommuting_witness"] = lifted_witness is not None

    if cfg.out is not None:
        _write(cfg.out, _dump(cert.to_json_dict()))
    if cfg.report is not None:
        _write(cfg.report, _dump(result))
    print("; ".join(lines))
    return EXIT_OK if passed else EXIT_NEGATIVE


def cmd_iso(cfg: RunConfig, path1: str, path2: str) -> int:
    G1 = graphs.parse_graph_json(_read(path1))
    G2 = graphs.parse_graph_json(_read(path2))
    mapping = graphiso.find_isomorphism(G1, G2)
    result = {"config": cfg.echo(), "isomorphic": mapping is not None,
              "mapping": mapping.to_json_dict() if mapping else None}
    if cfg.json_out is not None:
        _write(cfg.json_out, _dump(result))
    if mapping is None:
        print("non-isomorphic")
        return EXIT_NEGATIVE
    if cfg.map_out is not None:
        _write(cfg.map_out, _dump(mapping.to_json_dict()))
    print("isomorphic")
    return EXIT_OK


def cmd_aut(cfg: RunConfig, path: str) -> int:
    G = graphs.parse_graph_json(_read(path))
    aut = graphiso.automorphism_group(G)
    result = {"config": cfg.echo(), "order": aut.order,
              "generators": [g.to_json_dict() for g in aut.generators]}
    if cfg.json_out is not None:
        _write(cfg.json_out, _dump(result))
    print(f"automorphism group order: {aut.order}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="lcsq", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_inputs(p, need_construction=False):
        p.add_argument("--system", help="system file (rows;rows|b)")
        p.add_argument("--graph", help="graph file (vertex count, then edges)")
        p.add_argument("--b", help="right-hand side bits in constraint order")
        if need_construction:
            p.add_argument("--construction", choices=["G", "Gstar"])

    p = sub.add_parser("solve", help="classical solvability of Mx = b")
    add_inputs(p)
    p.add_argument("--json", dest="json_out")

    p = sub.add_parser("build", help="build (and optionally decolor) the graph")
    add_inputs(p, need_construction=True)
    p.add_argument("--decolor", choices=["none", "vertices", "full"], default="none")
    p.add_argument("--c0", help="edge color kept during decoloring (default shared:-1)")
    p.add_argument("--out", help="write graph JSON here")
    p.add_argument("--dot", help="write DOT here")

    p = sub.add_parser("group", help="solution group order / abelianness / words")
    add_inputs(p)
    p.add_argument("--homogeneous", action="store_true")
    p.add_argument("--cap", type=int)
    p.add_argument("--word", help="word in generator names, e.g. 'gamma' or 'x1 x2'")
    p.add_argument("--json", dest="json_out")

    p = sub.add_parser("cert", help="build + verify a magic-unitary certificate")
    p.add_argument("kind", choices=["qut", "qiso"])
    add_inputs(p, need_construction=True)
    p.add_argument("--b1")
    p.add_argument("--b2")
    p.add_argument("--rep", choices=["pauli", "regular"], required=True)
    p.add_argument("--lift", action="store_true")
    p.add_argument("--cap", type=int)
    p.add_argument("--out", help="write certificate JSON here")
    p.add_argument("--report", help="write verification report JSON here")

    p = sub.add_parser("iso", help="classical isomorphism of two graph JSONs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--map-out", dest="map_out")
    p.add_argument("--json", dest="json_out")

    p = sub.add_parser("aut", help="automorphism group of a graph JSON")
    p.add_argument("graph")
    p.add_argument("--json", dest="json_out")
    return top


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        common = dict(
            system_path=getattr(args, "system", None),
            graph_path=getattr(args, "graph", None) if args.command != "aut" else None,
            b=getattr(args, "b", None),
            json_out=getattr(args, "json_out", None),
        )
        if args.command in ("solve", "build", "group", "cert"):
            given = [common[k] is not None for k in ("system_path", "graph_path")]
            if not any(given):
                raise UsageError("one of --system/--graph is required")
            if all(given):
                raise UsageError("--system and --graph are mutually exclusive")

        if args.command == "solve":
            return cmd_solve(RunConfig("solve", **common))
        if args.command == "build":
            return cmd_build(RunConfig(
                "build", construction=args.construction, decolor=args.decolor,
                c0=args.c0, out=args.out, dot=args.dot, **common))
        if args.command == "group":
            return cmd_group(RunConfig(
                "group", homogeneous=args.homogeneous, cap=args.cap,
                word=args.word, **common))
        if args.command == "cert":
            return cmd_cert(RunConfig(
                args.kind, construction=args.construction, b1=args.b1, b2=args.b2,
                rep=args.rep, lift=args.lift, cap=args.cap,
                out=args.out, report=args.report, **common))
        if args.command == "iso":
            cfg = RunConfig("iso", map_out=args.map_out, json_out=args.json_out)
            return cmd_iso(cfg, args.graph1, args.graph2)
        return cmd_aut(RunConfig("aut", json_out=args.json_out), args.graph)
    except (OSError, ValueError) as exc:  # usage, parse and file errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, qcert.CertificateError) as exc:
        # a library self-check failed: every certificate input is built here
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a bug: exit 1 would read as a verified negative
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
