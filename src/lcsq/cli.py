"""Command-line surface: build graphs, enumerate solution groups, build and
verify certificates, and decide classical isomorphism.

Exit codes: 0 success / verified positive; 1 verified negative
(unsolvable, non-isomorphic, certificate failure); 2 usage, parse or
file error (a path that cannot be read or written, or flags that can
never work together, found before any work); 3 enumeration cap hit; 4
internal error (a self-check inside the library failed, a certificate
precondition failed on inputs the CLI built itself, or any other
exception escaped: a bug, not a verdict).  Certificates are verified in
exact arithmetic on both backends, so "passes" means that every residual
is literally zero; there is no tolerance to set.  Reports, certificates
and maps are written by `graphs.dump_json` and graph files by
`graphs.serialize`, both in one layout (sorted keys, one space of
indent), and every report echoes its run's flags as `config`, so
identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback
import warnings

from . import f2core, fpgroups, graphs, decolor, reps, qcert, graphiso

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    pass


def _echo(args: argparse.Namespace) -> dict:
    """The `config` member of a report: every dest of the run whose value
    is neither None nor False."""
    return {k: v for k, v in vars(args).items() if v is not None and v is not False}


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _dump(data) -> str:
    """A report or map as written to disk: `graphs.dump_json` plus a newline."""
    return graphs.dump_json(data) + "\n"


def _parse_bits(text: str, length: int, what: str) -> tuple[int, ...]:
    if set(text) - {"0", "1"} or len(text) != length:
        raise UsageError(f"{what} must be a {length}-bit string, got {text!r}")
    return tuple(int(c) for c in text)


def _load_system(args: argparse.Namespace) -> f2core.LinearSystem:
    """A linear system from either a system file or a graph file plus b."""
    if args.system_path is not None:
        sys_ = f2core.parse_system(_read(args.system_path))
        if args.b is not None:
            sys_ = sys_.with_b(_parse_bits(args.b, sys_.num_constraints, "--b"))
        return sys_
    H = f2core.parse_graph(_read(args.graph_path))
    b = (_parse_bits(args.b, H.num_vertices, "--b") if args.b is not None
         else (0,) * H.num_vertices)
    # the library's warnings (a disconnected H) as one line each, not
    # Python's warning format with a source line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sys_ = f2core.incidence_system(H, b)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return sys_


def _build_graph(args: argparse.Namespace, sys_: f2core.LinearSystem) -> graphs.ColoredGraph:
    construction = args.construction or ("Gstar" if args.graph_path is not None else "G")
    return graphs.build_G(sys_) if construction == "G" else graphs.build_Gstar(sys_)


def _cap(args: argparse.Namespace) -> int:
    """--cap, or fpgroups.DEFAULT_COSET_CAP: a count of group elements (see
    `fpgroups.star_cosets`); `fpgroups.todd_coxeter` rejects one below 1."""
    return fpgroups.DEFAULT_COSET_CAP if args.cap is None else args.cap


def _pick_c0(args: argparse.Namespace, G: graphs.ColoredGraph) -> str:
    """--c0 as given (`decolor.canonical_assignment` rejects one that is not
    an edge color of G), else shared:-1."""
    if args.c0 is not None:
        return args.c0
    if "shared:-1" in G.edge_palette():
        return "shared:-1"
    raise UsageError("no shared:-1 edge color present; specify --c0 explicitly")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_solve(args: argparse.Namespace) -> int:
    sys_ = _load_system(args)
    x = f2core.solve_f2(sys_)
    result = {
        "config": _echo(args),
        "solvable": x is not None,
        "solution": "".join(str(v) for v in x) if x is not None else None,
        "rank": f2core.rank_f2(sys_.M),
    }
    if args.json_out is not None:
        _write(args.json_out, _dump(result))
    if x is None:
        print("no solution")
        return EXIT_NEGATIVE
    print(f"solution: {result['solution']}")
    return EXIT_OK


def cmd_build(args: argparse.Namespace) -> int:
    if args.c0 is not None and args.decolor == "none":
        raise UsageError("--c0 needs --decolor vertices or full")
    sys_ = _load_system(args)
    G = _build_graph(args, sys_)
    stage = G
    if args.decolor in ("vertices", "full"):
        c0 = _pick_c0(args, G)
        pa = decolor.canonical_assignment(G, c0)
        stage = decolor.decolor_vertices(G, pa)
        if args.decolor == "full":
            stage = decolor.decolor_edges(stage, pa)
    if args.out is not None:
        _write(args.out, graphs.serialize(stage))
    if args.dot is not None:
        _write(args.dot, graphs.to_dot(stage))
    print(f"vertices: {stage.num_vertices}, edges: {stage.num_edges}")
    return EXIT_OK


def cmd_group(args: argparse.Namespace) -> int:
    sys_ = _load_system(args)
    homogeneous = args.homogeneous or all(v == 0 for v in sys_.b)
    P = fpgroups.solution_presentation(sys_, homogeneous=homogeneous)
    word = None if args.word is None else P.word_from_names(args.word)
    cap = _cap(args)
    S, table = fpgroups.star_cosets(P, cap)
    order = table.num_cosets * S.order if table.is_complete else None
    result: dict = {
        "config": _echo(args),
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
    if word is not None:  # the empty word, (), is the identity
        trivial = fpgroups.word_is_identity(table, S, word) if table.is_complete else None
        result["word"] = args.word
        result["word_is_identity"] = trivial
        if trivial is None:
            lines.append(f"word {args.word!r}: unknown (cap)")
        else:
            lines.append(f"word {args.word!r} "
                         + ("= identity" if trivial else "!= identity"))
    if args.json_out is not None:
        _write(args.json_out, _dump(result))
    print("; ".join(lines))
    return EXIT_OK if table.is_complete else EXIT_CAP


def cmd_cert(args: argparse.Namespace) -> int:
    if args.cap is not None and args.rep == "pauli":
        raise UsageError("--cap needs --rep regular: --rep pauli enumerates no group")
    if args.b is not None and args.b1 is not None:
        raise UsageError("--b and --b1 are mutually exclusive: each sets the row graph's b")
    if args.subcommand == "qut" and args.b2 is not None:
        raise UsageError("qut takes no --b2: its column graph is its row graph")
    if args.subcommand == "qiso" and args.b2 is None:
        raise UsageError("qiso needs --b2")
    sys_ = _load_system(args)
    m = sys_.num_constraints
    b1 = _parse_bits(args.b1, m, "--b1") if args.b1 is not None else sys_.b
    b2 = b1 if args.subcommand == "qut" else _parse_bits(args.b2, m, "--b2")
    sys1, sys2 = sys_.with_b(b1), sys_.with_b(b2)
    G1 = _build_graph(args, sys1)
    G2 = _build_graph(args, sys2) if b2 != b1 else G1
    # the decoloring keeps G*'s shared:-1 edges and cert has no --c0, so
    # without that color no run could lift, whatever the group turns out to be
    if args.lift and "shared:-1" not in G1.edge_palette():
        raise UsageError("--lift needs G*'s shared:-1 edge color "
                         "(--construction Gstar), and this graph has none")

    xor_b = tuple(x ^ y for x, y in zip(b1, b2))
    if args.rep == "pauli":
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
        cap = _cap(args)
        table = fpgroups.regular_table(P, cap)
        if table is None:
            print(f"coset enumeration exceeded cap {cap}")
            return EXIT_CAP
        R = reps.group_algebra_rep(table)

    mode = "qut" if args.subcommand == "qut" else "iso"
    cert = qcert.build_magic_unitary(G1, G2, R)
    report = qcert.verify_cert(cert)
    result: dict = {"config": _echo(args), "mode": mode,
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
    if args.lift and passed:
        lifted = qcert.lift_cert(cert, report)
        lift_report = qcert.verify_cert(lifted)
        result["lifted_verification"] = lift_report.to_json_dict()
        lines.append(f"lifted certificate over {lifted.row_graph.num_vertices}-vertex graphs "
                     f"{'passes' if lift_report.passed else 'FAILS'}")
        passed = passed and lift_report.passed
        if mode == "qut":
            lifted_witness = qcert.noncommuting_witness(lifted)
            result["lifted_noncommuting_witness"] = lifted_witness is not None

    if args.out is not None:
        _write(args.out, _dump(cert.to_json_dict()))
    if args.report is not None:
        _write(args.report, _dump(result))
    print("; ".join(lines))
    return EXIT_OK if passed else EXIT_NEGATIVE


def cmd_iso(args: argparse.Namespace, path1: str, path2: str) -> int:
    G1 = graphs.parse_graph_json(_read(path1))
    G2 = graphs.parse_graph_json(_read(path2))
    mapping = graphiso.find_isomorphism(G1, G2)
    result = {"config": _echo(args), "isomorphic": mapping is not None,
              "mapping": mapping}
    if args.json_out is not None:
        _write(args.json_out, _dump(result))
    if mapping is None:
        print("non-isomorphic")
        return EXIT_NEGATIVE
    if args.map_out is not None:
        _write(args.map_out, _dump(mapping))
    print("isomorphic")
    return EXIT_OK


def cmd_aut(args: argparse.Namespace, path: str) -> int:
    G = graphs.parse_graph_json(_read(path))
    aut = graphiso.automorphism_group(G)
    result = {"config": _echo(args), "order": aut.order,
              "generators": aut.generators}
    if args.json_out is not None:
        _write(args.json_out, _dump(result))
    print(f"automorphism group order: {aut.order}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: parsing reads it
    and never changes it.  It declares every flag and its default once.  The
    commands read its namespace, and reports echo every dest (cert's kind is
    its `subcommand`) but `run`, the command's function, and `paths`, the
    graph files that `iso` and `aut` take as arguments: `main` pops both."""
    top = argparse.ArgumentParser(prog="lcsq", description=__doc__)
    # reports echo "decolor": "none" unless `build --decolor` says otherwise:
    # a subparser sets only the dests it declares, and build's --decolor only
    # when given (SUPPRESS), so this one default serves every command
    top.set_defaults(decolor="none")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add_inputs(p, need_construction=False):
        p.add_argument("--system", dest="system_path", metavar="SYSTEM",
                       help="system file (rows;rows|b)")
        p.add_argument("--graph", dest="graph_path", metavar="GRAPH",
                       help="graph file (vertex count, then edges)")
        p.add_argument("--b", help="right-hand side bits in constraint order")
        if need_construction:
            p.add_argument("--construction", choices=["G", "Gstar"])

    p = sub.add_parser("solve", help="classical solvability of Mx = b")
    p.set_defaults(run=cmd_solve)
    add_inputs(p)
    p.add_argument("--json", dest="json_out")

    p = sub.add_parser("build", help="build (and optionally decolor) the graph")
    p.set_defaults(run=cmd_build)
    add_inputs(p, need_construction=True)
    p.add_argument("--decolor", choices=["none", "vertices", "full"],
                   default=argparse.SUPPRESS)
    p.add_argument("--c0", help="edge color kept during decoloring (default shared:-1)")
    p.add_argument("--out", help="write graph JSON here")
    p.add_argument("--dot", help="write DOT here")

    p = sub.add_parser("group", help="solution group order / abelianness / words")
    p.set_defaults(run=cmd_group)
    add_inputs(p)
    p.add_argument("--homogeneous", action="store_true")
    p.add_argument("--cap", type=int)
    p.add_argument("--word", help="word in generator names, e.g. 'gamma' or 'x1 x2'")
    p.add_argument("--json", dest="json_out")

    p = sub.add_parser("cert", help="build + verify a magic-unitary certificate")
    p.set_defaults(run=cmd_cert)
    p.add_argument("subcommand", choices=["qut", "qiso"])
    add_inputs(p, need_construction=True)
    p.add_argument("--b1")
    p.add_argument("--b2")
    p.add_argument("--rep", choices=["pauli", "regular"], required=True)
    p.add_argument("--lift", action="store_true")
    p.add_argument("--cap", type=int)
    p.add_argument("--out", help="write certificate JSON here")
    p.add_argument("--report", help="write verification report JSON here")

    # each graph file appends to `paths`, in order
    p = sub.add_parser("iso", help="classical isomorphism of two graph JSONs")
    p.set_defaults(run=cmd_iso)
    p.add_argument("paths", metavar="graph1", action="append")
    p.add_argument("paths", metavar="graph2", action="append")
    p.add_argument("--map-out", dest="map_out")
    p.add_argument("--json", dest="json_out")

    p = sub.add_parser("aut", help="automorphism group of a graph JSON")
    p.set_defaults(run=cmd_aut)
    p.add_argument("paths", metavar="graph", action="append")
    p.add_argument("--json", dest="json_out")
    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return EXIT_USAGE if exc.code else EXIT_OK
    fields = vars(args)  # args' own dict: `run` and `paths` leave the echo here
    run, paths = fields.pop("run"), fields.pop("paths", ())

    try:
        if "system_path" in fields:  # the commands that read a system
            given = [fields[k] is not None for k in ("system_path", "graph_path")]
            if not any(given):
                raise UsageError("one of --system/--graph is required")
            if all(given):
                raise UsageError("--system and --graph are mutually exclusive")
        return run(args, *paths)
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
