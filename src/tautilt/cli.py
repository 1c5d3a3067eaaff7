"""Command-line front end.

Subcommands: info, check, phi, enumerate, report-2cy.  Exit codes follow
one convention everywhere: 0 for success or a consistent report, 1 when a
requested predicate fails or the report finds an obstruction, 2 for input
errors and input outside what the package handles, 3 for truncated
enumerations and internal assertion failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    FieldTooSmallError,
    MutationAmbiguousError,
    NotSelfinjectiveError,
    NotSiltingError,
    NotSupportTauTiltingError,
    ParseError,
    PrimeTooLargeError,
    RandomnessExhaustedError,
    TautiltError,
    TheoremViolationError,
)
from .modules import decompose, iso_classes, projective
from .pairs import (
    enumerate_nu_stable,
    enumerate_support_tau_tilting,
    make_pair,
    pair_to_complex,
    summand_flags,
    two_cy_obstruction_report,
)
from .textio import (
    algebra_json,
    complex_json,
    differential_rows,
    module_expr_string,
    parse_algebra_file,
    parse_module_terms,
)
from .translate import is_selfinjective, nakayama_permutation

CHECK_FLAGS = ("tau-rigid", "support-tau-tilting", "tau-minus-tilting",
               "nu-stable", "tau-symmetric")


def _parse_pverts(text: str) -> tuple:
    if not text.strip():
        return ()
    try:
        verts = tuple(int(s) for s in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad vertex list {text!r}") from exc
    return verts


def _permutation_cycles(perm: dict) -> str:
    seen = set()
    out = []
    for v in sorted(perm):
        if v in seen:
            continue
        cyc = [v]
        seen.add(v)
        w = perm[v]
        while w != v:
            cyc.append(w)
            seen.add(w)
            w = perm[w]
        if len(cyc) > 1:
            out.append("(" + " ".join(str(u) for u in cyc) + ")")
    return "".join(out) if out else "id"


def _summand_classes(algebra, expr: str) -> tuple:
    """(classes, multiplicities) of a module expression.  Each term is
    decomposed on its own, so only a term that splits pays for a
    splitting search; classes follow their first appearance."""
    parts = []
    for term in parse_module_terms(algebra, expr):
        try:
            parts.extend(decompose(term))
        except RandomnessExhaustedError as exc:
            raise RandomnessExhaustedError(
                f"the term with dimension vector {list(term.dim_vector())} "
                "has a summand whose endomorphism ring looks local with a "
                f"residue field larger than F_{algebra.field.p}, which "
                "tautilt does not handle") from exc
    return iso_classes(parts)


def cmd_info(algebra, args) -> int:
    pdims = [projective(algebra, v).total_dim
             for v in range(1, algebra.num_vertices + 1)]
    selfinj = is_selfinjective(algebra)
    perm = nakayama_permutation(algebra) if selfinj else None
    if args.json:
        doc = {
            "algebra": algebra_json(algebra),
            "dimension": algebra.dim,
            "projective_dims": pdims,
            "selfinjective": selfinj,
            "nakayama_permutation":
                {str(v): perm[v] for v in sorted(perm)} if perm else None,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"vertices: {algebra.num_vertices}")
        print("arrows: " + ", ".join(
            f"{a.name}:{a.source}->{a.target}" for a in algebra.quiver.arrows))
        print(f"field: p={algebra.field.p}")
        print(f"dimension: {algebra.dim}")
        print(f"projective dims: {pdims}")
        print(f"selfinjective: {'yes' if selfinj else 'no'}")
        if selfinj:
            print(f"nakayama permutation: {_permutation_cycles(perm)}")
    return 0


def cmd_check(algebra, args) -> int:
    required = tuple(s.strip() for s in args.require.split(",") if s.strip())
    for name in required:
        if name not in CHECK_FLAGS:
            raise ParseError(f"unknown flag {name!r}; choose from "
                             + ", ".join(CHECK_FLAGS))
    selfinj = is_selfinjective(algebra)
    if "nu-stable" in required and not selfinj:
        raise NotSelfinjectiveError(
            "stability under the Nakayama functor needs a selfinjective "
            "algebra")
    pverts = _parse_pverts(args.pverts)
    classes, mults = _summand_classes(algebra, args.modules)
    basic = all(k == 1 for k in mults)
    flags = summand_flags(algebra, classes, mults, pverts)

    ok = all(flags[name] for name in required)
    if args.json:
        doc = {
            "algebra": algebra_json(algebra),
            "modules": [module_expr_string(c) for c in classes],
            "projective_vertices": sorted(pverts),
            "basic": basic,
            "flags": flags,
            "required": list(required),
            "ok": ok,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"basic: {'yes' if basic else 'no'}")
        for name in CHECK_FLAGS:
            value = flags[name]
            shown = "n/a" if value is None else ("yes" if value else "no")
            mark = " (required)" if name in required else ""
            print(f"{name}: {shown}{mark}")
        print(f"result: {'ok' if ok else 'failed'}")
    return 0 if ok else 1


def cmd_phi(algebra, args) -> int:
    pverts = _parse_pverts(args.pverts)
    classes, mults = _summand_classes(algebra, args.modules)
    if any(k > 1 for k in mults):
        raise NotSupportTauTiltingError("the module part is not basic")
    pair = make_pair(algebra, classes, pverts)
    c = pair_to_complex(pair)
    body = complex_json([(c, differential_rows(c))])
    if args.json:
        print(json.dumps({"algebra": algebra_json(algebra),
                          "complex": body}, indent=2))
    else:
        print("deg -1: " + (" + ".join(f"P({v})" for v in sorted(c.deg1)) or "0"))
        print("deg  0: " + (" + ".join(f"P({v})" for v in sorted(c.deg0)) or "0"))
        print("differential (rows act on deg -1 summands):")
        for row in body["differential"]:
            print("  [" + ", ".join(row) + "]")
    return 0


def _enumeration_entries(algebra, args):
    """(status, silting walk, list of (pair, tilting, node), selfinjective)
    for the requested filter."""
    selfinj = is_selfinjective(algebra)
    if args.filter == "nu-stable":
        pe = enumerate_nu_stable(algebra, args.cap)
        withnodes = sorted(pe.node_index.items(), key=lambda kv: kv[1])
        rows = [(pe.pairs[idx], True, node) for node, idx in withnodes]
        return pe.status, pe.silting, rows, selfinj
    pe = enumerate_support_tau_tilting(algebra, args.cap)
    rows = []
    for node, idx in sorted(pe.node_index.items(), key=lambda kv: kv[1]):
        tilting = pe.silting.is_node_tilting(node)
        if args.filter == "tilting" and not tilting:
            continue
        rows.append((pe.pairs[idx], tilting, node))
    return pe.status, pe.silting, rows, selfinj


def cmd_enumerate(algebra, args) -> int:
    if args.filter == "nu-stable" and not is_selfinjective(algebra):
        raise NotSelfinjectiveError(
            "the nu-stable filter needs a selfinjective algebra")
    status, silting, rows, selfinj = _enumeration_entries(algebra, args)
    # the pairs share one module object per registry item, and each node's
    # complex is the sum of its items in id order, printed from the items'
    # differentials formatted once each
    expr = functools.cache(module_expr_string)
    items = silting.registry.items
    block = functools.cache(lambda i: (items[i], differential_rows(items[i])))
    entries = []
    for pair, tilting, node in rows:
        dims = tuple(sum(m.dims[v] for m in pair.modules)
                     for v in range(1, algebra.num_vertices + 1))
        if selfinj:
            stable = silting.is_node_nu_stable(node)
        else:
            stable = None
        entry = {
            "modules": [expr(m) for m in pair.modules],
            "projective_vertices": sorted(pair.pverts),
            "complex": complex_json([block(i) for i in sorted(node)]),
            "nu_stable": stable,
            "tilting": tilting,
        }
        entries.append(((sum(dims), dims,
                         json.dumps(entry["complex"], separators=(",", ":"),
                                    sort_keys=True)), entry))
    entries.sort(key=lambda pe: pe[0])
    doc = {
        "algebra": algebra_json(algebra),
        "flag": status,
        "entries": [e for _, e in entries],
    }
    print(json.dumps(doc, indent=2))
    return 0 if status == "COMPLETE" else 3


def cmd_report_2cy(algebra, args) -> int:
    report = two_cy_obstruction_report(algebra, args.cap)
    doc = {
        "algebra": algebra_json(algebra),
        "checks": report.checks,
        "verdict": report.verdict,
        "details": report.details,
        "truncated": report.truncated,
    }
    print(json.dumps(doc, indent=2))
    if report.verdict == "CONSISTENT":
        return 0
    if report.verdict == "OBSTRUCTED":
        return 1
    return 3


def _add_common(sub, enumerating: bool):
    sub.add_argument("algebra", help="algebra file")
    sub.add_argument("--field-p", type=int, default=None,
                     help="override the coefficient prime")
    if enumerating:
        sub.add_argument("--cap", type=int, default=10000,
                         help="node bound, checked at the start of each "
                              "breadth-first level: the walk stops, "
                              "TRUNCATED, at the first level that starts "
                              "with more nodes than this, and prints all "
                              "nodes found so far that pass the filter; "
                              "for nu-stable it bounds the stable nodes "
                              "found, the only nodes that walk visits, "
                              "checked before each node is expanded")
        sub.add_argument("--seed", type=int, default=0,
                         help="accepted for compatibility; the walk draws no "
                              "random numbers, so it has no effect on the "
                              "output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tautilt",
        description="Exact checks and enumerations for support tau-tilting "
                    "pairs over bound quiver algebras.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("info", help="algebra summary")
    _add_common(p, enumerating=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_info)

    p = subs.add_parser("check", help="predicate flags for a pair")
    _add_common(p, enumerating=False)
    p.add_argument("modules", help="module expression, e.g. 'S(1)+P(3)/<a3*a4>'")
    p.add_argument("--pverts", default="", help="complement vertices, e.g. 2,5")
    p.add_argument("--require", default="support-tau-tilting",
                   help="comma list of flags that must hold for exit 0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("phi", help="two-term complex of a pair")
    _add_common(p, enumerating=False)
    p.add_argument("modules")
    p.add_argument("--pverts", default="")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_phi)

    p = subs.add_parser("enumerate", help="walk the mutation graph")
    _add_common(p, enumerating=True)
    p.add_argument("--filter", choices=("silting", "tilting", "nu-stable"),
                   default="silting")
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("report-2cy",
                        help="obstructions to being 2-Calabi-Yau tilted")
    _add_common(p, enumerating=True)
    p.set_defaults(func=cmd_report_2cy)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.  The algebra file is
    parsed once, before the subcommand runs, and released when it returns
    (BoundQuiverAlgebra.release), so a process that runs many commands
    frees each command's algebra, its opposite and their cached modules
    by reference counting."""
    args = build_parser().parse_args(argv)
    algebra = None
    try:
        algebra = parse_algebra_file(args.algebra, args.field_p)
        return args.func(algebra, args)
    except (NotSupportTauTiltingError, NotSiltingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TheoremViolationError, MutationAmbiguousError,
            AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (FieldTooSmallError, PrimeTooLargeError) as exc:
        print(f"error: {exc}; choose another prime with --field-p",
              file=sys.stderr)
        return 2
    except (ParseError, TautiltError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if algebra is not None:
            algebra.release()


if __name__ == "__main__":
    sys.exit(main())
