"""Plain-text front matter: the algebra file format, module expressions,
and JSON emission for enumerations.

Algebra files look like

    # six-cycle with radical-fourth relations
    field p=32003
    vertices 6
    arrow a1 1 -> 2
    ...
    relations:
    radical^4

where the relations block holds either ``radical^N`` lines or linear
combinations of parallel paths such as ``a1*a2 - b1*b2 = 0``.

Module expressions name standard modules and quotients of projectives:
``P(3)``, ``S(1)``, ``I(2)``, ``P(3)/<a3*a4>`` (quotient by the submodule
generated by listed elements), sums with ``+``, or an explicit
``rep { dims = [...]; arrow a1 = [[...], ...]; }`` literal.
"""

from __future__ import annotations

import ast
import re

import numpy as np

from .algebra import (
    Arrow,
    BoundQuiverAlgebra,
    Quiver,
    RadicalPower,
    Relation,
    build_algebra,
)
from .errors import ParseError
from .field import DEFAULT_PRIME, PrimeField
from .modules import (
    Rep,
    _indec_iso,
    direct_sum,
    injective,
    minimal_presentation,
    presented_module,
    projective,
    simple,
    top_generators,
    zero_module,
)

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|\*|\+|-)\s*")
_TRIVIAL = re.compile(r"^e_?(\d+)$")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot tokenize element near {text[pos:pos+12]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _parse_terms(text: str) -> list[tuple[int, list[str]]]:
    """Signed terms of a linear combination: (coefficient, factor names)."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty element expression")
    terms = []
    sign = 1
    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        if tok == "+":
            sign, pos = 1, pos + 1
            continue
        if tok == "-":
            sign, pos = -1, pos + 1
            continue
        coeff = 1
        if tok.isdigit():
            coeff = int(tok)
            pos += 1
            if pos >= len(tokens) or tokens[pos] != "*":
                raise ParseError("a bare integer is not an element; "
                                 "write coefficient*path")
            pos += 1
        names = []
        while True:
            if pos >= len(tokens) or not re.match(r"^[A-Za-z_]", tokens[pos]):
                raise ParseError("expected a path factor")
            names.append(tokens[pos])
            pos += 1
            if pos < len(tokens) and tokens[pos] == "*":
                nxt = tokens[pos + 1] if pos + 1 < len(tokens) else ""
                if re.match(r"^[A-Za-z_]", nxt):
                    pos += 1
                    continue
                raise ParseError("dangling '*' in element expression")
            break
        terms.append((sign * coeff, names))
        sign = 1
        if pos < len(tokens) and tokens[pos] not in ("+", "-"):
            raise ParseError(f"unexpected token {tokens[pos]!r}")
    return terms


def parse_element(algebra: BoundQuiverAlgebra, text: str) -> np.ndarray:
    """An algebra element from a linear combination of paths."""
    total = algebra.zero()
    if text.strip() == "0":
        return total
    for coeff, names in _parse_terms(text):
        if len(names) == 1 and _TRIVIAL.match(names[0]):
            v = int(_TRIVIAL.match(names[0]).group(1))
            if not 1 <= v <= algebra.num_vertices:
                raise ParseError(f"trivial path at unknown vertex {v}")
            part = algebra.trivial_path(v)
        else:
            try:
                part = algebra.element_from_path(names)
            except (KeyError, ValueError) as exc:
                raise ParseError(str(exc)) from exc
        total = (total + coeff % algebra.field.p * part) % algebra.field.p
    return total


# -- algebra files --------------------------------------------------------------

_ARROW_LINE = re.compile(r"^arrow\s+([A-Za-z_][A-Za-z0-9_]*)\s+(\d+)\s*->\s*(\d+)$")
_FIELD_LINE = re.compile(r"^field\s+p\s*=\s*(\d+)$")
_VERTICES_LINE = re.compile(r"^vertices\s+(\d+)$")
_RADICAL_LINE = re.compile(r"^radical\s*\^\s*(\d+)$")


def parse_algebra_text(text: str, field_p: int | None = None) -> BoundQuiverAlgebra:
    """Build the algebra an algebra file describes.  A ``field p=`` line in
    the file sets the prime unless field_p overrides it."""
    p = None
    num_vertices = None
    arrows = []
    relations = []
    relation_sources = []
    in_relations = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_relations:
            m = _RADICAL_LINE.match(line)
            if m:
                relations.append(RadicalPower(int(m.group(1))))
                relation_sources.append(line)
                continue
            if "=" not in line:
                raise ParseError(f"line {lineno}: relation must end in '= 0'")
            lhs, rhs = line.rsplit("=", 1)
            if rhs.strip() != "0":
                raise ParseError(f"line {lineno}: relations equate to 0 only")
            try:
                terms = _parse_terms(lhs)
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            known = {a.name for a in arrows}
            for _, names in terms:
                if any(_TRIVIAL.match(nm) for nm in names):
                    raise ParseError(
                        f"line {lineno}: trivial paths cannot appear in relations")
                bad = [nm for nm in names if nm not in known]
                if bad:
                    raise ParseError(f"line {lineno}: unknown arrow {bad[0]!r}")
            relations.append(Relation(tuple((c, tuple(ns)) for c, ns in terms)))
            relation_sources.append(line)
            continue
        m = _FIELD_LINE.match(line)
        if m:
            if p is not None:
                raise ParseError(f"line {lineno}: duplicate field line")
            p = int(m.group(1))
            continue
        m = _VERTICES_LINE.match(line)
        if m:
            if num_vertices is not None:
                raise ParseError(f"line {lineno}: duplicate vertices line")
            num_vertices = int(m.group(1))
            continue
        m = _ARROW_LINE.match(line)
        if m:
            if num_vertices is None:
                raise ParseError(f"line {lineno}: arrows before vertices line")
            arrows.append(Arrow(m.group(1), int(m.group(2)), int(m.group(3))))
            continue
        if line == "relations:":
            in_relations = True
            continue
        raise ParseError(f"line {lineno}: unrecognized line {line!r}")
    if num_vertices is None:
        raise ParseError("missing vertices line")
    if field_p is not None:
        p = field_p
    elif p is None:
        p = DEFAULT_PRIME
    try:
        quiver = Quiver(num_vertices, arrows)
        algebra = build_algebra(quiver, relations, PrimeField(p))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    algebra.file_meta = {
        "p": p,
        "vertices": num_vertices,
        "arrows": [[a.name, a.source, a.target] for a in arrows],
        "relations": relation_sources,
    }
    return algebra


def parse_algebra_file(path: str, field_p: int | None = None) -> BoundQuiverAlgebra:
    with open(path, encoding="utf-8") as fh:
        return parse_algebra_text(fh.read(), field_p)


# -- module expressions ----------------------------------------------------------

_STANDARD = re.compile(r"^([PSI])\((\d+)\)$")
_QUOTIENT = re.compile(r"^P\((\d+)\)\s*/\s*<(.*)>$", re.S)
_REP_LITERAL = re.compile(r"^rep\s*\{(.*)\}$", re.S)


def _split_top_level(text: str, sep: str) -> list[str]:
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "<{(":
            depth += 1
        elif ch in ">})":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _vertex_in_range(algebra, v: int):
    if not 1 <= v <= algebra.num_vertices:
        raise ParseError(f"vertex {v} outside 1..{algebra.num_vertices}")


def _quotient_of_projective(algebra, v: int, inner: str) -> Rep:
    """P(v)/<x, ...>, presented as module_expr_string prints it: each
    generator x in e_v A splits into its parts in e_v A e_w, and the
    quotient is the cokernel of the map to P(v) from one P(w) per nonzero
    part, by left multiplication by that part."""
    _vertex_in_range(algebra, v)
    verts = range(1, algebra.num_vertices + 1)
    mask = algebra.slice_mask([v], verts)[0]
    ws, parts = [], []
    for chunk in _split_top_level(inner, ","):
        chunk = chunk.strip()
        if not chunk:
            continue
        x = parse_element(algebra, chunk)
        if x[~mask.any(axis=0)].any():
            raise ParseError(
                f"generator {chunk!r} does not lie in the projective at "
                f"vertex {v}")
        for w, part in zip(verts, x * mask):
            if part.any():
                ws.append(w)
                parts.append(part)
    e = np.array(parts, dtype=np.int64).reshape(1, len(parts), algebra.dim)
    return presented_module(algebra, ws, [v], e)


def _residues(literal, p: int):
    """A nested list literal of integers with every entry reduced mod p as
    a Python int, so entries of any size keep their exact residue."""
    if isinstance(literal, (list, tuple)):
        return [_residues(x, p) for x in literal]
    if type(literal) is not int:
        raise ParseError(f"rep literal entry {literal!r} is not an integer")
    return literal % p


def _rep_literal(algebra, body: str) -> Rep:
    dims = None
    maps = {}
    for stmt in _split_top_level(body, ";"):
        stmt = stmt.strip()
        if not stmt:
            continue
        if "=" not in stmt:
            raise ParseError(f"bad rep statement {stmt!r}")
        head, value = stmt.split("=", 1)
        head = head.strip()
        try:
            literal = ast.literal_eval(value.strip())
        except (SyntaxError, ValueError) as exc:
            raise ParseError(f"bad literal in {stmt!r}") from exc
        if head == "dims":
            if dims is not None:
                raise ParseError("rep literal repeats key 'dims'")
            dims = literal
        elif head.startswith("arrow "):
            name = head[len("arrow "):].strip()
            if name in maps:
                raise ParseError(f"rep literal repeats key 'arrow {name}'")
            maps[name] = literal
        else:
            raise ParseError(f"unknown rep key {head!r}")
    n = algebra.num_vertices
    if not isinstance(dims, (list, tuple)) or len(dims) != n or any(
            type(d) is not int for d in dims):
        raise ParseError("rep literal needs dims with one integer per vertex")
    if any(d < 0 for d in dims):
        raise ParseError(f"rep literal key 'dims' has a negative entry: {dims}")
    p = algebra.field.p
    dim_map = dict(enumerate(dims, start=1))
    rep_maps = {}
    for a in algebra.quiver.arrows:
        rows, cols = dim_map[a.source], dim_map[a.target]
        literal = maps.get(a.name, [[0] * cols] * rows)
        shaped = isinstance(literal, (list, tuple)) and len(literal) == rows \
            and all(isinstance(r, (list, tuple)) and len(r) == cols
                    for r in literal)
        if not (shaped or literal == [] and rows * cols == 0):
            raise ParseError(f"rep literal key 'arrow {a.name}' needs "
                             f"{rows} rows of {cols} integers")
        rep_maps[a.name] = np.array(_residues(literal, p),
                                    dtype=np.int64).reshape(rows, cols)
    unknown = set(maps) - {a.name for a in algebra.quiver.arrows}
    if unknown:
        raise ParseError(f"rep literal names unknown arrows {sorted(unknown)}")
    try:
        return Rep(algebra, dim_map, rep_maps)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_module_terms(algebra: BoundQuiverAlgebra, text: str) -> list:
    """The terms of a module expression, one module each, in the order
    written; ``0`` terms contribute nothing."""
    parts = [s.strip() for s in _split_top_level(text.strip(), "+")]
    summands = []
    for part in parts:
        if not part:
            raise ParseError("empty summand in module expression")
        if part == "0":
            continue
        m = _STANDARD.match(part)
        if m:
            kind, v = m.group(1), int(m.group(2))
            _vertex_in_range(algebra, v)
            maker = {"P": projective, "S": simple, "I": injective}[kind]
            summands.append(maker(algebra, v))
            continue
        m = _QUOTIENT.match(part)
        if m:
            summands.append(
                _quotient_of_projective(algebra, int(m.group(1)), m.group(2)))
            continue
        m = _REP_LITERAL.match(part)
        if m:
            summands.append(_rep_literal(algebra, m.group(1)))
            continue
        raise ParseError(f"cannot parse module expression {part!r}")
    return summands


def parse_module_expr(algebra: BoundQuiverAlgebra, text: str) -> Rep:
    summands = parse_module_terms(algebra, text)
    if not summands:
        return zero_module(algebra)
    return direct_sum(algebra, summands)[0]


def module_expr_string(m: Rep) -> str:
    """A module expression that parses back to a module isomorphic to m.
    Uses standard names when they match, a quotient of a projective when
    the top is simple, and a rep literal otherwise.  Every standard
    candidate is indecomposable, so a nonzero trace pairing with it
    (_indec_iso) means m is isomorphic to it."""
    algebra = m.algebra
    if m.is_zero():
        return "0"
    verts = range(1, algebra.num_vertices + 1)
    # dimension vectors of the candidates, read off the path basis: a
    # candidate is built only when its vector matches m's
    candidates = (
        ("S", simple, lambda v: tuple(int(u == v) for u in verts)),
        ("P", projective,
         lambda v: tuple(len(algebra.slice_indices(v, u)) for u in verts)),
        ("I", injective,
         lambda v: tuple(len(algebra.slice_indices(u, v)) for u in verts)),
    )
    dv = m.dim_vector()
    for name, maker, dim_vector in candidates:
        for v in verts:
            if dim_vector(v) == dv and _indec_iso(m, maker(algebra, v)):
                return f"{name}({v})"
    if len(top_generators(m)) == 1:
        # the relations of P(v) are the columns of the presentation
        _, (v,), e = minimal_presentation(m)
        exprs = [algebra.format_element(x) for x in e[0]]
        return f"P({v})/<{', '.join(exprs)}>"
    dims = [m.dims[v] for v in range(1, algebra.num_vertices + 1)]
    stmts = [f"dims = {dims}"]
    for a in algebra.quiver.arrows:
        block = m.maps[a.name]
        if block.size and block.any():
            stmts.append(f"arrow {a.name} = {block.tolist()}")
    return "rep { " + "; ".join(stmts) + "; }"


# -- JSON emission ---------------------------------------------------------------


def multiplicity_vector(verts: list, n: int) -> list:
    counts = [0] * n
    for v in verts:
        counts[v - 1] += 1
    return counts


def differential_rows(c) -> list:
    """The differential of c as formatted entries, one row per degree 0
    summand and one column per degree -1 summand, in c's own order."""
    alg = c.algebra
    return [[alg.format_element(entry) for entry in row] for row in c.d]


def complex_json(blocks) -> dict:
    """JSON body of the direct sum of the complexes in blocks, given in
    the order of the sum as (summand, differential_rows of it); the
    entries off the blocks are "0".  Summands are listed per vertex, so
    the differential is permuted into vertex order to keep its indexing
    consistent with the multiplicity vectors."""
    n = blocks[0][0].algebra.num_vertices
    deg1 = [v for part, _ in blocks for v in part.deg1]
    deg0 = [v for part, _ in blocks for v in part.deg0]
    full = [["0"] * len(deg1) for _ in deg0]
    r0 = c0 = 0
    for part, rows in blocks:
        for r, row in enumerate(rows):
            full[r0 + r][c0:c0 + len(part.deg1)] = row
        r0 += len(part.deg0)
        c0 += len(part.deg1)
    cols = sorted(range(len(deg1)), key=lambda k: deg1[k])
    rows = sorted(range(len(deg0)), key=lambda k: deg0[k])
    return {
        "m1": multiplicity_vector(deg1, n),
        "m0": multiplicity_vector(deg0, n),
        "differential": [[full[r][col] for col in cols] for r in rows],
    }


def algebra_json(algebra) -> dict:
    meta = algebra.file_meta
    if meta is not None:
        return dict(meta)
    return {
        "p": algebra.field.p,
        "vertices": algebra.num_vertices,
        "arrows": [[a.name, a.source, a.target]
                   for a in algebra.quiver.arrows],
        "relations": [],
    }
