"""Reading and writing system description files.

The format is plain text, editable by hand.  A document is a sequence of
header lines and matrix blocks; '#' starts a comment anywhere on a line and
blank lines separate nothing in particular.

Header lines look like ``key: value``.  Recognized keys are ``type`` (one of
state_space, right_mfd, block_diagonal), the dimensions ``n``, ``m``, ``p``,
``r`` as applicable, and the free-text ``name`` and ``description``.

A matrix block starts with ``matrix NAME ROWS COLS`` followed by ROWS lines
of COLS decimal numbers each, or by no lines when COLS is 0.  Which names
are expected depends on the type:

* state_space: A (n x n), B (n x m), C (p x n) and optionally D (p x m)
* right_mfd: denominator coefficients D0 ... Dr by descending power
  (m x m each), numerator coefficients N0 ... Nq by descending power
  (p x m each, q < r), optionally a feedthrough E (p x m)
* block_diagonal: A1, B1, C1 ... Ar, Br, Cr where Ai is square of any size
  ki, Bi is ki x m, Ci is p x ki, optionally E (p x m)

Grammar problems raise ParseError with a line (and usually column) position;
a well-formed document whose numbers or shapes do not fit together raises an
InvariantViolation subclass instead.
"""

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ._util import realify
from .errors import DimensionMismatch, InvariantViolation, ParseError
from .matpoly import MatrixPolynomial
from .sysrep import (
    BlockDiagonalRealization,
    DiagonalBlock,
    RightMFD,
    StateSpace,
    make_right_mfd,
)

DOCUMENT_TYPES = ("state_space", "right_mfd", "block_diagonal")
_DIM_KEYS = ("n", "m", "p", "r")
_TEXT_KEYS = ("name", "description")


@dataclass
class SystemDocument:
    """Parsed form of a system description file."""

    kind: str
    dims: Dict[str, int] = field(default_factory=dict)
    matrices: Dict[str, np.ndarray] = field(default_factory=dict)
    name: str = ""
    description: str = ""


def _strip(line):
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.rstrip("\n").rstrip()


def parse_document(text):
    """Parse document text into a SystemDocument (grammar stage only)."""
    lines = text.splitlines()
    doc = SystemDocument(kind="")
    seen_keys = set()
    i = 0
    while i < len(lines):
        lineno = i + 1
        line = _strip(lines[i])
        i += 1
        if not line.strip():
            continue
        tokens = line.split()
        if tokens[0] == "matrix":
            if len(tokens) != 4:
                raise ParseError(
                    "matrix header needs: matrix NAME ROWS COLS", lineno, 1
                )
            name = tokens[1]
            try:
                rows, cols = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError(
                    f"matrix {name}: ROWS and COLS must be integers", lineno, 1
                ) from None
            if rows < 0 or cols < 0:
                raise ParseError(
                    f"matrix {name}: negative dimensions", lineno, 1
                )
            if name in doc.matrices:
                raise ParseError(f"matrix {name} appears twice", lineno, 1)
            data = np.zeros((rows, cols))
            filled = 0
            while cols and filled < rows:  # a row of no values takes no line
                if i >= len(lines):
                    raise ParseError(
                        f"file ends inside matrix {name} "
                        f"(row {filled + 1} of {rows} missing)",
                        len(lines),
                    )
                rowno = i + 1
                row_line = _strip(lines[i])
                i += 1
                if not row_line.strip():
                    continue
                values, pos = [], 0
                for tok in row_line.split():
                    col = row_line.index(tok, pos) + 1
                    pos = col - 1 + len(tok)
                    try:
                        values.append(float(tok))
                    except ValueError:
                        raise ParseError(
                            f"matrix {name}: '{tok}' is not a number",
                            rowno, col,
                        ) from None
                if len(values) != cols:
                    raise ParseError(
                        f"matrix {name}: row {filled + 1} has {len(values)} "
                        f"values, expected {cols}",
                        rowno, 1,
                    )
                data[filled] = values
                filled += 1
            doc.matrices[name] = data
            continue
        if ":" not in line:
            raise ParseError(
                "expected 'key: value' or 'matrix NAME ROWS COLS'", lineno, 1
            )
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key in seen_keys:
            raise ParseError(f"duplicate header key '{key}'", lineno, 1)
        seen_keys.add(key)
        if key == "type":
            if value not in DOCUMENT_TYPES:
                raise ParseError(
                    f"unknown type '{value}' "
                    f"(expected one of {', '.join(DOCUMENT_TYPES)})",
                    lineno, 1,
                )
            doc.kind = value
        elif key in _DIM_KEYS:
            try:
                doc.dims[key] = int(value)
            except ValueError:
                raise ParseError(
                    f"dimension '{key}' must be an integer", lineno, 1
                ) from None
            if doc.dims[key] < 0:
                raise ParseError(f"dimension '{key}' must not be negative", lineno, 1)
        elif key == "name":
            doc.name = value
        elif key == "description":
            doc.description = value
        else:
            raise ParseError(f"unknown header key '{key}'", lineno, 1)
    if not doc.kind:
        raise ParseError("document declares no type", max(1, len(lines)))
    return doc


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    return parse_document(text)


def _need_dims(doc, keys):
    for k in keys:
        if k not in doc.dims:
            raise DimensionMismatch(f"{doc.kind} document needs '{k}' in the header")
    return tuple(doc.dims[k] for k in keys)


def _need_matrix(doc, name, shape):
    if name not in doc.matrices:
        raise DimensionMismatch(f"{doc.kind} document needs matrix {name}")
    got = doc.matrices[name]
    if got.shape != shape:
        raise DimensionMismatch(
            f"matrix {name} is {got.shape[0]}x{got.shape[1]}, "
            f"header implies {shape[0]}x{shape[1]}"
        )
    return got


def build_system(doc):
    """Turn a parsed document into a system object, checking every invariant."""
    known = set()
    if doc.kind == "state_space":
        n, m, p = _need_dims(doc, ("n", "m", "p"))
        A = _need_matrix(doc, "A", (n, n))
        B = _need_matrix(doc, "B", (n, m))
        C = _need_matrix(doc, "C", (p, n))
        D = doc.matrices.get("D")
        if D is not None and D.shape != (p, m):
            raise DimensionMismatch(
                f"matrix D is {D.shape[0]}x{D.shape[1]}, header implies {p}x{m}"
            )
        known = {"A", "B", "C", "D"}
        sys = StateSpace(A, B, C, D)
    elif doc.kind == "right_mfd":
        m, p, r = _need_dims(doc, ("m", "p", "r"))
        dcoeffs = [_need_matrix(doc, f"D{i}", (m, m)) for i in range(r + 1)]
        known = {f"D{i}" for i in range(r + 1)}
        ncoeffs = []
        q = 0
        while f"N{q}" in doc.matrices:
            ncoeffs.append(_need_matrix(doc, f"N{q}", (p, m)))
            q += 1
        if not ncoeffs:
            raise DimensionMismatch("right_mfd document needs matrix N0")
        known |= {f"N{i}" for i in range(q)}
        E = doc.matrices.get("E")
        if E is not None and E.shape != (p, m):
            raise DimensionMismatch(
                f"matrix E is {E.shape[0]}x{E.shape[1]}, header implies {p}x{m}"
            )
        known.add("E")
        sys = make_right_mfd(
            MatrixPolynomial(ncoeffs), MatrixPolynomial(dcoeffs), E
        )
    elif doc.kind == "block_diagonal":
        m, p, r = _need_dims(doc, ("m", "p", "r"))
        blocks = []
        for i in range(1, r + 1):
            if f"A{i}" not in doc.matrices:
                raise DimensionMismatch(f"block_diagonal document needs matrix A{i}")
            a = doc.matrices[f"A{i}"]
            if a.shape[0] != a.shape[1]:
                raise DimensionMismatch(f"matrix A{i} must be square")
            k = a.shape[0]
            b = _need_matrix(doc, f"B{i}", (k, m))
            c = _need_matrix(doc, f"C{i}", (p, k))
            blocks.append(DiagonalBlock(a, b, c))
            known |= {f"A{i}", f"B{i}", f"C{i}"}
        E = doc.matrices.get("E")
        if E is not None and E.shape != (p, m):
            raise DimensionMismatch(
                f"matrix E is {E.shape[0]}x{E.shape[1]}, header implies {p}x{m}"
            )
        known.add("E")
        sys = BlockDiagonalRealization(tuple(blocks), E, io_shape=(p, m))
    else:
        raise InvariantViolation(f"unsupported document type '{doc.kind}'")
    extra = sorted(set(doc.matrices) - known)
    if extra:
        raise DimensionMismatch(
            f"document carries unexpected matrices: {', '.join(extra)}"
        )
    if "n" in doc.dims and doc.kind != "state_space":
        order = sys.order if isinstance(sys, RightMFD) else sum(
            b.size for b in sys.blocks
        )
        if doc.dims["n"] != order:
            raise DimensionMismatch(
                f"header n={doc.dims['n']} but the system has order {order}"
            )
    return sys


def load_system(path):
    """Read a file and return the system object it describes."""
    return build_system(load_document(path))


def _real(a, what):
    a = realify(np.asarray(a), 1e-12)
    if np.iscomplexobj(a):
        raise InvariantViolation(
            f"{what} has complex entries; documents store real matrices"
        )
    return a


def document_from_system(sys, name="", description=""):
    """Build a SystemDocument describing a system object."""
    doc = SystemDocument(kind="", name=name, description=description)
    if isinstance(sys, StateSpace):
        doc.kind = "state_space"
        doc.dims = {"n": sys.n, "m": sys.m, "p": sys.p}
        doc.matrices["A"] = _real(sys.A, "A")
        doc.matrices["B"] = _real(sys.B, "B")
        doc.matrices["C"] = _real(sys.C, "C")
        doc.matrices["D"] = _real(sys.D, "D")
    elif isinstance(sys, RightMFD):
        doc.kind = "right_mfd"
        r = sys.D.degree
        doc.dims = {"m": sys.m, "p": sys.p, "r": r}
        for i, c in enumerate(sys.D.coeffs):
            doc.matrices[f"D{i}"] = _real(c, f"D{i}")
        for i, c in enumerate(sys.N.coeffs):
            doc.matrices[f"N{i}"] = _real(c, f"N{i}")
        if np.any(sys.feedthrough != 0.0):
            doc.matrices["E"] = _real(sys.feedthrough, "E")
    elif isinstance(sys, BlockDiagonalRealization):
        doc.kind = "block_diagonal"
        p, m = sys.io_shape
        doc.dims = {"m": m, "p": p, "r": len(sys.blocks)}
        for i, blk in enumerate(sys.blocks, start=1):
            doc.matrices[f"A{i}"] = _real(blk.a, f"A{i}")
            doc.matrices[f"B{i}"] = _real(blk.b, f"B{i}")
            doc.matrices[f"C{i}"] = _real(blk.c, f"C{i}")
        if np.any(sys.feedthrough != 0.0):
            doc.matrices["E"] = _real(sys.feedthrough, "E")
    else:
        raise InvariantViolation(
            f"cannot serialize {type(sys).__name__} as a system document"
        )
    return doc


def format_document(doc):
    """Render a SystemDocument as file text (deterministic, no timestamps)."""
    out = [f"type: {doc.kind}"]
    if doc.name:
        out.append(f"name: {doc.name}")
    if doc.description:
        out.append(f"description: {doc.description}")
    for k in _DIM_KEYS:
        if k in doc.dims:
            out.append(f"{k}: {doc.dims[k]}")
    for name, mat in doc.matrices.items():
        out.append("")
        out.append(f"matrix {name} {mat.shape[0]} {mat.shape[1]}")
        for row in mat:
            out.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(out) + "\n"


def save_document(obj, path, name="", description=""):
    """Write a system object or SystemDocument to a file."""
    doc = obj if isinstance(obj, SystemDocument) else document_from_system(
        obj, name, description
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_document(doc))
    return doc
