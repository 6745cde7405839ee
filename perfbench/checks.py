"""Correctness checks for benchmark ops, from identities the paper guarantees.

The checks parse the program's output with their own parser and compare it
with values computed here from the inputs alone, so they share no code with
the library:

- Adams values: dim psi^n(V_s) = s, and each basis value obeys the shape law
  (multiplicities in {-1, 0, 1}, signs alternating from +1 in descending index
  order, top index at most p^level(s), indices all odd for even n and of the
  parity of s for odd n).  For an element x, dim psi^n(x) = dim x.
- Products: dim(a*b) = dim a * dim b; a seeded share is also multiplied in the
  other order and must print the same bytes.
- Powers: dim Lambda^n(x) = C(dim x, n) and dim S^n(x) = C(dim x + n - 1, n),
  with generalized binomials for virtual x.
- Decompositions: the block sizes sum to the matrix dimension, and the
  multiplicities equal those of an independent route computed by the worker.

Every check returns a list of mismatch descriptions; an empty list means the
output is correct.
"""

from __future__ import annotations

import json
import math
import re

_FIRST = re.compile(r"(-?)(\d*)V(\d+)")
_NEXT = re.compile(r" ([+-]) (\d*)V(\d+)")


def parse_text(text: str) -> dict[int, int]:
    """Terms of an element printed as "V5 - V3 + 2V1" (or "0")."""
    if text == "0":
        return {}
    terms: dict[int, int] = {}
    pattern, pos = _FIRST, 0
    while pos < len(text):
        m = pattern.match(text, pos)
        if not m:
            raise ValueError(f"unparsable element {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        mag = int(m.group(2)) if m.group(2) else 1
        r = int(m.group(3))
        if r in terms or mag == 0:
            raise ValueError(f"non-canonical element {text!r}")
        terms[r] = sign * mag
        pattern, pos = _NEXT, m.end()
    if not terms:
        raise ValueError("empty element")
    return terms


def parse_json(obj, p: int, nu: int) -> dict[int, int]:
    if obj.get("p") != p or obj.get("nu") != nu:
        raise ValueError(f"element context {obj.get('p')},{obj.get('nu')} is not {p},{nu}")
    terms = {int(r): int(c) for r, c in obj["coeffs"].items()}
    if any(c == 0 for c in terms.values()):
        raise ValueError("zero coefficient in serialized element")
    return terms


def dimension(terms) -> int:
    items = terms.items() if isinstance(terms, dict) else terms
    return sum(r * c for r, c in items)


def gbinom(m: int, n: int) -> int:
    """Generalized binomial C(m, n) for any integer m and n >= 0."""
    num = 1
    for i in range(n):
        num *= m - i
    return num // math.factorial(n)


def _level(p: int, s: int) -> int:
    m, pm = 0, 1
    while s > pm:
        pm *= p
        m += 1
    return m


def shape_errors(p: int, n: int, s: int, terms: dict[int, int]) -> list[str]:
    items = sorted(terms.items(), reverse=True)
    out = []
    if any(abs(c) != 1 for _, c in items):
        out.append("multiplicity outside {-1, 0, 1}")
    signs = [c for _, c in items]
    if signs and (signs[0] != 1 or any(a == b for a, b in zip(signs, signs[1:]))):
        out.append("signs do not alternate from +1")
    if items and items[0][0] > p ** _level(p, s):
        out.append("index above p^level(s)")
    want = 1 if n % 2 == 0 else s % 2
    if any(r % 2 != want for r, _ in items):
        out.append("index parity")
    return [f"psi^{n}(V{s}): {e}" for e in out]


def _read_element(stdout: str, fmt: str, p: int, nu: int) -> dict[int, int]:
    line = stdout.rstrip("\n")
    if "\n" in line:
        raise ValueError("more than one output line")
    if fmt == "json":
        return parse_json(json.loads(line), p, nu)
    return parse_text(line)


def _table_rows(check: dict, stdout: str) -> list[tuple[int, int, dict[int, int]]]:
    p, nu = check["p"], check["nu"]
    if check["format"] == "csv":
        lines = stdout.split("\n")
        if lines[0] != "s,dim,expression" or lines[-1] != "":
            raise ValueError("bad csv framing")
        rows = []
        for line in lines[1:-1]:
            s, d, expr = line.split(",")
            rows.append((int(s), int(d), parse_text(expr)))
        return rows
    if not stdout.endswith("\n"):
        raise ValueError("json table without final newline")
    obj = json.loads(stdout)
    if (obj["p"], obj["nu"], obj["n"]) != (p, nu, check["n"]):
        raise ValueError("json table header does not match the op")
    return [(row["s"], row["dim"], parse_json(row["element"], p, nu)) for row in obj["rows"]]


def check_table(check: dict, stdout: str) -> list[str]:
    p, nu, n = check["p"], check["nu"], check["n"]
    rows = _table_rows(check, stdout)
    out = []
    if [r[0] for r in rows] != list(range(1, p**nu + 1)):
        out.append("table rows are not s = 1..q in order")
    for s, d, terms in rows:
        if d != s or dimension(terms) != s:
            out.append(f"dim psi^{n}(V{s}) is {dimension(terms)} (printed {d}), expected {s}")
        out.extend(shape_errors(p, n, s, terms))
    return out


def check_output(check: dict, stdout: str) -> list[str]:
    """Mismatches of one successful CLI op's stdout against its identities."""
    kind = check["type"]
    try:
        if kind == "table":
            return check_table(check, stdout)
        p, nu = check["p"], check["nu"]
        fmt = check.get("format", "text")
        got = dimension(_read_element(stdout, fmt, p, nu))
        if kind == "psi":
            want = dimension(check["x"])
        elif kind == "mul":
            want = dimension(check["a"]) * dimension(check["b"])
        elif kind == "lambda":
            want = gbinom(dimension(check["x"]), check["n"])
        elif kind == "sym":
            want = gbinom(dimension(check["x"]) + check["n"] - 1, check["n"])
        else:
            return [f"unknown check type {kind!r}"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{kind}: unreadable output: {exc}"]
    if got != want:
        return [f"{kind}: output dimension {got}, expected {want}"]
    return []


def check_decomposition(op: dict, mults, routes: dict[str, list]) -> list[str]:
    """Block multiplicities of a decompose op against the independent routes."""
    out = []
    total = sum(k * m for k, m in mults)
    if total != op["d"]:
        out.append(f"blocks sum to {total}, expected {op['d']}")
    got = {k: m for k, m in mults}
    for name, other in routes.items():
        if {k: m for k, m in other if m} != got:
            out.append(f"{op['build']} d={op['d']}: differs from route {name}")
    return out
