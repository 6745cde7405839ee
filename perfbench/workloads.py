"""Seeded op streams for the three benchmark workloads.

Every stream is a list of sessions.  A session is one process that keeps the
library's caches across its ops; its ops run one after another (a single
closed-loop client).  The stream depends only on (workload, seed); its size is
fixed, so a repetition of a stream always does the same work.

Op costs vary by orders of magnitude with the basis indices and matrix sizes,
so every stream follows a fixed template of op slots, and the seed draws each
slot's inputs where the cost is nearly flat: literal terms one per stratum of
the index range, matrix dimensions within narrow log-spaced strata of a fixed
construction kind, and the costliest inputs from small fixed grids that the
seed assigns, jitters or fills with its own coefficients.  The seed changes
the inputs, while the total work of a stream stays close to the same.

Only the standard library is used here: the program under test receives the
generated argv lists and library arguments, nothing else.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("adams-table", "ring-mul", "oracle-decompose")

# A run repeats its stream in fresh processes, three times in a run of 35 s,
# so each stream is sized to take about 10-12 s at the seed commit.

# adams-table: tables at the large-order contexts, each followed by eight psi
# ops (one cache hit and one miss for each term count).  A table at (31,2)
# takes 6-7 s at the seed commit, one at (2,10) about 1.6 s and one at (3,6)
# or (5,4) about 0.8 s.  With two of each of the last two, op_tail_ms (the op
# time with ten slower ones) falls inside their group of twelve samples in a
# run of three repetitions rather than at its edge.
TABLE_PLAN = ((31, 2), (3, 6), (3, 6), (5, 4), (5, 4), (2, 10))
TABLE_FORMATS = ("csv", "csv", "csv", "json", "json", "json")
PSI_TERM_COUNTS = (1, 2, 3, 4)

# ring-mul: computed products stay at q <= 49.  At the seed commit a uniform
# basis pair at (7,2) takes a median 0.2 s (max 1.3 s); at (11,2) the median is
# 4 s and the maximum 100 s.  Power degrees run to p-1, except 3 at (7,2).
MUL_SESSIONS = 2
# (context, kind, spec) per session: for "mul" the term counts of the two
# factors, for "power" the degree and the term count of a literal input (0 for
# a basis module).  Fixed term counts keep the number of basis pairs per op,
# and so its cost, in a narrow band.
MUL_SLOTS = (
    ((7, 2), "mul", (2, 2)), ((7, 2), "mul", (2, 2)),
    ((7, 2), "power", (2, 0)), ((7, 2), "power", (3, 0)),
    ((5, 2), "mul", (3, 3)), ((5, 2), "mul", (3, 3)),
    ((5, 2), "power", (2, 2)), ((5, 2), "power", (3, 1)), ((5, 2), "power", (4, 0)),
    ((3, 3), "mul", (3, 3)),
    ((3, 3), "power", (1, 3)), ((3, 3), "power", (2, 2)),
    ((2, 5), "mul", (3, 3)), ((2, 5), "mul", (3, 3)),
    ((2, 5), "power", (1, 3)),
)
# A cold pair at (7,2) costs from 3 ms (5x5) to 1.5 s (47x47), so the (7,2)
# products take their indices from a grid, ((a terms), (b terms)), one point
# per op, each index moved by the seed by up to MUL_JITTER.  Each point costs
# about 1 s cold, and the points share no index, so no op hits another's
# pairs.  With twelve of these op times in a run of three repetitions,
# op_tail_ms (the op time with ten slower ones) falls inside their group
# rather than at its edge.
MUL_GRID = {(7, 2): (((38, 11), (31, 17)), ((35, 14), (42, 8)),
                     ((40, 20), (28, 5)), ((33, 23), (44, 2)))}
MUL_JITTER = 1
# The cold cost of a power of a basis module jumps up to 4x between
# neighbouring indices (lambda^3 V_s at (7,2): 3.5 s at s=23, 4.5 s at 26,
# 2.2 s at 29), so these ops take their input from a fixed grid, one point per
# session; the seed assigns the points to sessions and picks lambda or sym.
POWER_GRID = {((7, 2), 2): (24, 36), ((7, 2), 3): (20, 29), ((5, 2), 4): (11, 19)}
MUL_CONTEXTS = ((7, 2), (5, 2), (3, 3), (2, 5))
COMMUTE_SHARE = 0.25
# Valid ops that the seed commit refuses with OracleCapacityError (exit 2):
# the induced dimension a*b exceeds the default oracle cap of 20000.
PROBE_CONTEXT = (31, 2)
ORACLE_CAP = 20000

# oracle-decompose: column_basis is O(d^3) in d Python steps (0.5 s at d=300,
# 10 s at d=690 at the seed commit).  The ladder's target dimensions are
# log-spaced, and each slot has a fixed kind and context, cycling through
# tensors and squares at both contexts (the kind moves the cost at a given d
# by up to 1.5x, and a 12x25 tensor costs 1.3x a 15x20 one).  Cubes are left
# out: their dimensions (165, 220, 286, 364) are so far apart that the median
# op time jumped between two clumps of them from seed to seed.  The one large op per stream is a near-square tensor, whose cost
# varies least; it stays near d=528 (about 3.5 s), because one at d=690 would
# take a whole repetition's budget.
DECOMPOSE_SESSIONS = 3
LADDER_PER_SESSION = 10
LADDER_RANGE = (100, 360)
LARGE_RANGE = (525, 530)
DECOMPOSE_CONTEXTS = ((7, 2), (5, 2))
LADDER_CYCLE = tuple((kind, ctx) for kind in ("tensor", "square") for ctx in DECOMPOSE_CONTEXTS)


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


def _stratified(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers, the i-th uniform in the i-th of k equal strata of lo..hi, shuffled."""
    width = (hi - lo + 1) / k
    out = []
    for i in range(k):
        a = lo + int(i * width)
        b = max(a, lo + int((i + 1) * width) - 1)
        out.append(rng.randint(a, b))
    rng.shuffle(out)
    return out


def fold(p: int, n: int) -> int:
    """Representative in 1..p-1 of n under n = +-fold (mod 2p)."""
    m = n % (2 * p)
    return m if m < p else 2 * p - m


def _spread_terms(rng: random.Random, q: int, count: int) -> list[list[int]]:
    """count terms, the i-th index uniform in the i-th of count equal strata of 1..q."""
    return [[r, rng.choice((1, 1, 2, -1))] for r in sorted(_stratified(rng, 1, q, count), reverse=True)]


def _grid_terms(rng: random.Random, points) -> list[list[int]]:
    """Terms at the grid points, each index moved by up to MUL_JITTER."""
    idx = [r + rng.randint(-MUL_JITTER, MUL_JITTER) for r in points]
    return [[r, rng.choice((1, 1, 2, -1))] for r in sorted(idx, reverse=True)]


def literal(terms) -> str:
    """Element literal in the CLI grammar, e.g. "2V5-V3+V1"."""
    out = []
    for i, (r, c) in enumerate(terms):
        sign = "-" if c < 0 else ("+" if i else "")
        mag = "" if abs(c) == 1 else str(abs(c))
        out.append(f"{sign}{mag}V{r}")
    return "".join(out) if out else "0"


def _ctx_args(p: int, nu: int) -> list[str]:
    return ["--p", str(p), "--nu", str(nu)]


# ---------------------------------------------------------------------------
# adams-table


def _adams_table(seed: int) -> list[dict]:
    rng = _rng("adams-table", seed, "ops")
    plan = list(TABLE_PLAN)
    rng.shuffle(plan)
    formats = list(TABLE_FORMATS)
    rng.shuffle(formats)
    ops = []
    for (p, nu), fmt in zip(plan, formats):
        q = p**nu
        # an exponent folding onto 1 gives the identity, whose table costs a
        # fraction of the others (only 1 exists at p = 2)
        rep = rng.choice(range(2, p) or [1])
        n = rng.choice([e for e in range(1, 4 * p + 1) if e % p and fold(p, e) == rep])
        ops.append({
            "kind": "cli",
            "clear_cache": True,
            "argv": ["table", *_ctx_args(p, nu), "--n", str(n), "--format", fmt],
            "check": {"type": "table", "p": p, "nu": nu, "n": n, "format": fmt},
        })
        # for each term count, one psi op folds onto the table's exponent (a
        # cache hit) and one onto another representative where p > 2 has one
        psi = [(count, same) for count in PSI_TERM_COUNTS for same in (True, False)]
        rng.shuffle(psi)
        for count, same in psi:
            same = same or p == 2
            m = rng.choice([e for e in range(1, 4 * p + 1)
                            if e % p and (fold(p, e) == fold(p, n)) == same])
            terms = _spread_terms(rng, q, count)
            fmt_psi = rng.choice(("text", "json"))
            ops.append({
                "kind": "cli",
                "argv": ["psi", *_ctx_args(p, nu), "--n", str(m),
                         f"--element={literal(terms)}", "--format", fmt_psi],
                "check": {"type": "psi", "p": p, "nu": nu, "n": m,
                          "x": terms, "format": fmt_psi},
            })
    return [{"contexts": [list(c) for c in sorted(set(TABLE_PLAN))], "ops": ops, "probe": []}]


def fold_reuse_share(stream: list[dict]) -> tuple[int, int]:
    """(psi exponents folding onto a representative already computed since the
    last cache clear, psi ops)."""
    seen: dict[tuple[int, int], set[int]] = {}
    hits = total = 0
    for session in stream:
        seen.clear()
        for op in session["ops"]:
            c = op["check"]
            key = (c["p"], c["nu"])
            rep = fold(c["p"], c["n"])
            if c["type"] == "table":
                seen.clear()  # clear_cache() drops every context
                seen[key] = {rep}
                continue
            total += 1
            hits += rep in seen.setdefault(key, set())
            seen[key].add(rep)
    return hits, total


# ---------------------------------------------------------------------------
# ring-mul


def _ring_mul(seed: int) -> list[dict]:
    rng = _rng("ring-mul", seed, "ops")
    k = MUL_SESSIONS
    # per slot, the grid point of each session, or None
    points = []
    for ctx, kind, (n, _) in MUL_SLOTS:
        grid = POWER_GRID.get((ctx, n)) if kind == "power" else None
        points.append(rng.sample(grid, k) if grid else [None] * k)
    # the products at a context share its grid, one point per op
    for ctx, grid in MUL_GRID.items():
        slots = [i for i, (c, kind, _) in enumerate(MUL_SLOTS) if c == ctx and kind == "mul"]
        drawn = iter(rng.sample(grid, len(slots) * k))
        for i in slots:
            points[i] = [next(drawn) for _ in range(k)]
    sessions = []
    for j in range(k):
        ops = []
        for ((p, nu), kind, (n, m)), point in zip(MUL_SLOTS, points):
            q = p**nu
            if kind == "mul":
                if point[j]:
                    a, b = (_grid_terms(rng, pts) for pts in point[j])
                else:
                    a, b = _spread_terms(rng, q, n), _spread_terms(rng, q, m)
                ops.append({
                    "kind": "cli",
                    "argv": ["mul", *_ctx_args(p, nu), f"--a={literal(a)}", f"--b={literal(b)}"],
                    "check": {"type": "mul", "p": p, "nu": nu, "a": a, "b": b,
                              "commute": rng.random() < COMMUTE_SHARE},
                })
                continue
            cmd = rng.choice(("lambda", "sym"))
            if m == 0:
                s = point[j]
                x = [[s, 1]]
                source = ["--s", str(s)]
            else:
                x = _spread_terms(rng, q, m)
                source = [f"--element={literal(x)}"]
            ops.append({
                "kind": "cli",
                "argv": [cmd, *_ctx_args(p, nu), "--n", str(n), *source],
                "check": {"type": cmd, "p": p, "nu": nu, "n": n, "x": x},
            })
        rng.shuffle(ops)
        sessions.append({
            "contexts": [list(c) for c in MUL_CONTEXTS] + [list(PROBE_CONTEXT)],
            "ops": ops,
            "probe": _probe_ops(rng),
        })
    return sessions


def _probe_ops(rng: random.Random) -> list[dict]:
    """One mul and one square at (31,2) whose induced dimension exceeds the cap."""
    p, nu = PROBE_CONTEXT
    q = p**nu
    low = math.isqrt(ORACLE_CAP) + 1
    a, b = rng.randint(low, q), rng.randint(low, q)
    s = rng.randint(low, q)
    cmd = rng.choice(("lambda", "sym"))
    return [
        {"kind": "cli", "argv": ["mul", *_ctx_args(p, nu), f"--a=V{a}", f"--b=V{b}"],
         "check": {"type": "mul", "p": p, "nu": nu, "a": [[a, 1]], "b": [[b, 1]], "commute": False}},
        {"kind": "cli", "argv": [cmd, *_ctx_args(p, nu), "--n", "2", "--s", str(s)],
         "check": {"type": cmd, "p": p, "nu": nu, "n": 2, "x": [[s, 1]]}},
    ]


def mul_pair_repeat_share(stream: list[dict]) -> tuple[int, int]:
    """(basis pairs of mul ops already requested earlier in their session, pairs requested)."""
    repeats = total = 0
    for session in stream:
        seen: set[tuple[int, int, int, int]] = set()
        for op in session["ops"]:
            c = op["check"]
            if c["type"] != "mul":
                continue
            for r, _ in c["a"]:
                for s, _ in c["b"]:
                    key = (c["p"], c["nu"], min(r, s), max(r, s))
                    total += 1
                    repeats += key in seen
                    seen.add(key)
    return repeats, total


# ---------------------------------------------------------------------------
# oracle-decompose


def _constructions(p: int, nu: int, lo: int, hi: int) -> list[dict]:
    """Tensors (b <= 3a) and squares of basis modules at (p, nu) with dimension in lo..hi."""
    q = p**nu
    out = []
    for a in range(2, q + 1):
        for b in range(a, min(3 * a, q) + 1):
            if lo <= a * b <= hi:
                out.append({"build": "tensor", "a": a, "b": b, "d": a * b})
    for r in range(2, q + 1):
        dw, ds = math.comb(r, 2), math.comb(r + 1, 2)
        if lo <= dw <= hi:
            out.append({"build": "wedge", "n": 2, "r": r, "d": dw})
        if lo <= ds <= hi:
            out.append({"build": "sym", "n": 2, "r": r, "d": ds})
    return [dict(c, ctx=[p, nu]) for c in out]


def _slot_candidates(kind: str, ctx: tuple[int, int], target: float) -> list[dict]:
    """Constructions for a ladder slot of the given kind near dimension target.

    Tensors: b <= 1.25a, and d within 3% of the target (or the nearest d, if
    none is that close).  Squares: the dimension nearest the target, where a
    wedge and a sym (of V_{r+1} and V_r) have the same d and cost the same.
    """
    pool = _constructions(*ctx, LADDER_RANGE[0], 2 * LADDER_RANGE[1])
    if kind == "tensor":
        pool = [c for c in pool if c["build"] == "tensor" and 4 * c["b"] <= 5 * c["a"]]
        slack = 0.03 * target
    else:
        pool = [c for c in pool if c["build"] != "tensor"]
        slack = 0
    nearest = min(abs(c["d"] - target) for c in pool)
    return [c for c in pool if abs(c["d"] - target) <= max(nearest, slack)]


def _oracle_decompose(seed: int) -> list[dict]:
    rng = _rng("oracle-decompose", seed, "ops")
    k = DECOMPOSE_SESSIONS * LADDER_PER_SESSION
    lo, hi = LADDER_RANGE
    ratio = (hi / lo) ** (1 / k)
    ladder = []
    for i in range(k):
        kind, ctx = LADDER_CYCLE[i % len(LADDER_CYCLE)]
        ladder.append(rng.choice(_slot_candidates(kind, ctx, lo * ratio ** (i + 0.5))))
    rng.shuffle(ladder)
    large = [c for c in _constructions(7, 2, *LARGE_RANGE)
             if c["build"] == "tensor" and c["b"] - c["a"] <= 3]
    ops = [dict(c, kind="decompose") for c in ladder]
    sessions = []
    for j in range(DECOMPOSE_SESSIONS):
        part = ops[j * LADDER_PER_SESSION:(j + 1) * LADDER_PER_SESSION]
        sessions.append({"contexts": [list(c) for c in DECOMPOSE_CONTEXTS], "ops": part, "probe": []})
    big = dict(rng.choice(large), kind="decompose")
    target = sessions[rng.randrange(DECOMPOSE_SESSIONS)]["ops"]
    target.insert(rng.randrange(len(target) + 1), big)
    return sessions


def dimension_histogram(stream: list[dict], edges=(100, 150, 200, 250, 300, 365, 530)) -> dict[str, int]:
    hist = {f"{a}-{b - 1}": 0 for a, b in zip(edges, edges[1:])}
    for session in stream:
        for op in session["ops"]:
            for a, b in zip(edges, edges[1:]):
                if a <= op["d"] < b:
                    hist[f"{a}-{b - 1}"] += 1
    return hist


# ---------------------------------------------------------------------------


_BUILDERS = {
    "adams-table": _adams_table,
    "ring-mul": _ring_mul,
    "oracle-decompose": _oracle_decompose,
}


def stream(workload: str, seed: int) -> list[dict]:
    """The op stream of one repetition: a list of sessions, each a dict with
    the contexts it builds, its timed ops and its untimed capacity probe."""
    sessions = _BUILDERS[workload](seed)
    op_id = 0
    for session in sessions:
        for op in session["ops"]:
            op["id"] = op_id
            op_id += 1
    return sessions
