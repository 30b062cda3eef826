"""CNF encoding of the partition constraints for external SAT solvers.

Variables are x[v, i] for integer v in [1, n] and color i in [1, r],
numbered (v - 1) * r + i.  Clause classes:

  (a) each v gets exactly one color: one at-least-one clause plus a
      pairwise at-most-one clause per color pair;
  (b) no monochromatic sum: for every a <= b with a + b = c <= n (a = b
      only in the strong case) and every color i, not all of a, b, c
      may take color i;
  (c) no rainbow sum: for every a < b with a + b = c <= n and every
      ordered triple of pairwise distinct colors (i, j, k), the
      assignment a -> i, b -> j, c -> k is forbidden;
  (d) every color class is non-empty;
  (e) optional symmetry breaking: x[1, 1] is a unit clause, and color j
      may appear at v only if color j - 1 already appeared below v, so
      the models are exactly the canonical witnesses.

The at-most-one and rainbow shapes are deliberately the naive pairwise
and ordered-triple expansions; at the color counts this artifact targets
their size is negligible and nothing subtler pays for itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Coloring, Kind


@dataclass
class CnfDocument:
    """A CNF instance plus the bookkeeping to interpret it.

    `labels` tags each clause with its class letter so censuses and
    debugging stay exact; `varmap` maps (v, i) to the variable index.
    """

    n: int
    r: int
    kind: Kind
    symmetry: bool
    num_vars: int
    clauses: list[list[int]]
    labels: list[str]
    varmap: dict[tuple[int, int], int]

    def __post_init__(self):
        if self.num_vars != self.n * self.r:
            raise ValueError("num_vars must equal n * r")
        if len(self.labels) != len(self.clauses):
            raise ValueError("labels and clauses must align")
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            if any(lit == 0 or abs(lit) > self.num_vars for lit in clause):
                raise ValueError("literal out of range")
        if sorted(self.varmap.values()) != list(range(1, self.num_vars + 1)):
            raise ValueError("varmap must cover variable indices exactly once")


def var_index(v: int, i: int, r: int) -> int:
    return (v - 1) * r + i


def encode(n: int, r: int, kind: Kind, symmetry: bool = False) -> CnfDocument:
    """Build the CNF whose models are the valid colorings of [1, n].

    Satisfying assignments correspond exactly to colorings that pass the
    verifier and use all r colors; with `symmetry` the correspondence is
    restricted to canonical colorings without changing satisfiability.
    """
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    strong = kind is Kind.STRONG
    clauses: list[list[int]] = []
    labels: list[str] = []

    def add(label: str, lits: list[int]):
        clauses.append(lits)
        labels.append(label)

    def x(v: int, i: int) -> int:
        return (v - 1) * r + i

    for v in range(1, n + 1):
        add("a", [x(v, i) for i in range(1, r + 1)])
        for i in range(1, r + 1):
            for j in range(i + 1, r + 1):
                add("a", [-x(v, i), -x(v, j)])

    for c in range(2, n + 1):
        for a in range(1, c // 2 + 1):
            b = c - a
            if a == b and not strong:
                continue
            for i in range(1, r + 1):
                if a == b:
                    add("b", [-x(a, i), -x(c, i)])
                else:
                    add("b", [-x(a, i), -x(b, i), -x(c, i)])

    for c in range(3, n + 1):
        for a in range(1, (c - 1) // 2 + 1):
            b = c - a
            for i in range(1, r + 1):
                for j in range(1, r + 1):
                    if j == i:
                        continue
                    for k in range(1, r + 1):
                        if k == i or k == j:
                            continue
                        add("c", [-x(a, i), -x(b, j), -x(c, k)])

    for i in range(1, r + 1):
        add("d", [x(v, i) for v in range(1, n + 1)])

    if symmetry:
        add("e", [x(1, 1)])
        for v in range(2, n + 1):
            for j in range(2, r + 1):
                add("e", [-x(v, j)] + [x(u, j - 1) for u in range(1, v)])

    varmap = {(v, i): x(v, i) for v in range(1, n + 1) for i in range(1, r + 1)}
    return CnfDocument(
        n=n,
        r=r,
        kind=kind,
        symmetry=symmetry,
        num_vars=n * r,
        clauses=clauses,
        labels=labels,
        varmap=varmap,
    )


def clause_count(n: int, r: int, kind: Kind, symmetry: bool = False) -> int:
    """The number of clauses `encode` emits, in closed form, without building
    any.  With P = (n - 1)^2 // 4 pairs a < b with a + b <= n, the classes
    hold n (1 + r(r - 1)/2), (P + [strong] n // 2) r, P r(r - 1)(r - 2), r
    and, with symmetry, 1 + (n - 1)(r - 1) clauses."""
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    pairs = (n - 1) ** 2 // 4
    mono = pairs + (n // 2 if kind is Kind.STRONG else 0)
    count = n * (1 + r * (r - 1) // 2) + mono * r + pairs * r * (r - 1) * (r - 2) + r
    if symmetry:
        count += 1 + (n - 1) * (r - 1)
    return count


def decode(model: list[int], n: int, r: int) -> Coloring:
    """Read a coloring off a solver model.

    `model` is a list of signed variable indices (DIMACS literals, no
    terminating 0).  Every position must receive exactly one positive
    color variable.
    """
    positive: set[int] = set()
    for lit in model:
        if lit == 0 or abs(lit) > n * r:
            raise ValueError(f"literal {lit} outside variable range 1..{n * r}")
        if lit > 0:
            positive.add(lit)
    colors = []
    for v in range(1, n + 1):
        hits = [i for i in range(1, r + 1) if var_index(v, i, r) in positive]
        if len(hits) != 1:
            raise ValueError(
                f"model assigns {len(hits)} colors to {v}; exactly one required"
            )
        colors.append(hits[0])
    return Coloring(n=n, r=r, colors=tuple(colors))


def clause_census(doc: CnfDocument) -> dict[str, int]:
    """Clause counts per class letter (all five keys always present)."""
    census = {label: 0 for label in "abcde"}
    for label in doc.labels:
        census[label] += 1
    return census


def satisfies(doc: CnfDocument, c: Coloring) -> bool:
    """Whether the assignment induced by a coloring satisfies every clause.

    The induced assignment sets x[v, i] true exactly when the coloring
    gives v color i; colorings with out-of-range entries never satisfy
    the at-least-one clauses.
    """
    if c.n != doc.n or c.r != doc.r:
        raise ValueError("coloring shape does not match the document")
    true_vars = {
        var_index(v, c.color_of(v), doc.r)
        for v in range(1, c.n + 1)
        if c.color_of(v) <= doc.r
    }
    for clause in doc.clauses:
        if not any((lit > 0) == (abs(lit) in true_vars) for lit in clause):
            return False
    return True


def to_dimacs(doc: CnfDocument) -> str:
    """Standard DIMACS text; header comments pin the generating parameters."""
    lines = [
        "c gallai-schur partition constraints",
        f"c n={doc.n} r={doc.r} kind={doc.kind.value} "
        f"symmetry={'on' if doc.symmetry else 'off'}",
        "c variable x[v,i] has index (v-1)*r+i",
        f"p cnf {doc.num_vars} {len(doc.clauses)}",
    ]
    for clause in doc.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> list[int]:
    """Extract the literal list from SAT solver output.

    Accepts `v` lines of signed literals terminated by 0 per the DIMACS
    output convention, plain literal lines (terminator optional), and
    ignores comment and status lines.  An UNSAT status is an error since
    there is no model to read.
    """
    lits: list[int] = []
    done = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        upper = line.upper()
        if upper.startswith("S ") or upper in ("SAT", "SATISFIABLE"):
            if "UNSAT" in upper:
                raise ValueError("solver reported unsatisfiable; no model to decode")
            continue
        if upper in ("UNSAT", "UNSATISFIABLE"):
            raise ValueError("solver reported unsatisfiable; no model to decode")
        if line[0] in "vV":
            line = line[1:].strip()
            if not line:
                continue
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ValueError(f"malformed model token {tok!r}") from None
            if lit == 0:
                done = True
                break
            lits.append(lit)
        if done:
            break
    if not lits:
        raise ValueError("no literals found in model input")
    return lits
