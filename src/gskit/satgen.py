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

The clause set is defined once, by the generator `_clause_blocks`, which
yields the DIMACS text of the clauses in blocks.  `write_dimacs` streams
those blocks to a writer (what `gskit cnf encode` runs); `encode` parses
them back into a `CnfDocument` for library callers and the tests.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TextIO

from .core import Coloring, Kind, Record, _set


class CnfDocument(Record):
    """A CNF instance plus the bookkeeping to interpret it.

    `labels` tags each clause with its class letter so censuses and
    debugging stay exact; `varmap` maps (v, i) to the variable index.
    Its list and dict fields make it unhashable.
    """

    __slots__ = ("n", "r", "kind", "symmetry", "num_vars", "clauses", "labels", "varmap")
    __hash__ = None

    def __init__(
        self,
        n: int,
        r: int,
        kind: Kind,
        symmetry: bool,
        num_vars: int,
        clauses: list[list[int]],
        labels: list[str],
        varmap: dict[tuple[int, int], int],
    ):
        if num_vars != n * r:
            raise ValueError("num_vars must equal n * r")
        if len(labels) != len(clauses):
            raise ValueError("labels and clauses must align")
        for clause in clauses:
            if not clause:
                raise ValueError("empty clause")
            if any(lit == 0 or abs(lit) > num_vars for lit in clause):
                raise ValueError("literal out of range")
        if sorted(varmap.values()) != list(range(1, num_vars + 1)):
            raise ValueError("varmap must cover variable indices exactly once")
        _set(self, "n", n)
        _set(self, "r", r)
        _set(self, "kind", kind)
        _set(self, "symmetry", symmetry)
        _set(self, "num_vars", num_vars)
        _set(self, "clauses", clauses)
        _set(self, "labels", labels)
        _set(self, "varmap", varmap)


def var_index(v: int, i: int, r: int) -> int:
    return (v - 1) * r + i


def _clause_blocks(
    n: int, r: int, kind: Kind, symmetry: bool
) -> Iterator[tuple[str, str]]:
    """The clause set, defined once, as (label, text) blocks in DIMACS order.

    Each text is a run of DIMACS clause lines, every one ending in " 0\n":
    one class (a) block per v, one class (b) and one class (c) block per c,
    one class (d) block and, with `symmetry`, one class (e) block per v.
    Literals come from string tables built once, so no clause is ever held
    as a list of ints.
    """
    strong = kind is Kind.STRONG
    colors = range(1, r + 1)
    # pos[v][i] and neg[v][i] are the literals of x[v, i]; index 0 is unused.
    pos = [[]] + [[""] + [str((v - 1) * r + i) for i in colors] for v in range(1, n + 1)]
    neg = [[]] + [[""] + ["-" + lit for lit in row[1:]] for row in pos[1:]]

    color_pairs = [(i, j) for i in colors for j in range(i + 1, r + 1)]
    for v in range(1, n + 1):
        p, m = pos[v], neg[v]
        yield "a", " ".join(p[1:]) + " 0\n" + "".join(
            f"{m[i]} {m[j]} 0\n" for i, j in color_pairs
        )

    for c in range(2, n + 1):
        mc = neg[c]
        lines = []
        for a in range(1, c // 2 + 1):
            b = c - a
            ma, mb = neg[a], neg[b]
            if a != b:
                lines += [f"{ma[i]} {mb[i]} {mc[i]} 0\n" for i in colors]
            elif strong:
                lines += [f"{ma[i]} {mc[i]} 0\n" for i in colors]
        yield "b", "".join(lines)

    triples = [(i, j, k) for i in colors for j in colors for k in colors
               if j != i and k != i and k != j]
    for c in range(3, n + 1):
        mc = neg[c]
        lines = []
        for a in range(1, (c - 1) // 2 + 1):
            ma, mb = neg[a], neg[c - a]
            lines += [f"{ma[i]} {mb[j]} {mc[k]} 0\n" for i, j, k in triples]
        yield "c", "".join(lines)

    yield "d", "".join(
        " ".join(pos[v][i] for v in range(1, n + 1)) + " 0\n" for i in colors
    )

    if symmetry:
        yield "e", pos[1][1] + " 0\n"
        # below[i]: the literals x[u, i] for every u below the current v.
        below = [""] + [pos[1][i] for i in colors]
        for v in range(2, n + 1):
            m = neg[v]
            yield "e", "".join(f"{m[j]} {below[j - 1]} 0\n" for j in range(2, r + 1))
            below = [""] + [f"{below[i]} {pos[v][i]}" for i in colors]


def encode(n: int, r: int, kind: Kind, symmetry: bool = False) -> CnfDocument:
    """Build the CNF whose models are the valid colorings of [1, n].

    Satisfying assignments correspond exactly to colorings that pass the
    verifier and use all r colors; with `symmetry` the correspondence is
    restricted to canonical colorings without changing satisfiability.
    The clauses are parsed back from the text `write_dimacs` streams, so
    both come from the one definition in `_clause_blocks`.
    """
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    clauses: list[list[int]] = []
    labels: list[str] = []
    for label, text in _clause_blocks(n, r, kind, symmetry):
        clauses += [[int(lit) for lit in line.split()[:-1]] for line in text.splitlines()]
        labels += [label] * (len(clauses) - len(labels))
    varmap = {(v, i): var_index(v, i, r) for v in range(1, n + 1) for i in range(1, r + 1)}
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
    color variable.  r may not exceed n, checked before any work: no
    partition of [1, n] has more than n colors.
    """
    if r > n:
        raise ValueError(f"r={r} exceeds n={n}; a partition of [1, n] has at most n colors")
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


def _dimacs_header(n: int, r: int, kind: Kind, symmetry: bool, num_clauses: int) -> str:
    """Header comments pin the generating parameters; then the problem line."""
    return (
        "c gallai-schur partition constraints\n"
        f"c n={n} r={r} kind={kind.value} symmetry={'on' if symmetry else 'off'}\n"
        "c variable x[v,i] has index (v-1)*r+i\n"
        f"p cnf {n * r} {num_clauses}\n"
    )


def write_dimacs(out: TextIO, n: int, r: int, kind: Kind, symmetry: bool = False):
    """Stream the DIMACS text of `encode(n, r, kind, symmetry)` to `out`.

    The bytes equal `to_dimacs(encode(...))`, but no clause list or whole
    document is built: the header count comes from `clause_count` and the
    clauses are written block by block.  Raises RuntimeError, after the
    last block, if the emitted clauses do not match the header's count.
    """
    count = clause_count(n, r, kind, symmetry)
    out.write(_dimacs_header(n, r, kind, symmetry, count))
    emitted = 0
    for _, text in _clause_blocks(n, r, kind, symmetry):
        out.write(text)
        emitted += text.count("\n")
    if emitted != count:
        raise RuntimeError(f"emitted {emitted} clauses, header declares {count}")


def to_dimacs(doc: CnfDocument) -> str:
    """Standard DIMACS text of any document, in `write_dimacs`'s format."""
    header = _dimacs_header(doc.n, doc.r, doc.kind, doc.symmetry, len(doc.clauses))
    return header + "".join(
        " ".join(str(lit) for lit in clause) + " 0\n" for clause in doc.clauses
    )


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
