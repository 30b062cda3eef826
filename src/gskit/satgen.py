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
Classes (a) to (c) are not formatted clause by clause: one
`operator.itemgetter` per clause shape picks the literal pieces of every
clause of a v or of a sum a + b = c at once, for a single join.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import itemgetter
from typing import TextIO

from .values import Coloring, Kind, Record, _set


class CnfDocument(Record):
    """A CNF instance plus the bookkeeping to interpret it.

    `labels` tags each clause with its class letter so censuses and
    debugging stay exact; `var_index` maps (v, i) to the variable index.
    Its list fields make it unhashable.
    """

    __slots__ = ("n", "r", "kind", "symmetry", "clauses", "labels")
    __hash__ = None

    def __init__(
        self,
        n: int,
        r: int,
        kind: Kind,
        symmetry: bool,
        clauses: list[list[int]],
        labels: list[str],
    ):
        if len(labels) != len(clauses):
            raise ValueError("labels and clauses must align")
        num_vars = n * r
        for clause in clauses:
            if not clause:
                raise ValueError("empty clause")
            if any(lit == 0 or abs(lit) > num_vars for lit in clause):
                raise ValueError("literal out of range")
        _set(self, "n", n)
        _set(self, "r", r)
        _set(self, "kind", kind)
        _set(self, "symmetry", symmetry)
        _set(self, "clauses", clauses)
        _set(self, "labels", labels)

    @property
    def num_vars(self) -> int:
        return self.n * self.r


def var_index(v: int, i: int, r: int) -> int:
    return (v - 1) * r + i


def _gather(shape: Iterable[tuple[int, ...]], r: int):
    """One getter for every clause of a shape, over concatenated literal rows.

    `shape` yields color tuples; the t-th color of a tuple indexes the t-th
    row of length r.  The getter returns the picked pieces of all clauses,
    in order, as one tuple.  An empty shape gets a getter returning ().
    Every index is taken from one list of the 3r possible ones, so the
    millions a rainbow shape holds share those 3r int objects; computed
    afresh, each index past CPython's small-int cache (256, reached from
    r = 86) would be an int object of its own.
    """
    offsets = list(range(3 * r))
    indices = tuple(offsets[t * r + i - 1] for colors in shape for t, i in enumerate(colors))
    if not indices:
        return lambda rows: ()
    return itemgetter(*indices)


def _clause_blocks(
    n: int, r: int, kind: Kind, symmetry: bool
) -> Iterator[tuple[str, str]]:
    """The clause set, defined once, as (label, text) blocks in DIMACS order.

    Each text is a run of DIMACS clause lines, every one ending in " 0\n":
    one class (a) block per v, one class (b) block per c and, if r >= 3,
    one class (c) block per c, one class (d) block and, with `symmetry`,
    one class (e) block per v.  Literals come from string tables built
    once, so no clause is ever held as a list of ints.  Classes (a) to (c)
    are never formatted clause by clause: lead[v] holds the pieces
    "-x[v,i] " and tail[v] the pieces "-x[v,i] 0\n", and one `_gather` per
    clause shape picks every clause of a pair a + b = c out of
    lead[a] + lead[b] + tail[c] (of a v, out of lead[v] + tail[v]), so the
    text of each pair is one join.
    """
    strong = kind is Kind.STRONG
    colors = range(1, r + 1)
    # pos[v][i] is the literal of x[v, i]; index 0 is unused.  lead[v] and
    # tail[v] are indexed by i - 1, as `_gather` reads them.
    pos = [[]] + [[""] + [str((v - 1) * r + i) for i in colors] for v in range(1, n + 1)]
    lead = [[]] + [[f"-{lit} " for lit in row[1:]] for row in pos[1:]]
    tail = [[]] + [[f"-{lit} 0\n" for lit in row[1:]] for row in pos[1:]]
    join = "".join

    at_most_one = _gather(((i, j) for i in colors for j in range(i + 1, r + 1)), r)
    for v in range(1, n + 1):
        yield "a", " ".join(pos[v][1:]) + " 0\n" + join(at_most_one(lead[v] + tail[v]))

    mono = _gather(((i, i, i) for i in colors), r)
    double = _gather(((i, i) for i in colors), r)
    for c in range(2, n + 1):
        tc = tail[c]
        texts = [join(mono(lead[a] + lead[c - a] + tc)) for a in range(1, (c + 1) // 2)]
        if strong and c % 2 == 0:
            texts.append(join(double(lead[c // 2] + tc)))
        yield "b", join(texts)

    # The r(r - 1)(r - 2) rainbow triples are built only if a rainbow
    # clause exists: it needs a pair a < b and three colors.
    if n >= 3 and r >= 3:
        rainbow = _gather(((i, j, k) for i in colors for j in colors for k in colors
                           if j != i and k != i and k != j), r)
        for c in range(3, n + 1):
            tc = tail[c]
            yield "c", join([join(rainbow(lead[a] + lead[c - a] + tc))
                             for a in range(1, (c + 1) // 2)])

    yield "d", "".join(
        " ".join(pos[v][i] for v in range(1, n + 1)) + " 0\n" for i in colors
    )

    if symmetry:
        yield "e", pos[1][1] + " 0\n"
        # below[i]: the literals x[u, i] for every u below the current v.
        below = [""] + [pos[1][i] for i in colors]
        for v in range(2, n + 1):
            m = lead[v]
            yield "e", "".join(f"{m[j - 1]}{below[j - 1]} 0\n" for j in range(2, r + 1))
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
    return CnfDocument(n=n, r=r, kind=kind, symmetry=symmetry, clauses=clauses, labels=labels)


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
    # Each position's colors, keyed by position: see `var_index`.
    hits: dict[int, set[int]] = {}
    for index, lit in enumerate(model, 1):
        # Named by position: a literal may have thousands of digits.
        if lit == 0 or abs(lit) > n * r:
            raise ValueError(f"literal at position {index} is outside variable range 1..{n * r}")
        if lit > 0:
            v, i = divmod(lit - 1, r)
            hits.setdefault(v + 1, set()).add(i + 1)
    colors = []
    for v in range(1, n + 1):
        found = hits.get(v, ())
        if len(found) != 1:
            raise ValueError(f"model assigns {len(found)} colors to {v}; exactly one required")
        colors.extend(found)
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
                if (tok[1:] if tok[0] in "+-" else tok).isdecimal():  # past int()'s limit
                    raise ValueError(
                        f"literal at position {len(lits) + 1} has too many digits"
                    ) from None
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
