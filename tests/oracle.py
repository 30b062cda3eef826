"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive and self-contained: no imports from
the package under test, no bitmasks, no symmetry breaking, no incremental
state.  Slowness is the point; these run only at sizes where brute force
is affordable.
"""

from __future__ import annotations

import itertools


def naive_ok(colors: tuple[int, ...], kind: str) -> bool:
    """Direct triple enumeration over all a <= b with a + b <= n.

    Checks only the sum constraints (monochromatic and rainbow); color
    surjectivity is a separate concern for callers.
    """
    strong = kind == "strong"
    n = len(colors)
    for a in range(1, n + 1):
        for b in range(a, n + 1 - a):
            c = a + b
            ca, cb, cc = colors[a - 1], colors[b - 1], colors[c - 1]
            if ca == cb == cc and (strong or a != b):
                return False
            if ca != cb and cb != cc and ca != cc:
                return False
    return True


def naive_pairs_at(colors: tuple[int, ...], c: int, kind: str) -> list:
    """The violating pairs a + b = c, a <= b, with a ascending, as
    (category, (a, b, c)) with category "MonochromaticSum" or "RainbowSum"."""
    strong = kind == "strong"
    out = []
    cc = colors[c - 1]
    for a in range(1, c // 2 + 1):
        b = c - a
        ca, cb = colors[a - 1], colors[b - 1]
        if ca == cb == cc and (strong or a != b):
            out.append(("MonochromaticSum", (a, b, c)))
        elif ca != cb and cb != cc and ca != cc:
            out.append(("RainbowSum", (a, b, c)))
    return out


def naive_violations(colors: tuple[int, ...], r: int, kind: str, exhaustive: bool) -> list:
    """The verifier's witness list for an r-coloring, as (category, triple,
    color) entries: colors above r ascending, then the bad pairs by c and
    then a, then the colors in [1, r] that never occur.  Without
    `exhaustive`, only the first entry."""
    out = [("BadColorRange", None, v) for v in sorted(set(colors)) if v > r]
    for c in range(2, len(colors) + 1):
        out += [(cat, triple, None) for cat, triple in naive_pairs_at(colors, c, kind)]
    out += [("EmptyColor", None, v) for v in range(1, r + 1) if v not in colors]
    return out if exhaustive else out[:1]


def is_canonical_tuple(colors: tuple[int, ...]) -> bool:
    """First occurrences of colors appear as 1, 2, 3, ... in order."""
    seen: list[int] = []
    for v in colors:
        if v not in seen:
            if v != len(seen) + 1:
                return False
            seen.append(v)
    return True


def naive_enumerate(kind: str, r: int, n: int) -> list[tuple[int, ...]]:
    """All canonical colorings of [1, n] using exactly r colors that pass
    the naive check, in lexicographic order, by filtering the full r^n
    product."""
    out = []
    for colors in itertools.product(range(1, r + 1), repeat=n):
        if not is_canonical_tuple(colors):
            continue
        if len(set(colors)) != r:
            continue
        if naive_ok(colors, kind):
            out.append(colors)
    return out


def naive_search_tree(kind: str, r: int, n: int) -> list[tuple[int, ...]]:
    """The nodes of the canonical search tree over [1, n], in depth-first
    order: every nonempty canonical word of length at most n over r colors
    that passes the naive check, except those whose parent already needed
    more new colors than positions remain (r - max(parent) > n - len + 1).
    Lexicographic order on tuples puts a word before its extensions, so
    sorting the filtered product gives the depth-first order."""
    out = []
    for length in range(1, n + 1):
        for colors in itertools.product(range(1, r + 1), repeat=length):
            if not is_canonical_tuple(colors) or not naive_ok(colors, kind):
                continue
            if r - max(colors[:-1], default=0) > n - length + 1:
                continue
            out.append(colors)
    return sorted(out)


def naive_dfs(kind: str, r: int, n: int, mode: str, budget, stop_depth, prefix: tuple[int, ...]):
    """The search engine's report, by a plain recursive walk of the
    canonical tree below `prefix` (assumed valid), colors in increasing
    order: (witnesses, nodes, exhausted, frontier, deepest).

    A child extends a word by one color, at most one above the largest
    used, when no pair a + b = c at its new position c is monochromatic
    or rainbow.  Nodes count the children entered, up to `budget`;
    `deepest` is the longest entered word that uses all r colors.  A word
    of length `stop_depth` or more goes to the frontier unexpanded; one of
    length n is a witness when it uses all r colors.  A word that needs
    more new colors than positions remain has no children.  `mode` is
    "first-witness" or "enumerate-all"."""
    strong = kind == "strong"
    witnesses: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = []
    count = {"nodes": 0, "deepest": 0}

    class Stop(Exception):
        pass

    def fits(word):
        c = len(word)
        cc = word[-1]
        for a in range(1, c // 2 + 1):
            ca, cb = word[a - 1], word[c - a - 1]
            if ca == cb == cc and (strong or 2 * a != c):
                return False
            if ca != cb and cb != cc and ca != cc:
                return False
        return True

    def visit(word):
        used = max(word, default=0)
        if stop_depth is not None and len(word) >= stop_depth:
            frontier.append(word)
            return
        if len(word) == n:
            if used == r:
                witnesses.append(word)
                if mode == "first-witness":
                    raise Stop
            return
        if r - used > n - len(word):
            return
        for color in range(1, min(used + 1, r) + 1):
            child = word + (color,)
            if not fits(child):
                continue
            if count["nodes"] == budget:
                raise Stop
            count["nodes"] += 1
            if max(used, color) == r:
                count["deepest"] = max(count["deepest"], len(child))
            visit(child)

    try:
        visit(tuple(prefix))
        exhausted = True
    except Stop:
        exhausted = False
    return witnesses, count["nodes"], exhausted, frontier, count["deepest"]


def naive_two_fold(colors: tuple[int, ...]) -> tuple[int, ...]:
    """The two-fold image by its position rule: odd x gets color 1, even
    x = 2k gets the color of k plus one."""
    return tuple(
        1 if x % 2 else colors[x // 2 - 1] + 1 for x in range(1, 2 * len(colors) + 2)
    )


def naive_five_fold(colors: tuple[int, ...]) -> tuple[int, ...]:
    """The five-fold image by its position rule: residues 1, 4 get color 1,
    residues 2, 3 get color 2, and x = 5k gets the color of k plus two."""
    rule = {1: 1, 4: 1, 2: 2, 3: 2}
    return tuple(
        rule[x % 5] if x % 5 else colors[x // 5 - 1] + 2
        for x in range(1, 5 * len(colors) + 5)
    )


def naive_five_fold_preimage(colors: tuple[int, ...], r: int):
    """The coloring whose five-fold image is this r-coloring, or None.

    The candidate preimage exists when n = 4 mod 5, n >= 9, r >= 3 and
    every color at 5k is at least 3; it is the answer when mapping it
    forward gives the coloring back.
    """
    n = len(colors)
    if n % 5 != 4 or n < 9 or r < 3:
        return None
    pre = tuple(colors[5 * k - 1] - 2 for k in range(1, (n - 4) // 5 + 1))
    if min(pre) < 1 or naive_five_fold(pre) != colors:
        return None
    return pre


def naive_two_fold_preimage(colors: tuple[int, ...], r: int):
    """The coloring whose two-fold image is this r-coloring, or None.

    The candidate preimage exists when n is odd, n >= 3, r >= 2 and every
    color at 2k is at least 2; it is the answer when mapping it forward
    gives the coloring back.
    """
    n = len(colors)
    if n % 2 != 1 or n < 3 or r < 2:
        return None
    pre = tuple(colors[2 * k - 1] - 1 for k in range(1, (n - 1) // 2 + 1))
    if min(pre) < 1 or naive_two_fold(pre) != colors:
        return None
    return pre


def naive_five_fold_break(colors: tuple[int, ...]):
    """The first position breaking the five-fold image pattern, or None:
    residues 1, 4 mod 5 need color 1, residues 2, 3 color 2, and a
    multiple of 5 any color but 1 and 2."""
    for x, v in enumerate(colors, start=1):
        if x % 5 in (1, 4) and v != 1:
            return x
        if x % 5 in (2, 3) and v != 2:
            return x
        if x % 5 == 0 and v in (1, 2):
            return x
    return None


def naive_two_fold_break(colors: tuple[int, ...]):
    """The first position breaking the two-fold image pattern, or None:
    odd positions need color 1 and even ones any other color."""
    for x, v in enumerate(colors, start=1):
        if (x % 2 == 1) != (v == 1):
            return x
    return None


def naive_bad_entry(tokens):
    """The first token that is not a positive ASCII decimal, as
    (1-based position, "not a number" or "zero"), or None."""
    for pos, tok in enumerate(tokens, start=1):
        if tok == "" or any(ch not in "0123456789" for ch in tok):
            return pos, "not a number"
        if set(tok) == {"0"}:
            return pos, "zero"
    return None


def scan_max_order(feasible, limit: int, streak: int) -> int:
    """Largest feasible order by the per-order upward scan: test n = 1, 2,
    ... up to `limit` and stop once the `streak` orders above the best so
    far are all infeasible.  `feasible(n)` answers one order exactly."""
    m_max = 0
    for n in range(1, limit + 1):
        if feasible(n):
            m_max = n
        elif m_max >= 1 and n >= m_max + streak:
            break
    return m_max


def naive_dimacs(n: int, r: int, kind: str, symmetry: bool) -> str:
    """The DIMACS text of the partition constraints, one f-string per
    clause, straight from the clause classes: (a) at least one color per
    v and no two, (b) no monochromatic a + b = c (a = b only when strong),
    (c) no rainbow a < b, a + b = c for any ordered triple of distinct
    colors, (d) every color used and, with `symmetry`, (e) x[1, 1] and
    color j at v only after color j - 1 below v.  x[v, i] is variable
    (v - 1) * r + i."""
    strong = kind == "strong"
    colors = range(1, r + 1)
    # x[v][i], the variable of v getting color i; row and column 0 unused.
    x = [[(v - 1) * r + i for i in range(r + 1)] for v in range(n + 1)]

    lines = []
    for v in range(1, n + 1):
        lines.append(" ".join(str(x[v][i]) for i in colors) + " 0\n")
        for i in colors:
            for j in range(i + 1, r + 1):
                lines.append(f"-{x[v][i]} -{x[v][j]} 0\n")
    for c in range(2, n + 1):
        for a in range(1, c // 2 + 1):
            b = c - a
            for i in colors:
                if a != b:
                    lines.append(f"-{x[a][i]} -{x[b][i]} -{x[c][i]} 0\n")
                elif strong:
                    lines.append(f"-{x[a][i]} -{x[c][i]} 0\n")
    for c in range(3, n + 1):
        for a in range(1, (c - 1) // 2 + 1):
            for i, j, k in itertools.permutations(colors, 3):
                lines.append(f"-{x[a][i]} -{x[c - a][j]} -{x[c][k]} 0\n")
    for i in colors:
        lines.append(" ".join(str(x[v][i]) for v in range(1, n + 1)) + " 0\n")
    if symmetry:
        lines.append(f"{x[1][1]} 0\n")
        for v in range(2, n + 1):
            for j in range(2, r + 1):
                below = " ".join(str(x[u][j - 1]) for u in range(1, v))
                lines.append(f"-{x[v][j]} {below} 0\n")
    return (
        "c gallai-schur partition constraints\n"
        f"c n={n} r={r} kind={kind} symmetry={'on' if symmetry else 'off'}\n"
        "c variable x[v,i] has index (v-1)*r+i\n"
        f"p cnf {n * r} {len(lines)}\n" + "".join(lines)
    )


def dpll(num_vars: int, clauses: list[list[int]]) -> list[int] | None:
    """Minimal complete SAT solver: unit propagation plus chronological
    branching.  Returns a full model as a literal list, or None."""

    clause_tuples = [tuple(cl) for cl in clauses]

    def solve(assign: dict[int, bool]) -> dict[int, bool] | None:
        while True:
            unit = None
            for cl in clause_tuples:
                satisfied = False
                unassigned: list[int] = []
                for lit in cl:
                    v = abs(lit)
                    if v in assign:
                        if assign[v] == (lit > 0):
                            satisfied = True
                            break
                    else:
                        unassigned.append(lit)
                if satisfied:
                    continue
                if not unassigned:
                    return None
                if len(unassigned) == 1:
                    unit = unassigned[0]
                    break
            if unit is None:
                break
            assign[abs(unit)] = unit > 0
        branch = None
        for v in range(1, num_vars + 1):
            if v not in assign:
                branch = v
                break
        if branch is None:
            return assign
        for value in (True, False):
            trial = dict(assign)
            trial[branch] = value
            result = solve(trial)
            if result is not None:
                return result
        return None

    model = solve({})
    if model is None:
        return None
    return [v if model.get(v, False) else -v for v in range(1, num_vars + 1)]
