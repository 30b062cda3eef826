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
