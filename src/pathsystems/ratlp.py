"""Exact rational linear feasibility with Farkas infeasibility certificates.

Constraints are <a,x> >= rhs (inequalities) and <a,x> = rhs (equalities)
over free variables; a sign constraint x_v >= 0 is the row ((v, 1),) >= 0.
A row is sparse: a is a tuple of (variable, coefficient) entries, and a
variable it leaves out has coefficient 0.

Every question is answered by one phase-1 simplex run on the Farkas
certificate system, with one row per variable plus one: a certificate
proves infeasibility, and its absence leaves duals that yield a primal
witness in integers.  A system without rows is solved by the zero vector.
`maximize` asks one more feasibility question: by LP duality, a primal
solution and row multipliers with no duality gap prove each other
optimal.

The simplex runs over integers only.  `LinearSystem` keeps a row of
ints as given and stores any other row (Fraction, float or str
coefficients) once, as `Q` entries times the lcm of their denominators.
The simplex is revised: it takes the constraint matrix as sparse integer
columns, built once from the rows' entries, and keeps only
[B^-1 | B^-1 b] over integers.  Pricing is
cyclic, and the leaving row comes from the lexicographic ratio test of
Dantzig, Orden and Wolfe (1955), which rules out cycling under any
entering rule.  The verdicts do not depend on the pivot rule; the
solution or certificate returned may.

Every returned witness is re-checked against all constraints, and every
certificate is re-verified, before being returned.  The re-checks sum
over the rows' entries in integers and raise `VerificationError` on
failure, also under `python -O`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd

from .rational import Q, ZERO, ensure, scaled_to_integers

__all__ = [
    "LinearSystem",
    "FarkasCertificate",
    "FeasibilityResult",
    "OptimizeResult",
    "solve_feasibility",
    "maximize",
    "verify_certificate",
]


def _row(a, b, num_vars):
    """(a, b) as (variable, int) entries and an int, by the rule of `LinearSystem`."""
    # A tuple is built from a list: built from a generator, it is allocated
    # at a guessed size and resized, which moves it between CPython's
    # per-size tuple free lists, and LP rows of many lengths then leave
    # megabytes parked in those lists.
    a = a if type(a) is tuple else tuple([*a])
    ints, seen = type(b) is int, set()
    for v, c in a:
        if type(v) is not int or not 0 <= v < num_vars:
            raise ValueError(f"variable index {v!r} is not an int in range({num_vars})")
        if v in seen:
            raise ValueError(f"variable index {v} repeats within a row")
        seen.add(v)
        ints = ints and type(c) is int
    if ints:
        return a, b
    *scaled, b = scaled_to_integers([*[Q(c) for _, c in a], Q(b)])[0]
    return tuple([(v, c) for (v, _), c in zip(a, scaled)]), b


@dataclass(frozen=True)
class LinearSystem:
    """Exact linear constraint system over sparse rows.

    equalities: (entries, rhs) meaning sum of c * x_v over (v, c) in entries = rhs
    inequalities: (entries, rhs) meaning that sum >= rhs

    Each v is an int in range(num_vars), once per row.  Every stored row is
    all-int: an all-int tuple of entries is kept as the given object, and any
    other row is multiplied by the lcm of its denominators, which keeps its
    solution set.  A Farkas certificate refers to the stored rows (in this
    package, always the caller's own).  The objective is dense, as Qs.
    """

    num_vars: int
    equalities: tuple = ()
    inequalities: tuple = ()
    objective: tuple | None = None

    def __post_init__(self):
        V = self.num_vars
        for name in ("equalities", "inequalities"):
            rows = tuple([_row(a, b, V) for a, b in getattr(self, name)])
            object.__setattr__(self, name, rows)
        if self.objective is not None:
            c = tuple([Q(v) for v in self.objective])
            if len(c) != V:
                raise ValueError(f"expected vector of length {V}, got {len(c)}")
            object.__setattr__(self, "objective", c)


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers proving infeasibility.

    lam (one per inequality, >= 0) and beta (one per equality, free)
    combine the constraint rows to the zero vector while combining the
    right-hand sides to something positive.
    """

    lam: tuple = ()
    beta: tuple = ()


@dataclass(frozen=True)
class FeasibilityResult:
    """A Yes's solution is the ints `scaled` over `scale` > 0, in lowest terms."""

    feasible: bool
    scaled: tuple | None = None
    scale: int = 1
    certificate: FarkasCertificate | None = None

    @property
    def solution(self):
        if self.scaled is not None:
            return tuple([Q(v, self.scale) for v in self.scaled])


@dataclass(frozen=True)
class OptimizeResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: object = None
    solution: tuple | None = None
    certificate: FarkasCertificate | None = None


# ---------------------------------------------------------------------------
# Revised phase-1 simplex (equality standard form, lexicographic ratio test)
# ---------------------------------------------------------------------------


def _reduced(nums, den):
    """The row nums/den in lowest terms (den > 0)."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [x // g for x in nums], den // g


def _eliminate(row, den, f, prow, pden, support):
    """row/den - (f/den) * prow/pden over integers, in lowest terms.

    `support` lists the columns where prow is non-zero; pden > 0.  `row`
    itself is updated when pden divides f.
    """
    g = gcd(f, pden)
    if g != 1:
        f //= g
        pden //= g
    if pden != 1:
        row = [x * pden for x in row]
        den *= pden
    for j in support:
        row[j] -= f * prow[j]
    return _reduced(row, den)


class _Tableau:
    """Revised phase-1 simplex for A z = b, z >= 0 with b >= 0.

    It takes `cols`, the n columns of A, each a sequence of (row, value)
    entries and kept as given, and `rhs`, the m entries of b, all ints.
    m artificial columns form the initial basis B.  Only
    [B^-1 | B^-1 b] is kept, row i as m+1 integer numerators over one
    positive row denominator den[i], with the cost row over the
    artificials and the rhs, as numerators over cden.  Each step prices
    the columns cyclically with pi = cost_art - cden, from just after the
    last entering column up to the first negative one, forms B^-1 A_j,
    and pivots at width m+1.  Rationals are built only when the optimum
    or the solution is read; the duals are read as integers over cden.

    The leaving row is the lexicographic minimum of row_i / column_i over
    [B^-1 b | B^-1].  The initial rows (b_i, e_i) are lexicographically
    positive, and a lexicographic pivot keeps every row so, while the
    cost row, read in the same order (-objective first), rises
    lexicographically at each pivot, even a degenerate one.  So no basis
    repeats, and phase 1 ends whichever improving column enters.
    """

    def __init__(self, cols, rhs):
        self.m = m = len(rhs)
        self.n = len(cols)
        self.cols = cols
        self.T = []
        for i, b in enumerate(rhs):
            row = [0] * (m + 1)
            row[i], row[m] = 1, b
            self.T.append(row)
        self.den = [1] * m
        self.basis = [self.n + i for i in range(m)]
        # Phase-1 costs: 1 on every artificial, so y = all-ones at the start.
        self.cost, self.cden = [0] * m + [-sum(rhs)], 1

    def pivot(self, r, c, column, f):
        """Enter column c (B^-1 A_c in `column`, reduced cost f/cden) at row r."""
        T, den = self.T, self.den
        # Row r divided by its pivot entry (> 0): the numerators over it.
        row, piv = _reduced(T[r], column[r])
        T[r], den[r] = row, piv
        support = [j for j, x in enumerate(row) if x]
        for i, a in enumerate(column):
            if a and i != r:
                T[i], den[i] = _eliminate(T[i], den[i], a, row, piv, support)
        self.cost, self.cden = _eliminate(self.cost, self.cden, f, row, piv, support)
        self.basis[r] = c

    def phase1(self):
        """Minimize the artificial sum; returns the optimum (>= 0).

        Pricing is cyclic: each scan starts just after the last entering
        column and takes the first negative reduced cost; a full pass with
        none is the optimum.  The leaving row is the lexicographic minimum
        of row_i / column_i over rhs first, then B^-1, among column_i > 0.
        """
        m, n, T, cols = self.m, self.n, self.T, self.cols
        order = [m, *range(m)]
        start = 0
        while True:
            cden = self.cden
            pi = [c - cden for c in self.cost[:m]]
            enter = -1
            for j in chain(range(start, n), range(start)):
                f = 0
                for i, a in cols[j]:
                    f += pi[i] * a
                if f < 0:
                    enter = j
                    break
            if enter < 0:
                return Q(-self.cost[m], cden)
            start = enter + 1
            col = cols[enter]
            column = []
            for row in T:
                a = 0
                for i, x in col:
                    a += row[i] * x
                column.append(a)
            # Rows of [B^-1 b | B^-1] over column_i > 0, compared by
            # cross-multiplying: the row denominators cancel.  No two rows
            # tie, since B^-1 is non-singular.
            leave = -1
            for i, a in enumerate(column):
                if a > 0:
                    if leave < 0:
                        leave, best, best_a = i, T[i], a
                        continue
                    row = T[i]
                    for k in order:
                        lhs, rhs = row[k] * best_a, best[k] * a
                        if lhs != rhs:
                            break
                    if lhs < rhs:
                        leave, best, best_a = i, row, a
            ensure(leave >= 0, "phase-1 objective is bounded below by 0")
            self.pivot(leave, enter, column, f)

    def int_duals(self):
        """The phase-1 duals y (length m) times cden > 0: integers."""
        return [self.cden - c for c in self.cost[: self.m]]

    def solution(self):
        z = [ZERO] * self.n
        for i, bv in enumerate(self.basis):
            if bv < self.n:
                z[bv] = Q(self.T[i][self.m], self.den[i])
        return z


# ---------------------------------------------------------------------------
# Verification and feasibility
# ---------------------------------------------------------------------------


def _check_solution(system, ints, L):
    """Exact check of x = ints / L (L > 0) against every row, summed over
    the row's entries, with the right-hand sides scaled by L."""
    for a, b in system.equalities:
        if sum([c * ints[v] for v, c in a]) != b * L:
            return False
    for a, b in system.inequalities:
        if sum([c * ints[v] for v, c in a]) < b * L:
            return False
    return True


def verify_certificate(system, cert):
    """Exact Farkas check, independent of how the certificate was found.

    The multipliers must combine the rows to 0 and the right-hand sides to
    a positive number.  They are scaled to integers by the lcm of their
    denominators, which keeps every sign.  Each row adds over its entries;
    zero multipliers are skipped, as they add exactly 0.
    """
    n_eq, n_ineq = len(system.equalities), len(system.inequalities)
    if len(cert.lam) != n_ineq or len(cert.beta) != n_eq:
        return False
    if any(l < 0 for l in cert.lam):
        return False
    mults, _ = scaled_to_integers([*cert.beta, *cert.lam])
    combo = [0] * system.num_vars
    total = 0
    for (a, b), mult in zip(system.equalities + system.inequalities, mults):
        if mult:
            for v, c in a:
                combo[v] += mult * c
            total += mult * b
    return not any(combo) and total > 0


def solve_feasibility(system):
    """Exact feasibility verdict with witness or Farkas certificate.

    A system without rows is solved by the zero vector.  Otherwise phase 1
    searches for a Farkas certificate, and its absence yields a primal
    witness.  The certificate system has one row per variable plus one for
    the right-hand sides, and one non-negative column, the row's entries
    and (V, b), per inequality and two per equality (beta = beta+ - beta-).
    Its right-hand side is 0 except for a 1 in row V, so a certificate
    combines the right-hand sides to exactly 1.  A witness is read from
    the duals y as x_v = -y_v / y_V, over one scale, in lowest terms.
    """
    if not system.equalities and not system.inequalities:
        return FeasibilityResult(True, scaled=(0,) * system.num_vars)
    V, n_ineq = system.num_vars, len(system.inequalities)
    cols = [(*a, (V, b)) if b else a for a, b in system.inequalities]
    for a, b in system.equalities:
        col = (*a, (V, b)) if b else a
        cols += [col, [(i, -x) for i, x in col]]
    tab = _Tableau(cols, [0] * V + [1])
    if tab.phase1() == 0:
        z = tab.solution()
        beta = tuple(p - q for p, q in zip(z[n_ineq::2], z[n_ineq + 1 :: 2]))
        cert = FarkasCertificate(lam=tuple(z[:n_ineq]), beta=beta)
        ensure(verify_certificate(system, cert), "via-dual Farkas certificate")
        return FeasibilityResult(False, certificate=cert)
    nums = tab.int_duals()
    ensure(nums[V] > 0, "via-dual witness scale is positive")
    g = gcd(*nums[: V + 1])
    x, scale = tuple([-v // g for v in nums[:V]]), nums[V] // g
    ensure(_check_solution(system, x, scale), "via-dual solution")
    return FeasibilityResult(True, scaled=x, scale=scale)


def maximize(system):
    """Exact maximum of the objective c.x, proved by LP duality.

    The variables are free, like every variable here.  Give row r a
    multiplier m_r, >= 0 on the inequalities.  When c + sum_r m_r a_r is
    0, every feasible x has c.x <= -sum_r m_r b_r.  So a z = (x, m) that
    meets the primal rows, that stationarity, and the gap row
    c.x + sum_r m_r b_r >= 0 proves x optimal; `solve_feasibility` finds
    z and re-checks it.  When no such z exists, the system is infeasible
    or unbounded, and `solve_feasibility(system)` tells which.
    """
    c = system.objective
    if c is None:
        raise ValueError("system has no objective")
    V = system.num_vars
    n_eq = len(system.equalities)
    rows = system.equalities + system.inequalities
    R = len(rows)
    # Over the V + R variables (x, m), a row of the system keeps its entries.
    eqs, ineqs = list(system.equalities), list(system.inequalities)
    ineqs += [(((V + r, 1),), 0) for r in range(n_eq, R)]
    for j in range(V):
        grad = [(V + r, x) for r, (a, _) in enumerate(rows) for v, x in a if v == j]
        eqs.append((grad, -c[j]))
    gap = [(j, cj) for j, cj in enumerate(c) if cj]
    ineqs.append((gap + [(V + r, b) for r, (_, b) in enumerate(rows) if b], 0))
    dual = solve_feasibility(
        LinearSystem(V + R, equalities=tuple(eqs), inequalities=tuple(ineqs))
    )
    if dual.feasible:
        x = dual.solution[:V]
        value = sum((cj * xj for cj, xj in zip(c, x)), ZERO)
        return OptimizeResult("optimal", value=value, solution=x)
    res = solve_feasibility(system)
    if res.feasible:
        return OptimizeResult("unbounded")
    return OptimizeResult("infeasible", certificate=res.certificate)
