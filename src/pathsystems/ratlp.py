"""Exact rational linear feasibility with Farkas infeasibility certificates.

Constraints are <a,x> >= rhs (inequalities) and <a,x> = rhs (equalities)
over free variables by default; `nonnegative_vars=True` constrains every
variable to be >= 0 natively (the certificate then carries one extra
non-negative multiplier per variable bound).

Two solution strategies, both exact and both using Bland's anti-cycling
pivot rule:

* direct phase-1 simplex on the standard form (used when the system has
  few rows, or when variables are non-negative);
* phase-1 simplex on the Farkas certificate system (used when rows far
  outnumber variables; its dual vector yields a primal witness).

Integer data stays integer from input to tableau: `LinearSystem` keeps
int coefficients and right-hand sides as ints and turns only other
values (Fraction/mpq, float, str) into `Q`.  The tableau works over
Python ints: each row holds integer numerators over one positive row
denominator, and rationals are built only when the solution, the duals
or the objective are read.

Either way the verdict is identical: every returned witness is re-checked
against all constraints exactly, and every certificate is re-verified,
before being returned; a failed re-check raises `VerificationError`,
also under `python -O`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .rational import Q, ZERO, ensure

__all__ = [
    "LinearSystem",
    "FarkasCertificate",
    "FeasibilityResult",
    "OptimizeResult",
    "solve_feasibility",
    "maximize",
    "verify_certificate",
]


def _exact(v):
    """v itself when it is an int, else v as a Q."""
    return v if type(v) is int else Q(v)


def _exact_vec(values, length):
    # Rows are built from lists, here and in `_integer_row`: a tuple built
    # from a generator is allocated at a guessed size and resized, which
    # moves it between CPython's per-size tuple free lists, and LP rows of
    # many lengths then leave megabytes parked in those lists.
    vec = tuple([v if type(v) is int else Q(v) for v in values])
    if len(vec) != length:
        raise ValueError(f"expected vector of length {length}, got {len(vec)}")
    return vec


@dataclass(frozen=True)
class LinearSystem:
    """Exact linear constraint system.

    equalities: (coeffs, rhs) meaning <coeffs, x> = rhs
    inequalities: (coeffs, rhs) meaning <coeffs, x> >= rhs

    Int entries are kept as ints; every other entry becomes a Q.
    """

    num_vars: int
    equalities: tuple = ()
    inequalities: tuple = ()
    objective: tuple | None = None
    nonnegative_vars: bool = False

    def __post_init__(self):
        V = self.num_vars
        eqs = tuple((_exact_vec(a, V), _exact(b)) for a, b in self.equalities)
        ineqs = tuple((_exact_vec(a, V), _exact(b)) for a, b in self.inequalities)
        object.__setattr__(self, "equalities", eqs)
        object.__setattr__(self, "inequalities", ineqs)
        if self.objective is not None:
            object.__setattr__(self, "objective", _exact_vec(self.objective, V))


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers proving infeasibility.

    lam (one per inequality, >= 0) and beta (one per equality, free)
    combine the constraint rows to the zero vector while combining the
    right-hand sides to something positive.  For systems declared with
    nonnegative_vars, `bound` holds one multiplier >= 0 per variable
    bound x_j >= 0.
    """

    lam: tuple = ()
    beta: tuple = ()
    bound: tuple | None = None


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    solution: tuple | None = None
    certificate: FarkasCertificate | None = None


@dataclass(frozen=True)
class OptimizeResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: object = None
    solution: tuple | None = None
    certificate: FarkasCertificate | None = None


# ---------------------------------------------------------------------------
# Tableau simplex core (min, equality standard form, Bland's rule)
# ---------------------------------------------------------------------------


def _reduced(nums, den):
    """The row nums/den in lowest terms (den > 0)."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [x // g for x in nums], den // g


def _integer_row(values):
    """Ints or exact rationals as integer numerators over one positive denominator."""
    den = lcm(*[v.denominator for v in values])
    return [int(v * den) for v in values], den


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
    """Dense tableau for min c.z s.t. A z = b, z >= 0 with b >= 0.

    m artificial columns are appended and form the initial basis.  Every
    row, the cost row included, holds integer numerators over one positive
    integer row denominator: entry j of row i is T[i][j] / den[i], and the
    reduced cost of column j is cost[j] / cden.  A pivot puts each row it
    touches back in lowest terms.  Rationals are built only when the
    objective, the solution or the duals are read.
    """

    def __init__(self, rows, rhs):
        self.m = len(rows)
        self.n = len(rows[0]) if rows else 0
        self.width = self.n + self.m  # artificials appended
        self.T, self.den = [], []
        for i, row in enumerate(rows):
            nums, den = _integer_row([*row, rhs[i]])
            art = [0] * self.m
            art[i] = den
            self.T.append(nums[:-1] + art + nums[-1:])
            self.den.append(den)
        self.basis = [self.n + i for i in range(self.m)]
        # Phase-1 reduced costs: c = (0..0, 1..1); y = all-ones.
        cden = lcm(*self.den)
        cost = [0] * (self.width + 1)
        for row, den in zip(self.T, self.den):
            scale = cden // den
            for j in range(self.n):
                if row[j]:
                    cost[j] -= scale * row[j]
            cost[self.width] -= scale * row[self.width]
        self.cost, self.cden = _reduced(cost, cden)

    @property
    def objective(self):
        return Q(-self.cost[self.width], self.cden)

    def pivot(self, r, c):
        T, den = self.T, self.den
        row = T[r]
        piv = row[c]
        if piv < 0:
            row = [-x for x in row]
            piv = -piv
        # Row r divided by its pivot entry: the numerators over piv.
        row, piv = _reduced(row, piv)
        T[r], den[r] = row, piv
        support = [j for j, x in enumerate(row) if x]
        for i, other in enumerate(T):
            f = other[c]
            if f and i != r:
                T[i], den[i] = _eliminate(other, den[i], f, row, piv, support)
        f = self.cost[c]
        if f:
            self.cost, self.cden = _eliminate(self.cost, self.cden, f, row, piv, support)
        self.basis[r] = c

    def run(self, allowed):
        """Bland's rule over columns < allowed; returns "optimal" or "unbounded"."""
        w, basis = self.width, self.basis
        while True:
            cost = self.cost
            enter = -1
            for j in range(allowed):
                if cost[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            # Minimum ratio T[i][w] / T[i][enter] over a > 0; the row
            # denominators cancel, and cross-multiplying compares exactly.
            leave = -1
            for i, row in enumerate(self.T):
                a = row[enter]
                if a > 0:
                    b = row[w]
                    if leave < 0:
                        leave, best_b, best_a = i, b, a
                        continue
                    lhs, rhs = b * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, best_b, best_a = i, b, a
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)

    def phase1(self):
        """Minimize the artificial sum; returns the optimum (>= 0)."""
        status = self.run(self.n)
        ensure(status == "optimal", "phase-1 objective is bounded below by 0")
        return self.objective

    def duals(self):
        """Phase-1 dual vector y (length m), from artificial reduced costs."""
        return [Q(self.cden - self.cost[self.n + i], self.cden) for i in range(self.m)]

    def solution(self):
        z = [ZERO] * self.n
        for i, bv in enumerate(self.basis):
            if bv < self.n:
                z[bv] = Q(self.T[i][self.width], self.den[i])
        return z

    def drive_out_artificials(self):
        """Pivot artificials out of the basis; drop redundant rows."""
        keep = []
        for i in range(self.m):
            if self.basis[i] < self.n:
                keep.append(i)
                continue
            piv_col = -1
            for j in range(self.n):
                if self.T[i][j]:
                    piv_col = j
                    break
            if piv_col >= 0:
                self.pivot(i, piv_col)
                keep.append(i)
            # else: redundant all-zero row, drop it
        self.T = [self.T[i] for i in keep]
        self.den = [self.den[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]
        self.m = len(self.T)

    def set_objective(self, c):
        """Install reduced costs for a new objective vector (length n)."""
        cost, cden = _integer_row([*c] + [0] * (self.width - self.n + 1))
        for row, den, bv in zip(self.T, self.den, self.basis):
            f = cost[bv]
            if f:
                support = [j for j, x in enumerate(row) if x]
                cost, cden = _eliminate(cost, cden, f, row, den, support)
        self.cost, self.cden = cost, cden


# ---------------------------------------------------------------------------
# Standard-form construction
# ---------------------------------------------------------------------------


def _standard_form(system, with_objective=False):
    """Equality standard form with non-negative variables and rhs >= 0.

    Returns (rows, rhs, signs, obj) where signs[i] is the +-1 applied to
    original row i.  Free variables are split as x = x+ - x-; int data
    gives int rows.
    """
    n_eq, n_ineq = len(system.equalities), len(system.inequalities)

    def split(a):
        return list(a) if system.nonnegative_vars else [*a, *(-x for x in a)]

    rows, rhs, signs = [], [], []
    for idx, (a, b) in enumerate(system.equalities + system.inequalities):
        surplus = [0] * n_ineq
        if idx >= n_eq:
            surplus[idx - n_eq] = -1
        row = split(a) + surplus
        sign = -1 if b < 0 else 1
        rows.append(row if sign > 0 else [-x for x in row])
        rhs.append(sign * b)
        signs.append(sign)
    obj = None
    if with_objective and system.objective is not None:
        obj = split(system.objective) + [0] * n_ineq
    return rows, rhs, signs, obj


def _extract_x(system, z):
    V = system.num_vars
    if system.nonnegative_vars:
        return tuple(z[:V])
    return tuple(z[v] - z[V + v] for v in range(V))


def _check_solution(system, x):
    """Exact check of x against every row; zero terms add nothing."""
    support = [(v, xv) for v, xv in enumerate(x) if xv]
    for a, b in system.equalities:
        if sum((a[v] * xv for v, xv in support if a[v]), ZERO) != b:
            return False
    for a, b in system.inequalities:
        if sum((a[v] * xv for v, xv in support if a[v]), ZERO) < b:
            return False
    if system.nonnegative_vars and any(xi < 0 for xi in x):
        return False
    return True


def verify_certificate(system, cert):
    """Exact Farkas check, independent of how the certificate was found.

    Zero multipliers and zero coefficients are skipped: they add exactly 0.
    """
    n_eq, n_ineq = len(system.equalities), len(system.inequalities)
    if len(cert.lam) != n_ineq or len(cert.beta) != n_eq:
        return False
    if any(l < 0 for l in cert.lam):
        return False
    bound = cert.bound
    if bound is not None:
        if not system.nonnegative_vars or len(bound) != system.num_vars:
            return False
        if any(m < 0 for m in bound):
            return False
    combo = [ZERO] * system.num_vars
    total = ZERO
    for rows, mults in ((system.equalities, cert.beta), (system.inequalities, cert.lam)):
        for (a, b), mult in zip(rows, mults):
            if mult:
                for v, av in enumerate(a):
                    if av:
                        combo[v] += mult * av
                total += mult * b
    if bound is not None:
        for v in range(system.num_vars):
            combo[v] += bound[v]
    if any(c != 0 for c in combo):
        return False
    return total > 0


def _feasibility_direct(system):
    rows, rhs, signs, _ = _standard_form(system)
    if not rows:
        x = tuple(ZERO for _ in range(system.num_vars))
        return FeasibilityResult(True, solution=x)
    tab = _Tableau(rows, rhs)
    opt = tab.phase1()
    if opt == 0:
        x = _extract_x(system, tab.solution())
        ensure(_check_solution(system, x), "direct-route solution")
        return FeasibilityResult(True, solution=x)
    y = tab.duals()
    n_eq = len(system.equalities)
    u = [signs[i] * y[i] for i in range(len(y))]
    beta = tuple(u[:n_eq])
    lam = tuple(u[n_eq:])
    bound = None
    if system.nonnegative_vars:
        # Sum of rows is <= 0 componentwise; bound multipliers close the gap.
        combo = [ZERO] * system.num_vars
        for (a, _), m in zip(system.equalities + system.inequalities, beta + lam):
            if m:
                for v, av in enumerate(a):
                    if av:
                        combo[v] += m * av
        bound = tuple(-c for c in combo)
    cert = FarkasCertificate(lam=lam, beta=beta, bound=bound)
    ensure(verify_certificate(system, cert), "direct-route Farkas certificate")
    return FeasibilityResult(False, certificate=cert)


def _feasibility_via_dual(system):
    """Search for a Farkas certificate; its absence yields a primal witness.

    The certificate system has num_vars+1 rows, so this route is the fast
    one when constraints vastly outnumber variables.
    """
    V = system.num_vars
    n_eq, n_ineq = len(system.equalities), len(system.inequalities)
    m = V + 1
    cols = []  # each: length-m column vector
    for a, b in system.inequalities:
        cols.append(list(a) + [b])
    for a, b in system.equalities:
        cols.append(list(a) + [b])
        cols.append([-x for x in a] + [-b])
    rows = [[col[i] for col in cols] for i in range(m)]
    rhs = [0] * V + [1]
    tab = _Tableau(rows, rhs)
    opt = tab.phase1()
    if opt == 0:
        z = tab.solution()
        lam = tuple(z[:n_ineq])
        beta = tuple(
            z[n_ineq + 2 * j] - z[n_ineq + 2 * j + 1] for j in range(n_eq)
        )
        cert = FarkasCertificate(lam=lam, beta=beta)
        ensure(verify_certificate(system, cert), "via-dual Farkas certificate")
        return FeasibilityResult(False, certificate=cert)
    y = tab.duals()
    t = y[V]
    ensure(t > 0, "via-dual witness scale is positive")
    x = tuple(-y[v] / t for v in range(V))
    ensure(_check_solution(system, x), "via-dual solution")
    return FeasibilityResult(True, solution=x)


def solve_feasibility(system):
    """Exact feasibility verdict with witness or Farkas certificate."""
    n_rows = len(system.equalities) + len(system.inequalities)
    if not system.nonnegative_vars and n_rows > system.num_vars + 1:
        return _feasibility_via_dual(system)
    return _feasibility_direct(system)


def maximize(system):
    """Exact maximum of the objective over the constraint set."""
    if system.objective is None:
        raise ValueError("system has no objective")
    rows, rhs, signs, obj = _standard_form(system, with_objective=True)
    if not rows:
        # Unconstrained: bounded only if the objective is identically zero.
        if any(c != 0 for c in system.objective):
            return OptimizeResult("unbounded")
        x = tuple(ZERO for _ in range(system.num_vars))
        return OptimizeResult("optimal", value=ZERO, solution=x)
    tab = _Tableau(rows, rhs)
    if tab.phase1() != 0:
        res = solve_feasibility(system)
        ensure(not res.feasible, "both phase-1 runs find the system infeasible")
        return OptimizeResult("infeasible", certificate=res.certificate)
    tab.drive_out_artificials()
    tab.set_objective([-c for c in obj])  # maximize = minimize the negation
    status = tab.run(tab.n)
    if status == "unbounded":
        return OptimizeResult("unbounded")
    x = _extract_x(system, tab.solution())
    ensure(_check_solution(system, x), "optimal solution")
    value = sum((c * xi for c, xi in zip(system.objective, x)), ZERO)
    return OptimizeResult("optimal", value=value, solution=x)
