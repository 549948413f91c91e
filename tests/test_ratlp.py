import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import FractionTableau, maximize_two_phase, sparse
from pathsystems import metrize, ratlp
from pathsystems.generators import enumerate_monotone, monotone_system
from pathsystems.rational import Q, scaled_to_integers
from pathsystems.ratlp import (
    LinearSystem,
    maximize,
    solve_feasibility,
    verify_certificate,
)


def satisfies(system, x):
    for entries, rhs in system.equalities:
        if sum(c * x[v] for v, c in entries) != rhs:
            return False
    for entries, rhs in system.inequalities:
        if sum(c * x[v] for v, c in entries) < rhs:
            return False
    return True


def sign_rows(nv):
    """The dense rows x_j >= 0 of nv variables: how a system asks for
    non-negative variables."""
    return [(tuple(int(k == j) for k in range(nv)), 0) for j in range(nv)]


def test_feasible_equalities():
    # x + y = 3, x - y = 1.
    system = LinearSystem(2, equalities=sparse((((1, 1), 3), ((1, -1), 1))))
    res = solve_feasibility(system)
    assert res.feasible and res.solution == (Q(2), Q(1))


def test_infeasible_has_certificate():
    # x + y = 1 and x + y >= 2.
    system = LinearSystem(
        2, equalities=sparse((((1, 1), 1),)), inequalities=sparse((((1, 1), 2),))
    )
    res = solve_feasibility(system)
    assert not res.feasible
    assert verify_certificate(system, res.certificate)


def test_nonnegative_variables_as_sign_rows():
    # x + y = 1 over x, y >= 0 is feasible; x + y = -1 is not, and its
    # certificate combines the sign rows with the equality to 0.
    system = LinearSystem(2, equalities=sparse((((1, 1), 1),)), inequalities=sparse(sign_rows(2)))
    res = solve_feasibility(system)
    assert res.feasible and satisfies(system, res.solution)
    system = LinearSystem(2, equalities=sparse((((1, 1), -1),)), inequalities=sparse(sign_rows(2)))
    res = solve_feasibility(system)
    assert not res.feasible
    assert verify_certificate(system, res.certificate)


def test_dual_route_many_rows():
    # The certificate-search route with more inequality rows than variables.
    rows = tuple(((1, k), Q(k)) for k in range(0, 6))
    system = LinearSystem(2, inequalities=sparse(rows))
    res = solve_feasibility(system)
    assert res.feasible and satisfies(system, res.solution)


def test_maximize_optimal():
    # max x + y s.t. x <= 2, y <= 3 (as -x >= -2, -y >= -3), x,y >= 0.
    system = LinearSystem(
        2,
        inequalities=sparse((((-1, 0), -2), ((0, -1), -3), *sign_rows(2))),
        objective=(1, 1),
    )
    res = maximize(system)
    assert res.status == "optimal"
    assert res.value == Q(5)


def test_maximize_unbounded():
    system = LinearSystem(1, inequalities=sparse(sign_rows(1)), objective=(1,))
    res = maximize(system)
    assert res.status == "unbounded"


def test_maximize_infeasible():
    system = LinearSystem(
        1, equalities=sparse((((1,), -1),)), inequalities=sparse(sign_rows(1)), objective=(1,)
    )
    assert maximize(system).status == "infeasible"


def test_maximize_without_rows_and_over_sign_rows_only():
    # max -3y over x, y >= 0: the origin is optimal, nothing is unbounded.
    system = LinearSystem(2, inequalities=sparse(sign_rows(2)), objective=(0, -3))
    res = maximize(system)
    assert res.status == "optimal" and res.value == 0
    # Without rows, -3y is unbounded, and the zero objective's optimum is 0.
    assert maximize(LinearSystem(2, objective=(0, -3))).status == "unbounded"
    res = maximize(LinearSystem(2, objective=(0, 0)))
    assert (res.status, res.value) == ("optimal", 0)


def test_exact_rationals_no_drift():
    # A system engineered to need fractional pivots.
    system = LinearSystem(2, equalities=sparse((((3, 7), 1), ((2, -5), 1))))
    res = solve_feasibility(system)
    assert res.feasible
    x, y = res.solution
    assert 3 * x + 7 * y == 1 and 2 * x - 5 * y == 1


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def integer_systems(draw, max_vars=10, max_rows=30):
    """Systems of up to max_vars variables and max_rows small integer rows,
    drawn with or without the sign rows of every variable after them."""
    nv = draw(st.integers(min_value=1, max_value=max_vars))
    row = st.tuples(st.lists(small_entries, min_size=nv, max_size=nv).map(tuple), small_entries)
    n_eq = draw(st.integers(min_value=0, max_value=max_rows))
    eqs = draw(st.lists(row, max_size=n_eq))
    ineqs = draw(st.lists(row, max_size=max_rows - len(eqs)))
    if draw(st.booleans()):
        ineqs += sign_rows(nv)
    return LinearSystem(nv, equalities=sparse(eqs), inequalities=sparse(ineqs))


@settings(max_examples=60, deadline=None)
@given(integer_systems())
def test_feasibility_sound_random(system):
    res = solve_feasibility(system)
    if res.feasible:
        assert satisfies(system, res.solution)
    else:
        assert verify_certificate(system, res.certificate)


def as_rationals(system):
    """The same system with every coefficient and right-hand side a Q."""

    def rows(pairs):
        return tuple((tuple((v, Q(x)) for v, x in a), Q(b)) for a, b in pairs)

    return LinearSystem(
        system.num_vars,
        equalities=rows(system.equalities),
        inequalities=rows(system.inequalities),
    )


@settings(max_examples=60, deadline=None)
@given(integer_systems())
def test_int_and_rational_entries_give_equal_results(system):
    as_q = as_rationals(system)
    stored = as_q.equalities + as_q.inequalities
    assert all(type(x) is int for a, b in stored for x in (*[c for _, c in a], b))
    assert (as_q.equalities, as_q.inequalities) == (system.equalities, system.inequalities)
    assert solve_feasibility(system) == solve_feasibility(as_q)


def test_linear_system_keeps_ints_and_converts_the_rest():
    int_row = ((0, 1), (2, -1))
    system = LinearSystem(
        4,
        equalities=((((0, 1), (1, Q(1, 2)), (2, 0.5), (3, "1/2")), 3),),
        inequalities=((((1, -1), (2, 2), (3, 7)), Q(1, 2)), (int_row, 2)),
        objective=(2, 0.5, "1/2", Q(1, 2)),
    )
    assert system.inequalities[1][0] is int_row
    assert system.equalities == ((((0, 2), (1, 1), (2, 1), (3, 1)), 6),)
    assert system.inequalities[0] == (((1, -2), (2, 4), (3, 14)), 1)
    stored = system.equalities + system.inequalities
    assert all(type(x) is int for a, b in stored for entry in a for x in (*entry, b))
    assert all(type(x) is Q for x in system.objective)
    assert system.objective == (2, Q(1, 2), Q(1, 2), Q(1, 2))


@pytest.mark.parametrize(
    "entries, index",
    [
        (((True, 1),), "True"),
        ((("0", 1),), "'0'"),
        (((1.0, 1),), "1.0"),
        (((-1, 1),), "-1"),
        (((3, 1),), "3"),
        (((0, 1), (2, 1), (0, -1)), "0"),
    ],
    ids=["bool", "str", "float", "negative", "num_vars", "repeated"],
)
def test_linear_system_refuses_a_bad_variable_index(entries, index):
    for rows in ({"equalities": ((entries, 0),)}, {"inequalities": ((entries, Q(1, 2)),)}):
        with pytest.raises(ValueError, match=re.escape(f"variable index {index} ")):
            LinearSystem(3, **rows)


small_rationals = st.builds(Q, small_entries, st.sampled_from([1, 1, 1, 2, 3]))


@st.composite
def rational_system_args(draw, with_objective=False):
    """The `LinearSystem` arguments of a rational system of up to 5
    variables and 14 rows, its rows as drawn, made sparse by `sparse`,
    drawn with or without the sign rows of every variable after them.

    An equality may be repeated with a factor -2, -1 or 2, so the
    artificial of the copy can stay basic at level 0 after phase 1 (the
    oracle's `drive_out_artificials` must then pivot it out or drop its
    row).
    """
    nv = draw(st.integers(min_value=1, max_value=5))
    row = st.tuples(st.lists(small_rationals, min_size=nv, max_size=nv).map(tuple), small_rationals)
    eqs = draw(st.lists(row, max_size=6))
    if eqs and draw(st.booleans()):
        (a, b), k = draw(st.sampled_from(eqs)), draw(st.sampled_from([-2, -1, 2]))
        eqs.insert(draw(st.integers(0, len(eqs))), (tuple(k * x for x in a), k * b))
    ineqs = draw(st.lists(row, max_size=7))
    if draw(st.booleans()):
        ineqs += sign_rows(nv)
    objective = None
    if with_objective:
        objective = tuple(draw(st.lists(small_rationals, min_size=nv, max_size=nv)))
    return dict(
        num_vars=nv,
        equalities=sparse(eqs),
        inequalities=sparse(ineqs),
        objective=objective,
    )


def rational_systems(with_objective=False):
    return rational_system_args(with_objective).map(lambda args: LinearSystem(**args))


def integral_rows_as_ints(rows):
    """The rows, each with all-integral coefficients given as int entries and an int."""
    return tuple(
        (tuple([(v, int(x)) for v, x in a]), int(b))
        if all(x.denominator == 1 for x in (*[x for _, x in a], b))
        else (a, b)
        for a, b in rows
    )


@settings(max_examples=200, deadline=None)
@given(rational_system_args())
def test_linear_system_scales_each_rational_row_once(args):
    given_rows = {k: integral_rows_as_ints(args[k]) for k in ("equalities", "inequalities")}
    system = LinearSystem(args["num_vars"], **given_rows)
    pairs = zip(
        given_rows["equalities"] + given_rows["inequalities"],
        system.equalities + system.inequalities,
    )
    for (a, b), (stored_a, stored_b) in pairs:
        assert [v for v, _ in stored_a] == [v for v, _ in a]
        row, stored = (*[x for _, x in a], b), (*[x for _, x in stored_a], stored_b)
        assert all(type(x) is int for x in stored)
        if all(type(x) is int for x in row):
            assert stored_a is a and stored_b == b
        k = next((Q(s, x) for x, s in zip(row, stored) if x), 1)
        assert k.denominator == 1 and k > 0
        assert stored == tuple(k * x for x in row)
    res = solve_feasibility(system)
    if res.feasible:
        unscaled = SimpleNamespace(**given_rows)
        assert satisfies(unscaled, res.solution)


# Systems over no variables: the tableau's columns have length 1.
# 0 >= -1 holds; 0 >= 1/2 fails.
NO_VARIABLES = LinearSystem(0, inequalities=sparse((((), -1),)))
NO_VARIABLES_INFEASIBLE = LinearSystem(
    0, equalities=sparse((((), 0),)), inequalities=sparse((((), -1), ((), Q(1, 2))))
)


def with_fraction_tableau(solve, system):
    with mock.patch.object(ratlp, "_Tableau", FractionTableau):
        return solve(system)


@settings(max_examples=300, deadline=None)
@given(rational_systems())
@example(NO_VARIABLES)
@example(NO_VARIABLES_INFEASIBLE)
def test_feasibility_matches_fraction_oracle(system):
    assert solve_feasibility(system) == with_fraction_tableau(solve_feasibility, system)


def pivots(tableau, system):
    """The (row, column) of every pivot `tableau` makes in `solve_feasibility`."""
    made = []

    class Recording(tableau):
        def pivot(self, r, c, *rest):
            made.append((r, c))
            super().pivot(r, c, *rest)

    with mock.patch.object(ratlp, "_Tableau", Recording):
        solve_feasibility(system)
    return made


# The rows are stored scaled by 2 and by 6, to (1, 2) = 2 and (2, -6) >= 1;
# the sign rows x, y >= 0 follow.
MIXED_DENOMINATORS = LinearSystem(
    2,
    equalities=sparse((((Q(1, 2), 1), 1),)),
    inequalities=sparse((((Q(1, 3), -1), Q(1, 6)), *sign_rows(2))),
)


@settings(max_examples=300, deadline=None)
@given(rational_systems())
@example(MIXED_DENOMINATORS)
@example(dataclasses.replace(MIXED_DENOMINATORS, inequalities=MIXED_DENOMINATORS.inequalities[:1]))
@example(NO_VARIABLES)
@example(NO_VARIABLES_INFEASIBLE)
def test_revised_tableau_pivots_like_fraction_oracle(system):
    assert pivots(ratlp._Tableau, system) == pivots(FractionTableau, system)


def run_recorded(system):
    """`solve_feasibility(system)` and the bases of its phase-1 run.

    The recording `_Tableau` asserts after every pivot that each row of
    [B^-1 b | B^-1], read rhs first, is lexicographically positive.
    """
    bases = []

    class Recording(ratlp._Tableau):
        def phase1(self):
            bases.append(frozenset(self.basis))
            return super().phase1()

        def pivot(self, r, c, *rest):
            super().pivot(r, c, *rest)
            m = self.m
            for row in self.T:
                assert next(x for x in (row[m], *row[:m]) if x) > 0
            bases.append(frozenset(self.basis))

    with mock.patch.object(ratlp, "_Tableau", Recording):
        return solve_feasibility(system), bases


def assert_no_cycle_and_rechecked(system):
    res, bases = run_recorded(system)
    assert len(set(bases)) == len(bases)
    if res.feasible:
        assert ratlp._check_solution(system, res.scaled, res.scale)
    else:
        assert verify_certificate(system, res.certificate)


# The certificate tableau's right-hand side is 0 in every row but the
# normalising one, so nearly every pivot is degenerate.
@settings(max_examples=100, deadline=None)
@given(integer_systems())
def test_phase1_repeats_no_basis_on_degenerate_systems(system):
    assert_no_cycle_and_rechecked(system)


@functools.cache
def strict_lps_of_j4():
    """The via-dual LP of `is_strictly_metric` on each of criterion 7's 112
    monotone systems of J_4."""
    systems = []

    def capture(system):
        systems.append(system)
        return solve_feasibility(system)

    with mock.patch.object(metrize, "solve_feasibility", capture):
        for m in enumerate_monotone(4):
            assert metrize.is_strictly_metric(monotone_system(m)).strict
    return tuple(systems)


def test_phase1_repeats_no_basis_on_the_strict_lps_of_j4():
    assert len(strict_lps_of_j4()) == 112
    for system in strict_lps_of_j4():
        assert_no_cycle_and_rechecked(system)


def test_strict_lps_of_j4_stay_within_their_pivot_total():
    # Pivots over the 112 strict LPs: 15,341 under Bland's smallest-index
    # rule, 7,283 under cyclic pricing with the lexicographic ratio test.
    assert sum(len(run_recorded(system)[1]) - 1 for system in strict_lps_of_j4()) <= 7283


def test_rechecks_reject_a_trillionth():
    eps = Q(1, 10**12)
    for signs in (sign_rows(2), []):
        # Feasible: x + 2y = 3, x - y >= 0.
        system = LinearSystem(
            2,
            equalities=sparse((((1, 2), 3),)),
            inequalities=sparse((((1, -1), 0), *signs)),
        )
        x = solve_feasibility(system).solution
        assert ratlp._check_solution(system, *scaled_to_integers(x))
        assert not ratlp._check_solution(system, *scaled_to_integers((x[0] + eps, x[1])))
        assert not ratlp._check_solution(system, *scaled_to_integers((x[0], x[1] - eps)))
        # Infeasible: x + y = 1 and x + y >= 2.
        system = LinearSystem(
            2,
            equalities=sparse((((1, 1), 1),)),
            inequalities=sparse((((1, 1), 2), *signs)),
        )
        cert = solve_feasibility(system).certificate
        assert verify_certificate(system, cert)
        moved = ratlp.FarkasCertificate(lam=(cert.lam[0] + eps, *cert.lam[1:]), beta=cert.beta)
        assert not verify_certificate(system, moved)


@settings(max_examples=300, deadline=None)
@given(rational_systems(with_objective=True))
def test_maximize_matches_fraction_oracle(system):
    res = maximize(system)
    expected = maximize_two_phase(system)
    assert (res.status, res.value) == (expected.status, expected.value)
    if res.status == "optimal":
        assert satisfies(system, res.solution)
        assert sum(c * x for c, x in zip(system.objective, res.solution)) == res.value
    elif res.status == "infeasible":
        assert verify_certificate(system, res.certificate)


O_SCRIPT = textwrap.dedent(
    """
    import json
    from pathsystems import VerificationError, metrize, ratlp
    from pathsystems.core import TripleSet
    from pathsystems.ratlp import LinearSystem, solve_feasibility

    assert False, "asserts must be stripped"
    x = ((0, 1),)  # the row x
    systems = [  # feasible, then infeasible
        LinearSystem(1, inequalities=((x, 1), (x, 2), (((0, -1),), -5))),
        LinearSystem(1, inequalities=((x, 1), (x, 2), (((0, -1),), -1))),
    ]
    # Search completions over the triples of [3]: Delta_{1,2;3} has one
    # (the LP is infeasible), -Delta_{1,2;3} has none (the LP gives a ray).
    d = list(metrize.delta((1, 2, 3), 3))
    residuals = [d, [-v for v in d]]
    triples = list(metrize._delta_table(3))

    def corrupt(read):
        def wrong(tab):
            values = read(tab)
            values[0] += 1
            return values
        return wrong

    ratlp._Tableau.solution = corrupt(ratlp._Tableau.solution)
    ratlp._Tableau.int_duals = corrupt(ratlp._Tableau.int_duals)
    def outcome(call, arg):
        try:
            call(arg)
            return None
        except VerificationError as e:
            return str(e)

    messages = [outcome(solve_feasibility, system) for system in systems]
    messages += [outcome(lambda r: metrize._completion(3, triples, r, [], 0), r) for r in residuals]
    # A realizable set's LP answer, then a set that betweenness changes,
    # whose two-term witness gets one coefficient raised by 1.
    messages.append(outcome(metrize.is_realizable, TripleSet(3, frozenset({(2, 3, 1)}))))
    Witness = metrize.WitnessAlpha

    def raised(coeffs):
        alpha = Witness(coeffs)
        alpha[next(iter(alpha))] += 1
        return alpha

    metrize.WitnessAlpha = raised
    two_term = TripleSet(4, frozenset({(1, 2, 3), (1, 3, 4)}))
    messages.append(outcome(metrize.is_realizable, two_term))
    print(json.dumps(messages))
    """
)


def test_rechecks_raise_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-O", "-c", O_SCRIPT], env=env, capture_output=True, text=True, check=True
    ).stdout
    dual_ok, dual_cert, completion, ray, realizable, two_term = json.loads(out)
    assert dual_ok.startswith("re-check failed: via-dual")
    assert dual_cert == "re-check failed: via-dual Farkas certificate"
    assert completion == "re-check failed: via-dual Farkas certificate"
    assert ray.startswith("re-check failed: via-dual")
    assert realizable.startswith("re-check failed: via-dual")
    assert two_term == "re-check failed: two-term witness"
