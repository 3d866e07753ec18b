import dataclasses
import hashlib
import json
import random
import re
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

from ietlab import (
    AdmissibleInterval,
    DegenerateAt,
    Iet,
    IetlabError,
    OrbitPoint,
    OutOfDomain,
    QuadReal,
    ReturnTimeExceeded,
    basic_interval,
    bratteli,
    det,
    empirical_measure,
    first_return_blocks,
    format_quad,
    identity,
    iet_new,
    induce,
    is_admissible,
    orbit_point,
    permutation,
    quad,
    radical,
    shrink_sequence,
    strip_decomposition,
    towers,
    whole_interval,
)
from ietlab.induction import _verify_step
from ietlab.intmat import freeze
from helpers import (count_compares, four_example, golden_example, naive_first_return,
                     random_quad_iet, rauzy_veech, sqrt2_example, verify_step_by_quad_sums)


def test_whole_interval_is_admissible(sqrt2_iet):
    J = whole_interval(sqrt2_iet)
    assert J.left == quad(0)
    assert J.right == sqrt2_iet.total
    assert is_admissible(sqrt2_iet, J.a, J.b).admissible


def test_basic_intervals_are_admissible(sqrt2_iet):
    for i in range(sqrt2_iet.n):
        J = basic_interval(sqrt2_iet, i)
        assert is_admissible(sqrt2_iet, J.a, J.b).admissible
    with pytest.raises(OutOfDomain):
        basic_interval(sqrt2_iet, 2)


def test_non_admissible_witness(sqrt2_iet):
    # T(beta(1)) = 0 lands inside [0, T^2(beta(1))), violating the right endpoint
    result = is_admissible(sqrt2_iet, orbit_point(sqrt2_iet, 0, 0),
                           orbit_point(sqrt2_iet, 1, 2))
    assert not result.admissible
    assert result.m == 1
    assert result.witness == quad(0)
    assert result.endpoint == "right"


def test_induce_sqrt2_frozen(sqrt2_iet):
    step = induce(sqrt2_iet, basic_interval(sqrt2_iet, 1))
    assert step.A == ((1, 0), (1, 1))
    assert step.return_times == (2, 1)
    assert step.induced.sigma.images == (2, 1)
    assert det(step.A) == 1
    assert format_quad(step.J.left) == "-1/1+1/1r"


def test_induce_golden_frozen(golden_iet):
    step = induce(golden_iet, basic_interval(golden_iet, 1))
    assert step.A == ((2, 1), (1, 1))
    assert step.return_times == (3, 2)
    assert det(step.A) == 1


def check_step_invariants(T, step):
    n = T.n
    assert abs(det(step.A)) == 1
    assert all(entry >= 0 for row in step.A for entry in row)
    for i in range(n):
        total = sum((step.induced.alpha[j] * step.A[i][j] for j in range(n)), quad(0))
        assert total == T.alpha[i]
    kac = sum((step.induced.alpha[j] * step.return_times[j] for j in range(n)), quad(0))
    assert kac == T.total


def test_step_invariants_on_examples(sqrt2_iet, golden_iet):
    for T in (sqrt2_iet, golden_iet):
        for i in range(T.n):
            check_step_invariants(T, induce(T, basic_interval(T, i)))


def test_induced_map_matches_naive_return(sqrt2_iet, golden_iet):
    # the induced IET must agree pointwise with iterate-until-return
    for T in (sqrt2_iet, golden_iet):
        J = basic_interval(T, 1)
        step = induce(T, J)
        U = step.induced
        for num in range(1, 20):
            x = J.left + (J.right - J.left) * Fraction(num, 20)
            r, landed = naive_first_return(T, J.left, J.right, x)
            assert landed == U.apply(x - step.origin) + step.origin
            assert r == step.return_times[U.interval_index(x - step.origin) - 1]


def test_brute_force_oracle_on_random_iets():
    rng = random.Random(42)
    for _ in range(12):
        T = random_quad_iet(rng, rng.randint(2, 5), idoc_depth=60)
        i = rng.randrange(T.n)
        J = basic_interval(T, i)
        step = induce(T, J)
        check_step_invariants(T, step)
        width = J.right - J.left
        for num in range(1, 10):
            x = J.left + width * Fraction(num, 10)
            r, landed = naive_first_return(T, J.left, J.right, x)
            assert landed == step.induced.apply(x - step.origin) + step.origin


def test_first_return_blocks_partition(sqrt2_iet):
    J = basic_interval(sqrt2_iet, 1)
    cuts, words, landings = first_return_blocks(sqrt2_iet, J.left, J.right)
    assert cuts[0] == J.left and cuts[-1] == J.right
    assert all(cuts[i] < cuts[i + 1] for i in range(len(cuts) - 1))
    assert len(words) == len(landings) == len(cuts) - 1


def test_shrink_first_step_is_identity(sqrt2_iet):
    chain = shrink_sequence(sqrt2_iet, quad(Fraction(1, 10)), 1)
    assert len(chain) == 1
    assert chain[0].A == identity(2)
    assert chain[0].origin == quad(0)
    assert chain[0].induced.alpha == sqrt2_iet.alpha


def test_shrink_golden_frozen_matrices(golden_iet):
    chain = shrink_sequence(golden_iet, quad(Fraction(1, 10)), 8)
    assert [step.A for step in chain] == [
        ((1, 0), (0, 1)),
        ((1, 1), (0, 1)),
        ((1, 1), (1, 2)),
        ((1, 0), (1, 1)),
        ((1, 1), (0, 1)),
        ((1, 1), (1, 2)),
        ((1, 1), (1, 2)),
        ((1, 0), (1, 1)),
    ]


def test_shrink_windows_nest_and_contract(golden_iet):
    y0 = quad(Fraction(1, 10))
    chain = shrink_sequence(golden_iet, y0, 8)
    for prev, step in zip(chain, chain[1:]):
        assert prev.origin <= step.origin
        assert step.origin + step.induced.total <= prev.origin + prev.induced.total
        assert step.induced.total < prev.induced.total
        assert step.origin <= y0 < step.origin + step.induced.total
        # each stage is an honest induction of its parent stage
        assert is_admissible(step.parent, step.J.a, step.J.b).admissible
        check_step_invariants(step.parent, step)


def test_shrink_sqrt2_state_periodicity(sqrt2_iet):
    # normalized (sigma, alpha/|J|) repeats: stage 3 reproduces stage 0
    chain = shrink_sequence(sqrt2_iet, quad(Fraction(1, 10)), 12)
    states = []
    for step in chain:
        total = step.induced.total
        states.append((step.induced.sigma.images,
                       tuple(a / total for a in step.induced.alpha)))
    assert states[3] == states[0]
    assert states[6] == states[0]


def test_shrink_degenerate_without_side(sqrt2_iet):
    with pytest.raises(DegenerateAt):
        shrink_sequence(sqrt2_iet, sqrt2_iet.beta[1], 3)
    left = shrink_sequence(sqrt2_iet, sqrt2_iet.beta[1], 3, side="left")
    right = shrink_sequence(sqrt2_iet, sqrt2_iet.beta[1], 3, side="right")
    assert len(left) == len(right) == 3
    assert left[-1].origin != right[-1].origin


@pytest.mark.parametrize("side", ["up", "", "LEFT"])
def test_shrink_rejects_an_unknown_side(sqrt2_iet, side):
    with pytest.raises(ValueError, match="^side must be 'left', 'right' or None, not "):
        shrink_sequence(sqrt2_iet, sqrt2_iet.beta[1], 3, side=side)


def test_return_time_budget():
    from helpers import sqrt2_example

    T = sqrt2_example()
    with pytest.raises(ReturnTimeExceeded):
        induce(T, basic_interval(T, 1), max_steps=1)


BUDGET_CALLS = {
    "induce": lambda T, k: induce(T, basic_interval(T, 1), k),
    "first_return_blocks": lambda T, k: first_return_blocks(T, T.beta[1], T.total, k),
    "shrink_sequence": lambda T, k: shrink_sequence(T, quad(Fraction(1, 10)), 3, k),
    "towers": lambda T, k: towers(T, basic_interval(T, 1), k),
    "bratteli": lambda T, k: bratteli(shrink_sequence(T, quad(Fraction(1, 10)), 3), k),
    "strip_decomposition": lambda T, k: strip_decomposition(T, 2, k),
}


@pytest.mark.parametrize("max_steps", [0, -1, -2])
@pytest.mark.parametrize("name", sorted(BUDGET_CALLS))
def test_step_budgets_below_one_are_rejected(name, max_steps):
    with pytest.raises(ValueError, match="^max_steps must be positive$"):
        BUDGET_CALLS[name](sqrt2_example(), max_steps)


def test_induce_compares_few_times(monkeypatch):
    # the searches walk on integers; only the endpoint checks, the sorts and the
    # induced map's own construction compare QuadReals (about 1,400 calls; 64,767
    # when the walks compared QuadReals)
    maps = [T for name, T in outcome_maps().items() if name.startswith("random-")]
    calls = count_compares(monkeypatch)
    for T in maps:
        for i in range(T.n):
            induce(T, basic_interval(T, i))
    assert calls[0] <= 2_000


def test_induce_sums_in_integers_and_encodes_each_map_once(monkeypatch):
    # alpha = A alpha' and Kac are integer combinations of alpha''s coefficients (1,940
    # QuadReal products and 4,082 additions and subtractions when they were QuadReal sums),
    # and each map and its inverse are put on their lattices once, not once per walk (631 times)
    maps = [T for name, T in outcome_maps().items() if name.startswith("random-")]
    calls = {"product": 0, "sum": 0, "encoding": 0}

    def counted(op, key):
        def call(*args):
            calls[key] += 1
            return op(*args)
        return call

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(QuadReal, name, counted(getattr(QuadReal, name), "product"))
    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(QuadReal, name, counted(getattr(QuadReal, name), "sum"))
    encoding = cached_property(counted(Iet.__dict__["_forward_lattice"].func, "encoding"))
    encoding.__set_name__(Iet, "_forward_lattice")
    monkeypatch.setattr(Iet, "_forward_lattice", encoding)
    for T in maps:
        calls["encoding"] = 0
        for i in range(T.n):
            induce(T, basic_interval(T, i))
        assert calls["encoding"] <= 2
    assert calls["product"] == 0
    assert calls["sum"] <= 2_200


def corrupted_steps(step, landings):
    """(what, step, landings): the step as induced, then copies with one value changed.

    The changes are a unit of A moved within its column, a return time alone
    or with an entry of its column, a length of alpha', a landing, and the
    parent's total.
    """
    yield "intact", step, landings
    n, induced = step.parent.n, step.induced
    for j in range(n):
        for i in range(n):
            if step.A[i][j]:
                moved = [list(row) for row in step.A]
                moved[i][j] -= 1
                moved[(i + 1) % n][j] += 1
                yield f"moved A[{i}][{j}]", dataclasses.replace(step, A=freeze(moved)), landings
        times = list(step.return_times)
        times[j] += 1
        yield f"return time {j}", dataclasses.replace(step, return_times=tuple(times)), landings
        grown = [list(row) for row in step.A]
        grown[j][j] += 1
        yield (f"return time and A[{j}][{j}]",
               dataclasses.replace(step, A=freeze(grown), return_times=tuple(times)), landings)
        for change in (Fraction(1, 7), induced.alpha[(j + 1) % n] - induced.alpha[j]):
            alpha = list(induced.alpha)
            alpha[j] = alpha[j] + change
            yield (f"alpha' {j} + {change}",
                   dataclasses.replace(step, induced=dataclasses.replace(induced, alpha=tuple(alpha))),
                   landings)
        shifted = list(landings)
        shifted[j] = shifted[j] + Fraction(1, 1009)
        yield f"landing {j}", step, shifted
    T = step.parent
    total = dataclasses.replace(T, beta=(*T.beta[:-1], T.total + Fraction(1, 7)))
    yield "total", dataclasses.replace(step, parent=total), landings


def test_step_checks_match_quad_sums():
    # the integer sums must reject exactly what the QuadReal sums rejected, with the same message
    rng = random.Random(16)
    maps = [sqrt2_example(), golden_example(), four_example()]
    maps += [random_quad_iet(rng, rng.randint(3, 5)) for _ in range(6)]
    seen = set()
    for T in maps:
        for J in [whole_interval(T)] + [basic_interval(T, i) for i in range(T.n)]:
            step = induce(T, J)
            landings = first_return_blocks(T, J.left, J.right)[2]
            for what, corrupted, moved in corrupted_steps(step, landings):
                got = outcome_text(lambda: _verify_step(corrupted, moved))
                assert got == outcome_text(lambda: verify_step_by_quad_sums(corrupted, moved)), what
                seen.add(got.split(" has det")[0])
    assert seen == {"None", "ConsistencyViolation: column sums disagree with return times",
                    "ConsistencyViolation: transition matrix", "ConsistencyViolation: alpha != A alpha'",
                    "ConsistencyViolation: Kac identity fails",
                    "ConsistencyViolation: return landings do not tile J"}


def test_rauzy_veech_step_matches_induce():
    # the oracle never walks an orbit, so it checks induce's walks independently
    rng = random.Random(5)
    for _ in range(60):
        T = random_quad_iet(rng, rng.randint(2, 5))
        sigma, alpha, A, right = rauzy_veech(T)
        step = induce(T, AdmissibleInterval(orbit_point(T, 0, 0), right))
        assert (step.induced.sigma, step.induced.alpha, step.A) == (sigma, alpha, A)


def outcome_maps():
    """sqrt2, golden, the 4-interval map, two rational maps and 20 random maps over Q(sqrt 2).

    The random maps have 3-5 intervals.  The rational maps are periodic, so
    their division-point searches can fail on a periodic backward orbit.
    """
    rng = random.Random(5)
    maps = {"sqrt2": sqrt2_example(), "golden": golden_example(), "four": four_example(),
            "rational-2": iet_new(permutation(2, 1), [quad(Fraction(1, 3)), quad(Fraction(2, 3))]),
            "rational-4": iet_new(permutation(3, 1, 4, 2), [quad(Fraction(1, 4))] * 4)}
    for k in range(20):
        maps[f"random-{k}"] = random_quad_iet(rng, rng.randint(3, 5))
    return maps


def outcome_windows(T):
    """The whole interval, every basic interval, and [T^e(beta(i)), T^e(beta(i+1))) for e = -1, 1, 2.

    The right end of the last orbit-point window is beta(n) itself.  The
    orbit-point windows are built directly, so some are out of order or not
    admissible, and ``induce`` must reject them.
    """
    windows = {"whole": whole_interval(T)}
    windows.update((f"basic {i}", basic_interval(T, i)) for i in range(T.n))
    for e in (-1, 1, 2):
        for i in range(T.n):
            right = orbit_point(T, i + 1, e) if i + 1 < T.n else orbit_point(T, T.n, 0)
            windows[f"orbit {e} {i}"] = AdmissibleInterval(orbit_point(T, i, e), right)
    return windows


INDUCE_OUTCOMES = Path(__file__).parent / "data" / "induce_outcomes.json"
OUTCOME_BUDGETS = [*range(1, 41), 100, 10**6]
SHRINK_BUDGETS = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 100, 10**6]


def outcome_text(compute):
    try:
        return repr(compute())
    except IetlabError as error:
        return f"{type(error).__name__}: {error}"


def induce_outcomes():
    """sha256 of the outcomes of induce, shrink_sequence and empirical_measure, per map and input.

    Each entry hashes one line per budget, "budget: text", where text is
    the repr of the result or "Class: message".  ``induce`` runs on every
    window of ``outcome_windows`` at every budget of ``OUTCOME_BUDGETS``;
    ``shrink_sequence`` runs at depth 6 from 0, |T|/3 and beta(1) at every
    budget of ``SHRINK_BUDGETS``; ``empirical_measure`` runs from points whose
    denominators are not those of the map, from a point out of the domain
    and from a point over another radicand.  The stored table was written
    from a commit whose outcomes were trusted, by running this one line
    from the repository root:

        PYTHONPATH=src:tests python -c "import json, test_induction as t; print(json.dumps(t.induce_outcomes(), indent=1))" > tests/data/induce_outcomes.json
    """
    table = {}

    def record(key, outcome):
        lines = "\n".join(f"{label}: {outcome_text(compute)}" for label, compute in outcome)
        table[key] = hashlib.sha256(lines.encode()).hexdigest()

    for name, T in outcome_maps().items():
        for label, J in outcome_windows(T).items():
            record(f"{name} induce {label}",
                   ((budget, lambda: induce(T, J, budget)) for budget in OUTCOME_BUDGETS))
        for label, y0 in (("0", quad(0)), ("third", T.total / 3), ("beta1", T.beta[1])):
            record(f"{name} shrink {label}",
                   ((budget, lambda: shrink_sequence(T, y0, 6, budget)) for budget in SHRINK_BUDGETS))
        points = [T.total * Fraction(1, 7), T.total * Fraction(5, 1009), quad(Fraction(1, 13)) * T.alpha[0],
                  T.total + Fraction(1, 7), radical(3) / 11]
        windows = [(0, 1), (0, 60), (7, 33)]
        record(f"{name} measure", ((f"{x} {m} {k}", lambda: empirical_measure(T, x, m, k))
                                   for x in points for m, k in windows))
    return table


def test_induce_outcomes_match_the_stored_table():
    stored = json.loads(INDUCE_OUTCOMES.read_text(encoding="utf-8"))
    assert len(stored) == sum(4 * T.n + 5 for T in outcome_maps().values())
    assert induce_outcomes() == stored


@pytest.mark.parametrize("call, error, message", [
    (lambda T: is_admissible(T, OrbitPoint(0, 0, quad(-1)), OrbitPoint(1, 0, T.beta[1])),
     OutOfDomain, "interval endpoints outside the domain"),
    (lambda T: is_admissible(T, OrbitPoint(1, 0, T.beta[1]), OrbitPoint(2, 0, T.total + 1)),
     OutOfDomain, "interval endpoints outside the domain"),
    (lambda T: shrink_sequence(T, quad(0), 0), ValueError, "depth must be >= 1"),
], ids=["admissible-left-below-0", "admissible-right-above-total", "shrink-depth-zero"])
def test_input_checks(sqrt2_iet, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(sqrt2_iet)
