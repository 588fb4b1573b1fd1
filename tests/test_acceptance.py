"""Acceptance suite: one test per release criterion.

Each test prints a single summary line (visible with ``pytest -s`` or
in the captured output of a failure) and enforces the stated
tolerances and runtime budget.
"""

import time

import numpy as np

import rmlab
from rmlab import (
    BraidWord,
    CycleType,
    box_sum,
    cabling_power,
    character,
    classify_dim2,
    directional_derivative_check,
    ergodicity_necessary_check,
    fixed_subalgebra,
    haar_unitary,
    index_bounds,
    is_ergodic,
    is_trivial,
    make_flip,
    make_normal_form,
    make_simple,
    make_trivial,
    normal_form_of_involutive,
    partial_trace_invariant,
    phi_image,
    random_conjugate,
    random_diagonal,
    random_family2,
    random_family3,
    random_family4,
    random_normal_form_spec,
    random_simple_spec,
    random_unimodular,
    reduce_involutive,
    relative_commutant_L,
    relative_commutant_M,
    relative_commutant_N,
    search_unitary_solution,
    thoma_character,
    triviality_by_concentration,
    uf_solution,
    verify,
)
from rmlab.analysis import CONCENTRATION_THRESHOLD
from rmlab.errors import VerificationError


def report(number: int, ok: bool, budget: float, elapsed: float,
           detail: str) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"criterion {number}: {status} ({detail}; "
        f"{elapsed:.1f}s of {budget:.0f}s budget)"
    )
    assert ok, detail
    assert elapsed < budget, f"criterion {number} overran: {elapsed:.1f}s"


def inclusion_residual(inner, outer) -> float:
    cols = outer.columns
    proj = cols @ cols.conj().T
    worst = 0.0
    for el in inner.basis:
        v = el.matrix.reshape(-1).astype(complex)
        v /= np.linalg.norm(v)
        worst = max(worst, float(np.linalg.norm(proj @ v - v)))
    return worst


def test_criterion_1_constructor_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    built = []
    for d in (2, 3, 4):
        built.append(make_flip(d))
        built.append(make_trivial(d, random_unimodular(rng)))
    for _ in range(100):
        d = int(rng.integers(2, 5))
        built.append(make_simple(random_simple_spec(d, rng)))
        built.append(random_diagonal(int(rng.integers(2, 5)), rng))
    for _ in range(100):
        d = int(rng.integers(1, 7))
        built.append(make_normal_form(random_normal_form_spec(d, rng)))
    for _ in range(50):
        built.append(random_family2(rng)[0])
        built.append(random_family3(rng)[0])
        built.append(random_family4(rng)[0])
    for name in rmlab.builtin_names():
        built.append(rmlab.builtin(name))
    worst = max(
        max(r.ybe_residual, r.unitarity_residual) for r in built
    )
    report(
        1, worst <= 1e-12, 30.0, time.perf_counter() - t0,
        f"{len(built)} constructions, worst residual {worst:.2e}",
    )


def test_criterion_2_partial_trace_invariant():
    t0 = time.perf_counter()
    worst_lr = worst_normal = worst_cycle = 0.0
    for name in rmlab.builtin_names():
        r = rmlab.builtin(name)
        data = partial_trace_invariant(r, tol=1e-11)
        worst_lr = max(worst_lr, data.left_right_residual)
        worst_normal = max(worst_normal, data.normality_defect)
        phi = phi_image(r)
        for n in range(1, 7):
            word = BraidWord.from_ints(list(range(1, n + 1)))
            lhs = complex(character(r, word))
            rhs = complex(
                np.trace(np.linalg.matrix_power(phi, n))
            ) / r.d
            worst_cycle = max(worst_cycle, abs(lhs - rhs))
    ok = worst_lr <= 1e-11 and worst_normal <= 1e-11 and worst_cycle <= 1e-10
    report(
        2, ok, 60.0, time.perf_counter() - t0,
        f"left=right {worst_lr:.2e}, normality {worst_normal:.2e}, "
        f"cycle identity {worst_cycle:.2e}",
    )


def test_criterion_3_family_table():
    t0 = time.perf_counter()
    rng = np.random.default_rng(901)
    structure_ok = True
    hits = {1: 0, 2: 0, 3: 0, 4: 0}

    for _ in range(50):
        r = random_conjugate(make_trivial(2, random_unimodular(rng)), rng)
        structure_ok &= is_trivial(r)
        structure_ok &= relative_commutant_M(r, 1).block_profile == (1,)
        c = classify_dim2(r)
        hits[1] += c.family == 1 and c.residual <= 1e-8

    for k in range(50):
        sym = k % 2 == 0
        r = random_conjugate(random_family2(rng, symmetric=sym)[0], rng)
        expected = (2,) if sym else (1, 1)
        structure_ok &= relative_commutant_M(r, 1).block_profile == expected
        structure_ok &= is_ergodic(r).ergodic
        c = classify_dim2(r)
        hits[2] += c.family == 2 and c.residual <= 1e-8

    for k in range(50):
        special = k % 2 == 0
        r = random_conjugate(random_family3(rng, special=special)[0], rng)
        expected = (1, 1) if special else (1,)
        structure_ok &= relative_commutant_M(r, 1).block_profile == expected
        structure_ok &= is_ergodic(r).ergodic
        c = classify_dim2(r)
        hits[3] += c.family == 3 and c.residual <= 1e-8

    for _ in range(50):
        r = random_conjugate(random_family4(rng)[0], rng)
        structure_ok &= relative_commutant_M(r, 1).block_profile == (1,)
        structure_ok &= not is_ergodic(r).ergodic
        dims = tuple(
            fixed_subalgebra(r, n).dimension for n in (1, 2, 3, 4)
        )
        structure_ok &= dims == (2, 4, 8, 16)
        c = classify_dim2(r)
        hits[4] += c.family == 4 and c.residual <= 1e-8

    total = sum(hits.values())
    ok = (
        structure_ok
        and total >= 190            # >= 95% of 200
        and hits[1] == 50
        and hits[4] == 50
    )
    report(
        3, ok, 300.0, time.perf_counter() - t0,
        f"structure {'ok' if structure_ok else 'BROKEN'}, classified "
        f"{total}/200 (families {hits[1]}/{hits[2]}/{hits[3]}/{hits[4]})",
    )


def test_criterion_4_normal_form_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    draws = []
    round_trips = reductions = 0
    for _ in range(100):
        d = int(rng.integers(1, 7))
        spec = random_normal_form_spec(d, rng)
        r = random_conjugate(make_normal_form(spec), rng)
        draws.append((spec, r))
        round_trips += normal_form_of_involutive(r).blocks == spec.blocks
        reductions += reduce_involutive(r).blocks == spec.blocks

    # permutation traces against the block formula, on 4 strands
    cycle_words = {
        (): (),
        ((2, 1),): (1,),
        ((2, 2),): (1, 3),
        ((3, 1),): (1, 2),
        ((4, 1),): (1, 2, 3),
    }
    worst = 0.0
    for spec, r in draws[:20]:
        for items, letters in cycle_words.items():
            predicted = thoma_character(spec, CycleType(items))
            if letters:
                direct = character(r, BraidWord.from_ints(list(letters)))
            else:
                direct = 1.0
            worst = max(worst, abs(predicted - complex(direct).real))
    ok = round_trips == 100 and reductions == 100 and worst <= 1e-9
    report(
        4, ok, 120.0, time.perf_counter() - t0,
        f"{round_trips}/100 round trips, {reductions}/100 reductions, "
        f"trace deviation {worst:.2e}",
    )


def test_criterion_5_operation_identities():
    t0 = time.perf_counter()
    one = make_trivial(1, 1.0)
    pieces = [
        np.abs(box_sum(one, one).matrix - make_flip(2).matrix).max(),
        np.abs(
            box_sum(make_flip(2), make_flip(3)).matrix
            - make_flip(5).matrix
        ).max(),
        np.abs(
            rmlab.tensor_product(make_flip(2), make_flip(3)).matrix
            - make_flip(6).matrix
        ).max(),
        np.abs(
            cabling_power(make_flip(2), 2).matrix - make_flip(4).matrix
        ).max(),
    ]
    exact_ok = max(pieces) <= 1e-13

    worst_phi = 0.0
    worst_incl = 0.0
    pairs = (
        ("r2", "flip2"), ("r3special", "trivial2"),
        ("flip2", "flip3"), ("uf", "r4"), ("trivial2", "diag3"),
    )
    for left_name, right_name in pairs:
        s = rmlab.builtin(left_name)
        t = rmlab.builtin(right_name)
        new = box_sum(s, t)
        d, e = s.d, t.d
        want = np.zeros((d + e, d + e), dtype=complex)
        want[:d, :d] = d / (d + e) * phi_image(s)
        want[d:, d:] = e / (d + e) * phi_image(t)
        worst_phi = max(
            worst_phi, float(np.abs(phi_image(new) - want).max())
        )

        m_new = relative_commutant_M(new, 1)
        cols = m_new.columns
        proj = cols @ cols.conj().T
        for side, offset in ((s, 0), (t, d)):
            for el in relative_commutant_M(side, 1).basis:
                big = np.zeros((d + e, d + e), dtype=complex)
                n = el.matrix.shape[0]
                big[offset:offset + n, offset:offset + n] = el.matrix
                v = big.reshape(-1)
                v = v / np.linalg.norm(v)
                worst_incl = max(
                    worst_incl, float(np.linalg.norm(proj @ v - v))
                )
    ok = exact_ok and worst_phi <= 1e-9 and worst_incl <= 1e-9
    report(
        5, ok, 60.0, time.perf_counter() - t0,
        f"identities {max(pieces):.2e}, partial-trace blocks "
        f"{worst_phi:.2e}, block-sum commutant inclusion {worst_incl:.2e}",
    )


def test_criterion_6_ergodicity_coherence():
    t0 = time.perf_counter()
    names = rmlab.builtin_names()
    flags = {}
    value_ok = True
    for name in names:
        r = rmlab.builtin(name)
        flags[name] = is_ergodic(r).ergodic
        value_ok &= (ergodicity_necessary_check(r) <= 1e-10) == flags[name]

    conjunction_ok = True
    for a in names:
        for b in names:
            both = box_sum(rmlab.builtin(a), rmlab.builtin(b))
            conjunction_ok &= (
                is_ergodic(both).ergodic == (flags[a] and flags[b])
            )

    cabling_ok = True
    for name in names:
        r = rmlab.builtin(name)
        cabling_ok &= is_ergodic(cabling_power(r, 2)).ergodic == flags[name]

    dichotomy_ok = True
    for name in names:
        r = rmlab.builtin(name)
        if r.d in (2, 3):
            m_big = relative_commutant_M(r, 1).dimension > 1
            f_big = fixed_subalgebra(r, 1).dimension > 1
            dichotomy_ok &= not (m_big and f_big)

    ok = value_ok and conjunction_ok and cabling_ok and dichotomy_ok
    report(
        6, ok, 60.0, time.perf_counter() - t0,
        f"value test {value_ok}, block-sum law {conjunction_ok}, "
        f"cabling {cabling_ok}, prime-dimension dichotomy {dichotomy_ok}",
    )


def test_criterion_7_commutant_towers():
    t0 = time.perf_counter()
    worst_tower = 0.0
    for name in rmlab.builtin_names():
        r = rmlab.builtin(name)
        low = relative_commutant_L(r, 1)
        mid = relative_commutant_M(r, 1)
        top = relative_commutant_N(r, 1)
        worst_tower = max(
            worst_tower,
            inclusion_residual(low, mid),
            inclusion_residual(mid, top),
        )

    rng = np.random.default_rng(733)
    profile_misses = 0
    for _ in range(50):
        d = int(rng.integers(2, 5))
        spec = random_simple_spec(d, rng, unit_offdiag=True)
        n_blocks = len(spec.phases)
        m = sum(
            1
            for i in range(n_blocks)
            if abs(np.trace(spec.projections[i]).real - 1.0) <= 1e-9
            and abs(spec.phases[i, i] - 1.0) <= 1e-12
        )
        expected = tuple(sorted([1] * (n_blocks - m) + ([m] if m else [])))
        got = relative_commutant_M(make_simple(spec), 1).block_profile
        profile_misses += got != expected

    remark_ok = True
    for k in range(5):
        theta = 0.4 + 0.9 * k
        u = np.diag([1.0, np.exp(1j * theta)])
        r = uf_solution(u)
        full = relative_commutant_N(r, 1)
        fixed_part = relative_commutant_M(r, 1)
        remark_ok &= full.block_profile == (2,)
        remark_ok &= fixed_part.dimension < full.dimension

    ok = worst_tower <= 1e-9 and profile_misses == 0 and remark_ok
    report(
        7, ok, 120.0, time.perf_counter() - t0,
        f"tower residual {worst_tower:.2e}, simple-spec profile misses "
        f"{profile_misses}/50, twisted-flip remark {remark_ok}",
    )


def test_criterion_8_index_bounds():
    t0 = time.perf_counter()
    order_ok = True
    for name in rmlab.builtin_names():
        r = rmlab.builtin(name)
        b = index_bounds(r)
        order_ok &= 1.0 - 1e-12 <= b.lower <= b.upper <= r.d ** 2 + 1e-12

    known_exact = {
        "diag3": 9.0, "r2": 4.0, "r2sym": 4.0, "r4": 2.0, "trivial2": 1.0,
    }
    containment_ok = True
    for name, value in known_exact.items():
        b = index_bounds(rmlab.builtin(name))
        containment_ok &= b.lower - 1e-9 <= value <= b.upper + 1e-9

    annotation_ok = True
    for name, value in (("r2", 4.0), ("r4", 2.0)):
        exact = rmlab.analyze(rmlab.builtin(name)).exact_index
        annotation_ok &= exact is not None and exact[0] == value

    margin_ok = True
    worst_margin = np.inf
    for name in rmlab.builtin_names():
        r = rmlab.builtin(name)
        if is_trivial(r):
            continue
        margin = triviality_by_concentration(r).margin
        worst_margin = min(worst_margin, margin)
        margin_ok &= margin >= CONCENTRATION_THRESHOLD

    ok = order_ok and containment_ok and annotation_ok and margin_ok
    report(
        8, ok, 30.0, time.perf_counter() - t0,
        f"ordering {order_ok}, exact values inside bounds "
        f"{containment_ok}, annotations {annotation_ok}, smallest "
        f"nontrivial margin {worst_margin:.3f}",
    )


def test_criterion_9_search():
    t0 = time.perf_counter()
    rng = np.random.default_rng(64)
    converged = 0
    verified = 0
    labeled = 0
    for seed in range(64):
        run = search_unitary_solution(2, seed=seed)
        if not (run.converged and run.objective < 1e-8):
            continue
        converged += 1
        try:  # a converged run above the 1e-10 gate counts as unverified
            r = verify(run.matrix, 2)
        except VerificationError:
            continue
        verified += 1
        labeled += classify_dim2(r).family is not None

    worst_grad = 0.0
    for _ in range(3):
        u = haar_unitary(4, rng)
        worst_grad = max(
            worst_grad, directional_derivative_check(u, 2, rng)
        )

    ok = (
        converged >= 58           # >= 90% of 64
        and verified == converged
        and labeled == converged
        and worst_grad <= 1e-6
    )
    report(
        9, ok, 120.0, time.perf_counter() - t0,
        f"{converged}/64 restarts converged, {verified} verified, "
        f"{labeled} labeled, gradient check {worst_grad:.2e}",
    )
