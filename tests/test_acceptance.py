"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import numpy as np

import cavity_oracle as co
from qobs import (
    HamiltonianCoupling,
    QobsError,
    canonical_theta,
    commutation_residual,
    default_frequency_grid,
    design_algorithm1,
    design_algorithm2,
    design_algorithm3,
    design_classical,
    error_system,
    evaluate_performance,
    integrate_covariance,
    make_cavity_plant,
    min_vacuum_rank,
    realize_from_hamiltonian,
    skew_riccati_transform,
    solve_lyapunov,
    transfer_function_gap,
)
from qobs.realizability import augment_noise


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_criterion_1_zero_gain_limit():
    plant = make_cavity_plant(0.1, 0.1, 0.0)
    gains = {}
    gains["alg1"] = design_algorithm1(plant).design.K
    obs2, _, _ = design_algorithm2(plant)
    gains["alg2"] = obs2.design.K
    obs3, _ = design_algorithm3(plant)
    gains["alg3"] = obs3.design.K
    gains["classical"] = design_classical(plant).K
    worst = max(np.linalg.norm(K) for K in gains.values())
    _report(
        1,
        "zero-gain limit: all four designers return K = 0 at k_n = 0",
        worst <= 1e-10,
        f"worst gain norm {worst:.3e}",
    )


def _integer_boundary(k1: float, k2: float, window: range) -> tuple[int, int]:
    """Last transformable integer and first non-transformable one in a window."""
    flags = {}
    for kn in window:
        _, reason = design_algorithm3(make_cavity_plant(k1, k2, float(kn)))
        flags[kn] = reason is None
    last_ok = max(k for k, ok in flags.items() if ok)
    first_bad = min(k for k, ok in flags.items() if not ok)
    # single monotone crossing inside the window
    assert first_bad == last_ok + 1, f"non-monotone transition: {flags}"
    return last_ok, first_bad


def test_criterion_2_transformation_existence_discontinuities():
    # the last transformable integer must land in the reported window, with
    # one integer step of slack on either side
    ok2_last, ok2_first = _integer_boundary(0.5, 0.01, range(66, 74))
    ok3_last, ok3_first = _integer_boundary(0.8, 0.01, range(906, 914))
    in_window_2 = 68 <= ok2_last <= 71 and ok2_first == ok2_last + 1
    in_window_3 = 908 <= ok3_last <= 911 and ok3_first == ok3_last + 1
    _report(
        2,
        "transformation existence boundaries at {69,70} and {909,910} (+/-1)",
        bool(in_window_2 and in_window_3),
        f"scenario 2: {ok2_last}/{ok2_first}; scenario 3: {ok3_last}/{ok3_first}",
    )


def test_criterion_3_ordering_claims_on_default_grids(default_sweeps):
    violations = []
    for name in ("s1", "s2", "s3"):
        for row in default_sweeps[name]:
            assert not row.errors, (name, row.k_n, row.errors)
            for alg, trace in (
                ("alg1", row.alg1_trace),
                ("alg2", row.alg2_trace),
                ("alg3", row.alg3_trace),
            ):
                if row.classical_trace > trace:
                    violations.append(
                        (name, row.k_n, f"classical {row.classical_trace:.6f} > {alg} {trace:.6f}")
                    )
            if row.alg2_trace > row.alg1_trace + 1e-12:
                violations.append((name, row.k_n, "alg2 exceeds alg1"))
    detail = f"{len(violations)} violations"
    if violations:
        first = violations[0]
        detail += (
            f"; first at {first[0]} k_n={first[1]:.4f}: {first[2]}."
            " The heterodyne baseline is not uniformly better: it pays its"
            " added vacuum noise through the (growing) filter gain, while the"
            " coherent designs pay a flat carrier unit plus the defect term,"
            " so above k_n ~ 1e2 they overtake it by up to ~1.5%."
        )
    _report(
        3,
        "ordering on default grids: classical <= each coherent, alg2 <= alg1",
        not violations,
        detail,
    )


def test_criterion_4_derived_point_values():
    plant0 = make_cavity_plant(0.1, 0.1, 0.0)
    j1 = evaluate_performance(plant0, design_algorithm1(plant0)).J_bar
    jc = evaluate_performance(plant0, design_classical(plant0)).J_bar
    ok_a = np.max(np.abs(j1 - 10.0 * np.eye(2))) <= 1e-9
    ok_b = np.max(np.abs(jc - np.eye(2))) <= 1e-9
    kd = design_algorithm1(make_cavity_plant(0.1, 0.1, 10.0)).design
    # scalar oracle: q = sqrt(21), K = sqrt(0.1)(q - 1) = 1.132909908602106
    ok_c = np.max(np.abs(kd.Q - np.sqrt(21.0) * np.eye(2))) <= 1e-6 * np.sqrt(21.0)
    ok_d = np.max(np.abs(kd.K - 1.132909908602106 * np.eye(2))) <= 1e-6 * 1.132909908602106
    _report(
        4,
        "frozen point values: J1 = 10 I, Jcl = I at kn 0; Q = sqrt(21) I, K at kn 10",
        bool(ok_a and ok_b and ok_c and ok_d),
    )


def test_criterion_5_realizability_property_suite():
    rng = np.random.default_rng(20260810)
    checked = transformed = 0
    worst_aug = worst_zero = worst_gap = 0.0
    for _ in range(100):
        n_x = int(rng.choice([2, 4]))
        n_y = int(rng.choice([2, n_x]))
        M = rng.normal(size=(n_x, n_x))
        A_hat = M - (np.max(np.linalg.eigvals(M).real) + rng.uniform(0.1, 1.0)) * np.eye(n_x)
        B_hat = rng.normal(size=(n_x, n_y))
        C_hat = np.eye(n_x)
        theta = canonical_theta(n_x // 2)
        aug = augment_noise(A_hat, B_hat, C_hat, theta)
        blocks = [
            canonical_theta(n_y // 2),
            theta,
            canonical_theta(aug.n_v2 // 2) if aug.n_v2 else np.zeros((0, 0)),
        ]
        res = commutation_residual(A_hat, [B_hat, aug.B_v1, aug.B_v2], theta, blocks)
        worst_aug = max(worst_aug, float(np.max(np.abs(res))))
        assert aug.n_v2 == min_vacuum_rank(A_hat, B_hat, C_hat, theta) == aug.B_v2.shape[1]
        assert aug.n_v2 % 2 == 0
        checked += 1
        try:
            tf = skew_riccati_transform(A_hat, B_hat, C_hat, theta)
        except QobsError:
            continue
        transformed += 1
        res0 = commutation_residual(
            tf.A_tilde,
            [tf.B_tilde, tf.B_v1_tilde],
            theta,
            [canonical_theta(n_y // 2), theta],
        )
        worst_zero = max(worst_zero, float(np.max(np.abs(res0))))
        gap = transfer_function_gap(
            (A_hat, B_hat, C_hat),
            (tf.A_tilde, tf.B_tilde, tf.C_tilde),
            default_frequency_grid(),
        )
        worst_gap = max(worst_gap, gap)
    ok = (
        checked == 100
        and transformed >= 20
        and worst_aug <= 1e-8
        and worst_zero <= 1e-8
        and worst_gap <= 1e-8
    )
    _report(
        5,
        "realizability properties over 100 random filters",
        ok,
        f"{transformed} transformable; residuals {worst_aug:.1e}/{worst_zero:.1e}, gap {worst_gap:.1e}",
    )


def test_criterion_6_solver_cross_validation():
    points = [(co.S1, 0.0), (co.S1, 10.0), (co.S2, 69.0), (co.S2, 70.0), (co.S3, 909.0), (co.S3, 910.0)]
    worst_gap = 0.0
    worst_riccati = 0.0
    small_rhos = (0.0, 0.1, 1.0, 10.0)
    for (k1, k2), kn in points:
        plant = make_cavity_plant(k1, k2, kn)
        observers = [design_algorithm1(plant), design_classical(plant)]
        observers.append(design_algorithm2(plant, rho_candidates=small_rhos)[0])
        observers.append(design_algorithm3(plant)[0])
        for obs in observers:
            worst_riccati = max(
                worst_riccati,
                obs.design.residual_norm / (1.0 + np.linalg.norm(obs.design.Q)),
            )
            A_e, B_e, S = error_system(plant, obs)
            N = B_e @ S @ B_e.T
            P = solve_lyapunov(A_e, N)
            horizon = 50.0 / abs(np.max(np.linalg.eigvals(A_e).real))
            P_int = integrate_covariance(A_e, N, np.zeros_like(P), horizon)
            worst_gap = max(worst_gap, float(np.max(np.abs(P - P_int))))
    _report(
        6,
        "Lyapunov solve vs covariance integration within 1e-6; Riccati residuals <= 1e-8",
        worst_gap <= 1e-6 and worst_riccati <= 1e-8,
        f"worst integration gap {worst_gap:.2e}, worst Riccati residual {worst_riccati:.2e}",
    )


def test_criterion_7_forward_construction_round_trip():
    k1, k2 = 0.5, 0.01
    lam = np.array(
        [
            [np.sqrt(k1) / 2.0, 1j * np.sqrt(k1) / 2.0],
            [np.sqrt(k2) / 2.0, 1j * np.sqrt(k2) / 2.0],
        ]
    )
    built = realize_from_hamiltonian(HamiltonianCoupling(np.zeros((2, 2)), lam, n_y=2))
    ref = make_cavity_plant(k1, k2, 0.0)
    coeff_gap = max(
        float(np.max(np.abs(built.A - ref.A))),
        float(np.max(np.abs(built.B - ref.B))),
        float(np.max(np.abs(built.C - ref.C))),
        float(np.max(np.abs(built.D - ref.D))),
    )
    rng = np.random.default_rng(7)
    worst_ratio = 0.0
    for _ in range(100):
        n_x = int(rng.choice([2, 4, 6]))
        n_w = 2 * int(rng.integers(1, 4))
        n_y = 2 * int(rng.integers(1, n_w // 2 + 1))
        G = rng.normal(size=(n_x, n_x))
        lam = rng.normal(size=(n_w // 2, n_x)) + 1j * rng.normal(size=(n_w // 2, n_x))
        s = realize_from_hamiltonian(HamiltonianCoupling((G + G.T) / 2.0, lam, n_y))
        res = float(np.linalg.norm(s.residual()))
        worst_ratio = max(worst_ratio, res / (1e-10 * (1.0 + np.linalg.norm(s.A))))
    _report(
        7,
        "forward construction reproduces the cavity and preserves commutation",
        coeff_gap <= 1e-12 and worst_ratio <= 1.0,
        f"cavity coefficient gap {coeff_gap:.1e}; worst residual at {worst_ratio:.2e} of bound",
    )
