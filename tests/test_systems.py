"""Core model tests: commutation structure, Ito matrices, forward construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import cavity_oracle as co
from qobs import (
    DomainError,
    HamiltonianCoupling,
    NoiseChannel,
    NoiseKind,
    QuantumLinearSystem,
    canonical_theta,
    commutation_residual,
    field_gain,
    ito_structure,
    make_cavity_plant,
    quadrature_readout,
    realize_from_hamiltonian,
    system_from_dict,
    system_to_dict,
)

J = np.array([[0.0, 1.0], [-1.0, 0.0]])
NON_FINITE = [float("nan"), float("inf")]


class TestCanonicalTheta:
    def test_single_mode(self):
        assert np.array_equal(canonical_theta(1), J)

    def test_two_modes_block_diagonal(self):
        theta = canonical_theta(2)
        expected = np.zeros((4, 4))
        expected[:2, :2] = J
        expected[2:, 2:] = J
        assert np.array_equal(theta, expected)

    @given(st.integers(min_value=1, max_value=8))
    def test_squares_to_minus_identity_exactly(self, n):
        theta = canonical_theta(n)
        assert np.array_equal(theta @ theta, -np.eye(2 * n))
        assert np.array_equal(theta.T, -theta)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            canonical_theta(0)

    def test_rejects_odd_field_dimension(self):
        with pytest.raises(DomainError, match="field dimension must be even, got 3"):
            canonical_theta(3 / 2)

    def test_built_once_and_read_only(self):
        theta = canonical_theta(2)
        assert canonical_theta(2) is theta
        assert not theta.flags.writeable


def test_plant_builds_its_ito_once():
    plant = make_cavity_plant(0.1, 0.1, 2.0)
    assert plant.ito is plant.ito


class TestItoStructure:
    def test_vacuum_block(self):
        ito = ito_structure([NoiseChannel.vacuum()])
        assert_allclose(ito.F, np.array([[1.0, 1j], [-1j, 1.0]]))

    def test_thermal_block(self):
        # dw dw^T expanded from db db* = (1+k)dt, db* db = k dt gives
        # diagonal 1+2k and off-diagonal +/- i independent of k
        ito = ito_structure([NoiseChannel.thermal(10.0)])
        assert_allclose(ito.S, 21.0 * np.eye(2))
        assert_allclose(ito.T, J)

    def test_mixed_channels_block_diagonal(self):
        k_n = 3.5
        ito = ito_structure([NoiseChannel.vacuum(), NoiseChannel.thermal(k_n)])
        assert_allclose(ito.F[:2, :2], np.array([[1.0, 1j], [-1j, 1.0]]))
        assert_allclose(ito.F[2:, 2:], np.array([[8.0, 1j], [-1j, 8.0]]))
        assert np.all(ito.F[:2, 2:] == 0) and np.all(ito.F[2:, :2] == 0)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=4))
    @settings(max_examples=50)
    def test_structure_invariants(self, kns):
        channels = [NoiseChannel.thermal(k) for k in kns]
        ito = ito_structure(channels)
        assert np.array_equal(ito.F, ito.S + 1j * ito.T)
        assert_allclose(ito.F, ito.F.conj().T)
        assert np.min(np.linalg.eigvalsh(ito.F)) >= -1e-12
        assert_allclose(ito.S, ito.S.T)
        assert_allclose(ito.T, -ito.T.T)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ito_structure([])


class TestNoiseChannel:
    def test_vacuum_forces_zero_occupation(self):
        with pytest.raises(DomainError):
            NoiseChannel(NoiseKind.VACUUM, 1.0)

    def test_zero_occupation_thermal_is_vacuum(self):
        assert NoiseChannel.thermal(0.0).kind is NoiseKind.VACUUM

    def test_negative_occupation_rejected(self):
        with pytest.raises(DomainError):
            NoiseChannel.thermal(-0.1)

    @pytest.mark.parametrize("k_n", NON_FINITE)
    def test_non_finite_occupation_rejected(self, k_n):
        with pytest.raises(DomainError, match="non-negative and finite"):
            NoiseChannel.thermal(k_n)


class TestFieldGain:
    def test_readout_rows_are_real_and_imaginary_parts(self):
        lam = np.array([[1.0 + 2.0j, 3.0 + 4.0j], [-1.0j, 0.5]])
        expected = [[2.0, 6.0], [4.0, 8.0], [0.0, 1.0], [-2.0, 0.0]]
        assert np.array_equal(quadrature_readout(lam), expected)

    def test_output_field_gain(self):
        assert np.array_equal(field_gain(J, np.eye(2)), -np.eye(2))

    def test_matches_the_complex_gain_formula(self):
        # the gain written as in the paper: 2i theta [-Lambda^H, Lambda^T] Gamma
        # with Gamma = P kron(I, M), M = [[1, i], [1, -i]] / 2, and P sending
        # (a1, a2, ..., a2m) to (a1, a3, ..., a2, a4, ...)
        rng = np.random.default_rng(2008)
        M = 0.5 * np.array([[1.0, 1j], [1.0, -1j]])
        for _ in range(100):
            n_x, m = 2 * int(rng.integers(1, 5)), int(rng.integers(1, 4))
            lam = rng.normal(size=(m, n_x)) + 1j * rng.normal(size=(m, n_x))
            P = np.zeros((2 * m, 2 * m))
            P[np.arange(m), 2 * np.arange(m)] = 1.0
            P[m + np.arange(m), 2 * np.arange(m) + 1] = 1.0
            theta = canonical_theta(n_x // 2)
            gain = 2j * theta @ np.hstack([-lam.conj().T, lam.T]) @ (P @ np.kron(np.eye(m), M))
            assert not gain.imag.any()
            assert np.array_equal(gain.real, field_gain(theta, quadrature_readout(lam)))


class TestRealizeFromHamiltonian:
    def test_single_channel_cavity(self):
        kappa = 0.3
        hc = HamiltonianCoupling(
            R=np.zeros((2, 2)),
            Lambda=(np.sqrt(kappa) / 2.0) * np.array([[1.0, 1j]]),
            n_y=2,
        )
        s = realize_from_hamiltonian(hc)
        assert_allclose(s.A, -(kappa / 2.0) * np.eye(2), atol=1e-14)
        assert_allclose(s.B, -np.sqrt(kappa) * np.eye(2), atol=1e-14)
        assert_allclose(s.C, np.sqrt(kappa) * np.eye(2), atol=1e-14)
        assert np.array_equal(s.D, np.eye(2))

    def test_zero_coupling(self):
        hc = HamiltonianCoupling(R=np.zeros((2, 2)), Lambda=np.zeros((1, 2)), n_y=2)
        s = realize_from_hamiltonian(hc)
        assert np.all(s.A == 0) and np.all(s.B == 0) and np.all(s.C == 0)

    def test_two_mirror_cavity_matches_direct_construction(self):
        k1, k2 = 0.5, 0.01
        lam = np.array(
            [
                [np.sqrt(k1) / 2.0, 1j * np.sqrt(k1) / 2.0],
                [np.sqrt(k2) / 2.0, 1j * np.sqrt(k2) / 2.0],
            ]
        )
        s = realize_from_hamiltonian(HamiltonianCoupling(np.zeros((2, 2)), lam, n_y=2))
        ref = make_cavity_plant(k1, k2, 0.0)
        for got, want in ((s.A, ref.A), (s.B, ref.B), (s.C, ref.C), (s.D, ref.D)):
            assert_allclose(got, want, atol=1e-12)

    def test_random_couplings_preserve_commutation(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            n_x = int(rng.choice([2, 4, 6]))
            n_w = 2 * int(rng.integers(1, 4))
            n_y = 2 * int(rng.integers(1, n_w // 2 + 1))
            G = rng.normal(size=(n_x, n_x))
            lam = rng.normal(size=(n_w // 2, n_x)) + 1j * rng.normal(size=(n_w // 2, n_x))
            hc = HamiltonianCoupling(R=(G + G.T) / 2.0, Lambda=lam, n_y=n_y)
            s = realize_from_hamiltonian(hc)
            res = np.linalg.norm(s.residual())
            assert res <= 1e-10 * (1.0 + np.linalg.norm(s.A))
            L = quadrature_readout(lam)
            assert np.array_equal(s.B, field_gain(canonical_theta(n_x // 2), L))
            assert np.array_equal(s.C, L[:n_y])
            assert np.array_equal(
                s.D, np.hstack([np.eye(n_y), np.zeros((n_y, n_w - n_y))])
            )

    def test_asymmetric_r_rejected(self):
        with pytest.raises(DomainError):
            HamiltonianCoupling(R=np.array([[0.0, 1.0], [0.0, 0.0]]), Lambda=np.zeros((1, 2)), n_y=2)

    def test_non_finite_r_refused(self):
        R = np.array([[np.nan, 0.0], [0.0, 1.0]])
        hc = HamiltonianCoupling(R=R, Lambda=np.array([[1.0, 1j]]), n_y=2)
        with pytest.raises(DomainError, match="A has non-finite entries"):
            realize_from_hamiltonian(hc)


@pytest.mark.parametrize("name", ["A", "B", "C", "D"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_system_refuses_non_finite_entries(name, value):
    matrices = {"A": -np.eye(2), "B": -np.eye(2), "C": np.eye(2), "D": np.eye(2)}
    matrices[name][0, 1] = value
    with pytest.raises(DomainError, match=f"{name} has non-finite entries"):
        QuantumLinearSystem(**matrices, channels=(NoiseChannel.vacuum(),))


class TestCommutationResidual:
    def test_cavity_plant_is_zero(self):
        plant = make_cavity_plant(0.37, 0.12, 4.2)
        assert np.max(np.abs(plant.residual())) < 1e-14

    def test_bare_kalman_filter_defect(self):
        # scenario 1, kn = 10 filter: residual is (2a + k^2) J by scalar algebra
        a = co.ahat(0.1, 0.1, 10.0)
        k = co.gain(0.1, 0.1, 10.0)
        res = commutation_residual(a * np.eye(2), [k * np.eye(2)], J, [J])
        assert_allclose(res, (2.0 * a + k * k) * J, atol=1e-12)

    def test_mismatched_lists_rejected(self):
        with pytest.raises(DomainError):
            commutation_residual(np.eye(2), [np.eye(2)], J, [])


class TestMakeCavityPlant:
    def test_scenario1_drift(self):
        assert_allclose(make_cavity_plant(0.1, 0.1, 0.0).A, -0.1 * np.eye(2))

    def test_scenario2_drift(self):
        assert_allclose(make_cavity_plant(0.5, 0.01, 7.0).A, -0.255 * np.eye(2))

    def test_channel_kinds(self):
        plant = make_cavity_plant(0.1, 0.1, 2.0)
        assert plant.channels[0].kind is NoiseKind.VACUUM
        assert plant.channels[1].kind is NoiseKind.THERMAL
        assert plant.channels[1].k_n == 2.0

    @given(
        st.floats(min_value=1e-3, max_value=10.0),
        st.floats(min_value=1e-3, max_value=10.0),
        st.floats(min_value=0.0, max_value=1e3),
    )
    @settings(max_examples=50)
    def test_always_physical(self, k1, k2, kn):
        plant = make_cavity_plant(k1, k2, kn)
        assert np.max(np.abs(plant.residual())) < 1e-12 * (1.0 + k1 + k2)

    @pytest.mark.parametrize("bad", [(0.0, 0.1), (0.1, -1.0)])
    def test_rejects_nonpositive_couplings(self, bad):
        with pytest.raises(DomainError):
            make_cavity_plant(bad[0], bad[1], 0.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejects_non_finite_couplings(self, value):
        with pytest.raises(DomainError, match="mirror couplings must be positive and finite"):
            make_cavity_plant(value, 0.1, 1.0)

    @pytest.mark.parametrize("k_n", NON_FINITE)
    def test_rejects_non_finite_occupation(self, k_n):
        with pytest.raises(DomainError, match="thermal occupation must be non-negative and finite"):
            make_cavity_plant(0.1, 0.1, k_n)


class TestSystemSerialization:
    def test_round_trip(self):
        plant = make_cavity_plant(0.5, 0.01, 69.0)
        again = system_from_dict(system_to_dict(plant))
        assert_allclose(again.A, plant.A)
        assert_allclose(again.B, plant.B)
        assert again.channels == plant.channels
        assert np.linalg.norm(again.residual()) <= 1e-8 * (1.0 + np.linalg.norm(again.A))

    def test_missing_key_reported(self):
        d = system_to_dict(make_cavity_plant(0.1, 0.1, 0.0))
        del d["C"]
        with pytest.raises(Exception, match="'C'"):
            system_from_dict(d)

    def test_file_round_trip(self, tmp_path):
        from qobs import load_system, save_system

        path = tmp_path / "plant.json"
        plant = make_cavity_plant(0.8, 0.01, 909.0)
        save_system(plant, path)
        again = load_system(path)
        assert_allclose(again.B, plant.B)
        assert again.channels[1].k_n == 909.0

    def test_unphysical_system_not_flagged(self):
        # residual = -J + 4J = 3J: too much input gain for this decay rate
        d = {
            "n_x": 2,
            "A": [[-0.5, 0.0], [0.0, -0.5]],
            "B": [[2.0, 0.0], [0.0, 2.0]],
            "C": [[1.0, 0.0], [0.0, 1.0]],
            "D": [[0.0, 0.0], [0.0, 0.0]],
            "channels": [{"kind": "vacuum"}],
        }
        sys_ = system_from_dict(d)
        assert_allclose(sys_.residual(), 3.0 * J, atol=1e-12)
