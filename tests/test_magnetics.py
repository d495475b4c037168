import numpy as np
import pytest

from emff import (
    MU0,
    CoilDesign,
    DipoleWaveform,
    InteractionOperator,
    Wrench,
    ZeroSeparationError,
    averaged_wrench,
    build_los_frame,
    dipole_field_wrench,
    instantaneous_wrench,
    interaction_operator,
    psi_stack,
    time_average_oracle,
)
from conftest import random_geometry, random_rotation, random_waveform


def identity_frame_op(d):
    # hint [0,0,-1] makes the line-of-sight frame coincide with the world axes
    return interaction_operator([d, 0.0, 0.0], [0.0, 0.0, -1.0])


class TestLosFrame:
    def test_axis_aligned(self):
        C = build_los_frame([1.0, 0, 0], [0, 1.0, 0])
        assert np.allclose(C[:, 0], [1, 0, 0])
        assert np.allclose(C[:, 1], [0, 0, 1])
        assert np.allclose(C.T @ C, np.eye(3), atol=1e-15)

    def test_parallel_hint_fallback(self):
        C1 = build_los_frame([1.0, 0, 0], [2.0, 0, 0])
        C2 = build_los_frame([1.0, 0, 0], [2.0, 0, 0])
        assert np.array_equal(C1, C2)
        assert np.allclose(C1[:, 0], [1, 0, 0])
        assert np.allclose(C1.T @ C1, np.eye(3), atol=1e-15)
        assert np.isclose(np.linalg.det(C1), 1.0)

    def test_random_orthonormality(self, rng):
        for _ in range(200):
            r, hint = random_geometry(rng)
            C = build_los_frame(r, hint)
            assert np.abs(C.T @ C - np.eye(3)).max() <= 1e-12
            assert abs(np.linalg.det(C) - 1.0) <= 1e-12

    def test_hint_scale_invariance(self, rng):
        # hints far outside the range whose squares are representable give
        # the frame of the unscaled hint, bit for bit
        for _ in range(20):
            r, hint = random_geometry(rng)
            C = build_los_frame(r, hint)
            for k in (-600, -200, 0, 200, 600):
                assert np.array_equal(build_los_frame(r, np.ldexp(hint, k)), C)
        # a hint along world z, where the fallback would give -y instead
        C = build_los_frame([1.0, 0, 0], [0, 0, 1e200])
        assert np.array_equal(C[:, 1], [0.0, -1.0, 0.0])
        op = interaction_operator([1.0, 0, 0], [0, 1e-160, 0])
        assert np.array_equal(op.frame, build_los_frame([1.0, 0, 0], [0, 1.0, 0]))

    def test_zero_separation_rejected(self):
        with pytest.raises(ZeroSeparationError):
            build_los_frame([1e-4, 0, 0], [0, 1, 0])

    def test_stack_matches_rows(self, rng):
        r = rng.normal(size=(12, 3))
        hint = rng.normal(size=(12, 3))
        hint[3] = 2.5 * r[3]  # parallel to r: fallback
        hint[7] = 0.0  # zero hint: fallback
        C = build_los_frame(r, hint)
        assert C.shape == (12, 3, 3)
        for i in range(12):
            assert np.array_equal(C[i], build_los_frame(r[i], hint[i]))

    def test_matches_cross_product_formula(self, rng):
        # the frame as np.cross gives it, with the same power-of-two scaling
        # and parallel-hint fallback: equal bit for bit
        def reference(r, hint):
            r, hint = np.broadcast_arrays(np.asarray(r, float), np.asarray(hint, float))
            e = np.frexp(np.abs(r).max(axis=-1))[1]
            r = np.ldexp(r, -e[..., None])
            hint = np.ldexp(hint, -np.frexp(np.abs(hint).max(axis=-1))[1][..., None])
            d = np.linalg.norm(r, axis=-1)
            ex = r / d[..., None]
            cross = np.cross(r, hint)
            norms = np.linalg.norm(cross, axis=-1), np.linalg.norm(hint, axis=-1)
            parallel = norms[0] <= 1e-9 * d * norms[1]
            axis = np.eye(3)[np.argmin(np.abs(ex), axis=-1)]
            cross = np.where(parallel[..., None], np.cross(ex, axis), cross)
            ey = cross / np.linalg.norm(cross, axis=-1)[..., None]
            return np.stack([ex, ey, np.cross(ex, ey)], axis=-1)

        r = rng.normal(size=(400, 3)) * 10.0 ** rng.uniform(0.0, 3.0, size=(400, 1))
        hint = rng.normal(size=(400, 3)) * 10.0 ** rng.uniform(-5.0, 5.0, size=(400, 1))
        hint[:40] = r[:40] * rng.uniform(-3.0, 3.0, size=(40, 1))  # parallel: fallback
        hint[40:60] = 0.0  # zero: fallback
        hint[60:80] = r[60:80] + 1e-12 * hint[60:80]  # near-parallel
        for args in ((r, hint), (r[0], hint[:50]), (r[:50], hint[0])):
            C = build_los_frame(*args)
            assert C.shape == reference(*args).shape
            assert np.array_equal(C, reference(*args))
        for i in range(0, 400, 20):
            assert np.array_equal(build_los_frame(r[i], hint[i]), reference(r[i], hint[i]))

    def test_stack_zero_separation_rejected(self, rng):
        r = rng.normal(size=(5, 3))
        r[2] = [0.0, 1e-4, 0.0]
        with pytest.raises(ZeroSeparationError):
            build_los_frame(r, rng.normal(size=(5, 3)))


class TestInteractionOperator:
    def test_frame_must_be_a_rotation(self):
        # |C^T C - I| <= 1e-9 on every entry, with no relative slack
        Q = psi_stack(1.0)
        InteractionOperator(Q=Q, separation=1.0, frame=np.eye(3))
        near = np.eye(3)
        near[0, 1] = 2e-10
        InteractionOperator(Q=Q, separation=1.0, frame=near)
        skew = np.eye(3)
        skew[0, 1] = 2e-9
        for frame in (1.000004 * np.eye(3), skew, np.diag([1.0, 1.0, -1.0])):
            with pytest.raises(ValueError, match="proper rotation"):
                InteractionOperator(Q=Q, separation=1.0, frame=frame)

    def test_psi_blocks_verbatim_in_los(self):
        d = 2.0
        op = identity_frame_op(d)
        assert np.allclose(op.frame, np.eye(3), atol=1e-15)
        assert np.allclose(op.Q, psi_stack(d), atol=1e-15)

    def test_distance_power_laws(self):
        d = 1.7
        q1 = identity_frame_op(d).Q
        q2 = identity_frame_op(2 * d).Q
        assert np.allclose(q2[:3], q1[:3] / 16.0, rtol=1e-13)
        assert np.allclose(q2[3:], q1[3:] / 8.0, rtol=1e-13)

    def test_frame_covariance(self, rng):
        for _ in range(20):
            r, hint = random_geometry(rng)
            mu_j, mu_k = rng.normal(scale=8.0, size=(2, 3))
            w = instantaneous_wrench(interaction_operator(r, hint), mu_j, mu_k)
            R = random_rotation(rng)
            w_rot = instantaneous_wrench(
                interaction_operator(R @ r, R @ hint), R @ mu_j, R @ mu_k
            )
            assert np.allclose(w_rot.force, R @ w.force, rtol=1e-11, atol=1e-16)
            assert np.allclose(w_rot.torque, R @ w.torque, rtol=1e-11, atol=1e-16)

    def test_hint_choice_does_not_change_wrench(self, rng):
        r, _ = random_geometry(rng)
        mu_j, mu_k = rng.normal(scale=5.0, size=(2, 3))
        w1 = instantaneous_wrench(interaction_operator(r, rng.normal(size=3)), mu_j, mu_k)
        w2 = instantaneous_wrench(interaction_operator(r, rng.normal(size=3)), mu_j, mu_k)
        assert np.allclose(w1.as_vector(), w2.as_vector(), rtol=1e-11, atol=1e-18)


class TestInstantaneousWrench:
    def test_textbook_torque_both_orderings(self):
        m, d = 7.0, 1.5
        op = identity_frame_op(d)
        # mu_j on x, mu_k on y: field at j is -mu0/(4 pi d^3) m e_y
        w = instantaneous_wrench(op, [m, 0, 0], [0, m, 0])
        oracle = dipole_field_wrench([d, 0, 0], [m, 0, 0], [0, m, 0])
        assert np.allclose(w.as_vector(), oracle.as_vector(), rtol=1e-12)
        assert np.isclose(w.torque[2], -MU0 / (4 * np.pi) * m**2 / d**3, rtol=1e-12)
        # swapped ordering doubles the torque (field along the separation axis)
        w2 = instantaneous_wrench(op, [0, m, 0], [m, 0, 0])
        oracle2 = dipole_field_wrench([d, 0, 0], [0, m, 0], [m, 0, 0])
        assert np.allclose(w2.as_vector(), oracle2.as_vector(), rtol=1e-12)
        assert np.isclose(w2.torque[2], -MU0 / (4 * np.pi) * 2 * m**2 / d**3, rtol=1e-12)

    def test_textbook_oracle_random(self, rng):
        for _ in range(50):
            r, hint = random_geometry(rng)
            mu_j, mu_k = rng.normal(scale=8.0, size=(2, 3))
            w = instantaneous_wrench(interaction_operator(r, hint), mu_j, mu_k)
            oracle = dipole_field_wrench(r, mu_j, mu_k)
            ref = np.linalg.norm(oracle.as_vector())
            assert np.linalg.norm(w.as_vector() - oracle.as_vector()) <= 1e-12 * ref

    def test_zero_source_dipole(self, rng):
        r, hint = random_geometry(rng)
        w = instantaneous_wrench(interaction_operator(r, hint), [1.0, 2.0, 3.0], [0, 0, 0])
        assert w.norm == 0.0

    def test_newton_pair(self, rng):
        for _ in range(30):
            r, hint = random_geometry(rng)
            mu_j, mu_k = rng.normal(scale=8.0, size=(2, 3))
            f_jk = instantaneous_wrench(interaction_operator(r, hint), mu_j, mu_k).force
            f_kj = instantaneous_wrench(interaction_operator(-r, hint), mu_k, mu_j).force
            assert np.allclose(f_jk, -f_kj, rtol=1e-12, atol=1e-18)

    def test_torque_pair_identity(self, rng):
        for _ in range(30):
            r, hint = random_geometry(rng)
            mu_j, mu_k = rng.normal(scale=8.0, size=(2, 3))
            w_jk = instantaneous_wrench(interaction_operator(r, hint), mu_j, mu_k)
            w_kj = instantaneous_wrench(interaction_operator(-r, hint), mu_k, mu_j)
            resid = w_jk.torque + w_kj.torque + np.cross(r, w_jk.force)
            ref = max(np.linalg.norm(w_jk.torque), np.linalg.norm(w_kj.torque))
            assert np.linalg.norm(resid) <= 1e-10 * ref


class TestAveragedWrench:
    def test_coaxial_in_phase_value(self):
        op = identity_frame_op(1.0)
        dj = DipoleWaveform(s=[10.0, 0, 0], c=[0, 0, 0], omega=3.0)
        dk = DipoleWaveform(s=[10.0, 0, 0], c=[0, 0, 0], omega=3.0)
        w = averaged_wrench(op, dj, dk)
        assert np.isclose(w.force[0], -3e-5, rtol=1e-13)
        assert np.allclose(w.force[1:], 0.0)
        assert np.allclose(w.torque, 0.0)

    def test_distinct_frequencies_zero(self, rng):
        r, hint = random_geometry(rng)
        op = interaction_operator(r, hint)
        w = averaged_wrench(op, random_waveform(rng, 2.0), random_waveform(rng, 3.0))
        assert w.norm == 0.0

    def test_zero_dipoles(self, rng):
        r, hint = random_geometry(rng)
        zero = DipoleWaveform(s=np.zeros(3), c=np.zeros(3), omega=1.0)
        assert averaged_wrench(interaction_operator(r, hint), zero, zero).norm == 0.0

    def test_force_antisymmetry_under_swap(self, rng):
        for _ in range(20):
            r, hint = random_geometry(rng)
            dj = random_waveform(rng)
            dk = random_waveform(rng)
            f1 = averaged_wrench(interaction_operator(r, hint), dj, dk).force
            f2 = averaged_wrench(interaction_operator(-r, hint), dk, dj).force
            assert np.linalg.norm(f1 + f2) <= 1e-12 * np.linalg.norm(f1)

    def test_averaged_torque_pair_identity(self, rng):
        for _ in range(20):
            r, hint = random_geometry(rng)
            dj = random_waveform(rng)
            dk = random_waveform(rng)
            w_jk = averaged_wrench(interaction_operator(r, hint), dj, dk)
            w_kj = averaged_wrench(interaction_operator(-r, hint), dk, dj)
            resid = w_jk.torque + w_kj.torque + np.cross(r, w_jk.force)
            ref = max(np.linalg.norm(w_jk.torque), np.linalg.norm(w_kj.torque), 1e-30)
            assert np.linalg.norm(resid) <= 1e-10 * ref


class TestTimeAverageOracle:
    def test_matches_closed_form(self, rng):
        omega = 2 * np.pi
        for _ in range(10):
            r, hint = random_geometry(rng)
            dj = random_waveform(rng, omega)
            dk = random_waveform(rng, omega)
            closed = averaged_wrench(interaction_operator(r, hint), dj, dk).as_vector()
            numeric = time_average_oracle(r, dj, dk, 1.0, 512, hint=hint).as_vector()
            assert np.linalg.norm(closed - numeric) <= 1e-10 * np.linalg.norm(closed)

    def test_double_frequency_orthogonal(self, rng):
        omega = 2 * np.pi
        r, hint = random_geometry(rng)
        dj = random_waveform(rng, omega)
        dk_same = random_waveform(rng, omega)
        ref = averaged_wrench(interaction_operator(r, hint), dj, dk_same).norm
        dk = DipoleWaveform(s=dk_same.s, c=dk_same.c, omega=2 * omega)
        cross = time_average_oracle(r, dj, dk, 1.0, 512, hint=hint)
        assert cross.norm <= 1e-12 * ref

    def test_zero_dipoles(self):
        zero = DipoleWaveform(s=np.zeros(3), c=np.zeros(3), omega=1.0)
        w = time_average_oracle([1.0, 0, 0], zero, zero, 2 * np.pi, 64)
        assert w.norm == 0.0

    def test_step_count_validated(self):
        d = DipoleWaveform(s=[1.0, 0, 0], c=[0, 0, 0], omega=1.0)
        with pytest.raises(ValueError):
            time_average_oracle([1.0, 0, 0], d, d, 2 * np.pi, 32)

    def test_incommensurate_warning(self):
        dj = DipoleWaveform(s=[1.0, 0, 0], c=[0, 0, 0], omega=1.0)
        dk = DipoleWaveform(s=[1.0, 0, 0], c=[0, 0, 0], omega=np.sqrt(2.0))
        with pytest.warns(UserWarning):
            time_average_oracle([1.0, 0, 0], dj, dk, 2 * np.pi, 128)


class TestTypes:
    def test_coil_derived_quantities(self):
        coil = CoilDesign(turns=100, coil_radius=0.4, wire_radius=2e-3, resistivity=1.7e-8)
        assert np.isclose(coil.resistance, 2 * 0.4 * 100 * 1.7e-8 / 4e-6)
        assert np.isclose(coil.dipole_per_current, np.pi * 100 * 0.16)
        assert np.isclose(
            coil.power_scale, (2 * 1.7e-8 / 4e-6) / (np.pi**2 * 100 * 0.4**3)
        )

    def test_coil_positivity(self):
        with pytest.raises(ValueError):
            CoilDesign(turns=0, coil_radius=0.4, wire_radius=2e-3, resistivity=1.7e-8)

    def test_waveform_finite(self):
        with pytest.raises(ValueError):
            DipoleWaveform(s=[np.nan, 0, 0], c=[0, 0, 0], omega=1.0)

    def test_waveform_saturation(self):
        wf = DipoleWaveform(s=[3.0, 0, 0], c=[0, 4.0, 0], omega=1.0)
        assert wf.amplitude_squared == 25.0
        assert wf.within_saturation(26.0)
        assert not wf.within_saturation(25.0)

    def test_wrench_roundtrip(self):
        w = Wrench.from_vector(np.arange(6.0))
        assert np.array_equal(w.as_vector(), np.arange(6.0))
        with pytest.raises(ValueError):
            Wrench([1.0, np.inf, 0], [0, 0, 0])
