import numpy as np
import pytest

from emff import DipoleWaveform, averaged_wrench, interaction_operator

# one line per acceptance criterion, echoed after the run (capture-proof)
acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


#: A brigade-spaced (n = 3, d = 1000/7) LOS command that once stalled the dual
#: solve on a Newton system singular to working precision.
SINGULAR_D = 142.85714285714283
SINGULAR_U = [
    1.2038213335472343e-07, 7.205873880531521e-08, -2.152318386863755e-07,
    8.085636400227791e-22, -1.1327991509809233e-05, -3.79256520027975e-06,
]


def infeasible_minima(H, u, X):
    """A stand-in for allocation._manifold_minima whose restarts all end at
    the origin, where the wrench residual is -u: none is feasible."""
    return np.zeros_like(X), np.zeros(len(X), dtype=int)


def random_geometry(rng, d_min=0.5, d_max=5.0):
    """Random separation (k -> j) and frame hint."""
    r = rng.normal(size=3)
    r *= rng.uniform(d_min, d_max) / np.linalg.norm(r)
    return r, rng.normal(size=3)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_waveform(rng, omega=1.0, scale=10.0):
    return DipoleWaveform(
        s=rng.normal(scale=scale, size=3), c=rng.normal(scale=scale, size=3), omega=omega
    )


def forward_command(rng, omega=1.0):
    """Feasible wrench produced by evaluating the model on random waveforms.

    Returns (r, hint, u, J_generator): the generating dipoles certify both
    feasibility and an upper bound on the optimal cost.
    """
    r, hint = random_geometry(rng)
    Q = interaction_operator(r, hint)
    dj = random_waveform(rng, omega)
    dk = random_waveform(rng, omega)
    u = averaged_wrench(Q, dj, dk)
    return r, hint, u, 0.5 * (dj.amplitude_squared + dk.amplitude_squared)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
