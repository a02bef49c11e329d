import numpy as np
import pytest

from tsdyn import (
    ForcingComponent,
    Harmonic,
    ImpulsiveModel,
    LogisticSequence,
    TableSequence,
    TimeScaleSpec,
    TrigForcing,
    certify,
)

# The worked two-dimensional scenario: theta=1, omega=8, delta=3, a
# rotation-scaling matrix, two-harmonic forcing, and the chaotic logistic
# sequence with output map (1, 2) seeded at index -2000.
ROTATION_A = np.array([[-0.4, 0.2], [-0.2, -0.4]])


@pytest.fixture(scope="session")
def ts5():
    return TimeScaleSpec(anchor=1.0, period=8.0, gap=3.0)


@pytest.fixture(scope="session")
def forcing5():
    return TrigForcing(
        8.0,
        (
            ForcingComponent(harmonics=(Harmonic(1, cos_coeff=1.0),)),
            ForcingComponent(harmonics=(Harmonic(2, sin_coeff=1.0),)),
        ),
    )


@pytest.fixture(scope="session")
def sequence5():
    return LogisticSequence(3.9, 0.4, k_min=-2000, output_map=(1.0, 2.0))


@pytest.fixture(scope="session")
def model5(ts5, forcing5, sequence5):
    return ImpulsiveModel(matrix=ROTATION_A, ts=ts5, forcing=forcing5, sequence=sequence5)


@pytest.fixture(scope="session")
def cert5(model5):
    return certify(model5)


def near_impulses(ts, ks):
    """The impulse points ``ks`` of ``ts``, one ulp either side of them and
    5e-13 to 3e-12 relative either side: inside the snap and just outside."""
    impulses = ts.impulse_point(np.asarray(ks))
    scale = np.maximum(1.0, np.abs(impulses))
    return np.concatenate([
        impulses, np.nextafter(impulses, np.inf), np.nextafter(impulses, -np.inf),
        *(impulses + sign * rel * scale
          for sign in (1.0, -1.0) for rel in (5e-13, 1e-12, 2e-12, 3e-12)),
    ])


def zero_table(dimension, k_lo, k_hi):
    return TableSequence({k: np.zeros(dimension) for k in range(k_lo, k_hi + 1)})


@pytest.fixture(scope="session")
def model5_no_sequence(ts5, forcing5):
    """Same system with the sequence forcing switched off (all-zero terms)."""
    seq = LogisticSequence(3.9, 0.4, k_min=-2000, output_map=(0.0, 0.0))
    return ImpulsiveModel(matrix=ROTATION_A, ts=ts5, forcing=forcing5, sequence=seq)


@pytest.fixture(scope="session")
def model5_no_forcing(ts5, sequence5):
    """Same system with the periodic forcing switched off."""
    return ImpulsiveModel(
        matrix=ROTATION_A, ts=ts5, forcing=TrigForcing.zero(2, 8.0), sequence=sequence5
    )
