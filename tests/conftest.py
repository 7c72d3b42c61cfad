import os
import sys

# The pinned digests (training, gate audit) hold at one and at two BLAS
# threads, and test_blas_guards_hold_at_one_and_two_threads checks both.
# The pool's size is read once, when numpy loads, so it is fixed here,
# before the first import: at OCULOGATE_TEST_BLAS_THREADS, 2 unless a test
# that runs the suite in a fresh interpreter asks for another count.
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could fix "
                       "the BLAS thread count")
BLAS_THREADS = os.environ.setdefault("OCULOGATE_TEST_BLAS_THREADS", "2")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np
import pytest

from oculogate.data import default_cohort_spec, generate_cohort
from oculogate.pipeline import run_training_pipeline
from oculogate.train import TrainConfig


@pytest.fixture(scope="session")
def small_cohort():
    return generate_cohort(default_cohort_spec(n_patients=300, seed=404))


@pytest.fixture(scope="session")
def small_pipeline(small_cohort):
    """Quickly trained model for tests that need realistic outputs."""
    return run_training_pipeline(small_cohort,
                                 TrainConfig(max_epochs=8, seed=31))


def rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))
