import os

# One BLAS thread, as the benchmark pins it: set before numpy is first
# imported.  Multi-threaded OpenBLAS slows optimize_general's L-BFGS-B polish
# by up to 10x when the host's other CPUs are busy.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("default", deadline=None, max_examples=50)
settings.load_profile("default")
