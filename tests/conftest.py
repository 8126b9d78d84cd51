import os

# One BLAS thread, as the benchmark pins it: set before numpy is first
# imported, so the suite runs the path the benchmark measures.  The
# package's matrix products are small stacks (4 x 4 in the kernels, 9 x 9 in
# the probe's BFGS polish), and so are those of the tests' scipy.optimize
# oracles.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("default", deadline=None, max_examples=50)
settings.load_profile("default")
