"""Placeholder for the removed jit kernels.

Every band primitive has one numpy implementation, so nothing is compiled.
The module stays only because the benchmark driver (perfbench/run.py)
records `HAVE_NUMBA` in each run's environment block; the value is accurate,
since no jit path remains.
"""

HAVE_NUMBA = False
