"""Name of the kernel path; the kernels are vectorized numpy only."""


def backend():
    return "numpy"
