"""memory/ owns the tracking implementation: raw views and direct
buffer mutation are its job, so the escape rules do not apply here."""

import numpy as np


def implementation_detail(region):
    x = np.frombuffer(region.buffer, dtype="u1")
    x[0:10] = 0
    region.buffer[0:10] = b"\x00" * 10
    return x
