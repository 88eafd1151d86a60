"""The same write shapes, acknowledged with per-line suppressions:
still reported as debt, never charged against the budget."""

import numpy as np


def subscript_write(region):
    x = np.frombuffer(region.buffer, dtype="u1")
    x[0:100] = 7  # repro: allow(leaked-view-write) legacy kernel, tracked in #8


def out_arg_write(region, src):
    x = np.frombuffer(region.buffer, dtype="f8")
    np.add(src, 1.0, out=x)  # repro: allow(leaked-view-write) legacy kernel, tracked in #8
