"""Seeded violations: every write-through-a-raw-buffer-view shape the
``leaked-view-write`` rule must catch (apps/ is outside memory/)."""

import numpy as np


def subscript_write(region):
    x = np.frombuffer(region.buffer, dtype="u1")
    x[0:100] = 7                    # flagged: subscript write


def inplace_write(region):
    x = np.frombuffer(region.buffer, dtype="f8")
    x[3] += 1.0                     # flagged: in-place operator


def method_write(region):
    x = np.frombuffer(region.buffer, dtype="u1")
    x.fill(0)                       # flagged: mutating method


def out_arg_write(region, src):
    x = np.frombuffer(region.buffer, dtype="f8")
    np.add(src, 1.0, out=x)         # flagged: out= destination


def copyto_write(region, src):
    x = np.frombuffer(region.buffer, dtype="f8")
    np.copyto(x, src)               # flagged: np.copyto destination


def write_through_derived_view(region):
    x = np.frombuffer(region.buffer, dtype="f8").reshape(64, -1)
    x[2, :] = 0.0                   # flagged: taint survives reshape
