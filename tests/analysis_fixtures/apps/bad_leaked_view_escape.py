"""Seeded violations: every escape shape the ``leaked-view-escape``
rule must catch — once the raw view outlives the expression, any later
writer mutates bytes behind the chunk stamps' back."""

import numpy as np


def returned(region):
    return np.frombuffer(region.buffer)     # flagged: returned to the caller


def stored_on_self(self, region):
    self.grid = np.frombuffer(region.buffer)    # flagged: attribute store


def appended(region, views):
    x = np.frombuffer(region.buffer)
    views.append(x)                 # flagged: captured by a container


def in_literals(region):
    x = np.frombuffer(region.buffer)
    pair = [x, None]                # flagged: container literal
    table = {"grid": x}             # flagged: dict literal
    return pair, table


def yielded(region):
    x = np.frombuffer(region.buffer)
    yield x                         # flagged: yielded to the caller


def derived_view_escape(region):
    x = np.frombuffer(region.buffer, dtype="f8")
    return x.T                      # flagged: taint survives .T
