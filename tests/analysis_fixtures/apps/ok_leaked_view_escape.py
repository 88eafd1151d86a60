"""Escape shapes acknowledged with per-line suppressions."""

import numpy as np


def returned(region):
    return np.frombuffer(region.buffer)  # repro: allow(leaked-view-escape) read-only consumer, tracked in #8


def stored_on_self(self, region):
    self.grid = np.frombuffer(region.buffer)  # repro: allow(leaked-view-escape) read-only consumer, tracked in #8
