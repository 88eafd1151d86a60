"""The converted-call-site idioms: everything here is legal and must
produce zero escape findings — the shapes PR 7 left behind."""

import numpy as np


def tracked_view_writes(region):
    v = region.view(dtype="f8")
    v[0:100] = 7.0                  # TrackedView: write-interposed
    v[3] += 1.0
    w = v.reshape(10, -1)
    w[2, :] = 0.0


def buffer_write_with_structural_touch(region, payload, base):
    region.buffer[base:base + len(payload)] = payload
    region.touch(base, len(payload))    # same offset expression: covered


def buffer_write_with_constant_touch(region, payload):
    region.buffer[64:128] = payload
    region.touch(0, 4096)               # constants: [0, 4096) ⊇ [64, 128)


def buffer_write_with_whole_region_touch(region, payload):
    region.buffer[0:64] = payload
    region.touch()                      # whole-region: always covers


def read_only_frombuffer_peek(region):
    peek = np.frombuffer(region.buffer, dtype="f8")
    return float(peek.sum())            # value escapes, the view doesn't


def tracked_view_escape(region):
    # the one way to hand a writable view out: it stays write-interposed
    return region.view(dtype="f8").subview(slice(0, 64))


def app_streams(rng):
    return rng.stream("app/noise"), rng.child("rank", 3)
