"""An import kept for its side effect, acknowledged per line."""

import os  # repro: allow(unused-import) imported for its side effect only
