"""Seeded violations for ``unused-import``: module-level imports the
module never reads, beside the three the rule exempts."""

from __future__ import annotations

import os                                   # flagged: never read
from json import dumps                      # exempt: listed in __all__
from typing import List, Optional           # flagged: Optional

__all__ = ["dumps", "names"]


def names() -> List[str]:
    import sys                              # not module-level: ignored
    return []
