"""A dead waiver: the allow() comment silences nothing, so the
``stale-suppression`` rule must flag it (and the misspelled rule name)."""


def clean_code():
    total = 0  # repro: allow(real-attr) nothing here to allow
    count = 1  # repro: allow(real-atr) typo'd rule name
    return total + count
