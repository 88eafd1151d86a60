"""A forward-looking waiver, honestly declared: adding
``stale-suppression`` to the allow list keeps a deliberately
early waiver from failing the gate."""


def clean_code():
    total = 0  # repro: allow(real-attr, stale-suppression) next commit dereferences a shadow pointer here
    return total
