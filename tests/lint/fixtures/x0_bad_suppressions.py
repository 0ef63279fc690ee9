# repro-lint: module=algorithms/fixture_x0.py


def bad(nogood, view):
    return nogood.prohibits(view)  # repro-lint: disable=M1


def unknown(nogood, view):
    return nogood.prohibits(view)  # repro-lint: disable=Z9 -- no such rule
