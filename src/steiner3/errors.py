"""The base class of every steiner3 error, and `DesignError`, which several layers raise."""


class Steiner3Error(Exception):
    """Base of every library error; the CLI reports each with exit code 2."""


class DesignError(Steiner3Error, ValueError):
    """Malformed incidence structure or inconsistent parameters."""
