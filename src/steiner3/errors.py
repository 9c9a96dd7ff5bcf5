"""The one base class of every error the steiner3 library raises."""


class Steiner3Error(Exception):
    """Base of every library error; the CLI reports each with exit code 2."""
