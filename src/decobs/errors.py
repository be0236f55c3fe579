"""Exception types shared across the library."""

from __future__ import annotations


class DecobsError(Exception):
    """Base class for every library-specific error."""


class UnknownString(DecobsError):
    """A string lies outside the domain it is being looked up in."""


class UnknownRuleName(DecobsError):
    """Requested builtin fusion rule does not exist."""


class ControllabilityViolation(DecobsError):
    """An uncontrollable continuation of a legal string leaves the legal language."""

    def __init__(self, string: tuple[str, ...], event: str):
        text = " ".join(string) if string else "the empty string"
        super().__init__(
            f"uncontrollable event {event!r} extends {text} into the ambient "
            f"language but out of the legal one"
        )
        self.string = string
        self.event = event


class ArityMismatch(DecobsError):
    """Two objects that must share an agent count do not."""


class GraphMismatch(DecobsError):
    """Two morphisms were composed whose middle graphs differ."""


class InconsistentMorphism(DecobsError):
    """A node map would force one observation onto two different decisions."""


class SearchLimitExceeded(DecobsError):
    """A search hit its budget before settling the question: the morphism
    search's node expansions, or the size of an exhaustive table enumeration."""


class FileFormatError(DecobsError):
    """A JSON input file does not match the expected schema."""
