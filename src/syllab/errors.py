"""Exception types shared across the package, a UTF-8 reader that raises one,
the base of the value types that check their fields, and a logger that
loads `logging` only when a message is logged."""

from contextlib import contextmanager


class SyllabError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(SyllabError):
    """Unusable configuration: unknown phone set, language, or option combination."""


class DictParseError(SyllabError):
    """A line of a dictionary, corpus or annotation file could not be parsed."""

    def __init__(self, path, line_no: int, message: str):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class UnknownSymbolError(SyllabError):
    """A phone or letter has no entry in the active sonority hierarchy."""

    def __init__(self, symbol: str, symbol_set: str):
        self.symbol = symbol
        self.symbol_set = symbol_set
        super().__init__(f"symbol {symbol!r} is not classified in the {symbol_set} hierarchy")


class UnsupportedNumeralError(SyllabError):
    """Numeral outside the supported range/shape for the requested language."""


class UndefinedMetricError(SyllabError):
    """A metric was requested over an empty record set."""


class CheckedFields:
    """Base of a named tuple whose `__new__` checks its fields: `_make`, and
    so `_replace`, build through `__new__` too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class LazyLogger:
    """`logging.getLogger(name)`, looked up on each use: a run that logs
    nothing never imports `logging`."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __getattr__(self, attr):
        import logging
        return getattr(logging.getLogger(self.name), attr)


@contextmanager
def open_utf8(path):
    """Open a text file for reading; non-UTF-8 bytes raise an error naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise SyllabError(f"{path}: not UTF-8 text ({exc.reason})") from None
