"""Exception types shared across the package, the one reader of every input,
the one summary of skipped lines, the base of the value types that check
their fields, and a logger that loads `logging` only when a message is logged."""


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


def read_lines(path, latin1: bool = False) -> list[str]:
    """The lines of the file at `path`, as `decode_lines` splits them."""
    with open(path, "rb") as fh:
        return decode_lines(fh.read(), path, latin1)


def decode_lines(data: bytes, name, latin1: bool = False) -> list[str]:
    """`data` decoded as UTF-8 (as Latin-1 if it is not and `latin1` is set,
    else a `SyllabError` naming `name`) and split only at LF, CRLF and CR, so
    a form feed, NEL or Unicode separator neither splits an entry nor shifts
    the line numbers after it.  A final line break adds no empty line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        if not latin1:
            raise SyllabError(f"{name}: not UTF-8 text ({exc.reason})") from None
        text = data.decode("latin-1")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def warn_skipped(log, path, skipped: list[tuple[int, str]]) -> None:
    """One warning with the count of the lines a loader skipped and the first."""
    if skipped:
        line_no, reason = skipped[0]
        log.warning("%s: skipped %d lines (first at line %d: %s)",
                    path, len(skipped), line_no, reason)
