"""Exception types shared across the package, the input validators and the
one cross-check helper."""

from fractions import Fraction


class InputError(ValueError):
    """Caller handed us data outside an operation's domain."""


class NotApplicableError(InputError):
    """The requested quantity is undefined for these inputs (not a bug)."""


class ConsistencyError(RuntimeError):
    """Two routes that must agree exactly did not; indicates a defect."""


def integer(value: object, what: str) -> int:
    """``value`` if it is an int (a cutoff, exponent, power, dimension or degree)."""
    if type(value) is not int:
        raise InputError(f"{what} {value!r} is not an int")
    return value


def rational(value: object, what: str = "coefficient") -> Fraction:
    """``value`` as a Fraction; floats, bools and other types are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InputError(f"{what} {value!r} is not an exact rational")
    return value if type(value) is Fraction else Fraction(value)


def check(name: str, ok: bool, **values: object) -> None:
    """Raise ``ConsistencyError`` unless ``ok``.

    The message reads ``name: key = value, ...``, or ``name at <at>: ...``
    when an ``at`` value locates the check.  Values are formatted only on
    failure: Fractions as exact p/q, tuples and lists entry by entry,
    anything else by ``str``.
    """
    if ok:
        return
    head = f"{name} at {_text(values.pop('at'))}" if "at" in values else name
    body = ", ".join(f"{key} = {_text(value)}" for key, value in values.items())
    raise ConsistencyError(f"{head}: {body}")


def _text(value: object) -> str:
    if isinstance(value, (tuple, list)):
        inner = ", ".join(_text(v) for v in value)
        if isinstance(value, list):
            return f"[{inner}]"
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    return str(value)
