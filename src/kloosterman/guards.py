"""The family names and the argument, budget and exact-division guards.
A leaf: it imports nothing from the package, so gf2r and matfq use it too."""

ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"
FAMILIES = (ORTHOGONAL, SYMPLECTIC)

#: Cap on the number of elements any one enumeration may stream.
DEFAULT_BUDGET = 10**8


class BudgetError(RuntimeError):
    """An enumeration would stream more elements than DEFAULT_BUDGET."""


def _show(x: int) -> str:
    """x in decimal up to 256 bits, else its bit length: no message trips the int-str limit."""
    return str(x) if x.bit_length() <= 256 else f"a {x.bit_length()}-bit int"


def _check_budget(count: int, what: str) -> None:
    """Raise BudgetError, before anything is enumerated, if count exceeds DEFAULT_BUDGET."""
    if count > DEFAULT_BUDGET:
        raise BudgetError(f"{_show(count)} {what} exceed the enumeration budget {DEFAULT_BUDGET}")


def _exact(num: int, den: int, what: str) -> int:
    """num / den, an int, or ArithmeticError on a remainder (a broken identity or input).
    The message is built only when raised and gives num by its bit length alone."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(
            f"{what} is not integral: a {num.bit_length()}-bit numerator over {_show(den)}"
        )
    return quotient


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _named(name: str, value) -> str:
    return f"{name}={_show(value) if type(value) is int else repr(value)}"


def _check_int(name: str, value: int, low: int = 0) -> None:
    """Raise ValueError naming the argument unless value is an int >= low; bools are refused."""
    if type(value) is not int or value < low:
        raise ValueError(f"need an int {name} >= {low}, got {_named(name, value)}")


def _check_cell(n: int, r: int) -> None:
    if type(n) is not int or type(r) is not int or not 0 <= r <= n:
        _check_int("n", n)
        _check_int("r", r)
        raise ValueError(f"need 0 <= r <= n, got n={n}, r={r}")


def _check_odd(n: int) -> None:
    _check_int("n", n, 1)
    if n % 2 == 0:
        raise ValueError(f"defined for odd n >= 1 only, got n={n}")


def _require_units(field, **args: int) -> None:
    """Raise ValueError unless each named argument is an int with 0 < value < field.q."""
    for name, x in args.items():
        if type(x) is not int or not 0 < x < field.q:
            raise ValueError(f"{_named(name, x)} is not a nonzero element of GF({field.q})")
