"""Independent brute-force oracles shared by the tests.

Nothing here reuses the closed forms or block-relation membership tests it is
used to check.
"""

from itertools import product

from kloosterman.classical import theta_form
from kloosterman.gf2r import Field
from kloosterman.matfq import Mat


def theta_isometries(field: Field, n: int) -> set[Mat]:
    """Every matrix with theta(wx) = theta(x) for all x, by exhaustive search.

    Depth-first over columns; a partial choice of the first k columns is
    abandoned exactly when some vector supported on those k coordinates
    already violates the isometry condition, which can never exclude a valid
    completion.  Surviving full assignments are re-checked on every vector.
    """
    dim = 2 * n + 1
    q = field.q
    mul = field.mul
    theta = {x: theta_form(field, x, n) for x in product(range(q), repeat=dim)}

    def image(cols, x):
        out = (0,) * dim
        for xi, col in zip(x, cols):
            if xi:
                out = tuple(o ^ mul(xi, ci) for o, ci in zip(out, col))
        return out

    found: set[Mat] = set()
    columns = list(product(range(q), repeat=dim))

    def extend(cols):
        k = len(cols)
        if k == dim:
            w = tuple(zip(*cols))
            if all(theta[image(cols, x)] == theta[x] for x in theta):
                found.add(w)
            return
        for col in columns:
            trial = cols + [col]
            ok = True
            for x in product(range(q), repeat=k + 1):
                if x[k] == 0:
                    continue
                padded = x + (0,) * (dim - k - 1)
                if theta[image(trial, padded)] != theta[padded]:
                    ok = False
                    break
            if ok:
                extend(trial)

    extend([])
    return found


def kloosterman_direct(field: Field, a: int, c: int) -> int:
    """The sum of lambda(c * (x + a/x)) over nonzero x, straight from the definition."""
    mul, inv, lam = field.mul, field.inv, field.lam
    return sum(lam(mul(c, x ^ mul(a, inv(x)))) for x in field.units())
