"""Output checks for each `gompertz` command, built on oracles that do not
import the package: mpmath's own E1 and digamma, exact rational arithmetic on
the printed numbers, and the approximant sums re-evaluated modulo a prime.

`check(argv, stdout)` returns None when the output is correct and a one-line
reason when it is not. The checks compare values, not bytes, so a change
that corrects a wrongly printed digit still passes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath


class CheckFailed(Exception):
    pass


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _option(argv: list[str], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _fraction(x: mpmath.mpf) -> Fraction:
    man, exp = x.man_exp  # magnitude only
    value = Fraction(man) * Fraction(2) ** exp
    return -value if x < 0 else value


def _agree(x: Fraction, ref: Fraction, digits: int) -> bool:
    """x equals ref to `digits` significant decimal digits."""
    return abs(x - ref) <= abs(ref) * Fraction(1, 10 ** digits)


@lru_cache(maxsize=None)
def _delta(digits: int) -> Fraction:
    # e * E1(1), mpmath's own exponential integral: independent of both of
    # the package's routes (its quadrature and its e*E1 series)
    with mpmath.workdps(digits + 20):
        return _fraction(mpmath.e * mpmath.e1(1))


@lru_cache(maxsize=None)
def _digamma(u: Fraction, digits: int) -> Fraction:
    with mpmath.workdps(digits + 20):
        return _fraction(mpmath.digamma(mpmath.mpf(u.numerator) / u.denominator))


# --- approximant sums modulo a prime -------------------------------------------

_P = 2 ** 61 - 1  # prime above every factorial index used, so k and j! invert


@lru_cache(maxsize=None)
def _mod_tables(n: int):
    fact = [1] * (n + 1)
    for i in range(1, n + 1):
        fact[i] = fact[i - 1] * i % _P
    inv_fact = [pow(f, _P - 2, _P) for f in fact]
    # alt[k] = sum_{w<k} (-1)**w w!
    alt = [0] * (n + 1)
    for k in range(1, n + 1):
        w = k - 1
        alt[k] = (alt[w] + (-1) ** w * fact[w]) % _P
    return fact, inv_fact, alt


def _binom(n: int, k: int, fact, inv_fact) -> int:
    if k < 0 or k > n:
        return 0
    return fact[n] * inv_fact[k] % _P * inv_fact[n - k] % _P


def approximant_pair_mod_p(corollary: int, m: int, r: int) -> tuple[int, int]:
    """(a_m, b_m) modulo 2**61 - 1, from the paper's sums.

    Family 1: b = sum_k C(m,k)**2 C(k,r) (m-k)!, and a carries the extra
    weight A(k) = sum_{w<k} (-1)**w w!.
    Family 2: b = m! sum_k C(m,k) C(k,r)/k sum_{j<k} (-1)**(k+j)/j!, and
    a = m! sum_k C(m,k) C(k,r)/k sum_{j<k} (-1)**(k+j+1) A(j)/j!.
    Both a and b are integers, so their residues follow from the rational
    sums with every denominator inverted modulo the prime.
    """
    fact, inv_fact, alt = _mod_tables(m + 1)
    a = b = 0
    if corollary == 1:
        for k in range(r, m + 1):
            w = (_binom(m, k, fact, inv_fact) ** 2 % _P
                 * _binom(k, r, fact, inv_fact) % _P * fact[m - k] % _P)
            a = (a + w * alt[k]) % _P
            b = (b + w) % _P
        return a, b
    p_sum = q_sum = 0  # running sums over j < k of (-1)**j/j! and (-1)**j A(j)/j!
    for k in range(1, m + 1):
        j = k - 1
        p_sum = (p_sum + (-1) ** j * inv_fact[j]) % _P
        q_sum = (q_sum + (-1) ** j * alt[j] * inv_fact[j]) % _P
        if k < r:
            continue
        base = (_binom(m, k, fact, inv_fact) * _binom(k, r, fact, inv_fact)
                % _P * pow(k, _P - 2, _P) % _P)
        sign = (-1) ** k
        b = (b + sign * base * p_sum) % _P
        a = (a - sign * base * q_sum) % _P
    return a * fact[m] % _P, b * fact[m] % _P


# --- per-command checks ----------------------------------------------------------

def _check_delta(argv: list[str], lines: list[str]) -> None:
    digits = int(_option(argv, "--digits", "30"))
    _require(len(lines) == 1 and lines[0].startswith("delta = "),
             "expected one line 'delta = <value>'")
    value = Fraction(lines[0][len("delta = "):])
    _require(_agree(value, _delta(digits), digits - 1),
             f"delta differs from e*E1(1) within {digits - 1} digits")


def _check_approx(argv: list[str], lines: list[str]) -> None:
    corollary = int(_option(argv, "--corollary"))
    r = int(_option(argv, "--r"))
    m_max = int(_option(argv, "--max-m"))
    digits = int(_option(argv, "--digits", "30"))
    _require(lines[1] == "m a b ratio abs_error target_sign",
             "approx header missing")
    rows = [line.split() for line in lines[2:]]
    _require([int(row[0]) for row in rows] == list(range(max(r, 1), m_max + 1)),
             "approx rows do not cover m = max(r,1)..max-m")
    sign = 1 if corollary == 1 else -1
    delta = _delta(digits)
    for m_text, a_text, b_text, ratio, abs_error, target in rows:
        m, a, b = int(m_text), int(a_text), int(b_text)
        _require(target == ("+" if sign > 0 else "-"), f"m={m}: wrong target sign")
        _require((a % _P, b % _P) == approximant_pair_mod_p(corollary, m, r),
                 f"m={m}: (a, b) differ from the sums modulo 2**61-1")
        if b == 0:
            _require(corollary == 2 and m == r == 2,
                     f"m={m}: b = 0 outside family 2, m = r = 2")
            _require(ratio == abs_error == "undefined",
                     f"m={m}: ratio must be undefined at b = 0")
            continue
        exact = Fraction(a, b)
        _require(_agree(Fraction(ratio), exact, digits - 1),
                 f"m={m}: ratio differs from a/b")
        # the package's error uses its own delta; ours is mpmath's
        true_error = abs(exact - sign * delta)
        _require(abs(Fraction(abs_error) - true_error)
                 <= true_error * Fraction(1, 10 ** (digits - 1))
                 + Fraction(1, 10 ** (digits + 10)),
                 f"m={m}: abs_error differs from |a/b - target|")


def _identity_points(m_max: int) -> dict[str, tuple[int, int]]:
    """(points, skipped) per identity grid, counted from the grid bounds."""
    gen = sum(4 * 3 for m in range(m_max + 1) for _ in range(m + 1))  # r<=3, 3 eps
    integer = sum(j + 1 for m in range(m_max + 1) for j in range(m + 1))
    gauss = sum(j - 1 for m in range(1, m_max + 1) for j in range(1, m + 1))
    # the integer identity is undefined at m = r, which forces j = r = m
    return {"gen_binomial_sum": (gen, 0), "int_binomial_sum": (integer, m_max + 1),
            "gauss_terminating": (gauss, 0)}


def _check_identities(argv: list[str], lines: list[str]) -> None:
    cap = _option(argv, "--max-m")
    caps = {"gen_binomial_sum": 12, "int_binomial_sum": 20, "gauss_terminating": 15}
    expected = {name: _identity_points(int(cap) if cap else caps[name])[name]
                for name in caps}
    _require(lines[-1] == "all passed", "identities did not print 'all passed'")
    seen = {}
    for line in lines[:-1]:
        name, rest = line.split(": ")
        points, passed, failed, skipped = (int(part.split()[0])
                                           for part in rest.split(", "))
        _require(failed == 0 and passed + skipped == points,
                 f"{name}: inconsistent counts")
        seen[name] = (points, skipped)
    _require(seen == expected, f"identity point counts {seen} != {expected}")


def _check_theorem(argv: list[str], lines: list[str]) -> None:
    u = Fraction(_option(argv, "--u", "1"))
    r = int(_option(argv, "--r", "0"))
    m_max = int(_option(argv, "--max-m", "20"))
    digits = int(_option(argv, "--digits", "30"))
    _require(lines[1] == "m value abs_error", "theorem header missing")
    rows = [line.split() for line in lines[2:]]
    _require([int(row[0]) for row in rows] == list(range(r, m_max + 1)),
             "theorem rows do not cover m = r..max-m")
    for m, value_text, error_text in rows:
        value, error = Fraction(value_text), Fraction(error_text)
        # both columns are rounded to `digits` significant digits
        _require(abs(error - abs(value - u))
                 <= (abs(value) + error) * Fraction(1, 10 ** (digits - 1)),
                 f"m={m}: abs_error differs from |value - u|")


def _check_conjecture(argv: list[str], lines: list[str]) -> None:
    u = Fraction(_option(argv, "--u", "1"))
    m_max = int(_option(argv, "--max-m", "20"))
    digits = int(_option(argv, "--digits", "30"))
    conventions = {"minus": ["B1_minus_half"], "plus": ["B1_plus_half"],
                   "both": ["B1_minus_half", "B1_plus_half"]}[
                       _option(argv, "--convention", "both")]
    body = [line.split() for line in lines if not line.startswith("#")]
    _require(body[0] == ["convention", "m", "rhs", "digamma", "residual"],
             "conjecture header missing")
    rows = body[1:]
    _require([(row[0], int(row[1])) for row in rows]
             == [(c, m) for c in conventions for m in range(1, m_max + 1)],
             "conjecture rows do not cover every (convention, m)")
    psi = _digamma(u, digits)
    final = {}
    for convention, m, rhs_text, psi_text, residual_text in rows:
        rhs, residual = Fraction(rhs_text), Fraction(residual_text)
        _require(_agree(Fraction(psi_text), psi, digits - 1),
                 f"{convention} m={m}: digamma differs from mpmath.digamma")
        _require(abs(residual - abs(rhs - psi))
                 <= (abs(rhs) + abs(psi)) * Fraction(1, 10 ** (digits - 1)),
                 f"{convention} m={m}: residual differs from |rhs - digamma|")
        final[convention] = residual
    if len(conventions) == 2:
        _require(lines[-1].endswith(": " + min(final, key=final.get)),
                 "calibrated convention is not the one with the smaller residual")


_CHECKS = {"delta": _check_delta, "approx": _check_approx,
           "identities": _check_identities, "theorem": _check_theorem,
           "conjecture": _check_conjecture}


def check(argv: list[str], stdout: str) -> str | None:
    """None when `stdout` is a correct output of `gompertz <argv>`, else why not."""
    try:
        _CHECKS[argv[0]](argv, stdout.splitlines())
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        return f"unparseable output: {exc!r}"
    return None
