"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them). Tolerances are pinned here, not configurable."""

import time
from fractions import Fraction

from mpmath import mp, mpf

from conftest import absdiff
from gompertz import (B1_MINUS_HALF, B1_PLUS_HALF, PrecisionContext,
                      approx_table, bigfloat_str, calibrated_convention,
                      corollary1_pair, corollary2_pair, delta_reference,
                      digamma, digamma_series_scan, euler_gamma,
                      frac_integral_closed, g_span_eval, gauss_grid,
                      gen_binomial_grid, int_binomial_grid,
                      log_integral_closed, point_verdict,
                      series_partial_trend)
from gompertz.cli import main as cli_main
from gompertz.verify import EXACT_PASS, SKIPPED
from integral_oracles import (NUMERIC_PASS, check_shift_expansion,
                              frac_integral_recurrence, norm_log_moment,
                              norm_log_moment_deriv, per_term_series_trend,
                              quadrature_log_moment)

CTX30 = PrecisionContext(30)
CTX60 = PrecisionContext(60)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_01_exact_identity_suite():
    start = time.monotonic()
    gen = [(p[1], point_verdict(p)) for p in gen_binomial_grid(m_max=12)]
    intb = [(p[1], point_verdict(p)) for p in int_binomial_grid(m_max=20)]
    gauss = [(p[1], point_verdict(p)) for p in gauss_grid(m_max=15)]
    elapsed = time.monotonic() - start
    gen_ok = all(v == EXACT_PASS for _, v in gen)
    intb_ok = all(v in (EXACT_PASS, SKIPPED) for _, v in intb)
    intb_skips_are_degenerate = all(
        params["m"] == params["r"] for params, v in intb if v == SKIPPED)
    gauss_ok = all(v == EXACT_PASS for _, v in gauss)
    report("exact identity suite",
           gen_ok and intb_ok and intb_skips_are_degenerate and gauss_ok
           and elapsed < 60,
           f"{len(gen)}+{len(intb)}+{len(gauss)} points in {elapsed:.1f}s")


def test_02_integral_family_oracles():
    closed_ok = all(frac_integral_closed(n) == frac_integral_recurrence(n)
                    for n in range(41))
    worst = mpf(0)
    for n in range(16):
        exact = g_span_eval(*log_integral_closed(n), 1, 1, CTX30)
        numeric = quadrature_log_moment(n + 1, 1, CTX30)
        worst = max(worst, absdiff(exact, numeric))
    report("integral family oracles",
           closed_ok and worst < mpf(10) ** -25,
           f"worst log-family deviation {bigfloat_str(worst, 3)}")


def test_03_delta_cross_validation():
    q = delta_reference(CTX60, "quadrature")
    s = delta_reference(CTX60, "e_times_E1")
    agreement = absdiff(q, s)
    first10 = bigfloat_str(delta_reference(CTX60), 10)
    report("delta cross-validation",
           agreement < mpf(10) ** -50 and first10 == "0.5963473623",
           f"two-method gap {bigfloat_str(agreement, 3)}, leading digits {first10}")


def test_04_digamma_values():
    with mp.workprec(600):
        gap1 = abs(mpf(digamma(1, CTX60)) + euler_gamma(CTX60))
        gap2 = abs(mpf(digamma(2, CTX60)) - (1 - mpf(euler_gamma(CTX60))))
    report("digamma values",
           gap1 < mpf(10) ** -50 and gap2 < mpf(10) ** -50,
           f"psi(1)+gamma={bigfloat_str(gap1, 3)}, "
           f"psi(2)-(1-gamma)={bigfloat_str(gap2, 3)}")


def test_05_family1_pairs_and_decay():
    pairs_ok = (corollary1_pair(1, 0) == (1, 2)
                and corollary1_pair(2, 0) == (4, 7)
                and corollary1_pair(3, 0) == (20, 34))
    rows = {row.m: row for row in approx_table(1, 0, 40, CTX30)}
    decay_ok = rows[40].abs_error < rows[10].abs_error / 10
    report("family-1 pairs and error decay",
           pairs_ok and decay_ok,
           f"e10={bigfloat_str(rows[10].abs_error, 3)}, "
           f"e40={bigfloat_str(rows[40].abs_error, 3)}")


def test_06_family2_pairs_and_decay():
    pairs_ok = (corollary2_pair(1, 1) == (0, -1)
                and corollary2_pair(2, 1) == (2, -4))
    rows = {row.m: row for row in approx_table(2, 1, 40, CTX30)}
    decay_ok = rows[40].abs_error < rows[10].abs_error / 10
    report("family-2 pairs and error decay",
           pairs_ok and decay_ok,
           f"e10={bigfloat_str(rows[10].abs_error, 3)}, "
           f"e40={bigfloat_str(rows[40].abs_error, 3)}")


def test_07_partial_sums_at_u1():
    shrink_ok = True
    details = []
    for r in (0, 1, 2):
        trend = dict(series_partial_trend(1, r, 30, CTX30))
        e5 = absdiff(trend[5], 1)
        e30 = absdiff(trend[30], 1)
        shrink_ok &= e30 < e5 / 10
        details.append(f"r={r}: {bigfloat_str(e5, 2)}->{bigfloat_str(e30, 2)}")
    paths_ok = True
    for r in (0, 1, 2):
        exact = dict(series_partial_trend(1, r, 15, CTX30))
        quad = dict(per_term_series_trend(1, r, 15, CTX30, "quadrature"))
        for m in exact:
            paths_ok &= absdiff(exact[m], quad[m]) < mpf(10) ** -25
    report("partial sums at u=1", shrink_ok and paths_ok, "; ".join(details))


def test_08_shift_identity_checks():
    all_ok = True
    for eps in (Fraction(-3, 4), Fraction(-2, 3)):
        for r in (0, 1):
            for u in (Fraction(1, 2), Fraction(1)):
                # j = 1 is the one-step shift recurrence
                for j in (1, 2, 3):
                    exp = check_shift_expansion(j, eps, r, u, CTX30)
                    all_ok &= exp.verdict == NUMERIC_PASS
    h = Fraction(1, 10 ** 6)
    direct = norm_log_moment_deriv(Fraction(-3, 4), 0, 1, 1, CTX30)
    with mp.workprec(600):
        fd = (norm_log_moment(Fraction(-3, 4), 0, 1 + h, CTX30)
              - norm_log_moment(Fraction(-3, 4), 0, 1 - h, CTX30)) \
            / (2 * mpf(10) ** -6)
    fd_gap = absdiff(direct, fd)
    report("shift identity checks",
           all_ok and fd_gap < mpf(10) ** -10,
           f"finite-difference gap {bigfloat_str(fd_gap, 3)}")


def test_09_digamma_series_harness():
    conventions = (B1_MINUS_HALF, B1_PLUS_HALF)
    completed = True
    differ = True
    for u in (Fraction(1, 2), Fraction(1), Fraction(2)):
        points = digamma_series_scan(u, range(1, 21), CTX30)
        completed &= len(points) == 40
        at_20 = {p.convention: p.residual for p in points if p.m == 20}
        differ &= at_20[B1_MINUS_HALF] != at_20[B1_PLUS_HALF]
    calibrated = calibrated_convention(digamma_series_scan(1, [20], CTX30))
    report("digamma-series harness",
           completed and differ and calibrated in conventions,
           f"calibrated convention: {calibrated}")


def test_10_cli_determinism(capsys):
    commands = [
        ["delta", "--digits", "20", "--format", "json"],
        ["approx", "--corollary", "1", "--r", "0", "--max-m", "8",
         "--digits", "15", "--format", "csv"],
        ["theorem", "--u", "1", "--r", "1", "--max-m", "5", "--digits", "15",
         "--format", "csv"],
        ["identities", "--max-m", "5", "--format", "csv"],
        ["conjecture", "--u", "1", "--max-m", "2", "--digits", "15",
         "--format", "json"],
    ]
    ok = True
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = cli_main(argv)
            captured = capsys.readouterr()
            ok &= code == 0
            outputs.append(captured.out)
        ok &= len(set(outputs)) == 1
    with capsys.disabled():
        report("CLI determinism", ok, f"{len(commands)} commands x 2 runs")
