import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from torushom import curves, recursion
from torushom.algebra import Q, RatFunc, T, q_poly_from_json, ratfunc_from_json, table_from_json
from torushom.braid import half_twist, torus_braid
from torushom.cli import dispatch

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExamples:
    def test_hhh_a0_trefoil(self, capsys):
        code, out, _ = run(capsys, "hhh", "torus", "2", "3", "--a0")
        assert code == 0
        assert out.strip() == "(1 + q*t^-1) / (1-q)^1"

    def test_catalan(self, capsys):
        code, out, _ = run(capsys, "catalan", "3", "4")
        assert code == 0 and out.strip() == "5"

    def test_count(self, capsys):
        code, out, _ = run(
            capsys, "count", "--strands", "2", "--word", "1,1,1", "--target", "e"
        )
        assert code == 0 and out.strip() == "q^2 - q"

    def test_count_w0(self, capsys):
        code, out, _ = run(
            capsys, "count", "--strands", "2", "--word", "1,1", "--target", "w0"
        )
        assert code == 0 and out.strip() == "q - 1"

    def test_count_brute(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--strands", "2", "--word", "1,1,1", "--target", "e",
            "--brute", "3",
        )
        assert code == 0 and out.strip() == "6"

    def test_census(self, capsys):
        code, out, _ = run(capsys, "hhh", "torus", "3", "4", "--census")
        assert code == 0
        assert out.splitlines() == ["a^0: 5", "a^1: 5", "a^2: 1"]

    def test_reduced(self, capsys):
        code, out, _ = run(capsys, "hhh", "torus", "2", "3", "--reduced")
        assert code == 0 and out.strip() == "t + q"

    @pytest.mark.parametrize("m,n", [(0, 1), (1, 0), (1, 1)])
    def test_unknot_reduced_agrees_with_census(self, capsys, m, n):
        # Every unknot T(m, n) has the reduced numerator 1: one term, at a^0.
        code, out, _ = run(capsys, "hhh", "torus", str(m), str(n), "--reduced")
        assert code == 0 and out.strip() == "1"
        code, out, _ = run(capsys, "hhh", "torus", str(m), str(n), "--census")
        assert code == 0 and out.splitlines() == ["a^0: 1"]

    def test_truncate(self, capsys):
        code, out, _ = run(capsys, "hhh", "torus", "1", "1", "--a0", "--truncate", "2")
        assert code == 0
        assert out.splitlines() == ["q^0: 1", "q^1: 1", "q^2: 1"]

    def test_euler_truncate(self, capsys):
        code, out, _ = run(capsys, "hhh", "torus", "2", "3", "--euler", "--truncate", "3")
        assert code == 0
        assert out.splitlines() == ["q^0: 1", "q^1: 1", "q^2: 2", "q^3: 2"]

    def test_curve_and_soergel_render(self, capsys):
        code, out, _ = run(capsys, "curve", "hilb", "2", "3", "--max-k", "3")
        assert code == 0
        assert out.splitlines()[2] == "k=2: 1 + t^2"
        code, out, _ = run(capsys, "curve", "node", "--max-k", "2")
        assert code == 0
        code, out, _ = run(capsys, "soergel2", "2", "--cutoff", "4")
        assert code == 0
        assert "Q^4 T^-2: 1" in out.splitlines()

    def test_ors(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "ors", "2", "3", "--max-k", "6")
        assert code == 0
        assert out.splitlines() == ["ors(2,3) kmax=6: match", "euler(2,3) kmax=6: match"]
        code, out, _ = run(capsys, "ors", "2", "3", "--max-k", "6", "--json")
        assert code == 0
        assert json.loads(out) == {
            "m": 2, "n": 3, "kmax": 6, "match": True, "euler_match": True,
        }
        code, _, err = run(capsys, "ors", "2", "4", "--max-k", "6")
        assert code == 2 and "coprime" in err
        # A monomial shift of the a=0 series is a wrong answer.
        hhh_a0 = recursion.hhh_a0
        for shift in (Q, T):
            def shifted(m, n, shift=shift):
                r = hhh_a0(m, n)
                return RatFunc(r.num * shift, r.denom_pow)

            monkeypatch.setattr(recursion, "hhh_a0", shifted)
            code, out, _ = run(capsys, "ors", "3", "4", "--max-k", "10")
            assert code == 1
            assert out.splitlines() == [
                "ors(3,4) kmax=10: MISMATCH", "euler(3,4) kmax=10: MISMATCH",
            ]


class TestJsonOutputs:
    def test_hhh_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "hhh", "torus", "2", "2", "--json")
        assert code == 0
        from torushom.recursion import hhh_torus

        assert ratfunc_from_json(out) == hhh_torus(2, 2)

    def test_count_json(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--strands", "2", "--word", "1,1,1", "--target", "e", "--json",
        )
        assert code == 0
        assert out.strip() == '{"q_poly": {"0": "0", "1": "-1", "2": "1"}}'
        assert q_poly_from_json(out) == Q * Q - Q

    def test_table_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "curve", "node", "--max-k", "4", "--json")
        assert code == 0
        from torushom.curves import node_hilb

        assert table_from_json(out) == node_hilb(4)

    def test_jac_json(self, capsys):
        code, out, _ = run(capsys, "curve", "jac", "2", "3", "--json")
        assert code == 0
        cells = json.loads(out)
        assert sorted(c["dimension"] for c in cells) == [0, 1]

    def test_jac_json_is_the_cells_json_in_a_list(self, capsys):
        # One dump of the whole list prints the bytes of each cell's own
        # to_json joined into a JSON list.
        from torushom.curves import jacobian_cells

        code, out, _ = run(capsys, "curve", "jac", "4", "7", "--json")
        assert code == 0
        cells = jacobian_cells(4, 7)
        assert out == "[" + ", ".join(c.to_json() for c in cells) + "]\n"
        assert json.loads(out) == [c.to_dict() for c in cells]

    @pytest.mark.parametrize("m,n,cells", [(4, 7, 30), (5, 6, 42), (5, 7, 66), (6, 7, 132)])
    def test_jacobian_cells_past_the_assignment_counter(self, capsys, m, n, cells):
        start = time.perf_counter()
        code, out, _ = run(capsys, "curve", "jac", str(m), str(n), "--json")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        dims = [c["dimension"] for c in json.loads(out)]
        assert len(dims) == cells and max(dims) == (m - 1) * (n - 1) // 2

    def test_hilb_series_past_the_assignment_counter(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "curve", "hilb", "5", "6", "--max-k", "30")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert out.splitlines()[-1].startswith("k=30: 1 + t^2 + 2*t^4")

    @pytest.mark.parametrize(
        "flags",
        [[], ["--a0"], ["--euler"], ["--reduced"], ["--census"]]
        + [["--truncate", "2"], ["--a0", "--truncate", "2"], ["--euler", "--truncate", "2"]],
    )
    def test_every_hhh_mode_in_json(self, capsys, flags):
        code, out, _ = run(capsys, "hhh", "torus", "2", "3", *flags, "--json")
        assert code == 0
        json.loads(out)

    def test_verify_json_idempotent(self, capsys):
        def stripped():
            code, out, _ = run(capsys, "verify", "hm-paper-tables", "--json")
            assert code == 0
            data = json.loads(out)
            for report in data:
                for check in report["checks"]:
                    check.pop("seconds")
            return data

        assert stripped() == stripped()


class TestExitCodes:
    def test_unknown_suite(self, capsys):
        code, out, err = run(capsys, "verify", "nonexistent")
        assert code == 2
        assert "unknown suite" in err

    def test_malformed_flags(self, capsys):
        code, _, _ = run(capsys, "count", "--strands", "2")
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_malformed_word_names_the_letter(self, capsys):
        code, out, err = run(capsys, "count", "--strands", "2", "--word", "1,x")
        assert code == 2 and not out
        assert "braid letter 'x' is not an integer generator index" in err

    @pytest.mark.parametrize("brute", [[], ["--brute", "2"]])
    def test_inverse_letter_refused(self, capsys, brute):
        # Words are positive: an inverse letter is refused as the word is read.
        code, out, err = run(capsys, "count", "--strands", "2", "--word", "1,-1", *brute)
        assert code == 2 and not out
        assert "braid letter -1" in err and "braid words are positive" in err

    def test_domain_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "catalan", "2", "4")
        assert code == 2
        assert "coprime" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--threads", "2", "verify", "hecke-vs-brute"],
            ["count", "--strands", "2", "--word", "1,1,1", "--brute", "3", "--threads", "2"],
        ],
    )
    def test_threads_option_is_gone(self, capsys, argv):
        # Brute force runs in one thread; no parser accepts --threads.
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("usage: torushom")

    @pytest.mark.parametrize(
        "first,second", itertools.combinations(["--a0", "--euler", "--reduced", "--census"], 2)
    )
    def test_hhh_modes_are_exclusive(self, capsys, first, second):
        # Each mode answers a different question; two of them used to be
        # answered silently by whichever the command checked first.
        code, out, err = run(capsys, "hhh", "torus", "3", "4", first, second)
        assert code == 2 and not out
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("mode", ["--reduced", "--census"])
    def test_truncate_refused_with_a_polynomial_mode(self, capsys, mode):
        code, out, err = run(capsys, "hhh", "torus", "3", "4", mode, "--truncate", "3")
        assert code == 2 and not out
        assert "--truncate does not apply" in err

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["curve", "hilb", "2", "3", "--max-k", "-1"], "colength must be >= 0"),
            (["soergel2", "3", "--cutoff", "-5"], "cutoff must be >= 0"),
        ],
    )
    def test_negative_bound_refused(self, capsys, argv, what):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert what in err

    def test_torus_over_budget_rejected_quickly(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "hhh", "torus", "30", "30")
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert "total length 60" in err and "admission budget" in err

    @pytest.mark.parametrize("m", ["0", "1"])
    def test_long_thin_torus_rejected_quickly(self, capsys, m):
        # T(0, n) is one state with a base of n + 1 binomials of about n bits;
        # T(1, n) has about n states whose strings sum to about n^2 / 2.
        start = time.perf_counter()
        code, _, err = run(capsys, "hhh", "torus", m, "200000")
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert f"total length {200000 + int(m)}" in err

    @pytest.mark.parametrize("flag", [[], ["--a0"]])
    def test_huge_torus_root_rejected_quickly(self, capsys, flag):
        # The root strings alone would take 10 GB.
        start = time.perf_counter()
        code, _, err = run(capsys, "hhh", "torus", "0", "10000000000", *flag)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "total length 10000000000" in err and "admission budget" in err

    @pytest.mark.parametrize("m,n", [(0, 15000), (15000, 0), (0, 77000)])
    def test_unprintable_root_rejected_quickly(self, capsys, m, n):
        # (1 + a)^15000 has coefficients of 4,514 digits, past the default
        # limit of 4,300; the a = 0 part has unit coefficients.
        start = time.perf_counter()
        code, out, err = run(capsys, "hhh", "torus", str(m), str(n))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"T({m},{n}) has series coefficients of more than 4300 digits" in err
        code, out, _ = run(capsys, "hhh", "torus", str(m), str(n), "--a0")
        assert code == 0 and out.strip() == f"(1) / (1-q)^{m + n}"

    @pytest.mark.parametrize("n,code", [(2131, 0), (2132, 2)])
    def test_unprintable_root_boundary(self, capsys, n, code):
        # At Python's lowest limit, 640 digits, C(2131, 1065) has 640 digits
        # and C(2132, 1066) has 641.
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            got, out, err = run(capsys, "hhh", "torus", "0", str(n), "--json")
        finally:
            sys.set_int_max_str_digits(default)
        assert got == code
        if code:
            assert "more than 640 digits" in err
        else:
            assert ratfunc_from_json(out).denom_pow == n

    def test_a0_answered_where_the_full_series_is_refused(self, capsys, monkeypatch):
        from torushom import recursion

        # The a = 0 part of T(15,15) holds at most 25 MiB of numerators at a
        # time, and the full series about 590 MiB.
        monkeypatch.setattr(recursion, "MAX_LIVE_BYTES", 32 << 20)
        code, out, _ = run(capsys, "hhh", "torus", "15", "15", "--a0", "--json")
        assert code == 0
        assert ratfunc_from_json(out).denom_pow == 15
        code, _, err = run(capsys, "hhh", "torus", "15", "15")
        assert code == 2
        assert "total length 30" in err and "memory budget" in err

    @pytest.mark.parametrize("max_k", ["3000000", "10000000000"])
    def test_node_over_level_budget_rejected_quickly(self, capsys, max_k):
        start = time.perf_counter()
        code, out, err = run(capsys, "curve", "node", "--max-k", max_k)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"colength {max_k}" in err and "level budget" in err

    def test_node_within_level_budget(self, capsys):
        code, out, _ = run(capsys, "curve", "node", "--max-k", "10000")
        assert code == 0
        assert out.splitlines()[-1] == "q^10000 t^2: 9999"

    @pytest.mark.parametrize(
        "argv,what",
        [
            (("jac", "17", "18"), "modules of x^17 = y^18"),
            (("hilb", "1", "2", "--max-k", "2000"), "colength <= 2000 of x^1 = y^2"),
            (("hilb", "6", "7", "--max-k", "10000000000"), "x^6 = y^7"),
        ],
    )
    def test_curve_over_module_budget_rejected_quickly(self, capsys, argv, what):
        start = time.perf_counter()
        code, _, err = run(capsys, "curve", *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert what in err and "module budget" in err

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (["0", "14000", "--truncate", "100"], "series budget"),
            (["0", "9000", "--a0", "--truncate", "9000"], "4300 digits"),
        ],
    )
    def test_truncate_refused_quickly(self, capsys, argv, limit):
        # The first expansion passes the series budget; the second fits it,
        # but C(17999, 9000) has more digits than Python prints.
        start = time.perf_counter()
        code, out, err = run(capsys, "hhh", "torus", *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 2 and not out
        assert limit in err

    @pytest.mark.parametrize("word", ["1", ""])
    def test_brute_huge_prime_rejected_quickly(self, capsys, word):
        # 10000000000000000051 is prime: trial division would take about 3e9
        # steps, but no fixed-width type holds its entries.
        start = time.perf_counter()
        code, out, err = run(
            capsys, "count", "--strands", "2", "--word", word, "--brute", "10000000000000000051"
        )
        assert time.perf_counter() - start < 2.0
        assert code == 2 and not out
        assert "p = 10000000000000000051 is too large for brute force" in err

    @pytest.mark.parametrize("m,n", [(1000000, 1000001), (10000000, 10000001)])
    def test_unprintable_catalan_rejected_quickly(self, capsys, m, n):
        start = time.perf_counter()
        code, out, err = run(capsys, "catalan", str(m), str(n))
        assert time.perf_counter() - start < 2.0
        assert code == 2 and not out
        assert f"c({m},{n}) has more than 4300 digits" in err

    def test_catalan_near_the_diagonal_refused_or_printed(self, capsys):
        # (N // k)^k bounds C(N, k) loosely near m = n: c(7500, 7501) is under
        # that bound but past 4300 digits, and c(7000, 7001) has 4209.
        code, out, err = run(capsys, "catalan", "7500", "7501")
        assert code == 2 and not out
        assert "c(7500,7501) has more than 4300 digits" in err
        code, out, _ = run(capsys, "catalan", "7000", "7001")
        assert code == 0 and len(out.strip()) == 4209
        assert int(out) == curves.rational_catalan(7000, 7001)

    def test_soergel_over_budget_rejected_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "soergel2", "3", "--cutoff", "1" + "0" * 30)
        assert time.perf_counter() - start < 2.0
        assert code == 2 and not out
        assert "two-strand budget" in err

    def test_soergel_long_table_rejected_quickly(self, capsys):
        # T(2, 0) adds a table entry at every even degree: 5 * 10^8 of them
        # would not fit in memory.
        start = time.perf_counter()
        code, out, err = run(capsys, "soergel2", "0", "--cutoff", "1000000000")
        assert time.perf_counter() - start < 2.0
        assert code == 2 and not out
        assert "two-strand budget" in err

    def test_soergel_long_complex_answers_quickly(self, capsys):
        # Positions past cutoff / 2 have no internal degree <= cutoff, so the
        # table of T(2, 10^9) is built from its first three positions.
        start = time.perf_counter()
        code, out, _ = run(capsys, "soergel2", "1000000000", "--cutoff", "4")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert out == run(capsys, "soergel2", "5", "--cutoff", "4")[1]
        assert out.splitlines() == ["Q^0 T^0: 1", "Q^2 T^0: 1", "Q^4 T^-2: 1", "Q^4 T^0: 1"]

    def test_fold_over_budget_rejected(self, capsys):
        # Both halves of this word and the word of w0 reach w0, so the word is
        # folded alone, and that fold would reach 10! rows.
        twist = half_twist(10).concat(half_twist(10)).concat(torus_braid(10, 1))
        code, _, err = run(
            capsys, "count", "--strands", "10", "--word", twist.word_str(), "--target", "w0"
        )
        assert code == 2
        assert "braid word of 99 letters on 10 strands" in err and "memory budget" in err

    def test_split_fold_answers_quickly(self, capsys):
        # At e two folds of half the word meet in the middle, far below 10! rows.
        word = torus_braid(10, 11).word_str()
        start = time.perf_counter()
        code, out, _ = run(capsys, "count", "--strands", "10", "--word", word, "--json")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        # (q - 1)^9 divides the count: its Taylor coefficients at q = 1
        # below degree 9 vanish.
        coeffs = q_poly_from_json(out).coeffs.items()
        assert not any(sum(c * math.comb(e, j) for e, c in coeffs) for j in range(9))

    @pytest.mark.parametrize("target,count", [("w0", "1"), ("e", "0")])
    def test_twelve_strand_half_twist(self, capsys, target, count):
        word = half_twist(12).word_str()
        code, out, _ = run(capsys, "count", "--strands", "12", "--word", word, "--target", target)
        assert code == 0 and out.strip() == count

    def test_verify_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "braid-variety-closed-forms")
        assert code == 0
        assert "3/3 checks passed" in out


def run_fresh(code: str, **env_vars: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports torushom from src/."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(env_vars)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result


class TestImport:
    # All arithmetic is integer, so numpy never calls BLAS; OpenBLAS is loaded
    # with one thread and the environment is left as the user set it.

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_one_thread_and_environment_restored(self):
        out = run_fresh(
            "import os, torushom; "
            "print(len(os.listdir('/proc/self/task')), 'OPENBLAS_NUM_THREADS' in os.environ)"
        ).stdout
        assert out.split() == ["1", "False"]

    def test_user_setting_is_kept(self):
        out = run_fresh(
            "import os, torushom; print(os.environ['OPENBLAS_NUM_THREADS'])",
            OPENBLAS_NUM_THREADS="3",
        ).stdout
        assert out.strip() == "3"

    def test_numpy_imported_first(self):
        out = run_fresh(
            "import os; before = dict(os.environ); import numpy, torushom; "
            "print(dict(os.environ) == before)"
        ).stdout
        assert out.strip() == "True"
