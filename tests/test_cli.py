import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from catwords import cli, genfun
from catwords.counting import a_zeros_closed, catalan_number
from catwords.words import enumerate_words
from test_cli_golden import ROUTE_PAIRS, SERIES_NAMES


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_usage_error(capsys, *argv):
    """argparse reports usage problems by raising SystemExit(2)."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    capsys.readouterr()
    return exc.value.code


class TestEnumerate:
    def test_n4_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4")
        lines = out.strip().split("\n")
        assert code == 0
        assert len(lines) == 5
        assert lines[0] == "0,0,0,0"
        assert "0,1,0,1" in lines
        assert lines == sorted(lines)

    def test_n1(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "1")
        assert code == 0 and out.strip() == "0"

    def test_n0_usage_error(self, capsys):
        assert run_usage_error(capsys, "enumerate", "--n", "0") == 2

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "5", "--format", "json")
        words = json.loads(out)
        assert code == 0
        assert len(words) == 14
        assert words[0] == [0, 0, 0, 0, 0]
        assert json.loads(json.dumps(words)) == words

    def test_json_listing_streams(self, monkeypatch):
        """At n = 11 the JSON listing (16,796 words, five chunks) is written
        chunk by chunk: the same bytes as json.dumps of the whole list, with
        a traced peak well under what holding every word as a list takes
        (about 6.3 MiB with CPython 3.11)."""
        digest = hashlib.sha256()

        class Sink:
            def write(self, text):
                digest.update(text.encode())
                return len(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Sink())
        tracemalloc.start()
        try:
            code = cli.main(["enumerate", "--n", "11", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = json.dumps([list(w) for w in enumerate_words(11)]) + "\n"
        assert code == 0
        assert digest.hexdigest() == hashlib.sha256(expected.encode()).hexdigest()
        assert peak < 5 * 2**20


class TestCount:
    def test_zeros_closed_n5(self, capsys):
        code, out, _ = run(capsys, "count", "--table", "zeros", "--n", "5", "--source", "closed")
        assert code == 0
        assert out.strip().split("\n") == ["2 5", "3 5", "4 3", "5 1"]

    def test_fine_recurrence(self, capsys):
        code, out, _ = run(capsys, "count", "--table", "fine", "--n", "6", "--source", "recurrence")
        assert code == 0 and out.strip() == "18"

    def test_letter_table_includes_spec_row(self, capsys):
        code, out, _ = run(
            capsys, "count", "--table", "letter", "--i", "2", "--n", "5",
            "--source", "recurrence",
        )
        assert code == 0
        assert "1 2 2" in out.strip().split("\n")  # (s=1, t=2) -> 2

    @pytest.mark.parametrize("table", ["zeros", "ones", "zeros-descents", "ones-zeros", "max-letter", "fine", "letter"])
    def test_sources_agree_byte_for_byte(self, capsys, table):
        # letter i = 2001 lies past every letter a word of length 9 can hold
        for extra in (["--i", "2"], ["--i", "5"], ["--i", "2001"]) if table == "letter" else ([],):
            outputs = []
            for source in cli.ROUTES[table]:
                argv = ["count", "--table", table, "--n", "9", "--source", source, *extra]
                code, out, _ = run(capsys, *argv)
                assert code == 0, (table, source, extra)
                outputs.append(out)
            assert all(o == outputs[0] for o in outputs), (table, extra)

    def test_zeros_recurrence_at_n350(self):
        # a fresh interpreter, so that the zero array fills from empty
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "catwords.cli", "count", "--table", "zeros", "--n", "350"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        rows = [tuple(map(int, line.split())) for line in proc.stdout.splitlines()]
        assert rows == [(m, a_zeros_closed(350, m)) for m in range(2, 351)]

    def test_sources_agree_at_n12(self, capsys):
        # the overlap-domain invariant at its full stated range
        outputs = []
        for source in cli.ROUTES["zeros"]:
            code, out, _ = run(capsys, "count", "--table", "zeros", "--n", "12", "--source", source)
            assert code == 0
            outputs.append(out)
        assert all(o == outputs[0] for o in outputs)

    def test_golden_grid_covers_every_route(self):
        assert sorted(ROUTE_PAIRS) == sorted(
            (table, source) for table, routes in cli.ROUTES.items() for source in routes
        )
        assert SERIES_NAMES == cli.SERIES_NAMES

    def test_unsupported_pair_is_usage_error(self, capsys):
        assert run_usage_error(capsys, "count", "--table", "zeros-descents", "--n", "5", "--source", "closed") == 2
        assert run_usage_error(capsys, "count", "--table", "max-letter", "--n", "5", "--source", "genfun") == 2

    def test_letter_requires_i(self, capsys):
        assert run_usage_error(capsys, "count", "--table", "letter", "--n", "5") == 2

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "count", "--table", "ones", "--n", "6", "--source", "genfun",
            "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["table"] == "ones" and payload["n"] == 6
        total = sum(int(row["count"]) for row in payload["rows"])
        assert total == catalan_number(5)
        assert json.dumps(payload, sort_keys=True) == out.strip()

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "count", "--table", "zeros", "--n", "4", "--format", "csv")
        assert code == 0
        assert out.strip().split("\n") == ["2,2", "3,2", "4,1"]


class TestSeries:
    def test_catalan_values(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "catalan", "--order", "4")
        data = json.loads(out)
        assert code == 0
        assert [int(t["num"]) for t in data] == [1, 1, 2, 5, 14]
        assert all(t["den"] == "1" for t in data)

    def test_fine_values(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "fine", "--order", "5")
        data = json.loads(out)
        assert [(t["exponents"][0], int(t["num"])) for t in data] == [
            (1, 1), (3, 1), (4, 2), (5, 6),
        ]

    def test_A_monomials(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "A", "--order", "3")
        data = json.loads(out)
        assert [tuple(t["exponents"]) for t in data] == [
            (1, 0, 1, 0), (2, 0, 2, 0), (3, 0, 2, 0), (3, 0, 3, 0),
        ]

    def test_Am_requires_m(self, capsys):
        assert run_usage_error(capsys, "series", "--name", "Am", "--order", "5") == 2

    def test_A4_requires_qmax(self, capsys):
        assert run_usage_error(capsys, "series", "--name", "A4", "--order", "5") == 2
        assert run_usage_error(capsys, "series", "--name", "A0", "--order", "5") == 2

    def test_A_lemma_matches_A(self, capsys):
        _, direct, _ = run(capsys, "series", "--name", "A", "--order", "7")
        _, lemma, _ = run(capsys, "series", "--name", "A-lemma", "--order", "7")
        assert direct == lemma

    def test_A0_runs(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "A0", "--order", "4", "--qmax", "3")
        data = json.loads(out)
        assert code == 0
        assert {"exponents": [3, 3, 0, 1], "num": "1", "den": "1"} in data

    def test_insufficient_jmax_is_usage_error(self, capsys):
        code, out, err = run(capsys, "series", "--name", "A-lemma", "--order", "9", "--jmax", "2")
        assert code == 2
        assert out == "" and "jmax" in err


class TestVerify:
    def test_single_identity_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "l1", "--order", "8")
        payload = json.loads(out)
        assert code == 0
        assert payload["status"] == "pass"

    def test_co1_truncated_fails_with_location(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "co1", "--order", "3", "--jmax", "1")
        payload = json.loads(out)
        assert code == 1
        assert payload["mismatch"]["exponents"] == [2, 0, 0, 0]

    def test_l2_truncated_fails_not_unstable(self, capsys):
        # unlike `series --name A-lemma`, l2 takes any jmax and reports the gap
        code, out, err = run(capsys, "verify", "--identity", "l2", "--order", "9", "--jmax", "2")
        payload = json.loads(out)
        assert code == 1 and err == ""
        assert payload["mismatch"] == {"exponents": [3, 0, 1, 0], "lhs": "-1", "rhs": "0"}

    def test_all_small_order(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "all", "--order", "5", "--qmax", "3")
        reports = json.loads(out)
        assert code == 0
        assert len(reports) == len(json.loads(json.dumps(reports)))
        assert all(r["status"] == "pass" for r in reports)

    @pytest.mark.parametrize("identity", ["th3", "th4"])
    def test_letter_sum_jmax_one_short_is_usage_error(self, capsys, identity):
        # jmax must reach min(order, qmax) - 1 = 3 here
        code, out, err = run(
            capsys, "verify", "--identity", identity, "--order", "6", "--qmax", "4", "--jmax", "2"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: jmax=2 cannot cover order 6, qmax 4")

    def test_unknown_identity_is_usage_error(self, capsys):
        assert run_usage_error(capsys, "verify", "--identity", "bogus") == 2


class TestInternalError:
    """Exit 3 with one stderr line, so that a crash never reads as exit 1,
    a failed identity."""

    def test_route_crash(self, capsys, monkeypatch):
        def crash(n, i):
            raise RuntimeError("route crashed")

        monkeypatch.setitem(cli.ROUTES["zeros"], "recurrence", crash)
        code, out, err = run(capsys, "count", "--table", "zeros", "--n", "5")
        assert (code, out, err) == (3, "", "error: RuntimeError: route crashed\n")

    @pytest.mark.parametrize("identity", ["th3", "all"])
    def test_certificate_failure(self, capsys, monkeypatch, identity):
        def uncertified(order, qmax, jmax):
            raise genfun.CertificateError("T_8(0) denominator")

        monkeypatch.setattr(genfun, "check_th3", uncertified)
        code, out, err = run(capsys, "verify", "--identity", identity, "--order", "4", "--qmax", "3")
        assert (code, out, err) == (3, "", "error: CertificateError: T_8(0) denominator\n")
