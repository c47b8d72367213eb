import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import chain, islice
from pathlib import Path
from types import SimpleNamespace

import pytest

from catwords import cli, counting, genfun, series
from catwords.counting import a_zeros_closed, catalan_number
from catwords.words import CatalanWord, enumerate_words
from test_cli_golden import ROUTE_PAIRS, SERIES_NAMES
from test_words import peak_word

SRC = Path(__file__).resolve().parent.parent / "src"


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


def run_streamed(monkeypatch, *argv, trace=False):
    """Exit code and sha256 of stdout of one command, whose output is hashed
    as it is written and never held; with trace, also its traced peak."""
    digest = hashlib.sha256()

    class Sink:
        def write(self, text):
            digest.update(text.encode())
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Sink())
    peak = None
    if not trace:
        code = cli.main(list(argv))
    else:
        tracemalloc.start()
        try:
            code = cli.main(list(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return code, digest.hexdigest(), peak


def listing_digest(stream):
    """sha256 of "\n".join(map(str, stream)) + "\n", fed one line at a time."""
    digest = hashlib.sha256()
    for w in stream:
        digest.update(f"{w}\n".encode())
    return digest.hexdigest()


def letters_of(chunk):
    """A chunk's letters end to end and its word length, as _write_listing
    passes them to an encoder: bytes up to the digit length, else a tuple."""
    length = len(chunk[0])
    flat = bytes if length <= cli._DIGIT_LENGTH else tuple
    return flat(chain.from_iterable(chunk)), length


def chunk_text(chunk, fmt):
    """A chunk of words as a listing in the format writes it: one line per
    word, or the words as json.dumps writes the list, without brackets."""
    if fmt == "json":
        return json.dumps(chunk)[1:-1]
    return "".join(",".join(map(str, w)) + "\n" for w in chunk)


def run_fresh(*argv, flags=()):
    """`catwords` in a fresh interpreter, whose caches start empty."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *flags, "-B", "-m", "catwords.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


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
        """At n = 11 the JSON listing (16,796 words, six chunks) is written
        chunk by chunk: the same bytes as json.dumps of the whole list, with
        a traced peak well under what holding every word as a list takes
        (about 6.3 MiB with CPython 3.11)."""
        code, digest, peak = run_streamed(
            monkeypatch, "enumerate", "--n", "11", "--format", "json", trace=True
        )
        expected = json.dumps([list(w) for w in enumerate_words(11)]) + "\n"
        assert code == 0
        assert digest == hashlib.sha256(expected.encode()).hexdigest()
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("fmt", ["lines", "csv"])
    def test_listing_is_str_per_line(self, monkeypatch, fmt):
        """Every listing up to n = 13 (208,012 words, 83 chunks) on the
        byte path is one str(word) per line."""
        for n in range(1, 14):
            code, digest, _ = run_streamed(monkeypatch, "enumerate", "--n", str(n), "--format", fmt)
            assert (code, digest) == (0, listing_digest(enumerate_words(n))), n

    def test_lines_listing_streams(self, monkeypatch):
        # holding the 208,012 words of length 13 as tuples takes over 30 MiB
        code, _, peak = run_streamed(monkeypatch, "enumerate", "--n", "13", trace=True)
        assert code == 0
        assert peak < 5 * 2**20

    def test_closed_pipe_exits_141(self):
        # A reader that stops early, as `| head -c 20` does, is no crash:
        # exit 128 + SIGPIPE, as any filter cut off so, with nothing on stderr.
        proc = subprocess.Popen(
            [sys.executable, "-B", "-m", "catwords.cli", "enumerate", "--n", "30"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            head = proc.stdout.read(20)
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert (len(head), proc.returncode, err) == (20, 141, b"")

    def test_cut_long_listing_peak_rss(self):
        # A chunk holds at most _CHUNK_LETTERS letters, so a listing of
        # 3,000-letter words cut by its reader peaks at about 17 MiB
        # (CPython 3.11 on Linux); chunks of 4,096 words peaked at 238 MiB
        # before the first byte was written.  A small fresh interpreter
        # starts the listing and reads its peak, so the peak is not raised
        # to that of this process, which a child can inherit at exec.
        code = (
            "import json, resource, subprocess, sys\n"
            "argv = [sys.executable, '-B', '-m', 'catwords.cli', 'enumerate', '--n', '3000']\n"
            "proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)\n"
            "head = proc.stdout.read(40)\n"
            "proc.stdout.close()\n"
            "_, err = proc.communicate(timeout=60)\n"
            "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
            "print(json.dumps([len(head), proc.returncode, err.decode(), peak // 1024]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        length, code, err, peak_mib = json.loads(proc.stdout)
        assert (length, code, err) == (40, 141, "")
        assert peak_mib < 40, peak_mib

    def test_encoder_paths_at_the_digit_boundary(self):
        # length 20 is the longest word whose letters are all single digits;
        # letter 10 would be a newline byte, and 256 does not fit in a byte.
        # Words of length 25 take the tuple path even when every letter is a digit.
        for chunk in (
            [CatalanWord((*peak_word(9), 0))] * 3,
            [peak_word(10), CatalanWord((*peak_word(9), 0, 0))],
            [*islice(enumerate_words(25), 3), peak_word(12)],
            [peak_word(256)],
        ):
            for fmt, (punct, _, _) in cli._LISTINGS.items():
                assert cli._encode(*letters_of(chunk), punct) == chunk_text(chunk, fmt), fmt

    def test_json_encoder_matches_json_dumps(self):
        # every chunk of every listing through n = 12 takes the byte path;
        # json's is what json.dumps writes of the chunk, without brackets
        for n in range(1, 13):
            stream = enumerate_words(n)
            while chunk := list(islice(stream, max(1, cli._CHUNK_LETTERS // n))):
                letters, length = letters_of(chunk)
                for fmt, (punct, _, _) in cli._LISTINGS.items():
                    assert cli._encode(letters, length, punct) == chunk_text(chunk, fmt), (n, fmt)

    @pytest.mark.parametrize("fmt", ["lines", "csv", "json"])
    @pytest.mark.parametrize("n", [12, 23])
    def test_listing_holds_no_chunk_of_words(self, monkeypatch, n, fmt):
        """The listing flattens each chunk's letters as the words stream
        past: of two and a half chunks of words, on the byte path (n = 12)
        and the tuple path (n = 23), no more than two are alive at once."""

        class Counted(tuple):
            live = peak = 0

            def __new__(cls, letters):
                word = tuple.__new__(cls, letters)
                Counted.live += 1
                Counted.peak = max(Counted.peak, Counted.live)
                return word

            def __del__(self):
                Counted.live -= 1

        total = 5 * max(1, cli._CHUNK_LETTERS // n) // 2
        stream = (Counted(w) for w in islice(enumerate_words(n), total))
        digest = hashlib.sha256()
        sink = SimpleNamespace(write=lambda text: digest.update(text.encode()))
        monkeypatch.setattr(sys, "stdout", sink)
        cli._write_listing(stream, n, fmt)
        expected = [list(w) for w in islice(enumerate_words(n), total)]
        if fmt == "json":
            text = json.dumps(expected) + "\n"
        else:
            text = "".join(",".join(map(str, w)) + "\n" for w in expected)
        assert digest.hexdigest() == hashlib.sha256(text.encode()).hexdigest()
        assert Counted.peak <= 2 and Counted.live == 0


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
        proc = run_fresh("count", "--table", "zeros", "--n", "350")
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

    def test_enum_letter_past_a_byte_counts_as_its_clamp(self, capsys):
        # a tally reads its words as bytes; i = 300 counts as (n + 1) // 2 = 3
        argv = ("count", "--table", "letter", "--n", "6", "--source", "enum", "--i")
        _, want, _ = run(capsys, *argv, "3")
        assert run(capsys, *argv, "300") == (0, want, "")

    def test_enum_tally_past_a_byte_is_usage_error(self, capsys):
        # refused before any word is walked, also under python -O; the
        # byte lanes of a tally hold sums up to 255
        message = "error: tally takes word lengths up to 255, got 600\n"
        argv = ("count", "--table", "zeros", "--n", "600", "--source", "enum")
        proc = run_fresh(*argv, flags=("-O",))
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)
        assert run(capsys, *argv) == (2, "", message)
        argv = ("count", "--table", "zeros-descents", "--n", "256", "--source", "enum")
        message = "error: tally takes word lengths up to 255, got 256\n"
        proc = run_fresh(*argv, flags=("-O",))
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)
        assert run(capsys, *argv) == (2, "", message)

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

    def test_i_requires_letter_table(self, capsys):
        assert run_usage_error(capsys, "count", "--table", "zeros", "--n", "5", "--i", "3") == 2

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

    def test_order_past_field_bound_names_the_cap(self, capsys):
        # --order is copied into the w, v and q caps, whose bound is lower
        code, out, err = run(capsys, "series", "--name", "fine", "--order", "2001")
        assert code == 2 and out == ""
        assert "error: cap w = 2001 exceeds the packed-field bound 2000" in err

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


class TestAgree:
    def test_fault_is_located_and_every_report_printed(self, capsys, monkeypatch):
        def off_by_one(n, m):
            return a_zeros_closed(n, m) + ((n, m) == (7, 3))

        monkeypatch.setattr(counting, "a_zeros_closed", off_by_one)
        code, out, err = run(capsys, "agree", "--n", "8")
        reports = [json.loads(line) for line in out.splitlines()]
        good = a_zeros_closed(7, 3)
        assert (code, err) == (1, "")
        assert len(reports) == 68
        assert [r for r in reports if r["status"] != "pass"] == [{
            "table": "zeros", "n": 7, "sources": ["enum", "recurrence", "closed", "genfun"],
            "rows": 6, "status": "fail",
            "mismatch": {
                "key": [3],
                "values": {"enum": str(good), "recurrence": str(good), "closed": str(good + 1), "genfun": str(good)},
            },
        }]


# The genfun certificates and the exact-division checks are explicit raises,
# so -O must change nothing.  At n = 9, agree checks enumeration, by a prefix
# walk and memoized tails, against every other route; the listing's byte
# path takes no assert either.
@pytest.mark.parametrize(
    "flags, argv",
    [
        ((), "agree --n 6"),
        (("-O",), "agree --n 9"),
        ((), "verify --identity all --order 5 --qmax 3"),
        (("-O",), "verify --identity all --order 6 --qmax 3"),
        (("-O",), "enumerate --n 9"),
    ],
    ids=["agree-6", "agree-9-O", "verify-5", "verify-6-O", "enumerate-9-O"],
)
def test_fresh_interpreter_exits_zero(flags, argv):
    proc = run_fresh(*argv.split(), flags=flags)
    assert proc.returncode == 0, proc.stderr
    if argv.startswith("enumerate"):
        stdout = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert stdout == listing_digest(enumerate_words(9))


def test_import_loads_no_dataclasses_inspect_or_typing():
    """Every command pays its import before any work.  The package needs
    none of these modules, and dataclasses alone pulls in inspect, ast,
    dis and tokenize."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import catwords.cli\n"
        "for name in ('dataclasses', 'inspect', 'typing', 'ast', 'dis', 'tokenize'):\n"
        "    if name in sys.modules:\n"
        "        print(name)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


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

    def test_kernel_failure(self, capsys, monkeypatch):
        # Every series the CLI builds inverts a unit constant term, so a
        # refused inverse is a fault in the kernel, not a usage error.
        def non_unit(coeffs, caps4):
            raise series.NonInvertibleError("constant term 2 is not a unit: expected 1 or -1")

        monkeypatch.setattr(series, "_invert", non_unit)
        code, out, err = run(capsys, "series", "--name", "B", "--order", "6")
        assert (code, out) == (3, "")
        assert err == "error: NonInvertibleError: constant term 2 is not a unit: expected 1 or -1\n"
