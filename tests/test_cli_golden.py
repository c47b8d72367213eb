"""Golden digests of the CLI over a fixed grid of commands.

Each case pins the exit code and the sha256 of stdout and stderr
together, so a change to any output byte, exit code, usage message or
help text shows here.  `verify` reports carry wall-clock `millis`,
which are stripped before hashing.  A usage error that a command finds
after parsing prints that command's usage line, as argparse does for
the errors it finds itself, so adding a command changes no digest.

Usage and help text are laid out by argparse, which formats to the
terminal width (fixed to 80 columns here) and whose layout has changed
between Python releases; the digests were taken with Python 3.11.
"""

import hashlib
import json

import pytest

from catwords import cli

FORMATS = ("lines", "csv", "json")
ROUTE_PAIRS = (
    ("zeros", "enum"), ("zeros", "recurrence"), ("zeros", "closed"), ("zeros", "genfun"),
    ("zeros-descents", "enum"), ("zeros-descents", "recurrence"),
    ("ones", "enum"), ("ones", "recurrence"), ("ones", "closed"), ("ones", "genfun"),
    ("ones-zeros", "enum"), ("ones-zeros", "recurrence"), ("ones-zeros", "closed"),
    ("letter", "enum"), ("letter", "recurrence"), ("letter", "genfun"),
    ("max-letter", "enum"), ("max-letter", "recurrence"),
    ("fine", "enum"), ("fine", "recurrence"), ("fine", "genfun"),
)
SERIES_NAMES = ("catalan", "A", "Am", "B", "fine", "A-lemma", "A4", "A0")
USAGE_ERRORS = (
    "enumerate --n 0",
    "count --table zeros --n 0",
    "count --table zeros-descents --n 5 --source closed",
    "count --table max-letter --n 5 --source genfun",
    "count --table letter --n 5",
    "count --table letter --i 0 --n 5",
    "count --table bogus --n 5",
    "count --table zeros --n 5 --i 3",
    "series --name catalan --order 0",
    "series --name Am --order 5",
    "series --name Am --m 0 --order 5",
    "series --name A4 --order 5",
    "series --name A0 --order 5",
    "series --name A-lemma --order 9 --jmax 2",
    "verify --order 0",
    "verify --identity bogus",
    # a q cap below 1 compares nothing, and a negative jmax is not a cut
    "verify --identity th3 --qmax 0",
    "verify --identity th4 --qmax 0",
    "series --name A4 --order 5 --qmax 0",
    "series --name A0 --order 5 --qmax 0",
    "verify --identity co1 --jmax -3",
    "verify --identity l2 --jmax -3",
    "verify --identity cheb-det --jmax -3",
    "series --name A-lemma --order 9 --jmax -3",
    "agree --n 0",
    "count --help",
    "series --help",
)

# The recurrence tables that the count-tables benchmark times, at its sizes.
BENCHMARK_TABLES = (
    "count --table zeros-descents --n 40 --source recurrence --format lines",
    "count --table ones --n 200 --source recurrence --format lines",
    "count --table max-letter --n 60 --source recurrence --format lines",
)
# The enumerate-tally benchmark's listing (in its default format) and its
# two tallies, at n = 13: 208,012 words.
BENCHMARK_WORDS = (
    "enumerate --n 13",
    *(f"count --table {table} --n 13 --source enum --format {fmt}"
      for table in ("zeros-descents", "letter --i 2") for fmt in FORMATS),
)
# The Chebyshev sums: A-lemma at the order the series-deep benchmark runs,
# the letter sums at the verify suite's default qmax.
BENCHMARK_SERIES = (
    "series --name B --order 60",
    "series --name fine --order 300",
    "series --name A-lemma --order 40",
    "series --name A4 --order 12 --qmax 8",
    "series --name A0 --order 12 --qmax 8",
)


def _grid():
    for table, source in ROUTE_PAIRS:
        letter = " --i 2" if table == "letter" else ""
        for fmt in FORMATS:
            yield f"count --table {table}{letter} --n 9 --source {source} --format {fmt}"
    for name in SERIES_NAMES:
        extra = {"Am": " --m 3", "A4": " --qmax 3", "A0": " --qmax 3"}.get(name, "")
        for fmt in FORMATS:
            yield f"series --name {name} --order 6{extra} --format {fmt}"
    for fmt in FORMATS:
        yield f"enumerate --n 5 --format {fmt}"
    # 4,862 words: the listing spans two of the CLI's chunks of 3,276 words
    # (its _CHUNK_LETTERS // 10)
    for fmt in FORMATS:
        yield f"enumerate --n 10 --format {fmt}"
    yield "verify --identity all --order 6 --qmax 3"
    yield "verify --identity co1 --order 3 --jmax 1"
    # 48 reports: six tables at n = 1..6, and letter at each i <= (n + 1) // 2
    yield "agree --n 6"
    # a scalar table whose one row is zero, and a table with no rows
    yield "count --table fine --n 2 --source enum"
    yield "count --table ones-zeros --n 2 --source closed"
    yield from BENCHMARK_TABLES
    yield from BENCHMARK_WORDS
    yield from BENCHMARK_SERIES
    yield from USAGE_ERRORS


def _strip_millis(obj):
    if isinstance(obj, list):
        return [_strip_millis(item) for item in obj]
    return {k: v for k, v in obj.items() if k != "millis"}


def run_digest(capsys, monkeypatch, command: str) -> tuple[int, str]:
    """Exit code and sha256 of stdout + NUL + stderr for one command."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = command.split()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    if argv[0] == "verify" and out:
        out = json.dumps(_strip_millis(json.loads(out)), sort_keys=True) + "\n"
    return code, hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()


GOLDEN = {
    "count --table zeros --n 9 --source enum --format lines":
        (0, "14f1277071a8b69691a832124dcd2e9698afe60ea64a03c67c02eb5cfab26093"),
    "count --table zeros --n 9 --source enum --format csv":
        (0, "7e88f5dd04346eecfb6b212c473c79d16f1197384c0df1bfc7317b3cdc6f043d"),
    "count --table zeros --n 9 --source enum --format json":
        (0, "dd4d2314c315d0796e7532a13f25d42f8242a6f43d9bbf223c071020067b9f43"),
    "count --table zeros --n 9 --source recurrence --format lines":
        (0, "14f1277071a8b69691a832124dcd2e9698afe60ea64a03c67c02eb5cfab26093"),
    "count --table zeros --n 9 --source recurrence --format csv":
        (0, "7e88f5dd04346eecfb6b212c473c79d16f1197384c0df1bfc7317b3cdc6f043d"),
    "count --table zeros --n 9 --source recurrence --format json":
        (0, "70d75675cd730764fa9eea85f649b3c336dba923ee70d80dee82b3fea6c362c7"),
    "count --table zeros --n 9 --source closed --format lines":
        (0, "14f1277071a8b69691a832124dcd2e9698afe60ea64a03c67c02eb5cfab26093"),
    "count --table zeros --n 9 --source closed --format csv":
        (0, "7e88f5dd04346eecfb6b212c473c79d16f1197384c0df1bfc7317b3cdc6f043d"),
    "count --table zeros --n 9 --source closed --format json":
        (0, "9b056ac59dce17e90b6088ff1656c9cac3081765c5ee9885c153b4f967f67518"),
    "count --table zeros --n 9 --source genfun --format lines":
        (0, "14f1277071a8b69691a832124dcd2e9698afe60ea64a03c67c02eb5cfab26093"),
    "count --table zeros --n 9 --source genfun --format csv":
        (0, "7e88f5dd04346eecfb6b212c473c79d16f1197384c0df1bfc7317b3cdc6f043d"),
    "count --table zeros --n 9 --source genfun --format json":
        (0, "a968e58613dd5002992cfb244c0c193df4d1e63aa3f8e00b14450288a85d9b43"),
    "count --table zeros-descents --n 9 --source enum --format lines":
        (0, "6b4717bac9d11c68960c1083053c34750f86feea49f0e32f25628115ef71fa1b"),
    "count --table zeros-descents --n 9 --source enum --format csv":
        (0, "6d1c150db22b7625553c37db33fc3a0c8ae8aee5fbdd35de20de13bf5042148a"),
    "count --table zeros-descents --n 9 --source enum --format json":
        (0, "0faf83c1fcfbf0dda559fc87650ceac332424c94a2064a360ae24f7ce5e851cb"),
    "count --table zeros-descents --n 9 --source recurrence --format lines":
        (0, "6b4717bac9d11c68960c1083053c34750f86feea49f0e32f25628115ef71fa1b"),
    "count --table zeros-descents --n 9 --source recurrence --format csv":
        (0, "6d1c150db22b7625553c37db33fc3a0c8ae8aee5fbdd35de20de13bf5042148a"),
    "count --table zeros-descents --n 9 --source recurrence --format json":
        (0, "0a0333f4c92e8627a329f02d1ea9c6f7a9f40ac388a2b71f6f24755ca19b3ac8"),
    "count --table ones --n 9 --source enum --format lines":
        (0, "46963268348e92171a41a380d5097b51ae45de902e94985f3ff28618608a308c"),
    "count --table ones --n 9 --source enum --format csv":
        (0, "7da02efa89c88cf62fb050f21342d7f32b0abc4904ba75ca2264a00abdceda16"),
    "count --table ones --n 9 --source enum --format json":
        (0, "3ba7f126a7dcc8f46ce48904c8d3c9f774270f32fad28a858979ebb9689799be"),
    "count --table ones --n 9 --source recurrence --format lines":
        (0, "46963268348e92171a41a380d5097b51ae45de902e94985f3ff28618608a308c"),
    "count --table ones --n 9 --source recurrence --format csv":
        (0, "7da02efa89c88cf62fb050f21342d7f32b0abc4904ba75ca2264a00abdceda16"),
    "count --table ones --n 9 --source recurrence --format json":
        (0, "34288ad7c622774b89035a0b5901fff397c252da2570f653c3848decb66de563"),
    "count --table ones --n 9 --source closed --format lines":
        (0, "46963268348e92171a41a380d5097b51ae45de902e94985f3ff28618608a308c"),
    "count --table ones --n 9 --source closed --format csv":
        (0, "7da02efa89c88cf62fb050f21342d7f32b0abc4904ba75ca2264a00abdceda16"),
    "count --table ones --n 9 --source closed --format json":
        (0, "5ad49500e34086fd1fea230426c2a8f090afebec28ace6ab2487bd9fb18cf989"),
    "count --table ones --n 9 --source genfun --format lines":
        (0, "46963268348e92171a41a380d5097b51ae45de902e94985f3ff28618608a308c"),
    "count --table ones --n 9 --source genfun --format csv":
        (0, "7da02efa89c88cf62fb050f21342d7f32b0abc4904ba75ca2264a00abdceda16"),
    "count --table ones --n 9 --source genfun --format json":
        (0, "c4bfdb2cbe4ebbc5a96df65a24b084a0d745de11b33196755f3d574b29228937"),
    "count --table ones-zeros --n 9 --source enum --format lines":
        (0, "76120dc2bebbdf40aa0864417e813b141e682c2f23fdb10f0ddc8a946d2ed5e9"),
    "count --table ones-zeros --n 9 --source enum --format csv":
        (0, "b0d4a74f88256752f4b40fc9468196bd0f71934c713100fa014e89b2584e86ee"),
    "count --table ones-zeros --n 9 --source enum --format json":
        (0, "129102b29ff55e2e61e2a4eb1ee47c6a8abfa62eba9b393d376120a40d64802f"),
    "count --table ones-zeros --n 9 --source recurrence --format lines":
        (0, "76120dc2bebbdf40aa0864417e813b141e682c2f23fdb10f0ddc8a946d2ed5e9"),
    "count --table ones-zeros --n 9 --source recurrence --format csv":
        (0, "b0d4a74f88256752f4b40fc9468196bd0f71934c713100fa014e89b2584e86ee"),
    "count --table ones-zeros --n 9 --source recurrence --format json":
        (0, "e1647a754a2df7fa2a67fa4f63ff76bebdab1b8322a6c329a2bb357ddc76182a"),
    "count --table ones-zeros --n 9 --source closed --format lines":
        (0, "76120dc2bebbdf40aa0864417e813b141e682c2f23fdb10f0ddc8a946d2ed5e9"),
    "count --table ones-zeros --n 9 --source closed --format csv":
        (0, "b0d4a74f88256752f4b40fc9468196bd0f71934c713100fa014e89b2584e86ee"),
    "count --table ones-zeros --n 9 --source closed --format json":
        (0, "f50e4888434d4b8231039ea7103f9b2a74485718fc4c9bd4c5599f17be19de13"),
    "count --table letter --i 2 --n 9 --source enum --format lines":
        (0, "be70da784c0451265cf867b7de4b7ca8d4feb3e6975b8c5a7639168765963232"),
    "count --table letter --i 2 --n 9 --source enum --format csv":
        (0, "1e7fa597f68c9e034229cb837e01ebfc1e8e44565096b4f2bcb196fce1331d6e"),
    "count --table letter --i 2 --n 9 --source enum --format json":
        (0, "72603646a348f09ebe9b84b759ffbf4175c6941f839b9e69738e169ee453c469"),
    "count --table letter --i 2 --n 9 --source recurrence --format lines":
        (0, "be70da784c0451265cf867b7de4b7ca8d4feb3e6975b8c5a7639168765963232"),
    "count --table letter --i 2 --n 9 --source recurrence --format csv":
        (0, "1e7fa597f68c9e034229cb837e01ebfc1e8e44565096b4f2bcb196fce1331d6e"),
    "count --table letter --i 2 --n 9 --source recurrence --format json":
        (0, "0e44e32e882d4941b43dc18010cea283f2a3a750c4ad2f4fc7b7123eb6e8f33f"),
    "count --table letter --i 2 --n 9 --source genfun --format lines":
        (0, "be70da784c0451265cf867b7de4b7ca8d4feb3e6975b8c5a7639168765963232"),
    "count --table letter --i 2 --n 9 --source genfun --format csv":
        (0, "1e7fa597f68c9e034229cb837e01ebfc1e8e44565096b4f2bcb196fce1331d6e"),
    "count --table letter --i 2 --n 9 --source genfun --format json":
        (0, "2e209f3ece378d39f90b6df47b10a53a9f0bb33e82a719d29c36cec151b7302b"),
    "count --table max-letter --n 9 --source enum --format lines":
        (0, "74f745c0e04b35a4c087935d7657135809a957653b8fc33182baa31e7f4c4b10"),
    "count --table max-letter --n 9 --source enum --format csv":
        (0, "7c079fdb3c9b0a72043841140305931af3fc5cb754383738eb93d26c971351e1"),
    "count --table max-letter --n 9 --source enum --format json":
        (0, "b9f9b92cfdad8e7dedadbee74c20415d4cf068bcae13f292586b068822b5b2b2"),
    "count --table max-letter --n 9 --source recurrence --format lines":
        (0, "74f745c0e04b35a4c087935d7657135809a957653b8fc33182baa31e7f4c4b10"),
    "count --table max-letter --n 9 --source recurrence --format csv":
        (0, "7c079fdb3c9b0a72043841140305931af3fc5cb754383738eb93d26c971351e1"),
    "count --table max-letter --n 9 --source recurrence --format json":
        (0, "213361fbe96a26e25f017785c5db44c2f09fa64df5f9a10303834f9cf4754199"),
    "count --table fine --n 9 --source enum --format lines":
        (0, "87dcee755e6ab2c0b725963ab3fab65f78ff2f1f9520e529a90756fbba430312"),
    "count --table fine --n 9 --source enum --format csv":
        (0, "87dcee755e6ab2c0b725963ab3fab65f78ff2f1f9520e529a90756fbba430312"),
    "count --table fine --n 9 --source enum --format json":
        (0, "3ff06de7923784250a94a2e41be74513a28de2fa308fe006127b81e93858f4b3"),
    "count --table fine --n 9 --source recurrence --format lines":
        (0, "87dcee755e6ab2c0b725963ab3fab65f78ff2f1f9520e529a90756fbba430312"),
    "count --table fine --n 9 --source recurrence --format csv":
        (0, "87dcee755e6ab2c0b725963ab3fab65f78ff2f1f9520e529a90756fbba430312"),
    "count --table fine --n 9 --source recurrence --format json":
        (0, "bb8508fac160ec22d71a065a654608f50310439010d5c21ccc0d4b1b2b8bfdcc"),
    "count --table fine --n 9 --source genfun --format lines":
        (0, "87dcee755e6ab2c0b725963ab3fab65f78ff2f1f9520e529a90756fbba430312"),
    "count --table fine --n 9 --source genfun --format csv":
        (0, "87dcee755e6ab2c0b725963ab3fab65f78ff2f1f9520e529a90756fbba430312"),
    "count --table fine --n 9 --source genfun --format json":
        (0, "7562cf143d62092d7959e275e9e1c0f8d7c2e882624e62bb9d88d5014e4e5198"),
    "series --name catalan --order 6 --format lines":
        (0, "d99bcf13ef8b145c73cea315ccfde715478dc83bd8a82291c017f673fc6893fb"),
    "series --name catalan --order 6 --format csv":
        (0, "df75dd240a903125e199196f3d9f46e86ad38e8d6a0d0e3228048425361d440f"),
    "series --name catalan --order 6 --format json":
        (0, "54a65961f70efda055bb9512eac7ae50c6fdbd88efa2491ebcf6b326e8f89f35"),
    "series --name A --order 6 --format lines":
        (0, "c91926f7ac3a8b0dd6d3c3d41ee630799ceb9207fc651408592963d15ce24d26"),
    "series --name A --order 6 --format csv":
        (0, "1ad03c10db61823928b826ab52740db699851916cc7fef40e78a8058199a4edd"),
    "series --name A --order 6 --format json":
        (0, "69116a7204c701d033369d15d0904cb587a8bac72723da57a3aa99588aeaa9af"),
    "series --name Am --order 6 --m 3 --format lines":
        (0, "2c3771b3e1cd2f9cb216575de4f6e0394dde3b9c03c4fabe6540c7bf321d4d5f"),
    "series --name Am --order 6 --m 3 --format csv":
        (0, "c6a0267fb3f6035f6239490b0ca09b42c965eb7fd4117a7f4291ff9600b2a15f"),
    "series --name Am --order 6 --m 3 --format json":
        (0, "176b8a878336d8575b499e1f711333bf05c1efe8f06f180828cdc91118156dc0"),
    "series --name B --order 6 --format lines":
        (0, "2b9eb5f9afe388112148c28936dbfc12eccd73619ab9cc9fc87e51f39962dcaf"),
    "series --name B --order 6 --format csv":
        (0, "f2329b1468bd62f69e50955c71abe038cabdcb03d702cf49bc0959b314c52b81"),
    "series --name B --order 6 --format json":
        (0, "b34c18b527526ac41fceb9583e603549c77bf793287b58b7836b8466a2682316"),
    "series --name fine --order 6 --format lines":
        (0, "fd71499f47338e11b81a62c82f521370401d74667bfd4745bc2d5cd41bee114b"),
    "series --name fine --order 6 --format csv":
        (0, "2ef5d25809e77f12c19058c496362e65e1e0d1556177a45d34fc8e8a11f0ed8d"),
    "series --name fine --order 6 --format json":
        (0, "631a367660d550a18286bad81e35ec2a0b725caa0570c88fa547356b99e4b173"),
    "series --name A-lemma --order 6 --format lines":
        (0, "c91926f7ac3a8b0dd6d3c3d41ee630799ceb9207fc651408592963d15ce24d26"),
    "series --name A-lemma --order 6 --format csv":
        (0, "1ad03c10db61823928b826ab52740db699851916cc7fef40e78a8058199a4edd"),
    "series --name A-lemma --order 6 --format json":
        (0, "69116a7204c701d033369d15d0904cb587a8bac72723da57a3aa99588aeaa9af"),
    "series --name A4 --order 6 --qmax 3 --format lines":
        (0, "15f47ad58fe9428f08555c41ad88df5a727edfdb2b96b6e981aa578b61b123c4"),
    "series --name A4 --order 6 --qmax 3 --format csv":
        (0, "da2bf26bdce8f264fc830974e8a3bd87fabf8f0dc51996c7f1ec7bfe1a5fe45e"),
    "series --name A4 --order 6 --qmax 3 --format json":
        (0, "35ce1f3ee0cb867b04f34282aeac473be5241080c15b1d4bdca2304089edeb12"),
    "series --name A0 --order 6 --qmax 3 --format lines":
        (0, "bf612e4c7267441d32186fac9ec13f379606f1e562ab29d9163f8014d29a5e02"),
    "series --name A0 --order 6 --qmax 3 --format csv":
        (0, "6bb1d49292e4dd455348abc03062e71b514fdc79c64ac7c7963b2264f80c03a5"),
    "series --name A0 --order 6 --qmax 3 --format json":
        (0, "75b23adad348df41a8dda6b36cf83513af36510760caeb15209dca0464ade5c0"),
    "enumerate --n 5 --format lines":
        (0, "ccba39be20180ac114a51c0e08b66645c4a1e029b7711d0e3991a7253167df99"),
    "enumerate --n 5 --format csv":
        (0, "ccba39be20180ac114a51c0e08b66645c4a1e029b7711d0e3991a7253167df99"),
    "enumerate --n 5 --format json":
        (0, "29a3b77df0833274a0dd3d4359c0d7d3f6d3a8922db801b4f0e32b59e5e062c8"),
    "enumerate --n 10 --format lines":
        (0, "420558f43a4a99da41a0a6f3033d8156d0be3ea46fefae61677a6bb3e0552ff7"),
    "enumerate --n 10 --format csv":
        (0, "420558f43a4a99da41a0a6f3033d8156d0be3ea46fefae61677a6bb3e0552ff7"),
    "enumerate --n 10 --format json":
        (0, "e704b193825f3e18a9d656ef185b8c1cfdd003b338b20173f8013de305a9c2f1"),
    "verify --identity all --order 6 --qmax 3":
        (0, "083a6d6c55d32733f6620b49874c7c880b169614edab39d5ab94061f96a5b317"),
    "verify --identity co1 --order 3 --jmax 1":
        (1, "d15135b67fb19ed17a395ad8ec01de5148240477734c49164d003bbb6743094b"),
    "agree --n 6":
        (0, "1a0f873a8697138d8f74affc68ed607d9990ae592f4ae24068793cd41347f0b5"),
    "count --table fine --n 2 --source enum":
        (0, "07976480d80506ad906774aa61a2fb6f1b2311d5befc6cad48f36e8b6a53fed9"),
    "count --table ones-zeros --n 2 --source closed":
        (0, "102b51b9765a56a3e899f7cf0ee38e5251f9c503b357b330a49183eb7b155604"),
    "enumerate --n 0":
        (2, "424d9c5c87f8bcaf87b64f8e656d2ade7726246f4ed7c4cfad869763dc260808"),
    "count --table zeros --n 0":
        (2, "de17f50cf0d3c381a40a7da1668ea22c54f6b379e6e5d0318e092b08d2e8fe2d"),
    "count --table zeros-descents --n 5 --source closed":
        (2, "31e5bd6535730f72ac9a1bbe2bbd8a6139236fe2e9b3b4530958ea68bbe5cc53"),
    "count --table max-letter --n 5 --source genfun":
        (2, "46f99c57fb15bdef2d3dfec8dd2f7aaeb38a9fd110bb66e6fdce2c1bb08812cf"),
    "count --table letter --n 5":
        (2, "a878f4ceaf4e761bbc8d9454a49febed461c512c39724fbb382e89a44179c0c0"),
    "count --table letter --i 0 --n 5":
        (2, "a878f4ceaf4e761bbc8d9454a49febed461c512c39724fbb382e89a44179c0c0"),
    "count --table bogus --n 5":
        (2, "af9cfbd16f284b100d100a30affa47c553d12be1db57ee54d8ae9769425f1d4d"),
    "count --table zeros --n 5 --i 3":
        (2, "814dfdcaafb5d0a7f87243dfd50cf653d8ba83f8f3c0a15a0818e9dde08b3372"),
    "series --name catalan --order 0":
        (2, "77b3c1faaddf5ec0fb2d12457683407ac21c6fa95fed759cda18b951ad0db11f"),
    "series --name Am --order 5":
        (2, "21f7b32a2213ec2bd06c78295af6e89793e52333716d65c57202cc16c7e10272"),
    "series --name Am --m 0 --order 5":
        (2, "21f7b32a2213ec2bd06c78295af6e89793e52333716d65c57202cc16c7e10272"),
    "count --table zeros-descents --n 40 --source recurrence --format lines":
        (0, "99e0bfa66af18069480a9bf5ac6aace47624ac583c5884213e4cda86bad9c616"),
    "count --table ones --n 200 --source recurrence --format lines":
        (0, "676198d4fe59869aa19f0ad07a2035b30b62d0d2f8dbd2cae3b0c5aa1cf0e550"),
    "count --table max-letter --n 60 --source recurrence --format lines":
        (0, "26dc4e2cc27b1afd0e70ce67674d61b147fd6aabc908ae40c82593309db54e7a"),
    "enumerate --n 13":
        (0, "914c89e3ce1c689be4e0ecc91954fd10590de7bd71c770eaaea0c6f14dfd50d6"),
    "count --table zeros-descents --n 13 --source enum --format lines":
        (0, "94da464b8a758ca036e69c2d604aa613c3fa504a4ac65517dc7b3d4e675ff360"),
    "count --table zeros-descents --n 13 --source enum --format csv":
        (0, "84211c727cfc1bb77c0980f540916e24ea53ada78f5005a5596d4d10e9e26029"),
    "count --table zeros-descents --n 13 --source enum --format json":
        (0, "f0bd51d03eb84ca5940678a9af6a3708865b8b96f2736469c4eec263616ed87b"),
    "count --table letter --i 2 --n 13 --source enum --format lines":
        (0, "0aa7da547d5e41d9e1aaaf450b07cdd62b3144c47d1554b4ca0b102c37709c06"),
    "count --table letter --i 2 --n 13 --source enum --format csv":
        (0, "fbe40a752b89a37472179c63645e23fab50965eb0a1b6d04e96b5de39f24244a"),
    "count --table letter --i 2 --n 13 --source enum --format json":
        (0, "2f7a09581132a76fc4161640f13dfecac052b3f984f5bb2bab7bc0a183a0285f"),
    "series --name B --order 60":
        (0, "d218daa52e21122083eaaa7b259f99783ab922d5945be09917d88cca329cedb6"),
    "series --name fine --order 300":
        (0, "c4c929b3453ba2ab2a90bc7355773aeb4f379a563d96e806f3944e6d4cb033a1"),
    "series --name A-lemma --order 40":
        (0, "a0aab0957923377258aa16ea71e935d922749f6f29b4fbda2bf8eb71f76e58e8"),
    "series --name A4 --order 12 --qmax 8":
        (0, "8196e5bd2ec8d6da853816ff02da9778161c7f48cb24a93f7beb2079d0b59904"),
    "series --name A0 --order 12 --qmax 8":
        (0, "2fac7df672c28f84a7f1597f5c30f8f4f17df389fa56b8576ccac6888f9dfe7c"),
    "series --name A4 --order 5":
        (2, "66d0cd0b203beb11cabee0151d9f5adf5ce6bb7520522c4e17481a97b5fdc883"),
    "series --name A0 --order 5":
        (2, "4c040fe6148ce2fc70a3265b3b7b7811005ca194ffff2eb8bd0014ffe52d28bf"),
    "series --name A-lemma --order 9 --jmax 2":
        (2, "6a16aebf8f564353f67e6e43ba88022c3cd747892b86de54a08f3e18d5e971e8"),
    "verify --order 0":
        (2, "f5c7170a5e4e1a96c98ed9b770a61868a1a664656a89c04dd650edf4f49b1b5e"),
    "verify --identity bogus":
        (2, "89466400066a7f0727be8fe78864376e1dc2b7de6d6ff30d65bebd466efc45ec"),
    "verify --identity th3 --qmax 0":
        (2, "4c8e656e38469ce7c26f3faac6b1e89b36780e85a2a7997c2b31030794576776"),
    "verify --identity th4 --qmax 0":
        (2, "4c8e656e38469ce7c26f3faac6b1e89b36780e85a2a7997c2b31030794576776"),
    "series --name A4 --order 5 --qmax 0":
        (2, "f880382febfe03926586fd53f1457bfc3c5b47e3006d1284ed8ae62ec9211441"),
    "series --name A0 --order 5 --qmax 0":
        (2, "f880382febfe03926586fd53f1457bfc3c5b47e3006d1284ed8ae62ec9211441"),
    "verify --identity co1 --jmax -3":
        (2, "64036b2b7704b9b7c6ee025f528e5362ade6486544a2f0491ac39ca367eba17c"),
    "verify --identity l2 --jmax -3":
        (2, "64036b2b7704b9b7c6ee025f528e5362ade6486544a2f0491ac39ca367eba17c"),
    "verify --identity cheb-det --jmax -3":
        (2, "64036b2b7704b9b7c6ee025f528e5362ade6486544a2f0491ac39ca367eba17c"),
    "series --name A-lemma --order 9 --jmax -3":
        (2, "99dcde87e711e3c1f094a988dd543c8ca3c5aeb5a5987257012228308bc4bdfa"),
    "agree --n 0":
        (2, "b4e857f21ddd5884b086857180a1126a06b6364662f09dd4c8a2c93c8c00bfb3"),
    "count --help":
        (0, "f2cfba45fb1c0cbd59e3d300ba3c4dc18f9ea51f267c305b1bb5f8d0ecf32ad3"),
    "series --help":
        (0, "c71123dfedf04c1d9b59a11669cd8d75e6dbf391380c3a989a5ac3ab0639f657"),
}


def test_grid_is_pinned():
    assert sorted(GOLDEN) == sorted(_grid())


@pytest.mark.parametrize("command", list(_grid()))
def test_golden(capsys, monkeypatch, command):
    assert run_digest(capsys, monkeypatch, command) == GOLDEN[command]
