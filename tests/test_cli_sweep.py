"""Same-behaviour sweep: a fixed grid of CLI calls, run in process.

The exit code, stdout and stderr of every call are hashed into one
SHA-256 digest per (subcommand, format), and each digest is compared
with the one recorded when the sweep was added.  The golden corpus in
tests/golden/cli.json pins the exact bytes of a few calls; this grid
pins thousands, valid and refused inputs and usage errors alike.

A digest changes only when some call's behaviour does.  When a change
of behaviour is intended, re-record the affected digests and name the
calls that changed.  The usage errors carry argparse's wording on
Python 3.11."""

import contextlib
import hashlib
import io
import time
from itertools import product

from kgenus import cli


def _grid():
    """The argv of every call, without --format."""
    calls = []
    add = calls.append
    tame_sets = {2: ["", "3", "3,5", "7,11", "4"], 3: ["", "7", "7,13", "5"],
                 5: ["", "11", "11,41"], 4: ["3"]}
    for p, tames in tame_sets.items():
        for tame, wild, infinity in product(tames, (False, True), (False, True)):
            flags = ["--tame", tame] * bool(tame) + ["--wild"] * wild \
                + ["--infinity"] * infinity
            for i in (1, 2, 3, 4):
                add(["genus", "--p", str(p), *flags, "--i", str(i)])
            for name, i in product(("kgenus", "bounds"), (2, 3)):
                add([name, "--p", str(p), *flags, "--i", str(i)])
            add(["genus", "--p", str(p), *flags, "--i", "3", "--assume-hi"])
            for ell in (p, 7, 11):
                add(["local", "--p", str(p), *flags, "--ell", str(ell), "--i", "2"])
            add(["local", "--p", str(p), *flags, "--ell", "7", "--i", "0"])
    for m, n, u in product((1, 2, 4, 6, 8, 9, 0), (1, 2, 4, 0), (1, 3, 5)):
        add(["tate-oracle", "--m", str(m), "--n", str(n), "--u", str(u)])
    for p, i in product((2, 3, 5, 4), range(1, 6)):
        for primes in ("", "3", "7,23", "5,13,17", "11,31,41", "4"):
            add(["primitive", "--p", str(p), "--i", str(i), "--primes", primes])
            if p == 2 or primes == "11,31,41":
                add(["primitive", "--p", str(p), "--i", str(i), "--plus",
                     "--primes", primes])
    for p, i in product((2, 3, 5), range(2, 8)):
        signatures = ([["--real"], ["--imaginary"], ["--real", "--cyclic"]] if p == 2
                      else [[], ["--real"], ["--cyclic"]])
        for signature in signatures:
            for tame in ("", "3", "3,5", "7,13"):
                add(["classify", "--p", str(p), "--tame", tame, "--i", str(i), *signature])
            add(["classify", "--p", str(p), "--tame", "7", "--i", str(i), *signature,
                 "--assume-vandiver"])
            for bound, vandiver in product((2, 60), ([], ["--assume-vandiver"])):
                add(["enumerate", "--p", str(p), "--i", str(i), "--bound", str(bound),
                     *signature, *vandiver])
    for p, i, bound in ((3, 2, 1), (3, 1, 20), (4, 2, 20), (7, 100000, 100),
                        (3, 2, 10**9)):
        add(["enumerate", "--p", str(p), "--i", str(i), "--bound", str(bound)])
    for d in [*range(-40, 41), 94, 151, 166, 999983, 10**8 + 1, -(10**8) - 1,
              2**64 + 13, 9 * (2**64 + 13), 4 * 2**70]:
        add(["quad", "--d", str(d)])
    for max_i in range(0, 13):
        add(["ktable", "--max-i", str(max_i)])
        add(["ktable", "--max-i", str(max_i), "--assume-vandiver"])
    add(["ktable", "--max-i", "100000"])
    # usage errors
    add(["genus", "--i", "2"])
    add(["genus", "--p", "3", "--tame", "7,x", "--i", "2"])
    add(["local", "--p", "3", "--tame", "7", "--ell", "seven", "--i", "2"])
    add(["primitive", "--p", "3", "--i", "2"])
    add(["classify", "--p", "2", "--tame", "5", "--i", "2"])
    add(["classify", "--p", "2", "--i", "2", "--real", "--imaginary"])
    add(["enumerate", "--p", "3", "--i", "2", "--bound", "20", "--imaginary"])
    add(["quad", "--d", "5", "--bogus"])
    add(["tate-oracle", "--m", "4", "--n", "2"])
    add(["ktable"])
    return calls


def _digests():
    digests, count = {}, 0
    for argv, fmt in product(_grid(), cli.FORMATS):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([*argv, "--format", fmt])
            except SystemExit as exit_:  # usage errors, from argparse
                code = exit_.code
        key = f"{argv[0]} {fmt}"
        digest = digests.setdefault(key, hashlib.sha256())
        digest.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
        count += 1
    return {key: digest.hexdigest() for key, digest in digests.items()}, count


RECORDED = {
    "bounds csv":
        "51ed90dda495fdcf230c79f1cdd786af59ae8c512f786c02834a60c6c47d0f75",
    "bounds json":
        "a9972442704b4a6df0769596a3566074e254caba5d35b89febc5fa5cdbe92d54",
    "bounds text":
        "a0273a0a23004341158a8a756bdac8fdf830df40bfee16d8d3f0ccc56bedc473",
    "classify csv":
        "8fd5519a4e20b5d2a476d480dc1912d2d0fd6469fb9b0c6b6720f7499ccacbe9",
    "classify json":
        "519238faf7b5a5ccb5d6f272aedb799637c504f6469acf1b1bb1b82564e87ccb",
    "classify text":
        "68d35d149aa991be243cbf0e950b981207f2f2b928bab6c1f5e9222540bfee4b",
    "enumerate csv":
        "093dc2168f24b10b70542b0021754165a4f2d7866a6d906e0e7479fd7c47c3b1",
    "enumerate json":
        "82e94f30be3d2f6334417a60b06284a4e482c3d3026c23d86447570589da2b73",
    "enumerate text":
        "e858017a1fece2a28d2e70fd1807cfa1396ff24f7ef96cb73a5bade766601a77",
    "genus csv":
        "60a1b6dca2d8efce1720b0ac4c0f1d9d5a1827cc68722c149b6a14f86ac19443",
    "genus json":
        "a18ed3e98841bf8b47148b6a3a73b91207fe9e76f6756fd678db4ecb0cd71edb",
    "genus text":
        "b4ad8025034e3c405feefd44d61d1db2db9a8447cb4ba5b40efe797cf522589a",
    "kgenus csv":
        "4d5194aa447858f529565754a42ee6f27a4ac9008647d0dabab6576e08b5a217",
    "kgenus json":
        "8db4e75015c6d8a59b4b090f01b40fb39269bf26c77f8d17546ae96062dd6c91",
    "kgenus text":
        "ad27b2510c20921312c3554ffde65c5cd76476779a68daafad2b05d1bda04bd4",
    "ktable csv":
        "0978a52062b9773cc491f9ca85adfa75a4d925fa3c8787216ff38db3b672f4de",
    "ktable json":
        "566ac3df01a67f0516eb74f708b6e4ef810299ca85b6826c1397f064f5c95067",
    "ktable text":
        "33320260ef9cdbf406903793ac590a4f83c775947326bc4e4fa11d69f53ce3b2",
    "local csv":
        "982a6190cf8b86888fe92d634e115dea3b1201fbaa847f55845540977ceb796a",
    "local json":
        "4a2692edc88b74c1f613faab95b2c25f715cf143328d10a3c9fe0762e55021a5",
    "local text":
        "33e3010287c93e56f2dd2ae827323204f469d4e037ad2bdb83e05271a6998bca",
    "primitive csv":
        "3e37aeeea45710519c1e773e5c6a30356e6bb160175161ca67a25511cac1339b",
    "primitive json":
        "fdcaefffed8a478a2c9d2a87b3d9ec59dc407d3bbb49e45ec7000b6c685dc8af",
    "primitive text":
        "57d497db7797ce168ba899c4e6afcc543581cb867be73c0872d2206957271da3",
    "quad csv":
        "453b3687894cf803fe76ae030b5b5674a3319243dd85ba07a33f97c62c018077",
    "quad json":
        "dbb0f5046815234bf9c6959fb09da2fc2fd39d96b6bbb1ef35f0a5454b763b03",
    "quad text":
        "b52dda40eb7b7a773fe4dd9290caeb51fecdd34279ce05f97f29c610fe22a8ae",
    "tate-oracle csv":
        "fef25d8b8faa71127cc0b0285881085b78591f36692b00c92a6e9e79003ae6f1",
    "tate-oracle json":
        "407f262c783b7adfbce617e8d9d639675822b13e136289974bd849bcf1a3c854",
    "tate-oracle text":
        "4958745d7ef5aaee09291dc0891bc2a0b2bb01aa39df723a012ef8f0450069ba",
}


def test_sweep_matches_the_recorded_digests():
    start = time.perf_counter()
    digests, count = _digests()
    assert count == 4629
    assert digests == RECORDED
    assert time.perf_counter() - start < 5
