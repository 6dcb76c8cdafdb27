"""Golden CLI bytes: every command's exit code, stdout, stderr and trace
on a fixed corpus of paper instances, pinned by hash.

A change that should leave the CLI's output alone (a refactor or a
speed-up) must keep every hash.  A change that means to alter output
updates the hashes it changes and says which in its change notes.
Error runs stay in the corpus: the oracles' caps (exit 3) and the
simple solver's deadlock on `logn_revenue` (exit 4) are output too.

To print the current hashes:  python -m tests.test_cli_golden
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

from cwemarket.cli import run_cli

# (file stem, paper-instance arguments, epsilon of the simple solver:
# half the instance's granularity)
CORPUS: List[Tuple[str, List[str], str]] = [
    ("gap3", ["gap3"], "1/20"),
    ("logn4", ["logn_revenue", "--n", "4"], "1/24"),
    ("logn9", ["logn_revenue", "--n", "9"], "1/5040"),
    ("logn16", ["logn_revenue", "--n", "16"], "1/1441440"),
    ("um_sm3", ["item_pricing_um_sm", "--m", "3"], "1/20"),
    ("xos3", ["item_pricing_xos", "--m", "3"], "1/16"),
    ("explicit_m4_n3_s5", ["random_explicit", "--m", "4", "--n", "3", "--seed", "5"], "1/128"),
    ("explicit_m5_n4_s11", ["random_explicit", "--m", "5", "--n", "4", "--seed", "11"], "1/128"),
]

# The first 16 hex digits of sha256 over (exit code, stdout, stderr,
# trace text) of each run.
GOLDEN: Dict[str, str] = {
    'gap3: solve': '56be1e812f4d58e9',
    'gap3: verify': 'd57cba1569cc2ac4',
    'gap3: revenue': '8030e498ff779aeb',
    'gap3: oracle optimal': '119e245f0b67471e',
    'gap3: oracle lp-opt': '48cb994799bae8d7',
    'gap3: oracle max-cwe': 'f7796ea3b58eab33',
    'gap3: oracle support': '8e0fb9e01db60302',
    'gap3: simple': 'c3efc223812cf762',
    'logn4: solve': '3f293aac69a24587',
    'logn4: verify': 'd57cba1569cc2ac4',
    'logn4: revenue': '30d24b508ae9f6d7',
    'logn4: oracle optimal': '040c5cca2428c3b2',
    'logn4: oracle lp-opt': '16c5e0bdd28fd170',
    'logn4: oracle max-cwe': '7c245c4c89d5be1f',
    'logn4: oracle support': '2cb65f45d527e744',
    'logn4: simple': '95d11dc8327ccff6',
    'logn9: solve': '282254c3592c8683',
    'logn9: verify': 'd57cba1569cc2ac4',
    'logn9: revenue': 'f4e09964bce01425',
    'logn9: oracle optimal': '58f3863531cc09ab',
    'logn9: oracle lp-opt': 'de9ba06b8e588472',
    'logn9: oracle max-cwe': 'c27610d8608a9c09',
    'logn9: oracle support': 'de9ba06b8e588472',
    'logn9: simple': '95d11dc8327ccff6',
    'logn16: solve': 'a9e5bdbab0a57c86',
    'logn16: verify': 'd57cba1569cc2ac4',
    'logn16: revenue': '6ee1c73cc5262ac8',
    'logn16: oracle optimal': 'abc90dfd1e961c7d',
    'logn16: oracle lp-opt': '5c52b9bd7f04fce3',
    'logn16: oracle max-cwe': 'a98056e84ede00c0',
    'logn16: oracle support': '5c52b9bd7f04fce3',
    'logn16: simple': '95d11dc8327ccff6',
    'um_sm3: solve': 'e427eb5c52acbc7a',
    'um_sm3: verify': 'd57cba1569cc2ac4',
    'um_sm3: revenue': 'adf935d5e1551e6f',
    'um_sm3: oracle optimal': '39dc89f9d8c4f9b1',
    'um_sm3: oracle lp-opt': '0c8a06065665de06',
    'um_sm3: oracle max-cwe': '9e97e447829df508',
    'um_sm3: oracle support': '6187c0064a0e8958',
    'um_sm3: simple': '35a56832817a0ad7',
    'xos3: solve': '0d6f1bc866eac665',
    'xos3: verify': 'd57cba1569cc2ac4',
    'xos3: revenue': '665ef7a9ee1b78d1',
    'xos3: oracle optimal': '2045c39bcb3ea016',
    'xos3: oracle lp-opt': '0c1daebaac997cd4',
    'xos3: oracle max-cwe': '5348d4e08d0dace1',
    'xos3: oracle support': '8ed2ce3df222a745',
    'xos3: simple': 'ae596e5a9333d0ad',
    'explicit_m4_n3_s5: solve': 'fde656f561978cae',
    'explicit_m4_n3_s5: verify': 'd57cba1569cc2ac4',
    'explicit_m4_n3_s5: revenue': '8e47d3bf50b4f941',
    'explicit_m4_n3_s5: oracle optimal': 'c6860cba9cabfcc1',
    'explicit_m4_n3_s5: oracle lp-opt': '45ca05af4722cc79',
    'explicit_m4_n3_s5: oracle max-cwe': 'bac62642e09b0f84',
    'explicit_m4_n3_s5: oracle support': '24232255274e7e8f',
    'explicit_m4_n3_s5: simple': '698c292ff534514c',
    'explicit_m5_n4_s11: solve': 'c04a55b6f7148080',
    'explicit_m5_n4_s11: verify': 'd57cba1569cc2ac4',
    'explicit_m5_n4_s11: revenue': 'c59aa580b50dc405',
    'explicit_m5_n4_s11: oracle optimal': 'aae46516a4b349b6',
    'explicit_m5_n4_s11: oracle lp-opt': 'c6baaf125a3d0602',
    'explicit_m5_n4_s11: oracle max-cwe': '33d850703ed8e0a0',
    'explicit_m5_n4_s11: oracle support': 'ddadaa66b42e36ca',
    'explicit_m5_n4_s11: simple': '1a6ad38b6ccd9d47',
}


def _run(argv: List[str]) -> Tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def _runs(directory: Path, stem: str, args: List[str], epsilon: str):
    """(run name, argv, trace path, report path) of each run on one
    file, in order, with None where a run writes no such file; `verify`
    reads the report that `solve` wrote."""
    path = str(directory / f"{stem}.json")
    code, _, err = _run(["paper-instance", *args, "-o", path])
    assert code == 0, err
    # the random instances carry no seed allocation
    seed = ["--initial", "optimal"] if args[0] == "random_explicit" else []
    report = directory / f"{stem}.report.json"
    trace = directory / f"{stem}.trace.json"
    yield "solve", ["solve", "--input", path, *seed, "--trace-out", str(trace)], trace, report
    yield "verify", ["verify", "--input", path, "--solution", str(report)], None, None
    yield "revenue", ["revenue", "--input", path, *seed], None, None
    for kind in ("optimal", "lp-opt", "max-cwe"):
        yield f"oracle {kind}", ["oracle", kind, "--input", path], None, None
    yield "oracle support", [
        "oracle", "support", "--input", path, "--solution", str(report)
    ], None, None
    yield "simple", [
        "solve", "--input", path, *seed, "--alg", "simple", "--epsilon", epsilon
    ], None, None


def corpus_hashes(directory: Path) -> Dict[str, str]:
    hashes = {}
    for stem, args, epsilon in CORPUS:
        for name, argv, trace, report in _runs(directory, stem, args, epsilon):
            code, out, err = _run(argv)
            if report is not None:
                report.write_text(out, encoding="utf-8")
            text = trace.read_text(encoding="utf-8") if trace and trace.exists() else ""
            blob = repr((code, out, err, text)).encode("utf-8")
            hashes[f"{stem}: {name}"] = hashlib.sha256(blob).hexdigest()[:16]
    return hashes


def test_cli_bytes_match_the_golden_hashes(tmp_path):
    got = corpus_hashes(tmp_path)
    changed = sorted(key for key in GOLDEN if got.get(key) != GOLDEN[key])
    assert set(got) == set(GOLDEN)
    assert changed == [], f"CLI output changed for {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in corpus_hashes(Path(tmp)).items():
            sys.stdout.write(f"    {key!r}: {digest!r},\n")
