"""Every report command's bytes, pinned.

Each invocation runs `dupkit` in process, in a fresh folder holding the
configs below, and its exit code, stdout, stderr and every file it leaves
there are hashed together.  The wall-clock fields of a simulate report
(timings.* and samples_per_s) and its host fields (env.*) are masked first;
everything else must repeat byte for byte.
"""

import hashlib
import json
import os
import re

import pytest

from dupkit.cli import main

_BASE = {
    "profile": {
        "curves": [{"triangle": {"q": 0.5, "r": 0.5}}, {"equal_revenue": 1.0}],
        "names": ["a", "b"],
    },
    "constants": {"alpha": 0.27, "beta": 0.4, "eps": 0.1},
    "sampling": {"n_samples": 2000, "seed": 3},
}

_CONFIGS = {
    "base.json": json.dumps(_BASE),
    "k2.json": json.dumps({
        "profile": {"curves": [{"triangle": {"q": 0.5, "r": 0.5}},
                               {"triangle": {"q": 0.3, "r": 0.6}}, {"point_mass": 1.0}]},
        "constants": {"k": 2, "beta": 0.4, "gamma": 0.2, "delta": 0.1},
    }),
    # every check fails: no bidder takes a price of 100
    "posted.json": json.dumps({
        "profile": {"curves": [{"triangle": {"q": 0.5, "r": 0.5}}, {"point_mass": 1.0}]},
        "mechanism": "posted",
        "mechanism_params": {"prices": [100.0, 100.0]},
        "constants": {"alpha": 0.27, "beta": 0.4},
        "checks": ["single"],
        "sampling": {"n_samples": 500, "seed": 1},
        "output": {"format": "csv"},
    }),
    "to-file.json": json.dumps({**_BASE, "output": {"path": "report.csv", "format": "csv"}}),
    "to-folder.json": json.dumps({**_BASE, "output": {"path": "."}}),
    "bare.json": json.dumps({**_BASE, "constants": {"beta": 0.5}}),
    "bad.json": "{",
}

# (argv, sha256 of the masked transcript)
_CASES = {
    "exante": (
        "exante --config base.json",
        "b89220ed31c9d4d1e6af808d217c5207e4b0e230cf69d4a1e73bca52ab9dcfb7"),
    "exante-csv": (
        "exante --config base.json --format csv",
        "7639b31935cd82905a50f51ee1c03ef3cf447b428c9eebc32308df0000488743"),
    "exante-out": (
        "exante --config base.json --out r.json",
        "7efa158dd818cc4960529003e534c924c666e2827c6f07350852e956f1187a23"),
    "simulate": (
        "simulate --config base.json",
        "59d7fbcfab5da49547668bcf1e1fe4471e2a7ac53419f8ef7d83aae1243df2d1"),
    "simulate-csv-seed-samples": (
        "simulate --config base.json --format csv --seed 5 --samples 3000",
        "ce3b039319054d83ef9be53625d6ce56de01ad539930b2a5ec479bfca750207f"),
    "simulate-output-path": (
        "simulate --config to-file.json",
        "007579e7baed604465044aed3879deb5b2814dfef625f02b2afaa7a6963e6a27"),
    "simulate-out-over-output-path": (
        "simulate --config to-file.json --out r.json --format json",
        "0fecab736cf90b452b7b45a81f478090671d4b7fa428e9aff7817484b86215db"),
    "simulate-check-fails": (
        "simulate --config posted.json",
        "0f0541310179cd9644be4191a889c6c4f4b483d176da88e02432cbe13747292d"),
    "simulate-samples-1": (
        "simulate --config base.json --samples 1",
        "c837e3b0dc924cfd0e46038d7a54954da92dcb99654de6445e177c2a8ec766b0"),
    "simulate-output-path-folder": (
        "simulate --config to-folder.json",
        "b1687b3640736d9ea526b9014a87957ba04d041feafd6a6d3ba1e4a2e013abbb"),
    "select-beta": (
        "select --rule beta --config base.json",
        "24cf0f267398a4d48df29310061e4cfb3462f8f661dee4182709875385868b9f"),
    "select-noisy-csv": (
        "select --rule noisy --config base.json --seed 4 --format csv",
        "570e649f6771aa2b7a196f0d6dd65244d30d0d8ad01e505c9a1a9064fa0ef222"),
    "select-sample": (
        "select --rule sample --config base.json --seed 4",
        "b60d4dace2f22097d945231f3c0cbd38062fdde54ec9d38d574a3ed70b89305d"),
    "select-kset-out": (
        "select --rule kset --config base.json --out r.csv --format csv",
        "a07a65b6fc62a33ab078cb8649990ecd89f314b96e75cadc9f56bf9c150a4b35"),
    "select-missing-eps": (
        "select --rule noisy --config bare.json",
        "cd9d482454c9e03e9f6db8443a14f3807a073c2e6803e22a31b80689939c7568"),
    "bounds": (
        "bounds --which single --alpha 0.27 --beta 0.4",
        "01c0357b0103c38a63cfbe7e34cee372e8f85ebad0fa428903b79c427ed1a986"),
    "bounds-csv-out": (
        "bounds --which k-free --beta 0.4 --gamma 0.2 --delta 0.1 --format csv --out b.csv",
        "d0c2cba4602460bbf929f2a5e24a63507c02253f32d9385fd278f12593b7f992"),
    "bounds-missing-constant": (
        "bounds --which single --alpha 0.27",
        "d58c1c74dc1b837d2e0cbd041c6a885000996687bf78a13a63c29202246e5a9e"),
    "examples-lbhr": (
        "examples lbhr",
        "74fa30cc5881ffd65cf264e20bf48fab8cd4b060f1e321fd4161897edb8b2727"),
    "examples-n3-csv": (
        "examples n3 --samples 2000 --seed 3 --format csv",
        "7cd8d0f2bd130a95f8c0a902ff9ab5c58c2a4962821ad4595077b3881df730c7"),
    "examples-n3-samples-1": (
        "examples n3 --samples 1",
        "c837e3b0dc924cfd0e46038d7a54954da92dcb99654de6445e177c2a8ec766b0"),
    "examples-two-triangles-out": (
        "examples two-triangles --grid-steps 100 --out t.json",
        "215cbb84794a9c8e5042bc998a6d429fd923ac28516148aebdad757c9c9bc553"),
    "classify-single": (
        "classify --config base.json",
        "088352654bd5a96bff2f11ed9426d84b1033e2b8828e7191b2134609cdcd4710"),
    "classify-k-csv": (
        "classify --config k2.json --format csv",
        "e3ebcca209dd377cb71cd5c60f2f2dd6c24a3106a3d6d395e496dbedd84fc684"),
    "bad-config": (
        "exante --config bad.json",
        "d325e7699e5fae3e6d36f1eedd089a36d84c4798f924d484fcdce9d678172fbf"),
    "missing-config": (
        "classify --config nope.json",
        "31cd5c3e76434e6d29ad11bc09b06cb985f57d50aa997fcc0cc847406cb063c4"),
    "out-is-a-folder": (
        "exante --config base.json --out .",
        "e5218e8d3e4315054aa5a25d65d469965895efa8a6061db33c6dc4260304cac1"),
    "out-in-missing-folder": (
        "examples lbhr --out missing/r.json",
        "373978e930f9491e22fd1ab3edac7c9c8a5913a67bd64b0803e5556785a3032c"),
    "exante-ignores-output-path": (
        "exante --config to-file.json",
        "7639b31935cd82905a50f51ee1c03ef3cf447b428c9eebc32308df0000488743"),
    "samples-refused-before-out": (
        "simulate --config base.json --samples 1 --out .",
        "c837e3b0dc924cfd0e46038d7a54954da92dcb99654de6445e177c2a8ec766b0"),
    "out-refused-before-samples": (
        "examples n3 --samples 1 --out .",
        "e5218e8d3e4315054aa5a25d65d469965895efa8a6061db33c6dc4260304cac1"),
    "config-read-before-out": (
        "select --rule beta --config nope.json --out .",
        "31cd5c3e76434e6d29ad11bc09b06cb985f57d50aa997fcc0cc847406cb063c4"),
    "out-refused-before-bound": (
        "bounds --which single --alpha 0.27 --out .",
        "e5218e8d3e4315054aa5a25d65d469965895efa8a6061db33c6dc4260304cac1"),
}

_MASKS = [
    (re.compile(r'"(timings|env)": \{[^}]*\}'), r'"\1": *'),
    (re.compile(r'"samples_per_s": [^,\n]*'), '"samples_per_s": *'),
    (re.compile(r"^((?:timings|env)\.\w+|samples_per_s),.*$", re.M), r"\1,*"),
]


def _mask(text: str) -> str:
    for pattern, repl in _MASKS:
        text = pattern.sub(repl, text)
    return text


def _transcript(argv: str, folder, capsys) -> str:
    for name, text in _CONFIGS.items():
        (folder / name).write_text(text)
    code = main(argv.split())
    out, err = capsys.readouterr()
    files = {name: _mask((folder / name).read_text())
             for name in sorted(os.listdir(folder)) if name not in _CONFIGS}
    return json.dumps([code, _mask(out), err, files], indent=1)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_report_command_bytes(tmp_path, monkeypatch, capsys, case):
    argv, digest = _CASES[case]
    monkeypatch.chdir(tmp_path)
    transcript = _transcript(argv, tmp_path, capsys)
    assert hashlib.sha256(transcript.encode()).hexdigest() == digest, transcript
