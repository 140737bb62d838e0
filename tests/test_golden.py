"""Golden bytes: the demo's CLI outputs, pinned by sha256.

Every combination of context mode (``blockwise``, ``full``), algorithm
(``bs``, ``bwbs``, ``ibwbs``) and output (``--policy la:2``,
``--policy hold:1``, ``--retranslation``) pins the ``eval`` CSV, the
``eval`` JSON aggregate and the ``decode`` trace of the first utterance;
one ``sweep --sweep-param hold --sweep-values 0,1,2,4,8`` CSV per mode is
pinned too. Every other flag keeps the CLI's default. The digests were
recorded before the complete-source search, corpus BLEU, sweep axis and
empty-output latency were each reduced to one code path, so a refactor that
changes any output byte fails here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from simulbeam.cli import main

DEMO = Path(__file__).resolve().parent.parent / "demo"
INPUTS = ["--corpus", str(DEMO / "corpus.jsonl"), "--model", str(DEMO / "model.json")]
OUTPUTS = {
    "la2": ["--policy", "la:2"],
    "hold1": ["--policy", "hold:1"],
    "retrans": ["--retranslation"],
}

# (mode, algo, output) -> (eval CSV, eval JSON, decode trace) digests.
RUN_DIGESTS = {
    ("blockwise", "bs", "hold1"): (
        "728cd43d23e86b51ab39f7810d048f797bbd4e973f9bc733d20ab6041aa120e4",
        "1e788ef4f68962c30d3de18abebd6bc45d4975e0ef8762bd5bb0afffaa400a8d",
        "c6d1d354171aa3b87a4519c4303716ebe81639a10a89b62d4f46c961e73fda5b",
    ),
    ("blockwise", "bs", "la2"): (
        "ebfc76ed63ad87ec2e670739cd6fdc5338ba0fb36419449cfa03886e792135f0",
        "71bbeef1dd4d1bb6ce416411cc12de29882dfb897879505f3e2881d342bc97ba",
        "b591f12839d7aa64dc3dc59aa9c27ab6a8c9fa19a2863ce21230e1478d21fc28",
    ),
    ("blockwise", "bs", "retrans"): (
        "5df9e75e52370ac325d5d88a7975065cb8581a6ac0497c669a0f33037de9f2b4",
        "8cd163408be3413670a6b0a4292490941a0bebd525c894f858318775a82dad49",
        "e1ad8ea80cedfb79032f515d336862fedd98fc73f07fb7dfbc2d02702dfb629d",
    ),
    ("blockwise", "bwbs", "hold1"): (
        "d1cd7e0f6652e8c0e0c9cec3d50567ccb9e8445c7d98a761c0dee7bb21997895",
        "ca9332253326d8eb6433e30e094a6c75a2c66dd3e4a506fc833d6bfbab1bd9b4",
        "b591f12839d7aa64dc3dc59aa9c27ab6a8c9fa19a2863ce21230e1478d21fc28",
    ),
    ("blockwise", "bwbs", "la2"): (
        "f67aab4994a2de6097f2beccd3c0031ac7ba2d487c28ffc860c6476c614955eb",
        "d3da3dffbb6f49f3a61f910458d7eeed4a6759c6f137b80a415e7b61546999a3",
        "4357ccd0a8e8f188d5c05a185970141337f7f0ea28516fe8e02f59c9b8a2494a",
    ),
    ("blockwise", "bwbs", "retrans"): (
        "926d8b614746261750c6cc055342adc43798c166942908ec4a5e7afb5e36d95f",
        "e483e9445872ccb27151c57009d17a19f03dee75c1705f3ff580b83a0adc0f64",
        "0004b8df23b9c09f70d79c242bdea852c50378c35de13317e51dcf4bb2edfe9b",
    ),
    ("blockwise", "ibwbs", "hold1"): (
        "2531de886631e9a65f93d9850abd5534b639de1137feba95d84c3db246603c8a",
        "9bd500ec36cefe790729c658f3160ee7fa49836fa025ec330f7a112d2e9e4147",
        "b591f12839d7aa64dc3dc59aa9c27ab6a8c9fa19a2863ce21230e1478d21fc28",
    ),
    ("blockwise", "ibwbs", "la2"): (
        "cb541d3aab9e468cb0dc4bed46f1eb906409c5b10b3e0c8cd0b9c7878230b566",
        "53e8b3080d7ccd2710eeec6902a29da537d0c36b5e68493cd5c3de2dc2772521",
        "4357ccd0a8e8f188d5c05a185970141337f7f0ea28516fe8e02f59c9b8a2494a",
    ),
    ("blockwise", "ibwbs", "retrans"): (
        "d27bc28112a6b148d075f5fddcdab45cc1a2fb8c11dab1c04ebd10b8a05688b5",
        "35c2f33960bd193c5866a8d42c22e1eb87eb2f7d07fd0b0483468609c3bb52c3",
        "0004b8df23b9c09f70d79c242bdea852c50378c35de13317e51dcf4bb2edfe9b",
    ),
    ("full", "bs", "hold1"): (
        "728cd43d23e86b51ab39f7810d048f797bbd4e973f9bc733d20ab6041aa120e4",
        "f25a086ad8d2bf2bd4e590a332c9d64ffe26e46ca2ad5fc9fc4cfbbfa6c14cf0",
        "c6d1d354171aa3b87a4519c4303716ebe81639a10a89b62d4f46c961e73fda5b",
    ),
    ("full", "bs", "la2"): (
        "ebfc76ed63ad87ec2e670739cd6fdc5338ba0fb36419449cfa03886e792135f0",
        "00e6add3955fba5594beb1f1b2718f919142a03ca46ac03c78d46398d6405116",
        "b591f12839d7aa64dc3dc59aa9c27ab6a8c9fa19a2863ce21230e1478d21fc28",
    ),
    ("full", "bs", "retrans"): (
        "5df9e75e52370ac325d5d88a7975065cb8581a6ac0497c669a0f33037de9f2b4",
        "09fdbb581b18aa1c9c9abd187d9695e798d5bf1d5addfc96829ed2b9a9fc5df1",
        "e1ad8ea80cedfb79032f515d336862fedd98fc73f07fb7dfbc2d02702dfb629d",
    ),
    ("full", "bwbs", "hold1"): (
        "0d5415b823fd724077f95a013f4c3eeb5428df81f27f7698e8099afe9515f15e",
        "8001c58a6d4b61672a59dbd642fe9e22d1741fd4c7d272f94e6e7a6a8cb28950",
        "c6d1d354171aa3b87a4519c4303716ebe81639a10a89b62d4f46c961e73fda5b",
    ),
    ("full", "bwbs", "la2"): (
        "10b5190cbaff8a114f122abbf1a09369476001772771dca9ca02c5f5ef739e7c",
        "fa531a2f39c2940a56fe634e3217bba5f3024004551a36b890e8a58ac16a49e0",
        "b591f12839d7aa64dc3dc59aa9c27ab6a8c9fa19a2863ce21230e1478d21fc28",
    ),
    ("full", "bwbs", "retrans"): (
        "47dbfd3f635ecad319114e6825418c63adc74349eaacded781515333dc22994b",
        "f021ea88680477cf9e621bcbc61f77003b21490068d76ec4e1d9b4517037a4b8",
        "58ea6f48aa6c35d53ab89b160b5a82fedd6bcd4f3ce68e8c09f59251a687a5b1",
    ),
    ("full", "ibwbs", "hold1"): (
        "9d93e2ba88771976bdc2ba644d18ac9db12b57c54502df6ceb9010766b578109",
        "f493a17c26e828c529a368c49531eeafe30ba453e4234235e94422a201cf1779",
        "c6d1d354171aa3b87a4519c4303716ebe81639a10a89b62d4f46c961e73fda5b",
    ),
    ("full", "ibwbs", "la2"): (
        "5b2735a43f75007b7d343f0ffcddb24858ac122aa8a6fda22d501c1f7c1aeb25",
        "d1eb6e7595e5173e338a94e8960fc79abc5b5e9232575894f7b1c8deee73c40d",
        "b591f12839d7aa64dc3dc59aa9c27ab6a8c9fa19a2863ce21230e1478d21fc28",
    ),
    ("full", "ibwbs", "retrans"): (
        "6d22276e2e7d7cfe7a2e1d28a811fa674b8ee96d1e7a3a7f06509bc41a93894c",
        "bc10b35bbf615169f68329485d4bae70eebf69611f5b6125fcb42d836893d1e7",
        "58ea6f48aa6c35d53ab89b160b5a82fedd6bcd4f3ce68e8c09f59251a687a5b1",
    ),
}

# mode -> sweep CSV digest.
SWEEP_DIGESTS = {
    "blockwise": "3eedbb1b419f3608f38ca4d0c550653edb0ad806921782e919ac4644b2010c44",
    "full": "62f9b4fc903963519e00b7824f996c93f42b35f15c53b09876ffd1b2387bb677",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", ["blockwise", "full"])
@pytest.mark.parametrize("algo", ["bs", "bwbs", "ibwbs"])
@pytest.mark.parametrize("output", sorted(OUTPUTS))
def test_eval_and_decode_bytes(tmp_path, mode, algo, output):
    flags = INPUTS + ["--mode", mode, "--algo", algo] + OUTPUTS[output]
    csv, doc, trace = tmp_path / "report.csv", tmp_path / "report.json", tmp_path / "trace.jsonl"
    assert main(["eval", *flags, "--out", str(csv), "--json", str(doc)]) == 0
    assert main(["decode", *flags, "--out", str(trace)]) == 0
    digests = (_sha256(csv), _sha256(doc), _sha256(trace))
    assert digests == RUN_DIGESTS[mode, algo, output]


@pytest.mark.parametrize("mode", ["blockwise", "full"])
def test_sweep_bytes(tmp_path, mode):
    out = tmp_path / "curve.csv"
    flags = ["--sweep-param", "hold", "--sweep-values", "0,1,2,4,8"]
    assert main(["sweep", *INPUTS, "--mode", mode, *flags, "--out", str(out)]) == 0
    assert _sha256(out) == SWEEP_DIGESTS[mode]
