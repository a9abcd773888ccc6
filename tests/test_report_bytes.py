"""The CLI's stdout, byte for byte: sha256 digests and exit codes pinned.

Every report is meant to stay byte-identical across refactors.  The digests
below were recorded from an earlier revision of the CLI, so any change to a
report byte (term order, a rendered number, the oracle block, batch framing)
fails here and has to be re-recorded on purpose.  Run with ``-k <id>`` to
see which invocation moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from conftest import _pinned_instances
from pcring import cli

FLAGS = ["--idempotents", "--nilradical"]


def _document(instance) -> dict:
    return {
        "group": list(instance.group.orders),
        "c": [{"exp": list(exp), "coeff": coeff}
              for exp, coeff in instance.ring.canonical.items()],
        "name": instance.name,
    }


def invocations(directory: Path) -> dict[str, list[str]]:
    """The pinned CLI calls by id, with their input files written under
    ``directory``."""
    calls = {f"uq-sl2-{n}": ["example", "uq-sl2", "--n", str(n), *FLAGS] for n in range(2, 13)}
    for instance in _pinned_instances():
        path = directory / f"{instance.name}.json"
        path.write_text(json.dumps(_document(instance)), encoding="utf-8")
        calls[f"analyze-{instance.name}"] = ["analyze", str(path), *FLAGS]
    # r = s = 35: every character has an idempotent pair with 1/lambda
    # numerators of about 40 bits.
    sparse = directory / "sparse-5x7.json"
    sparse.write_text(json.dumps({"group": [5, 7], "c": [
        {"exp": [0, 0], "coeff": 3}, {"exp": [1, 2], "coeff": 2},
        {"exp": [2, 6], "coeff": 1}, {"exp": [4, 3], "coeff": 1}]}), encoding="utf-8")
    calls["analyze-sparse-5x7"] = ["analyze", str(sparse), *FLAGS]
    calls["dual-group-2,3"] = ["example", "dual-group", "--orders", "2,3"]
    semisimple = directory / "semisimple.json"
    semisimple.write_text('{"group": [2], "c": [{"exp": [0], "coeff": 1}]}', encoding="utf-8")
    calls["validation-error"] = ["analyze", str(semisimple)]
    batch = directory / "batch"
    batch.mkdir()
    pinned = {instance.name: instance for instance in _pinned_instances()}
    (batch / "a.json").write_text(json.dumps(_document(pinned["order-4-custom"])), encoding="utf-8")
    (batch / "b.json").write_text('{"group": [2], "c": [', encoding="utf-8")
    (batch / "c.json").write_text(json.dumps(_document(pinned["rank2-5x5"])), encoding="utf-8")
    calls["batch"] = ["batch", str(batch), *FLAGS]
    return calls


# id -> (exit code, sha256 of stdout)
DIGESTS = {
    "analyze-klein-trace": (0, "2fcc20ac14a7594ecee81c418bdb0a49314c2ccc2f1a46d825132bae1952b6ca"),
    "analyze-order-12-sparse": (0, "52f9340178f77d83f668b9990c96de280992bfeba6ed10912cef9444bcc20871"),
    "analyze-order-2-double-unit": (0, "9c4f7eec1f0e0db346f65eb995da14878dcc071952ed6a2a019734d1d8492e26"),
    "analyze-order-2-mixed": (0, "3d3c8c18250b3c9da1269908e11caa91ceabb68b84395ddefe9f9f20711921fb"),
    "analyze-order-2-trace": (0, "3d3586789acc089b79c1c84396ea72b9497bc1c6e8664634545cb7a753c4e404"),
    "analyze-order-28-sparse": (0, "247516932c65660b80f159227074cbe4db8803dbb216b915adb7029c71829eb1"),
    "analyze-order-3-trace": (0, "2a77416c181570241e8a0101b39871bfec8e7d620d0c84602a56e360c7ec3dcf"),
    "analyze-order-30-trace": (0, "c9ce448b6fb6576c6c86b23b357c1e5393ad2265488979704c40bdfe8c0ffb2d"),
    "analyze-order-4-custom": (0, "ad154132c3069359b22150c60d97cff9a09c9bf18032ce0c89c847040a50558d"),
    "analyze-rank2-2x15": (0, "7a9a7c8be7bb0684f52af260a11dcf6709d0a0f20f19ab02c62d7d9e833ec62c"),
    "analyze-rank2-4x6": (0, "24f41c8fdf07cdf3a1e9050b13d0f95d0bcf2bc6475b8e7508d82d274d1b5d84"),
    "analyze-rank2-5x5": (0, "5f2e40d1f9fedbbac8736ed9dba413c0cb3cc046058dab3981d2c99781fb26de"),
    "analyze-rank3-2x2x2": (0, "de1521124ed5ff766326255d4cee91a03fe654357e5f990803de61fc7febae3f"),
    "analyze-rank3-2x3x5-trace": (0, "ee235e385a28b4077eea6c0aefcd8add278ff84e9510795343e627de3d7eeb28"),
    "analyze-rank3-3x3x3-trace": (0, "09dd5571c6699cb8c711e8063815393f1c2ebbe5596a5ba9da2e773d0d6f2b43"),
    "analyze-sparse-5x7": (0, "15910df5ddbd7fc65c65d5b454fb19fc1d10a2e99aaea5d30b052a58642155d0"),
    "analyze-trivial-group": (0, "2469bdc6581a0ea320049db2a88568cc9890bcaef5fa365b43ca8846f8291534"),
    "batch": (1, "bedb6cc9b4e1695f85afe46af70762e0174c99b274a86c882f375e2cb51334c1"),
    "dual-group-2,3": (0, "150eda69f9799d88a619a9b7105bf08d4660177b9fe73b5119e500cdfa672d31"),
    "uq-sl2-10": (0, "9acbf2795e52063b19f20c691501d5a847d3ba717c73a792260d897084f73d8b"),
    "uq-sl2-11": (0, "e49986ecbbc42bf6361147b7d2b1c03c38171cd3a12e45e10dc275e81d30df43"),
    "uq-sl2-12": (0, "5481e69ccaec99600f89eacca00b060c602e8dc4fb637506925b427c822a687a"),
    "uq-sl2-2": (0, "6ee4a236c943d004565345676b78535247d7ed564788f9ede52313f16c1c0977"),
    "uq-sl2-3": (0, "5de52cf0328bd86de6c3b4b5058adaa6166b4539109a7fe4b1816b3333b483c2"),
    "uq-sl2-4": (0, "54ba4be235ae63345eca3372fea7c67d45c4252657baa4df8db80b693c1e73c9"),
    "uq-sl2-5": (0, "717b9f3a8f6b0fcbe262fb2a19e49bbce0cb558804ddc9f0137bdec80db977ae"),
    "uq-sl2-6": (0, "af60c00e03a667a5c4b93aa979eca86ac7f442805e85969022e1cda0d3349816"),
    "uq-sl2-7": (0, "41bcd444ba9ddf0ceed78393f32703c1b03124be90bc5dc99344928a6d923a1e"),
    "uq-sl2-8": (0, "d8f95b95564cd3f6700b7eff25b55881422d8c8d674adef5b03a20b34df268d4"),
    "uq-sl2-9": (0, "174a1e4ef3ba3c64c0ac3b9698bef31a437a489a4ad836946a3c04d181102746"),
    "validation-error": (1, "870d3d47f8539ca2ba4d5bff21dd1590b67cb493ec02d6c5f5eddff2dcae9876"),
}


@pytest.fixture(scope="module")
def calls(tmp_path_factory) -> dict[str, list[str]]:
    return invocations(tmp_path_factory.mktemp("inputs"))


def test_every_invocation_is_pinned(tmp_path):
    assert set(invocations(tmp_path)) == set(DIGESTS)


@pytest.mark.parametrize("call_id", sorted(DIGESTS))
def test_stdout_digest(call_id, calls, capsys):
    code = cli.main(calls[call_id])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[call_id]
