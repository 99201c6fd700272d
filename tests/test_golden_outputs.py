"""Pinned SHA-256 digests of whole run directories.

Each case runs one experiment, writes its run directory and compares every
file's digest with the value recorded when the case was added. A change that
is meant to leave outputs alone (a refactor, a speed-up, a deletion) must keep
every digest; a mismatch names the file that moved.

The pinned values depend on numpy's PCG64 bit stream (``default_rng``) and on
its ``uniform``/``normal`` transforms. A numpy release that changes either
changes the digests without any change here.
"""

import hashlib

import pytest

from adkra.harness import ExperimentConfig, emit_report, run_experiment
from adkra.world import NoiseModel

CASES = {
    "distance-seed7": dict(kind="distance", episodes=100, seed=7),
    "angle-seed7": dict(kind="angle", episodes=100, seed=7),
    "collective-seed7": dict(kind="collective", episodes=100, seed=7),
    "group-seed7": dict(kind="group", episodes=100, seed=7),
    "group-seed3-noisy-preseeded": dict(
        kind="group", episodes=100, seed=3, noise=NoiseModel(1.0, 2.0), preseed_td=300
    ),
}

GOLDEN = {
    "distance-seed7": {
        "episodes.csv": "3f8a808c4796cd9f218d87b93682e71674fa6fadabc6f5e6330973f6f677db3f",
        "failure_curve.csv": "7e827cae16d70995574c4efdd4a979c6f3c202a40553fb1029f345d409b9accf",
        "kb_final.csv": "2974d31b383e9af2999bfea62650b075151af6d1c8d87d9765d5546d8e8c4bf4",
        "metrics.txt": "c0bb72e92656e058f9b942004bc4a54c8184555e92f96e704cc1fcca04bd2483",
        "scenarios.csv": "d2605c2118e18af176fb105a1411ffa2703364522355fd97c3bcf35d4b1cbcff",
        "training_data.csv": "0cd843e53f63fc79fdfd0568b35bf01b5e65bf91a0090e1aa3efedebac163597",
    },
    "angle-seed7": {
        "episodes.csv": "4ad94cb41e7ad22e619a31f00603bcec3be6030ee4774250fc1f8c43a03d03b4",
        "failure_curve.csv": "ce4f192f235742dcb7b97b581896faab85618292b10df920df11f948862c0432",
        "kb_final.csv": "056f99bec4944f9bd8f738b15369894bb02b7c24c1d855f89d703c54cb573f41",
        "metrics.txt": "2bd4f3678397a0024e1c9b59dc653633fb3fd247bb93a17f6bbc10d78e62fe95",
        "scenarios.csv": "cf659a221cad668b87a768803446c61ab84d8aa84f52d806293611367e0abd02",
        "training_data.csv": "07268ee54068867a36e9e6f4a943c122a12602f79b5e560a349dc888c50bd27f",
    },
    "collective-seed7": {
        "episodes.csv": "483528118bb892f0b17921ed63efce8ee9b9d3609fade627d46079e0de04d194",
        "failure_curve.csv": "e1a8550bba81937e038651a87b41849f426283ac565588d5a0cdece5463e91cd",
        "kb_final.csv": "020cd7c547c2e5c4e1a44c15a85d7f37fc7255bffc113ccf386545c2053a3a38",
        "metrics.txt": "df19f3c050fae7890bd87fe7b47aa969e745e30c75254c8a1fecee6fa66fa424",
        "scenarios.csv": "d609eb51c1010566f1547fccd58adc8dddd6c8297b81670798c33bd4259e5e6d",
        "training_data.csv": "8b3a8c2eb8c1b1ccf5df45fe8d355bae88e8f2b231ed681ed2ed6720500561d1",
    },
    "group-seed7": {
        "episodes.csv": "b6c33788d884fdf2b21fdb678b4590cc8719ee0b90cd790cf8746f3526f45bd2",
        "failure_curve.csv": "1dc90eeb094dcae61556304deaf66ce2bee3d8f857fa1ef6f8377f9f6328845b",
        "kb_final.csv": "69570d1d94913320aceb69d62636a8a38ca5daeaeabaa1e59aa2c4a4ad3df96d",
        "metrics.txt": "6d139b82434f555f459ea49b0b0b7418feb6df5ed524f81844cc0b8d046d25ad",
        "scenarios.csv": "64fec33d99d0e9f62e7bd2ef301e459e3c07afb36b70bfddcd5351a21babd5a8",
        "training_data.csv": "f7d6629b9167744d8f74cbeb4311c706c3a4b6343f7eed9646beb66c0ddb79b8",
    },
    "group-seed3-noisy-preseeded": {
        "episodes.csv": "867cec09d0912022c564d2ff3ba33664b08be51469c378e52b1dae90d0a1746b",
        "failure_curve.csv": "75bf56b621003a6967a0b31ae7c891f85e7545797936f56cf6d9e52f937d1668",
        "kb_final.csv": "fa219379601a9c01fb458b5fa128d1ec7d32b49efbf50d42e3e7a3548ab568f0",
        "metrics.txt": "a2acff1a5e8f0eed6213c74f16afe9a455f8e893f7a9740dc4a3e0b59f25978d",
        "scenarios.csv": "2eb235e1d42f57c3d1f298d8924a0b138566b599ad659f8e49e86c650f1330a3",
        "training_data.csv": "bfeeaedf8fb8831438c213f2873a594e844bab2820ac70b9049e7edc1921228b",
    },
}


@pytest.mark.parametrize("case", CASES)
def test_run_directory_matches_pinned_digests(case, tmp_path):
    emit_report(run_experiment(ExperimentConfig(**CASES[case])), str(tmp_path))
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert sorted(got) == sorted(GOLDEN[case]), f"{case}: run directory holds {sorted(got)}"
    moved = [name for name, digest in GOLDEN[case].items() if got[name] != digest]
    assert not moved, f"{case}: output changed in {', '.join(moved)}"
