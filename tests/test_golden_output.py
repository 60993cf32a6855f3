"""`domw solve` output pinned byte for byte on seeded instances.

Each family's digest is the SHA-256 of the concatenated standard output of
`domw solve` on its 50 instances, seeds 0..49.  A change that keeps every
certificate and report unchanged keeps these digests; a change that alters
any output byte, even to another valid certificate, must say why and pin
the new digest.
"""

import hashlib

import pytest

from domw import (
    LCG,
    InstanceFile,
    IntervalFamily,
    TreeEdgesInstance,
    gen_interval,
    gen_split,
    gen_tree,
    write_instance,
)
from domw.cli import run


def short_intervals(seed: int) -> InstanceFile:
    # 150 intervals of length 0..6 on 1..300: per interval, left, then
    # length, then weight, all drawn from one LCG
    rng = LCG(seed)
    triples = []
    for _ in range(150):
        left = rng.randint(1, 300)
        triples.append((left, left + rng.randint(0, 6), rng.randint(1, 5)))
    return InstanceFile("interval", IntervalFamily.of(triples))


def dense_intervals(seed: int) -> InstanceFile:
    return InstanceFile("interval", gen_interval(seed, 150, 600, 5))


def tree_edges(seed: int) -> InstanceFile:
    return InstanceFile("tree-edges", TreeEdgesInstance(*gen_tree(seed, 250, 5)))


def split(seed: int) -> InstanceFile:
    return InstanceFile("split", gen_split(seed, 9, 40, 30, 5))


@pytest.mark.parametrize(
    "make, expected",
    [
        (short_intervals, "ce55c00f90c90835ed985ef77792b4f4c903cdd542a87ae2b772a96c2bb7ac0f"),
        (dense_intervals, "a02e5ea31f9f4510bd5fa5e38993cb607dc55b10ef052af37e98e82eb4f71385"),
        (tree_edges, "c1c646349787cb1d16964997bdabd6c02fa266ed2eba26ebd8662434ccddcbb7"),
        (split, "93011a26248bb841292d4a6f7d6b7c2b8f2a2f8bc8ea91d383833a3c6b54ba79"),
    ],
    ids=["short-intervals", "dense-intervals", "tree-edges", "split"],
)
def test_solve_output_is_unchanged(make, expected, tmp_path, capsys):
    digest = hashlib.sha256()
    path = tmp_path / "instance.txt"
    for seed in range(50):
        path.write_text(write_instance(make(seed)))
        assert run(["solve", str(path)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == expected
