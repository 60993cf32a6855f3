"""`domw solve` and `domw matrix` output pinned byte for byte on seeded instances.

Each family's digest is the SHA-256 of the concatenated standard output of
`domw solve` on its 50 instances, seeds 0..49.  The star and the path select
all 1,000 of their host edges with LCG weights 1..5: the two extreme shapes
of a tree-edge component, one vertex of degree 1,000 and about 333 peeling
layers.  A change that keeps every certificate and report unchanged keeps
these digests; a change that alters any output byte, even to another valid
certificate, must say why and pin the new digest.
"""

import hashlib

import pytest

from domw import (
    LCG,
    HostTree,
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


def _all_selected(edges: list[tuple[int, int]], seed: int) -> InstanceFile:
    rng = LCG(seed)
    subset = tuple((u, v, rng.randint(1, 5)) for u, v in edges)
    return InstanceFile("tree-edges", TreeEdgesInstance(HostTree(len(edges) + 1, tuple(edges)), subset))


def star(seed: int) -> InstanceFile:
    return _all_selected([(0, i) for i in range(1, 1001)], seed)


def path(seed: int) -> InstanceFile:
    return _all_selected([(i, i + 1) for i in range(1000)], seed)


def split(seed: int) -> InstanceFile:
    return InstanceFile("split", gen_split(seed, 9, 40, 30, 5))


@pytest.mark.parametrize(
    "make, expected",
    [
        (short_intervals, "ce55c00f90c90835ed985ef77792b4f4c903cdd542a87ae2b772a96c2bb7ac0f"),
        (dense_intervals, "a02e5ea31f9f4510bd5fa5e38993cb607dc55b10ef052af37e98e82eb4f71385"),
        (tree_edges, "c1c646349787cb1d16964997bdabd6c02fa266ed2eba26ebd8662434ccddcbb7"),
        (star, "ce870a944af37d817f7873d5f7eeeda72a375a9ec832adea701313fc49064998"),
        (path, "8ab6ead563c8a9cfb059f5c26ad50889c21b0b3d143f5ae73df9cc713c45f316"),
        (split, "93011a26248bb841292d4a6f7d6b7c2b8f2a2f8bc8ea91d383833a3c6b54ba79"),
    ],
    ids=["short-intervals", "dense-intervals", "tree-edges", "star", "path", "split"],
)
def test_solve_output_is_unchanged(make, expected, tmp_path, capsys):
    digest = hashlib.sha256()
    path = tmp_path / "instance.txt"
    for seed in range(50):
        path.write_text(write_instance(make(seed)))
        assert run(["solve", str(path)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == expected


def _generated(kind: str) -> list[list[str]]:
    """`domw gen` of one kind at seeds 0..19, each size drawn from the seed."""
    sizes = {
        "interval": lambda s: ["--n", str(1 + s % 10)],
        "tree-edges": lambda s: ["--n-edges", str(1 + s % 10)],
        "split": lambda s: ["--n-a", str(1 + s % 4), "--n-b", str(1 + s % 6)],
        "subtree-intersection": lambda s: ["--n-tree", str(1 + s % 8), "--n-subtrees", str(1 + s % 9)],
    }[kind]
    return [["gen", kind, "--seed", str(s), *sizes(s)] for s in range(20)]


_EXAMPLES = [["example", name] for name in ("forked-star", "split-triangle", "non-tu-intervals", "non-tu-star")]


@pytest.mark.parametrize(
    "sources, expected",
    [
        (_EXAMPLES, "a58953377d7a81c63ebe18dfaa8113d9a453e5a7f6750b1d9ca6f0d020a7ebf3"),
        (_generated("interval"), "b698be370352f36008ba4feae30fcf7aa1a3ae20d4fc5ed6cd1ca7b7bb55f0be"),
        (_generated("tree-edges"), "4cb791d566c79a519aa45f6ccefcf2eac1b31363ed6ad258ff902f5c81ed7c7d"),
        (_generated("split"), "56a711c2874f2f623b6f0f63dbf89f83869be5fe6508239849c0431dac657bd7"),
        (_generated("subtree-intersection"), "05fe776351fd2ed9ffe8f9c745a6428aa3ef8d4c9a96b85836193c05bb743912"),
    ],
    ids=["examples", "interval", "tree-edges", "split", "subtree-intersection"],
)
def test_matrix_output_is_unchanged(sources, expected, tmp_path, capsys):
    """The SHA-256 of `domw matrix FILE --det --c1p` over the four examples,
    and over 20 generated files of each kind: every explicit graph the
    command builds, its rows in the command's order, its determinant and its
    consecutive-ones flag."""
    digest = hashlib.sha256()
    path = tmp_path / "instance.txt"
    for argv in sources:
        assert run(argv) == 0
        path.write_text(capsys.readouterr().out)
        assert run(["matrix", str(path), "--det", "--c1p"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == expected
