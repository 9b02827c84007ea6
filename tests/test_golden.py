"""Byte-identity guard: pinned digests of CLI outputs and BCOO containers.

Refactors and speed-ups of the simulator, the analytical model, the
block codec or the convolution paths must leave these outputs byte for
byte unchanged.  The `convolve` digests pin the dense and sparse Winograd
numerics: the tile transforms, the batched GEMM and the inverse transform.
Floating-point sums depend on evaluation order, and numpy's einsum and
matmul order their sums by the operands' memory layout, so a change of
memory order alone can move these digests.  A digest changes only in a
change that declares itself a model or format change.
"""

import hashlib

import numpy as np
import pytest

from winosim import cli
from winosim.bcoo import bcoo_to_bytes
from winosim.engine import compress_filters
from winosim.plans import make_plan


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["simulate", "--spec", "vgg16", "--scale", "8"],
            "99b683d502dec9cea9715ccaf110f9d4c2c29f333d434f10047b81fdcbbfca55",
        ),
        (
            ["simulate", "--spec", "vgg16", "--scale", "8", "--sparsity", "0.9"],
            "7080facf924d0a3ff385d3906ddec2d65a37cac034e45bf448102611ba01dd7d",
        ),
        (
            ["dse", "--spec", "vgg16", "--scale", "8", "--m-values", "2,4",
             "--sparsities", "0,0.6,0.9"],
            "e7651866ce520b04bb3fd78787d2e28c1ccbafece4144717ba4fd48219866943",
        ),
        (
            ["simulate", "--spec", "vgg16", "--scale", "8", "--fifo-depth", "1"],
            "9543d6a0c5c43f0489a1ee61a3e64c8cf451b04066c861f14583255670663d05",
        ),
        (
            ["simulate", "--spec", "vgg16", "--scale", "8", "--fifo-depth", "1",
             "--sparsity", "0.6"],
            "7dd417f9557d2dc704fa46122cfabbdeee6761d2656666dec577ef947f9ce1ba",
        ),
        (
            ["simulate", "--spec", "vgg16", "--scale", "8", "--fifo-depth", "3",
             "--clusters", "3", "--sparsity", "0.9"],
            "77bcf64d21e8690c74132d03a05c7615fe04e8cfd3100099e6f2a27df4062e5d",
        ),
        (
            ["dse", "--spec", "vgg16", "--scale", "8", "--m-values", "3",
             "--sparsities", "0,0.5", "--fifo-depth", "2", "--transform-arrays", "5"],
            "dd8374d547c4444e95b0d50a425dc371160e4ef548e956d96ea89f5d6abb6b55",
        ),
        (
            ["dse", "--spec", "vgg16", "--scale", "8", "--m-values", "2,4",
             "--sparsities", "0,0.6,0.9", "--corrected-transform-adds"],
            "6b24bb9d0cc0bf53a8b3327b8ae436daee70f0a6f2fd99083b6c62fffe25a334",
        ),
        (
            ["dse", "--spec", "vgg16", "--scale", "8", "--m-values", "2,3,4",
             "--sparsities", "0,0.5,1", "--no-sim"],
            "f2dc78a5a57749747a190aad70dbeaf788507aa5adfd2de5a0739769e5b2313f",
        ),
        (
            ["dse", "--spec", "vgg16", "--scale", "8", "--m-values", "2,3",
             "--sparsities", "0.3,0.9", "--seed", "7", "--clusters", "3"],
            "b969dfd586fc3e4f4c1ecdb85d5d84ab981d960df9ca16f1cd8b297a32830f06",
        ),
        (
            ["compress", "--k", "64", "--c", "64", "--sparsity", "0.9"],
            "bf79aef6c3b19e6c6f45c1dad0704a44116f314c263fce2abef92cbe0013509e",
        ),
        (
            ["convolve", "--mode", "sparse", "--sparsity", "0.9"],
            "2a8b354731575e9fb6f18b3ea6f0e3f548651a9633f81b4b7664b5a2f686df66",
        ),
        (
            ["convolve", "--mode", "sparse", "--sparsity", "0.9", "--shape", "64x16x16", "--k", "64"],
            "0abc9fbc7e5a8a3f3f4c0f1775fb005a9d4426aaf8b9966bf2d12512a5f46dff",
        ),
        (
            ["convolve", "--mode", "dense", "--m", "2"],
            "2484b013b334e456ecd6ece2be19ca9c4fa750a3f08111fe75a62bc52f20bed9",
        ),
        (
            ["convolve", "--mode", "dense", "--m", "4", "--shape", "8x18x18", "--k", "8"],
            "6c191a983c84672d3a7385426359d40da21c22eb2f71b97db6291f6ec445396d",
        ),
        (
            ["convolve", "--mode", "sparse", "--m", "4", "--sparsity", "0.7", "--shape", "8x18x18",
             "--k", "8"],
            "80db20865dbf6272c2054e0b063e55c4990ebd346daacebfbea26dbc314aedf1",
        ),
    ],
    ids=["simulate-dense", "simulate-sparse", "dse", "simulate-fifo1", "simulate-fifo1-sparse",
         "simulate-fifo3-clusters3-sparse", "dse-m3-fifo2", "dse-corrected-adds", "dse-no-sim",
         "dse-seed7-clusters3", "compress-k64-c64-sparse", "convolve-sparse",
         "convolve-sparse-64x16x16-k64", "convolve-dense-m2", "convolve-dense-m4-8x18x18-k8",
         "convolve-sparse-m4-8x18x18-k8"],
)
def test_cli_csv_digest(tmp_path, argv, digest):
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == digest


def _container_ids(cases):
    """Test ids of (K, C, m, sparsity, digest) cases, which leave out the digest a re-pin changes."""
    return [f"K{K}-C{C}-m{m}-s{sparsity}" for K, C, m, sparsity, _ in cases]


_SMALL_CONTAINERS = [
    (6, 5, m, sparsity, digest)
    for m, sparsity, digest in [
        (2, 0.0, "d124376af67f850e421fdf6c0ba788ba28f21c30f1c2af6792a515221f69b46e"),
        (2, 0.5, "8c91f4edf172fe5b5aa6ab94cb4bd98bc0c5c8c0298a46a1bf2d94327d3051d8"),
        (2, 0.9, "92c43e0e4dead1fb4ad36b1d9904757ee97a6f0cd310618f0db834ba063ba826"),
        (2, 1.0, "2875de084dd2bbd0d2e8a088523cf00cf2eb3a518469ed3fcbd99cb2849d770c"),
        (4, 0.0, "60d7815e0a5f0848390f7a483a30bc170ad6b947fdb420263b83a9c44e4693db"),
        (4, 0.5, "1b972e0fc7bf013946ef0043a7544248829f67a9a224b8d017c1d0d7acdef5a4"),
        (4, 0.9, "93526b97afbf5f8b661f4fd2c6e77e199d15affa04cf08bfd447c7d74e5e3a26"),
        (4, 1.0, "0f32a5a83b31e93294138682e5e0438e35db749d8477aef94bffe4794e8e63e4"),
    ]
]


@pytest.mark.parametrize(
    "K, C, m, sparsity, digest", _SMALL_CONTAINERS, ids=_container_ids(_SMALL_CONTAINERS)
)
def test_bcoo_container_digest(K, C, m, sparsity, digest):
    _check_container_digest(K, C, m, sparsity, digest)


_GRID_SHAPE_CONTAINERS = [
    # 12 = 2 * 6: the l = 6 block grid is 2x2 and needs no padding
    (12, 12, 4, 0.0, "5cadb07369b88a2e614a844dd68c10b59392af87c1034fe2c81f6b531447ed18"),
    (12, 12, 4, 0.9, "923da4c9d65b8452f1d81120c9c30a16f452182bf98c8b52ac1dee87b00e5184"),
    # a 10x6 grid of l = 4 blocks, padded to 16x8
    (37, 21, 2, 0.0, "510a48da1140e356fc66640d84f126364cf6d64235b14b523197a49624d5bda0"),
    (37, 21, 2, 0.9, "6f0e88e3a9562908df1c310086d25f2de53f3548ddc1cb7ee5f1389ad9915c02"),
]


@pytest.mark.parametrize(
    "K, C, m, sparsity, digest", _GRID_SHAPE_CONTAINERS, ids=_container_ids(_GRID_SHAPE_CONTAINERS)
)
def test_bcoo_container_digest_of_grid_shape(K, C, m, sparsity, digest):
    _check_container_digest(K, C, m, sparsity, digest)


def _check_container_digest(K, C, m, sparsity, digest):
    flt = np.random.default_rng(0).uniform(-1, 1, (K, C, 3, 3))
    _, encoded, _ = compress_filters(flt, make_plan(m, 3), sparsity)
    assert _sha256(b"".join(bcoo_to_bytes(e) for e in encoded)) == digest
