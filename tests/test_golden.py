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
            "760658a0472783ce32b7a0fc5da90fbae296a255b0bdfedc732132e7792447b4",
        ),
        (
            ["convolve", "--mode", "sparse", "--sparsity", "0.9"],
            "9189601e6602896afc6736f5a4ae42783d6e4228c9b4af19cf21c0336571de0a",
        ),
        (
            ["convolve", "--mode", "sparse", "--sparsity", "0.9", "--shape", "64x16x16", "--k", "64"],
            "d27bc394dfca9f42d17f5b1d0919cad7bba6e8e6bcaf45c2158113a5a36c0575",
        ),
        (
            ["convolve", "--mode", "dense", "--m", "2"],
            "d68b619a57b92cdba246727db3539bc7da39b404f0264f444e9976c9dedc030d",
        ),
        (
            ["convolve", "--mode", "dense", "--m", "4", "--shape", "8x18x18", "--k", "8"],
            "30c09174b1f9d700002b2f414a7cc73487c84edff65f6da813b448b62c23f753",
        ),
        (
            ["convolve", "--mode", "sparse", "--m", "4", "--sparsity", "0.7", "--shape", "8x18x18",
             "--k", "8"],
            "97dbb29e1f65f4abcf8371f1ec98d5dc18f0706152c6b5356795b4e062c8fcc9",
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


@pytest.mark.parametrize(
    "m, sparsity, digest",
    [
        (2, 0.0, "0e353192629fed4bbcd9b5aa9591b318654f9149f4738e6884f54579316153b3"),
        (2, 0.5, "0c18d46e222f7fc9b443f7523eb53f0ac031b5302dc89ab16506a14848d52374"),
        (2, 0.9, "f5464c2741e575e8e2449cbfb0e0ddba0aa58adbf8c76c30576b5db49a07d72a"),
        (2, 1.0, "2875de084dd2bbd0d2e8a088523cf00cf2eb3a518469ed3fcbd99cb2849d770c"),
        (4, 0.0, "87da3d533ab819354aaa1d5c7dca832ca5fce06b53070a67e4c30af8671d6d7f"),
        (4, 0.5, "169b5c123199f58bf841e82a035004bf43beaef9e61fa1b204052b5bcdf235dd"),
        (4, 0.9, "0d16482436f862f8a39b4f6213682396a506854453e81b4d787d50d0fa94f968"),
        (4, 1.0, "0f32a5a83b31e93294138682e5e0438e35db749d8477aef94bffe4794e8e63e4"),
    ],
)
def test_bcoo_container_digest(m, sparsity, digest):
    _check_container_digest(6, 5, m, sparsity, digest)


@pytest.mark.parametrize(
    "K, C, m, sparsity, digest",
    [
        # 12 = 2 * 6: the l = 6 block grid is 2x2 and needs no padding
        (12, 12, 4, 0.0, "c50f9fe54497a9e13727483d3b93bae8203d001aae378daaf087208500aee450"),
        (12, 12, 4, 0.9, "9fb5e686325e2815b08c91a28ee084d83c4e4109cbb34136f15a8dd19553aca4"),
        # a 10x6 grid of l = 4 blocks, padded to 16x8
        (37, 21, 2, 0.0, "40cc22f3f5b929a32d8848ea36cf341ce7a441bd741b1cb7205b0d028c03559b"),
        (37, 21, 2, 0.9, "eb7ada186a80b7d7c71fcfa20ce46be2e9a375d53e7c9d50bb892d751a9e4205"),
    ],
)
def test_bcoo_container_digest_of_grid_shape(K, C, m, sparsity, digest):
    _check_container_digest(K, C, m, sparsity, digest)


def _check_container_digest(K, C, m, sparsity, digest):
    flt = np.random.default_rng(0).uniform(-1, 1, (K, C, 3, 3))
    _, encoded, _ = compress_filters(flt, make_plan(m, 3), sparsity)
    assert _sha256(b"".join(bcoo_to_bytes(e) for e in encoded)) == digest
