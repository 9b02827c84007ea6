import struct

import numpy as np
import pytest

from winosim import cli
from winosim.bcoo import bcoo_from_bytes
from winosim.engine import direct_conv, load_tensor, save_tensor
from winosim.model import format_network_config, vgg16_spec


def run_cli(args):
    return cli.main(args)


def test_verify_default_passes(capsys):
    assert run_cli(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "[FAIL]" not in out


def test_verify_extra_shape_single_tile(capsys):
    assert run_cli(["verify", "--shape", "1x2x2"]) == 0


def test_verify_detects_injected_corruption(capsys):
    assert run_cli(["verify", "--inject-corruption"]) != 0
    assert "[FAIL]" in capsys.readouterr().out


def test_convolve_writes_tensor_and_counters(tmp_path, capsys):
    out = tmp_path / "y.tensor"
    assert run_cli(["convolve", "--mode", "dense", "--shape", "2x6x6", "--k", "3",
                    "--seed", "5", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "multiplies=" in stdout
    y = load_tensor(out)
    assert y.shape == (3, 6, 6)
    # direct mode on the same seed produces the same tensor (mode equivalence)
    out2 = tmp_path / "y2.tensor"
    run_cli(["convolve", "--mode", "direct", "--shape", "2x6x6", "--k", "3",
             "--seed", "5", "--out", str(out2)])
    assert np.max(np.abs(load_tensor(out2) - y)) <= 1e-10


def test_convolve_reads_supplied_tensors(tmp_path):
    rng = np.random.default_rng(0)
    fm = rng.uniform(-1, 1, (2, 5, 5))
    flt = rng.uniform(-1, 1, (4, 2, 3, 3))
    fm_p, flt_p, out_p = (tmp_path / n for n in ("x.tensor", "w.tensor", "y.tensor"))
    save_tensor(fm_p, fm)
    save_tensor(flt_p, flt)
    assert run_cli(["convolve", "--mode", "direct", "--input", str(fm_p),
                    "--filters", str(flt_p), "--out", str(out_p)]) == 0
    assert np.array_equal(load_tensor(out_p), direct_conv(fm, flt, pad=1))


def test_compress_container_layout(tmp_path, capsys):
    out = tmp_path / "w.bcoo"
    assert run_cli(["compress", "--k", "4", "--c", "4", "--sparsity", "0.75",
                    "--seed", "1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "achieved sparsity" in stdout
    blob = out.read_bytes()
    l, count = struct.unpack_from("<2q", blob, 0)
    assert (l, count) == (4, 16)
    pos = 16
    mats = []
    for _ in range(count):
        mat, pos = bcoo_from_bytes(blob, pos)
        mats.append(mat)
    assert pos == len(blob)
    total = sum(m.rows * m.cols for m in mats)
    nnz = sum(m.nnz for m in mats)
    assert 1.0 - nnz / total >= 0.75


def test_simulate_csv(tmp_path):
    spec = tmp_path / "net.cfg"
    spec.write_text("conv a 8 8 4 4 3 1\nconv b 8 8 4 4 3 1\n")
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "layer,m,sparsity,cycles,ext_fetches,local_fetches,block_matmuls,bw_reduction"
    assert len(lines) == 3
    assert lines[1].startswith("a,2,")


@pytest.mark.parametrize("m", [2, 3])
def test_simulate_takes_each_layers_filter_width(tmp_path, m):
    # a 3x3 and a 5x5 layer in one spec: simulate prices each with its own F(m, r), as dse does
    spec = tmp_path / "net.cfg"
    spec.write_text("conv a 8 8 4 4 3 1\nconv b 8 8 4 4 5 2\n")
    sim_csv, dse_csv = tmp_path / "sim.csv", tmp_path / "dse.csv"
    assert run_cli(["simulate", "--spec", str(spec), "--m", str(m), "--out", str(sim_csv)]) == 0
    assert run_cli(["dse", "--spec", str(spec), "--m-values", str(m), "--out", str(dse_csv)]) == 0
    sim_rows = [line.split(",") for line in sim_csv.read_text().splitlines()]
    dse_rows = [line.split(",") for line in dse_csv.read_text().splitlines()]
    assert len(sim_rows) == len(dse_rows) == 3
    # dse's key columns, then its simulator columns, are simulate's columns
    assert [row[:3] + row[-5:] for row in dse_rows] == sim_rows


def test_simulate_has_no_r_flag():
    # r comes from each layer of the spec
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["simulate", "--r", "5"])


def test_dse_byte_identical_reruns(tmp_path):
    spec = tmp_path / "net.cfg"
    spec.write_text(format_network_config(vgg16_spec()))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["dse", "--spec", str(spec), "--scale", "16", "--m-values", "2",
            "--sparsities", "0,0.6,0.9", "--seed", "11"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == 1 + 18 * 3  # header + layers x sparsities


def test_dse_empty_spec_header_only(tmp_path):
    spec = tmp_path / "net.cfg"
    spec.write_text("# empty\n")
    out = tmp_path / "e.csv"
    assert run_cli(["dse", "--spec", str(spec), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "layer,m,sparsity,d_wi,d_wo,d_wk,m_w,s_w,s_b,s_a,e_tot,"
        "weight_dilation,fm_dilation,cycles,ext_fetches,local_fetches,"
        "block_matmuls,bw_reduction"
    ]


def test_dse_m_sweep(tmp_path):
    spec = tmp_path / "net.cfg"
    spec.write_text("conv a 8 8 4 4 3 1\n")
    out = tmp_path / "m.csv"
    assert run_cli(["dse", "--spec", str(spec), "--m-values", "2,4", "--no-sim",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "2"
    assert lines[2].split(",")[1] == "4"


@pytest.mark.parametrize("command", ["simulate", "dse"])
@pytest.mark.parametrize("layer", ["conv a 1 1 2 2 3 0", "conv a 8 8 2 2 3 -1"])
def test_unpriceable_layer_rejected_with_line_number(tmp_path, capsys, command, layer):
    spec = tmp_path / "net.cfg"
    spec.write_text("conv ok 8 8 2 2 3 1\n" + layer + "\n")
    out = tmp_path / "o.csv"
    assert run_cli([command, "--spec", str(spec), "--out", str(out)]) == 1
    assert "network config line 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["compress", "--k", "0"],
        ["compress", "--c", "0"],
        ["convolve", "--mode", "dense", "--k", "0"],
        ["convolve", "--mode", "sparse", "--k", "0"],
    ],
)
def test_empty_filter_bank_rejected(tmp_path, capsys, args):
    out = tmp_path / "o"
    assert run_cli(args + ["--out", str(out)]) == 1
    assert "filter bank" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["dense", "sparse"])
def test_convolve_rejects_non_finite_input(tmp_path, capsys, mode):
    fm = np.random.default_rng(1).uniform(-1, 1, (2, 6, 6))
    fm[0, 3, 3] = np.nan
    fm_p, out = tmp_path / "x.tensor", tmp_path / "y.tensor"
    save_tensor(fm_p, fm)
    assert run_cli(["convolve", "--mode", mode, "--input", str(fm_p), "--out", str(out)]) == 1
    assert "error: Winograd transform operand holds non-finite values" in capsys.readouterr().err
    assert not out.exists()


def test_direct_convolve_rejects_non_finite_input(tmp_path, capsys):
    fm = np.random.default_rng(1).uniform(-1, 1, (2, 6, 6))
    fm[0, 3, 3] = np.nan
    fm_p, out = tmp_path / "x.tensor", tmp_path / "y.tensor"
    save_tensor(fm_p, fm)
    assert run_cli(["convolve", "--mode", "direct", "--input", str(fm_p), "--out", str(out)]) == 1
    assert "error: convolution operand holds non-finite values" in capsys.readouterr().err
    assert not out.exists()


def test_direct_convolve_rejects_empty_filter_bank(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(["convolve", "--mode", "direct", "--k", "0", "--out", str(out)]) == 1
    assert "filter bank" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--m", "--r"])
def test_dse_has_no_plan_flags(flag):
    # dse takes m from --m-values and r from each layer; `--m` is no prefix of `--m-values`
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["dse", flag, "4"])


@pytest.mark.parametrize("argv", [
    ["--he", "verify"],
    ["verify", "--inject"],
    ["convolve", "--mo", "direct"],
    ["compress", "--spars", "0.5"],
    ["simulate", "--spars", "0.9"],
    ["dse", "--sparsit", "0.5"],
])
def test_no_parser_accepts_an_abbreviated_flag(argv, capsys):
    # a flag added later that shares a prefix must not change what an old command line means
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_shape_rejected():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["verify", "--shape", "banana"])
